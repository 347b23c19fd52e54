"""Symbolic encoding: circuits to BDD next-state functions.

Produces an :class:`EncodedCircuit` with

* one *present-state* BDD variable per latch (the latch name),
* one *next-state* variable per latch (suffix ``'``, interleaved with
  its present-state partner — the standard order for transition
  relations),
* one variable per primary input (placed before the state variables by
  default, since inputs are quantified out first in image computation),
* the next-state function delta_j(x, w) of every latch and each primary
  output function as BDDs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bdd.function import Function
from ..bdd.manager import Manager
from .circuit import Circuit, Net


@dataclass
class EncodedCircuit:
    """BDD view of a sequential circuit."""

    circuit: Circuit
    manager: Manager
    #: present-state variable names, in latch order
    state_vars: list[str]
    #: next-state variable names, parallel to state_vars
    next_vars: list[str]
    #: primary-input variable names
    input_vars: list[str]
    #: next-state functions delta_j(x, w), parallel to state_vars
    next_functions: list[Function]
    #: primary output functions by name
    output_functions: dict[str, Function] = field(default_factory=dict)

    @property
    def next_of(self) -> dict[str, str]:
        """Map present-state variable -> next-state variable."""
        return dict(zip(self.state_vars, self.next_vars))

    def initial_states(self) -> Function:
        """Characteristic function of the single reset state."""
        assignment = {latch.name: latch.init
                      for latch in self.circuit.latches}
        return self.manager.cube(assignment)


def next_var_name(state_var: str) -> str:
    """Naming convention for next-state variables."""
    return state_var + "'"


def encode(circuit: Circuit, manager: Manager | None = None,
           inputs_first: bool = True,
           backend: str | None = None) -> EncodedCircuit:
    """Build BDDs for a circuit's next-state and output functions.

    The variable order is: primary inputs (if ``inputs_first``), then
    interleaved (present, next) pairs in latch order.  Declaring next
    variables adjacent to their partners keeps the y -> x renaming and
    the transition-relation BDDs small.

    ``backend`` names the node store of a freshly created manager
    (ignored when ``manager`` is passed); see :mod:`repro.bdd.backend`.
    """
    if manager is None:
        manager = Manager(backend=backend)
    input_vars = list(circuit.inputs)
    state_vars = [latch.name for latch in circuit.latches]
    next_vars = [next_var_name(name) for name in state_vars]
    if inputs_first:
        for name in input_vars:
            manager.add_var(name)
    for present, nxt in zip(state_vars, next_vars):
        manager.add_var(present)
        manager.add_var(nxt)
    if not inputs_first:
        for name in input_vars:
            manager.add_var(name)

    cache: dict[Net, Function] = {}

    def done(net: Net) -> Function | None:
        """The net's BDD if already derivable, else None."""
        if net.op == "const0":
            return manager.false
        if net.op == "const1":
            return manager.true
        if net.op == "var":
            return manager.var(net.name)
        return cache.get(net)

    def build(root: Net) -> Function:
        # Two-phase explicit stack over the (acyclic, hash-consed) net
        # DAG: expand until every argument is cached, then combine.
        stack: list[tuple[Net, bool]] = [(root, False)]
        while stack:
            net, expanded = stack.pop()
            if not expanded:
                if done(net) is not None:
                    continue
                stack.append((net, True))
                stack.extend((arg, False) for arg in net.args)
            else:
                values = [done(arg) for arg in net.args]
                if net.op == "not":
                    cache[net] = ~values[0]
                elif net.op == "and":
                    cache[net] = values[0] & values[1]
                elif net.op == "or":
                    cache[net] = values[0] | values[1]
                else:  # xor
                    cache[net] = values[0] ^ values[1]
        function = done(root)
        assert function is not None
        return function

    next_functions = [build(latch.next_state)
                      for latch in circuit.latches]
    output_functions = {name: build(net)
                        for name, net in circuit.outputs.items()}
    return EncodedCircuit(circuit=circuit, manager=manager,
                          state_vars=state_vars, next_vars=next_vars,
                          input_vars=input_vars,
                          next_functions=next_functions,
                          output_functions=output_functions)
