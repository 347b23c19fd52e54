"""BLIF reader/writer for sequential circuits.

Supports the subset of Berkeley Logic Interchange Format that the
ISCAS-style benchmarks use: ``.model``, ``.inputs``, ``.outputs``,
``.latch <in> <out> [<type> <ctrl>] [init]``, and single-output
``.names`` tables with 1/0/- cube rows.  ``.names`` covers are read as
sums of cubes (output value 1 rows) or complemented products (output
value 0 rows).  Every signal has one driver: an input, a latch or one
``.names`` table.
"""

from __future__ import annotations

import io
from collections.abc import Iterable

from .circuit import Circuit, CircuitBuilder, Net


class BlifError(ValueError):
    """Raised on malformed BLIF input."""


def _logical_lines(text: str) -> Iterable[list[str]]:
    """Tokenized lines with continuations joined and comments dropped."""
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = pending + line
        pending = ""
        tokens = line.split()
        if tokens:
            yield tokens
    if pending.strip():
        yield pending.split()


def parse_blif(text: str) -> Circuit:
    """Parse a BLIF model into a :class:`Circuit`."""
    name = "blif"
    inputs: list[str] = []
    outputs: list[str] = []
    latches: list[tuple[str, str, bool]] = []  # (input, output, init)
    tables: dict[str, tuple[list[str], list[tuple[str, str]]]] = {}
    current: tuple[str, list[str], list[tuple[str, str]]] | None = None

    def close_table() -> None:
        nonlocal current
        if current is not None:
            signal, deps, rows = current
            if signal in tables:
                raise BlifError(
                    f"signal {signal!r} driven by two .names tables")
            tables[signal] = (deps, rows)
            current = None

    for tokens in _logical_lines(text):
        head = tokens[0]
        if head.startswith("."):
            if head != ".names":
                close_table()
            if head == ".model":
                name = tokens[1] if len(tokens) > 1 else name
            elif head == ".inputs":
                inputs.extend(tokens[1:])
            elif head == ".outputs":
                outputs.extend(tokens[1:])
            elif head == ".latch":
                if len(tokens) < 3:
                    raise BlifError(f".latch needs input and output: "
                                    f"{' '.join(tokens)}")
                init = False
                trailing = tokens[3:]
                if trailing and trailing[-1] in ("0", "1", "2", "3"):
                    init = trailing[-1] == "1"
                latches.append((tokens[1], tokens[2], init))
            elif head == ".names":
                close_table()
                if len(tokens) < 2:
                    raise BlifError(".names needs at least one signal")
                current = (tokens[-1], tokens[1:-1], [])
            elif head == ".end":
                close_table()
                break
            elif head in (".exdc", ".wire_load_slope", ".default_input_arrival"):
                continue  # tolerated, ignored
            else:
                raise BlifError(f"unsupported construct {head!r}")
        else:
            if current is None:
                raise BlifError(f"stray cube row {' '.join(tokens)!r}")
            signal, deps, rows = current
            if not deps:
                # constant: single token 0/1
                rows.append(("", tokens[0]))
            else:
                if len(tokens) != 2:
                    raise BlifError(
                        f"cube row needs mask and value: "
                        f"{' '.join(tokens)!r}")
                mask, value = tokens
                if len(mask) != len(deps):
                    raise BlifError(f"cube width mismatch for {signal!r}")
                rows.append((mask, value))
    close_table()
    for signal in inputs + [out for _, out, _ in latches]:
        if signal in tables:
            raise BlifError(f"signal {signal!r} is an input or latch "
                            f"and also driven by a .names table")

    builder = CircuitBuilder(name)
    variables: dict[str, Net] = {}
    latch_nets: dict[str, Net] = {}
    try:
        for signal in inputs:
            variables[signal] = builder.input(signal)
        for next_signal, out_signal, init in latches:
            latch_nets[out_signal] = builder.latch(out_signal, init=init)
            variables[out_signal] = latch_nets[out_signal]
    except ValueError as exc:  # a signal declared twice
        raise BlifError(str(exc)) from None

    building: set[str] = set()

    def net_of(signal: str) -> Net:
        # Two-phase explicit stack (DFS): expand a signal's table
        # dependencies first, then lower its cover to a gate network.
        # Seeing a signal unexpanded while it is still `building` means
        # a dependency loops back to it — a combinational cycle.
        stack: list[tuple[str, bool]] = [(signal, False)]
        while stack:
            current, expanded = stack.pop()
            if current in variables:
                continue
            if current not in tables:
                raise BlifError(f"undriven signal {current!r}")
            deps, rows = tables[current]
            if not expanded:
                if current in building:
                    raise BlifError(
                        f"combinational cycle through {current!r}")
                building.add(current)
                stack.append((current, True))
                stack.extend((dep, False) for dep in deps)
            else:
                variables[current] = _cover_to_net(
                    builder, [variables[dep] for dep in deps], rows,
                    current)
                building.discard(current)
        return variables[signal]

    for next_signal, out_signal, _ in latches:
        builder.set_next(latch_nets[out_signal], net_of(next_signal))
    for signal in outputs:
        builder.output(signal, net_of(signal))
    return builder.build()


def _cover_to_net(builder: CircuitBuilder, deps: list[Net],
                  rows: list[tuple[str, str]], signal: str) -> Net:
    """Sum-of-cubes (or complemented) cover to a gate network."""
    if not rows:
        return builder.const0
    values = {value for _, value in rows}
    if len(values) != 1:
        raise BlifError(f"mixed-polarity cover for {signal!r}")
    value = values.pop()
    if value not in ("0", "1"):
        raise BlifError(f"bad cover value {value!r} for {signal!r}")
    acc = builder.const0
    for mask, _ in rows:
        term = builder.const1
        for bit, dep in zip(mask, deps):
            if bit == "1":
                term = term & dep
            elif bit == "0":
                term = term & ~dep
            elif bit != "-":
                raise BlifError(f"bad cube character {bit!r}")
        acc = acc | term
    return acc if value == "1" else ~acc


def read_blif(path: str) -> Circuit:
    """Read a circuit from a BLIF file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_blif(handle.read())


def write_blif(circuit: Circuit) -> str:
    """Serialize a circuit to BLIF (gates become 2-input .names)."""
    out = io.StringIO()
    out.write(f".model {circuit.name}\n")
    if circuit.inputs:
        out.write(".inputs " + " ".join(circuit.inputs) + "\n")
    if circuit.outputs:
        out.write(".outputs " + " ".join(circuit.outputs) + "\n")
    names: dict[Net, str] = {}
    counter = [0]
    body = io.StringIO()

    def label_of(net: Net) -> str:
        return net.name if net.op == "var" else names[net]

    def name_of(net: Net) -> str:
        # Two-phase explicit stack: a gate's label is assigned on the
        # way down (matching the pre-order numbering of the recursive
        # formulation), its .names table is emitted once every argument
        # has been written.
        stack: list[tuple[Net, bool]] = [(net, False)]
        while stack:
            current, expanded = stack.pop()
            if current.op == "var":
                continue
            if not expanded:
                if current in names:
                    continue
                if current.op == "const0" or current.op == "const1":
                    label = f"_k{current.op[-1]}"
                    names[current] = label
                    body.write(f".names {label}\n")
                    if current.op == "const1":
                        body.write("1\n")
                    continue
                names[current] = f"_g{counter[0]}"
                counter[0] += 1
                stack.append((current, True))
                stack.extend((arg, False)
                             for arg in reversed(current.args))
            else:
                label = names[current]
                args = [label_of(arg) for arg in current.args]
                if current.op == "not":
                    body.write(f".names {args[0]} {label}\n0 1\n")
                elif current.op == "and":
                    body.write(f".names {args[0]} {args[1]} {label}\n"
                               "11 1\n")
                elif current.op == "or":
                    body.write(f".names {args[0]} {args[1]} {label}\n"
                               "1- 1\n-1 1\n")
                else:  # xor
                    body.write(f".names {args[0]} {args[1]} {label}\n"
                               "10 1\n01 1\n")
        return label_of(net)

    for latch in circuit.latches:
        next_name = name_of(latch.next_state)
        out.write(f".latch {next_name} {latch.name} re clk "
                  f"{1 if latch.init else 0}\n")
    for out_name, net in circuit.outputs.items():
        driver = name_of(net)
        if driver != out_name:
            out.write(f".names {driver} {out_name}\n1 1\n")
    out.write(body.getvalue())
    out.write(".end\n")
    return out.getvalue()
