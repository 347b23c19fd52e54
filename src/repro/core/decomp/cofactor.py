"""Cofactor-based two-way decomposition (Cabodi et al. / Narayan et al.).

Equation 1 of the paper: for any variable ``x``,

    f = g · h,   g = x + f_x',   h = x' + f_x

conjunctively, and dually ``f = (x · f_x) + (x' · f_x')`` disjunctively.
Following the paper's reimplementation ("*Cofactor*"), the splitting
variable is the one minimizing the size of the larger of the two
cofactors; computing all cofactor sizes costs ``#vars * |f|``.
"""

from __future__ import annotations

from ...bdd.function import Function
from ...bdd.operations import cofactor_sizes_node


def cofactor_sizes(f: Function) -> dict[str, tuple[int, int]]:
    """Exact (|f_x|, |f_x'|) for every variable in the support.

    Computed by :func:`~repro.bdd.operations.cofactor_sizes_node`
    without building either cofactor.
    """
    manager = f.manager
    manager.safe_point()
    return {manager.var_at_level(level): pair for level, pair in
            cofactor_sizes_node(manager, f.node).items()}


def best_split_variable(f: Function) -> str:
    """The variable minimizing ``max(|f_x|, |f_x'|)`` (ties: total)."""
    if f.is_constant:
        raise ValueError("constant function has no split variable")
    sizes = cofactor_sizes(f)
    return min(sizes, key=lambda n: (max(sizes[n]), sum(sizes[n]),
                                     f.manager.level_of_var(n)))


def cofactor_decompose(f: Function, variable: str | None = None,
                       conjunctive: bool = True
                       ) -> tuple[Function, Function]:
    """Two-way decomposition of ``f`` by Equation 1.

    Returns ``(g, h)`` with ``f == g & h`` (conjunctive) or
    ``f == g | h`` (disjunctive).  ``variable`` defaults to the best
    split variable.
    """
    if f.is_constant:
        other = f.manager.true if conjunctive else f.manager.false
        return f, other
    if variable is None:
        variable = best_split_variable(f)
    x = f.manager.var(variable)
    hi = f.cofactor({variable: True})
    lo = f.cofactor({variable: False})
    if conjunctive:
        return x | lo, ~x | hi
    return x & hi, ~x & lo


def cofactor_decompose_k(f: Function, k: int,
                         conjunctive: bool = False) -> list[Function]:
    """2^k-way decomposition over the best k variables.

    The generalization used for partitioned-ROBDD reachability
    (Narayan et al., ICCAD 97): cofactor against every assignment of the
    chosen variables.  Disjunctive by default (the reachability use).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    parts = [f]
    for _ in range(k):
        largest = max(parts, key=len)
        if largest.is_constant:
            break
        variable = best_split_variable(largest)
        next_parts = []
        for part in parts:
            if variable in part.support():
                g, h = cofactor_decompose(part, variable, conjunctive)
                next_parts.extend((g, h))
            else:
                next_parts.append(part)
        parts = next_parts
    return parts
