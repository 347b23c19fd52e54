"""Generalized cofactors: *constrain* (Coudert–Madre) and *restrict*.

``restrict(f, c)`` returns a function that agrees with ``f`` wherever the
care set ``c`` holds, choosing values off the care set to shrink the BDD.
Its basic optimization is the *remapping* step of Figure 1 of the paper:
when one child of the care set is empty, the corresponding child of ``f``
is replaced by the sibling, which both removes the child's exclusive
nodes and makes the parent node redundant.

``constrain(f, c)`` is the original generalized cofactor: it has the
stronger algebraic property ``constrain(f, c) = f`` on ``c`` *minterm by
minterm via the closest-assignment map*, which makes it useful for
decomposition (it satisfies ``c & constrain(f, c) == c & f`` and, unlike
restrict, ``exists . constrain`` laws), but it may *grow* the BDD because
it can pull variables not in the support of ``f`` into the result.

Both traversals run on explicit stacks (docs/algorithms.md, "Iterative
kernels"), index the store's columns directly and key the computed
table with packed ints through its probe pair, like the kernels in
:mod:`~repro.bdd.operations`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .computed import REGISTERED_OPS
from .governor import CHECK_STRIDE
from .manager import Manager
from .quantify import exists_node

# Strided-checkpoint mask (see repro.bdd.operations).
_MASK = CHECK_STRIDE - 1

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .function import Function

# Frame tags of the explicit-stack traversals (same scheme as
# repro.bdd.operations).
_EXPAND, _REBUILD, _FORWARD = 0, 1, 2


def constrain_node(manager: Manager, f: int, c: int) -> int:
    """Coudert–Madre generalized cofactor ``f || c``."""
    store = manager.store
    level, hi, lo = store.level, store.hi, store.lo
    computed = manager.computed
    cache_get, cache_put = computed.probes()
    hits = misses = 0
    mk = store.mk
    code = REGISTERED_OPS["constrain"]
    check = manager.governor.checkpoint
    ticks = 0

    stack: list[tuple] = [(_EXPAND, f, c)]
    push = stack.append
    values: list[int] = []
    emit = values.append
    try:
        while stack:
            ticks += 1
            if not ticks & _MASK:
                check("constrain")
            frame = stack.pop()
            tag = frame[0]
            if tag == _EXPAND:
                f, c = frame[1], frame[2]
                if c == 0:
                    # The care set is empty: the result is arbitrary;
                    # return f to keep the walk total (callers never use
                    # this branch's value on the care set, which is
                    # empty).
                    emit(f)
                    continue
                if f == c:
                    # The function and the care set coincide: on the
                    # care set the value is 1, and off it the value is
                    # free.
                    emit(1)
                    continue
                if c == 1 or f < 2:
                    emit(f)
                    continue
                key = code | f << 8 | c << 40
                cached = cache_get(key)
                if cached is not None:
                    hits += 1
                    emit(cached)
                    continue
                misses += 1
                f_level, c_level = level[f], level[c]
                top = f_level if f_level < c_level else c_level
                f_hi, f_lo = (hi[f], lo[f]) if f_level == top else (f, f)
                c_hi, c_lo = (hi[c], lo[c]) if c_level == top else (c, c)
                if c_hi == 0:
                    push((_FORWARD, key))
                    push((_EXPAND, f_lo, c_lo))
                elif c_lo == 0:
                    push((_FORWARD, key))
                    push((_EXPAND, f_hi, c_hi))
                else:
                    push((_REBUILD, key, top))
                    push((_EXPAND, f_lo, c_lo))
                    push((_EXPAND, f_hi, c_hi))
            elif tag == _REBUILD:
                low = values.pop()
                high = values.pop()
                result = mk(frame[2], high, low)
                cache_put(frame[1], result)
                emit(result)
            else:  # _FORWARD: one-branch descent, memoized under our key
                cache_put(frame[1], values[-1])
    finally:
        computed.tally("constrain", hits, misses)
    return values[0]


def restrict_node(manager: Manager, f: int, c: int) -> int:
    """Coudert–Madre restrict ``f ⇓ c`` (the "remapping" minimizer).

    Unlike constrain, when the care set splits on a variable that ``f``
    does not test, the two care branches are merged (``c_hi | c_lo``)
    instead of splitting ``f`` — so the result's support is contained in
    the support of ``f`` and the result is usually no larger.
    """
    store = manager.store
    level, hi, lo = store.level, store.hi, store.lo
    computed = manager.computed
    cache_get, cache_put = computed.probes()
    hits = misses = 0
    mk = store.mk
    code = REGISTERED_OPS["restrict"]
    check = manager.governor.checkpoint
    ticks = 0

    stack: list[tuple] = [(_EXPAND, f, c)]
    push = stack.append
    values: list[int] = []
    emit = values.append
    try:
        while stack:
            ticks += 1
            if not ticks & _MASK:
                check("restrict")
            frame = stack.pop()
            tag = frame[0]
            if tag == _EXPAND:
                f, c = frame[1], frame[2]
                if c == 0:
                    emit(f)
                    continue
                if f == c:
                    emit(1)
                    continue
                if c == 1 or f < 2:
                    emit(f)
                    continue
                key = code | f << 8 | c << 40
                cached = cache_get(key)
                if cached is not None:
                    hits += 1
                    emit(cached)
                    continue
                misses += 1
                f_level, c_level = level[f], level[c]
                if c_level < f_level:
                    # f does not depend on the top variable of c: merge
                    # the care branches and retry on the merged care
                    # set.
                    merged = exists_node(manager, c, frozenset({c_level}))
                    push((_FORWARD, key))
                    push((_EXPAND, f, merged))
                    continue
                f_hi, f_lo = hi[f], lo[f]
                c_hi, c_lo = (hi[c], lo[c]) if c_level == f_level \
                    else (c, c)
                if c_hi == 0:
                    # Remapping step (Figure 1): the then-branch is
                    # don't care, replace the whole node by the else
                    # cofactor.
                    push((_FORWARD, key))
                    push((_EXPAND, f_lo, c_lo))
                elif c_lo == 0:
                    push((_FORWARD, key))
                    push((_EXPAND, f_hi, c_hi))
                else:
                    push((_REBUILD, key, f_level))
                    push((_EXPAND, f_lo, c_lo))
                    push((_EXPAND, f_hi, c_hi))
            elif tag == _REBUILD:
                low = values.pop()
                high = values.pop()
                result = mk(frame[2], high, low)
                cache_put(frame[1], result)
                emit(result)
            else:  # _FORWARD
                cache_put(frame[1], values[-1])
    finally:
        computed.tally("restrict", hits, misses)
    return values[0]


def constrain(f: "Function", c: "Function") -> "Function":
    """Function-level constrain; see :func:`constrain_node`."""
    from .function import Function

    if f.manager is not c.manager:
        raise ValueError("operands belong to different managers")
    f.manager.safe_point()
    return Function(f.manager, constrain_node(f.manager, f.node, c.node))


def restrict(f: "Function", c: "Function") -> "Function":
    """Function-level restrict; see :func:`restrict_node`."""
    from .function import Function

    if f.manager is not c.manager:
        raise ValueError("operands belong to different managers")
    f.manager.safe_point()
    return Function(f.manager, restrict_node(f.manager, f.node, c.node))
