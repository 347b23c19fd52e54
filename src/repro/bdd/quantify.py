"""Quantification: exists, forall, and the relational product.

``and_exists`` fuses conjunction with existential quantification — the
core step of symbolic image computation (Section 1 of the paper):

    T(y) = exists_x [ R(x, y) & F(x) ]

Fusing avoids building the full conjunction when quantification collapses
it early.

Like the core kernels in :mod:`~repro.bdd.operations`, all three
traversals run on explicit stacks (so quantification over arbitrarily
deep BDDs never hits the interpreter recursion limit), index the
store's columns directly, and key the computed table with packed ints
through its probe pair; the quantified level set enters the key as an
interned id.
"""

from __future__ import annotations

from .computed import REGISTERED_OPS
from .governor import CHECK_STRIDE
from .manager import Manager
from .operations import apply_node

# Strided-checkpoint mask (see repro.bdd.operations).
_MASK = CHECK_STRIDE - 1

# Frame tags of the explicit-stack traversals (same scheme as
# repro.bdd.operations; see docs/algorithms.md, "Iterative kernels").
_EXPAND, _REBUILD, _AFTER_HI, _DISJOIN = 0, 1, 2, 3


def exists_node(manager: Manager, f: int,
                levels: frozenset[int]) -> int:
    """Existentially quantify the variables at ``levels`` out of ``f``."""
    return _quantify(manager, f, levels, "exists", "or")


def forall_node(manager: Manager, f: int,
                levels: frozenset[int]) -> int:
    """Universally quantify the variables at ``levels`` out of ``f``."""
    return _quantify(manager, f, levels, "forall", "and")


def _quantify(manager: Manager, f: int, levels: frozenset[int],
              tag: str, combine_op: str) -> int:
    """Shared exists/forall walk: merge children with ``combine_op`` at
    quantified levels, rebuild through the unique table elsewhere."""
    if not levels:
        return f
    max_level = max(levels)
    store = manager.store
    level, hi, lo = store.level, store.hi, store.lo
    computed = manager.computed
    cache_get, cache_put = computed.probes()
    hits = misses = 0
    mk = store.mk
    code = REGISTERED_OPS[tag] | computed.intern(levels) << 40
    check = manager.governor.checkpoint
    ticks = 0

    stack: list[tuple] = [(_EXPAND, f)]
    push = stack.append
    values: list[int] = []
    emit = values.append
    try:
        while stack:
            ticks += 1
            if not ticks & _MASK:
                check(tag)
            frame = stack.pop()
            if frame[0] == _EXPAND:
                f = frame[1]
                if f < 2 or level[f] > max_level:
                    emit(f)
                    continue
                key = code | f << 8
                cached = cache_get(key)
                if cached is not None:
                    hits += 1
                    emit(cached)
                    continue
                misses += 1
                push((_REBUILD, key, level[f]))
                push((_EXPAND, lo[f]))
                push((_EXPAND, hi[f]))
            else:  # _REBUILD
                var_level = frame[2]
                low = values.pop()
                high = values.pop()
                if var_level in levels:
                    result = apply_node(manager, combine_op, high, low)
                else:
                    result = mk(var_level, high, low)
                cache_put(frame[1], result)
                emit(result)
    finally:
        computed.tally(tag, hits, misses)
    return values[0]


def and_exists_node(manager: Manager, f: int, g: int,
                    levels: frozenset[int]) -> int:
    """Relational product ``exists levels . f & g`` in one pass.

    The conjunction below the last quantified level and the disjunction
    at a quantified level settle their terminal cases (an operand of
    ONE, ZERO or equal to the other) inline, as
    :func:`~repro.bdd.operations.apply_node` would before any cache
    lookup, and call it only for the rest.
    """
    if not levels:
        return apply_node(manager, "and", f, g)
    max_level = max(levels)
    store = manager.store
    level, hi, lo = store.level, store.hi, store.lo
    computed = manager.computed
    cache_get, cache_put = computed.probes()
    hits = misses = 0
    mk = store.mk
    code = REGISTERED_OPS["andex"] | computed.intern(levels) << 72
    check = manager.governor.checkpoint
    ticks = 0

    stack: list[tuple] = [(_EXPAND, f, g)]
    push = stack.append
    values: list[int] = []
    emit = values.append
    try:
        while stack:
            ticks += 1
            if not ticks & _MASK:
                check("andex")
            frame = stack.pop()
            tag = frame[0]
            if tag == _EXPAND:
                f, g = frame[1], frame[2]
                if f == 0 or g == 0:
                    emit(0)
                    continue
                if f == 1 and g == 1:
                    emit(1)
                    continue
                f_level, g_level = level[f], level[g]
                if f_level > max_level and g_level > max_level:
                    # Nothing left to quantify: f & g.
                    if f == 1:
                        emit(g)
                    elif g == 1 or f == g:
                        emit(f)
                    else:
                        emit(apply_node(manager, "and", f, g))
                    continue
                if f == 1:
                    emit(exists_node(manager, g, levels))
                    continue
                if g == 1 or f == g:
                    emit(exists_node(manager, f, levels))
                    continue
                if f > g:
                    f, g = g, f
                    f_level, g_level = g_level, f_level
                key = code | f << 8 | g << 40
                cached = cache_get(key)
                if cached is not None:
                    hits += 1
                    emit(cached)
                    continue
                misses += 1
                top = f_level if f_level < g_level else g_level
                f_hi, f_lo = (hi[f], lo[f]) if f_level == top else (f, f)
                g_hi, g_lo = (hi[g], lo[g]) if g_level == top else (g, g)
                if top in levels:
                    # Quantified level: the else pair is only explored
                    # when the then result falls short of ONE
                    # (short-circuit).
                    push((_AFTER_HI, key, f_lo, g_lo))
                    push((_EXPAND, f_hi, g_hi))
                else:
                    push((_REBUILD, key, top))
                    push((_EXPAND, f_lo, g_lo))
                    push((_EXPAND, f_hi, g_hi))
            elif tag == _AFTER_HI:
                key = frame[1]
                high = values.pop()
                if high == 1:
                    cache_put(key, 1)
                    emit(1)
                    continue
                push((_DISJOIN, key, high))
                push((_EXPAND, frame[2], frame[3]))
            elif tag == _DISJOIN:
                # high | low, where high is not ONE.
                high = frame[2]
                low = values.pop()
                if low == 0 or low == high:
                    result = high
                elif low == 1 or high == 0:
                    result = low
                else:
                    result = apply_node(manager, "or", high, low)
                cache_put(frame[1], result)
                emit(result)
            else:  # _REBUILD
                low = values.pop()
                high = values.pop()
                result = mk(frame[2], high, low)
                cache_put(frame[1], result)
                emit(result)
    finally:
        computed.tally("andex", hits, misses)
    return values[0]
