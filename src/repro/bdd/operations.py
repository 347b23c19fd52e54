"""Core BDD operations on raw handles: ITE, apply, compose, cofactor.

All functions here are memoized through the manager's op-tagged
:class:`~repro.bdd.computed.ComputedTable`, except
:func:`cofactor_sizes_node`, which builds nothing and returns sizes.
Results are canonical handles in the same manager.  The node-level API
is used by the approximation/decomposition algorithms; user code should
go through :class:`~repro.bdd.function.Function`.

Every kernel binds the store's ``level``/``hi``/``lo`` columns and
``mk`` as locals at entry and indexes the columns directly: handles are
int node ids, the terminals are the ids 0 (FALSE) and 1 (TRUE), so
``f < 2`` is the terminal test and a terminal is its own value.
Handles are compared with ``==`` (never ``is``: int ids are not
identity-stable), and commutative cache keys are normalized by id
order.  Computed-table keys are packed ints, ``opcode | f << 8 |
g << 40 | h << 72``; quantified level sets, cofactor assignments and
substitutions enter them as interned ids (:mod:`repro.bdd.computed`).
Each kernel takes the table's probe pair (``cache_get, cache_put =
computed.probes()``) at entry, counts its hits and misses in locals and
tallies them under its op tag once, in a ``finally``, so an aborted
call still reports the lookups it made.

Every kernel is also *iterative*: recursion frames live on an explicit
Python list instead of the interpreter stack, so operations work on
BDDs of any depth (chain-shaped BDDs tens of thousands of levels deep)
at CPython's default recursion limit.  The scheme is the standard
two-phase one — an *expand* frame examines operands (terminal cases,
computed-table lookup, cofactor split) and pushes a *rebuild* frame
below its children's expand frames; the rebuild frame later pops the
finished child results off a value stack, rebuilds through the unique
table, and memoizes.  See docs/algorithms.md, "Iterative kernels".
"""

from __future__ import annotations

from .arraystore import TERMINAL_LEVEL
from .computed import REGISTERED_OPS
from .governor import CHECK_STRIDE
from .manager import Manager
from .traversal import nodes_by_level

#: Strided-checkpoint mask: kernels tally loop iterations in a local
#: counter and call the governor checkpoint when ``ticks & _MASK == 0``
#: (every CHECK_STRIDE-th iteration; the stride is a power of two so the
#: hot-loop test is a single AND).
_MASK = CHECK_STRIDE - 1

#: Truth tables of the supported binary operators, as
#: (op(0,0), op(0,1), op(1,0), op(1,1)).
_OP_TABLES: dict[str, tuple[int, int, int, int]] = {
    "and": (0, 0, 0, 1),
    "or": (0, 1, 1, 1),
    "xor": (0, 1, 1, 0),
    "xnor": (1, 0, 0, 1),
    "nand": (1, 1, 1, 0),
    "nor": (1, 0, 0, 0),
    "imp": (1, 1, 0, 1),
    "diff": (0, 0, 1, 0),
}

#: Operators that commute — their cache keys are argument-order
#: normalized to double the hit rate.
_COMMUTATIVE = frozenset({"and", "or", "xor", "xnor", "nand", "nor"})

#: Frame tags of the explicit-stack kernels.  _EXPAND frames carry
#: operands still to be examined; the other tags name a pending
#: second-phase step whose inputs are already on the value stack.
_EXPAND, _REBUILD, _FORWARD, _AFTER_HI = 0, 1, 2, 3


def apply_node(manager: Manager, op: str, f: int, g: int) -> int:
    """Apply a named binary boolean operator to two BDDs."""
    try:
        table = _OP_TABLES[op]
    except KeyError:
        raise ValueError(f"unknown operator {op!r}") from None
    store = manager.store
    level, hi, lo = store.level, store.hi, store.lo
    computed = manager.computed
    cache_get, cache_put = computed.probes()
    hits = misses = 0
    mk = store.mk
    code = REGISTERED_OPS[op]

    commutative = op in _COMMUTATIVE
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
                check("apply")
            frame = stack.pop()
            if frame[0] == _EXPAND:
                f, g = frame[1], frame[2]
                if f < 2 and g < 2:
                    # A terminal id is its own value.
                    emit(table[2 * f + g])
                    continue
                # Operator-specific terminal shortcuts.
                result = None
                if op == "and":
                    if f == 0 or g == 0:
                        result = 0
                    elif f == 1:
                        result = g
                    elif g == 1 or f == g:
                        result = f
                elif op == "or":
                    if f == 1 or g == 1:
                        result = 1
                    elif f == 0:
                        result = g
                    elif g == 0 or f == g:
                        result = f
                elif op == "xor":
                    if f == 0:
                        result = g
                    elif g == 0:
                        result = f
                    elif f == g:
                        result = 0
                elif op == "diff":
                    if f == 0 or g == 1 or f == g:
                        result = 0
                    elif g == 0:
                        result = f
                if result is not None:
                    emit(result)
                    continue
                if commutative and f > g:
                    f, g = g, f
                key = code | f << 8 | g << 40
                cached = cache_get(key)
                if cached is not None:
                    hits += 1
                    emit(cached)
                    continue
                misses += 1
                f_level, g_level = level[f], level[g]
                top = f_level if f_level < g_level else g_level
                f_hi, f_lo = (hi[f], lo[f]) if f_level == top else (f, f)
                g_hi, g_lo = (hi[g], lo[g]) if g_level == top else (g, g)
                push((_REBUILD, key, top))
                push((_EXPAND, f_lo, g_lo))
                push((_EXPAND, f_hi, g_hi))
            else:  # _REBUILD
                low = values.pop()
                high = values.pop()
                result = mk(frame[2], high, low)
                cache_put(frame[1], result)
                emit(result)
    finally:
        computed.tally(op, hits, misses)
    return values[0]


def not_node(manager: Manager, f: int) -> int:
    """Complement a BDD (no complement arcs: O(|f|) new nodes)."""
    store = manager.store
    level, hi, lo = store.level, store.hi, store.lo
    computed = manager.computed
    cache_get, cache_put = computed.probes()
    hits = misses = 0
    mk = store.mk
    code = REGISTERED_OPS["not"]

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
                check("not")
            frame = stack.pop()
            if frame[0] == _EXPAND:
                f = frame[1]
                if f < 2:
                    emit(1 - f)
                    continue
                key = code | f << 8
                cached = cache_get(key)
                if cached is not None:
                    hits += 1
                    emit(cached)
                    continue
                misses += 1
                push((_REBUILD, key, f))
                push((_EXPAND, lo[f]))
                push((_EXPAND, hi[f]))
            else:  # _REBUILD
                f = frame[2]
                low = values.pop()
                high = values.pop()
                result = mk(level[f], high, low)
                cache_put(frame[1], result)
                cache_put(code | result << 8, f)
                emit(result)
    finally:
        computed.tally("not", hits, misses)
    return values[0]


def ite_node(manager: Manager, f: int, g: int, h: int) -> int:
    """If-then-else ``f·g + f'·h`` with standard terminal cases."""
    store = manager.store
    level, hi, lo = store.level, store.hi, store.lo
    computed = manager.computed
    cache_get, cache_put = computed.probes()
    hits = misses = 0
    mk = store.mk
    code = REGISTERED_OPS["ite"]

    check = manager.governor.checkpoint
    ticks = 0

    stack: list[tuple] = [(_EXPAND, f, g, h)]
    push = stack.append
    values: list[int] = []
    emit = values.append
    try:
        while stack:
            ticks += 1
            if not ticks & _MASK:
                check("ite")
            frame = stack.pop()
            if frame[0] == _EXPAND:
                f, g, h = frame[1], frame[2], frame[3]
                if f == 1:
                    emit(g)
                    continue
                if f == 0:
                    emit(h)
                    continue
                if g == h:
                    emit(g)
                    continue
                if g == 1 and h == 0:
                    emit(f)
                    continue
                if g == 0 and h == 1:
                    emit(not_node(manager, f))
                    continue
                if f == g:  # ite(f, f, h) = f + h
                    g = 1
                elif f == h:  # ite(f, g, f) = f & g
                    h = 0
                key = code | f << 8 | g << 40 | h << 72
                cached = cache_get(key)
                if cached is not None:
                    hits += 1
                    emit(cached)
                    continue
                misses += 1
                f_level = level[f]
                g_level = level[g]
                h_level = level[h]
                top = f_level
                if g_level < top:
                    top = g_level
                if h_level < top:
                    top = h_level
                f_hi, f_lo = (hi[f], lo[f]) if f_level == top else (f, f)
                g_hi, g_lo = (hi[g], lo[g]) if g_level == top else (g, g)
                h_hi, h_lo = (hi[h], lo[h]) if h_level == top else (h, h)
                push((_REBUILD, key, top))
                push((_EXPAND, f_lo, g_lo, h_lo))
                push((_EXPAND, f_hi, g_hi, h_hi))
            else:  # _REBUILD
                low = values.pop()
                high = values.pop()
                result = mk(frame[2], high, low)
                cache_put(frame[1], result)
                emit(result)
    finally:
        computed.tally("ite", hits, misses)
    return values[0]


def leq_node(manager: Manager, f: int, g: int) -> bool:
    """Containment test ``f <= g`` (f implies g) without building BDDs.

    Queries memoize in the manager's computed table under ``"leq"``,
    so RUA's markNodes (one containment test per node) shares its
    verdicts with later calls and every lookup is counted.

    The conjunction short-circuits like the recursive formulation did:
    when the then-branch refutes containment, the else-branch is never
    explored.
    """
    store = manager.store
    level, hi, lo = store.level, store.hi, store.lo
    computed = manager.computed
    cache_get, cache_put = computed.probes()
    hits = misses = 0
    code = REGISTERED_OPS["leq"]
    check = manager.governor.checkpoint
    ticks = 0

    stack: list[tuple] = [(_EXPAND, f, g)]
    push = stack.append
    values: list[bool] = []
    emit = values.append
    try:
        while stack:
            ticks += 1
            if not ticks & _MASK:
                check("leq")
            frame = stack.pop()
            tag = frame[0]
            if tag == _EXPAND:
                f, g = frame[1], frame[2]
                if f == 0 or g == 1 or f == g:
                    emit(True)
                    continue
                if f == 1 or g == 0:
                    emit(False)
                    continue
                key = code | f << 8 | g << 40
                cached = cache_get(key)
                if cached is not None:
                    hits += 1
                    emit(cached)
                    continue
                misses += 1
                f_level, g_level = level[f], level[g]
                top = f_level if f_level < g_level else g_level
                f_hi, f_lo = (hi[f], lo[f]) if f_level == top else (f, f)
                g_hi, g_lo = (hi[g], lo[g]) if g_level == top else (g, g)
                push((_AFTER_HI, key, f_lo, g_lo))
                push((_EXPAND, f_hi, g_hi))
            elif tag == _AFTER_HI:
                key = frame[1]
                if not values.pop():
                    cache_put(key, False)
                    emit(False)
                    continue
                push((_REBUILD, key))
                push((_EXPAND, frame[2], frame[3]))
            else:  # _REBUILD: record the else-branch verdict
                cache_put(frame[1], values[-1])
    finally:
        computed.tally("leq", hits, misses)
    return values[0]


def cofactor_node(manager: Manager, f: int,
                  levels: dict[int, bool]) -> int:
    """Restrict the variables at ``levels`` to the given constants."""
    if not levels:
        return f
    frozen = tuple(sorted(levels.items()))
    max_level = frozen[-1][0]
    store = manager.store
    level, hi, lo = store.level, store.hi, store.lo
    computed = manager.computed
    cache_get, cache_put = computed.probes()
    hits = misses = 0
    mk = store.mk
    code = REGISTERED_OPS["cof"] | computed.intern(frozen) << 40

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
                check("cof")
            frame = stack.pop()
            tag = frame[0]
            if tag == _EXPAND:
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
                value = levels.get(level[f])
                if value is None:
                    push((_REBUILD, key, level[f]))
                    push((_EXPAND, lo[f]))
                    push((_EXPAND, hi[f]))
                elif value:
                    push((_FORWARD, key))
                    push((_EXPAND, hi[f]))
                else:
                    push((_FORWARD, key))
                    push((_EXPAND, lo[f]))
            elif tag == _REBUILD:
                low = values.pop()
                high = values.pop()
                result = mk(frame[2], high, low)
                cache_put(frame[1], result)
                emit(result)
            else:  # _FORWARD: memoize the single child's result as ours
                cache_put(frame[1], values[-1])
    finally:
        computed.tally("cof", hits, misses)
    return values[0]


def cofactor_sizes_node(manager: Manager,
                        f: int) -> dict[int, tuple[int, int]]:
    """Exact ``(|f_x|, |f_x'|)`` for every support level, building nothing.

    For each support level ``L`` and each phase, the nodes of ``f`` at
    or above ``L`` are mapped bottom-up to their images in the
    cofactor: a node at ``L`` maps to its hi (lo) child, a node whose
    mapped children are equal is reduced away, a node whose children
    are unchanged maps to itself, and any other node maps to the
    store's existing node ``(level, hi', lo')`` when there is one, else
    to a *scratch* node hash-consed per pass on that triple.  Scratch
    handles are negative ints, so they never equal a real handle.
    Nodes below ``L`` are unchanged.  The cofactor's
    size is the number of distinct internal images reachable from the
    root's image, marked top-down in ``f``'s level order.

    O(|support| * |f|) time and O(|f|) scratch memory per pass; no node
    and no computed-table entry is created, so an abort at the ``"cof"``
    checkpoint leaves nothing to unwind.
    """
    store = manager.store
    nodes = nodes_by_level(store, f)
    n = len(nodes)
    level, hi, lo = store.level, store.hi, store.lo
    find = store.find
    # f's nodes root-first (a topological order: children always sit at
    # larger indices), then the two terminals at n and n + 1, so every
    # arc is a pair of list indices.
    nodes += (0, 1)
    index = {node: i for i, node in enumerate(nodes)}
    levels = [level[node] for node in nodes[:n]]
    his = [index[hi[node]] for node in nodes[:n]]
    los = [index[lo[node]] for node in nodes[:n]]
    # Index of the first node of each level, then n.
    starts = [i for i in range(n) if not i or levels[i] != levels[i - 1]]
    starts.append(n)

    check = manager.governor.checkpoint
    ticks = 0

    sizes: dict[int, tuple[int, int]] = {}
    for top, end in zip(starts, starts[1:]):
        # Rebuilt nodes of this pass, hash-consed: (level, hi', lo') ->
        # the store's node, or a scratch id when the store has none.
        made: dict[tuple[int, int, int], int] = {}
        scratch: set[int] = set()
        pair: list[int] = []
        for kids in (his, los):
            # image[i] is node i's image; rep[i] the index of a node
            # whose image is the same and carries it as its own (i
            # itself unless i sits at L or is reduced away).
            image = nodes[:]
            rep = list(range(n + 2))
            for i in range(top, end):
                rep[i] = kids[i]
                image[i] = nodes[kids[i]]
            for i in range(top - 1, -1, -1):
                ticks += 1
                if not ticks & _MASK:
                    check("cof")
                hi, lo = his[i], los[i]
                hi_image, lo_image = image[hi], image[lo]
                if hi_image == lo_image:
                    image[i] = hi_image
                    rep[i] = rep[hi]
                elif hi_image != nodes[hi] or lo_image != nodes[lo]:
                    key = (levels[i], hi_image, lo_image)
                    mapped = made.get(key)
                    if mapped is None:
                        if hi_image not in scratch \
                                and lo_image not in scratch:
                            mapped = find(*key)
                        if mapped is None:
                            mapped = -1 - len(scratch)
                            scratch.add(mapped)
                        made[key] = mapped
                    image[i] = mapped
            # Mark what the root's image reaches.  Above L two nodes
            # can share an image, so those are counted by handle; below
            # L every node is its own image.
            mark = bytearray(n + 2)
            mark[rep[0]] = 1
            seen: set[int] = set()
            for i in range(top):
                ticks += 1
                if not ticks & _MASK:
                    check("cof")
                if mark[i]:
                    seen.add(image[i])
                    mark[rep[his[i]]] = 1
                    mark[rep[los[i]]] = 1
            for i in range(end, n):
                ticks += 1
                if not ticks & _MASK:
                    check("cof")
                if mark[i]:
                    mark[his[i]] = 1
                    mark[los[i]] = 1
            pair.append(len(seen) + mark.count(1, end, n))
        sizes[levels[top]] = (pair[0], pair[1])
    return sizes


def vector_compose_node(manager: Manager, f: int,
                        substitution: dict[int, int]) -> int:
    """Simultaneously substitute ``substitution[level]`` for each variable.

    Implemented by the standard formulation:
    ``f = ite(sub(x), compose(f_hi), compose(f_lo))`` at substituted
    levels, rebuilding with ITE below to keep canonicity when the
    substituted functions overlap the remaining variables.  When the
    new node's variable (the substituted one, or the level's own
    variable) is a positive literal above both rebuilt children, that
    ITE is a single ``mk`` at the literal's level, and the rebuild
    makes it directly: an order-preserving rename, such as an image's
    next-to-present one, is one ``mk`` per node.
    """
    if not substitution:
        return f
    frozen = tuple(sorted(substitution.items()))
    max_level = frozen[-1][0]
    store = manager.store
    level, hi, lo = store.level, store.hi, store.lo
    computed = manager.computed
    cache_get, cache_put = computed.probes()
    hits = misses = 0
    mk = store.mk
    code = REGISTERED_OPS["vcomp"] | computed.intern(frozen) << 40

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
                check("vcomp")
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
                replacement = substitution.get(var_level)
                # The level of the new node's variable when that
                # variable is a positive literal; else past every level.
                if replacement is None:
                    label = var_level
                elif hi[replacement] == 1 and lo[replacement] == 0:
                    label = level[replacement]
                else:
                    label = TERMINAL_LEVEL
                if label < level[high] and label < level[low]:
                    # Relabel: ite(x, high, low) is the node (x, high,
                    # low) when x lies above both children.
                    result = mk(label, high, low)
                else:
                    # The children may now depend on variables at or
                    # above the new node's: rebuild with ITE.
                    var = mk(var_level, 1, 0) if replacement is None \
                        else replacement
                    result = ite_node(manager, var, high, low)
                cache_put(frame[1], result)
                emit(result)
    finally:
        computed.tally("vcomp", hits, misses)
    return values[0]
