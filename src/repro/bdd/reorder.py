"""Dynamic variable reordering: adjacent-level swap and sifting.

The implementation follows Rudell (ICCAD 93), the algorithm behind
CUDD's dynamic reordering that the paper's experiments keep "always
turned on".  A swap of levels ``l`` and ``l+1`` rewrites the affected
nodes *in place*, preserving handle identity (and therefore every live
:class:`~repro.bdd.function.Function` handle) while exchanging the two
variables in the order.  The physical rewrite (phases 1–4) lives in the
node store — :meth:`~repro.bdd.arraystore.ArrayStore.swap_adjacent` — and
this module owns the semantic bookkeeping around it: cache
invalidation and the variable-name maps.

Reordering is a *safe-point* operation: raw node handles held outside
Function handles must not be kept across a call, and the computed table
is invalidated — on every single swap, because the store recycles the
ids of nodes the swap reclaims, and a stale cache entry could otherwise
alias a fresh node.
"""

from __future__ import annotations

from collections.abc import Sequence

from .manager import Manager

#: A sifting direction aborts early when the size exceeds this multiple
#: of the best size seen for the variable.
MAX_GROWTH = 1.2


def swap_adjacent(manager: Manager, level: int) -> None:
    """Exchange the variables at ``level`` and ``level + 1``.

    Handle identity is preserved: every handle keeps representing the
    same boolean function afterwards.  Structural reference counts must
    be accurate on entry (see :func:`sift`); dead nodes are reclaimed
    by the store, which may recycle their ids — hence the wholesale
    computed-table drop before the rewrite.
    """
    manager.invalidate_metric_caches()
    manager.computed.clear()
    manager.store.swap_adjacent(level)

    # The variable maps follow the physical exchange.
    names = manager._level_to_var
    names[level], names[level + 1] = names[level + 1], names[level]
    manager._var_to_level[names[level]] = level
    manager._var_to_level[names[level + 1]] = level + 1


def sift(manager: Manager, max_vars: int | None = None) -> int:
    """Rudell sifting: move each variable to its locally best level.

    Variables are processed in decreasing order of their level
    population; each is swapped to the bottom and the top of the order,
    then parked at the position that minimized the total node count.
    Returns the final total node count.
    """
    manager.collect_garbage()
    n = manager.num_vars
    if n < 2:
        return len(manager)
    sizes = manager.level_sizes()
    by_population = sorted(range(n), key=lambda l: -sizes[l])
    names = [manager._level_to_var[l] for l in by_population]
    if max_vars is not None:
        names = names[:max_vars]
    for name in names:
        _sift_one(manager, name)
    manager.reorder_count += 1
    return len(manager)


def _sift_one(manager: Manager, name: str) -> None:
    """Move one variable through the order and park it at the best spot."""
    n = manager.num_vars
    start = manager._var_to_level[name]
    best_size = len(manager)
    best_level = start
    limit = best_size * MAX_GROWTH
    # Go toward the closer end first, then sweep to the other end.
    first_down = start >= n // 2

    def down() -> None:
        nonlocal best_size, best_level, limit
        while manager._var_to_level[name] < n - 1:
            swap_adjacent(manager, manager._var_to_level[name])
            size = len(manager)
            if size < best_size:
                best_size = size
                limit = size * MAX_GROWTH
            if size <= best_size:
                best_level = manager._var_to_level[name]
            if size > limit:
                break

    def up() -> None:
        nonlocal best_size, best_level, limit
        while manager._var_to_level[name] > 0:
            swap_adjacent(manager, manager._var_to_level[name] - 1)
            size = len(manager)
            if size < best_size:
                best_size = size
                limit = size * MAX_GROWTH
            if size <= best_size:
                best_level = manager._var_to_level[name]
            if size > limit:
                break

    if first_down:
        down()
        up()
    else:
        up()
        down()
    # Park at the best level seen.
    while manager._var_to_level[name] < best_level:
        swap_adjacent(manager, manager._var_to_level[name])
    while manager._var_to_level[name] > best_level:
        swap_adjacent(manager, manager._var_to_level[name] - 1)


def set_order(manager: Manager, order: Sequence[str]) -> None:
    """Reorder the variables to exactly ``order`` (root-most first)."""
    if sorted(order) != sorted(manager._level_to_var):
        raise ValueError("order must be a permutation of the variables")
    manager.collect_garbage()
    for target, name in enumerate(order):
        current = manager._var_to_level[name]
        while current > target:
            swap_adjacent(manager, current - 1)
            current -= 1
    manager.reorder_count += 1
