"""RPR010 ok: checkpoints that get back to the loop head; a cheap loop."""
# repro-lint: governed

MASK = 1023


def strided(manager, work):
    check = manager.governor.checkpoint
    ticks = 0
    out = []
    while work:
        item = work.pop()
        out.append(compute(manager, item))
        ticks += 1
        if not ticks & MASK:
            # The strided branch flows back into the loop head, so
            # the rule counts the checkpoint.
            check("strided")
    return out


def mark(manager, root):
    check = manager.governor.checkpoint
    ticks = 0
    stack = [root]
    seen = set()
    while stack:
        ticks += 1
        if not ticks & MASK:
            check("mark")
        seen.add(stack.pop())
    return seen


def drain(manager, work):
    ticks = 0
    total = 0
    while work:
        ticks += 1
        if not ticks & MASK:
            manager.governor.checkpoint("drain")
        total += work.pop()
    return total


def each_step(manager, frontiers):
    total = manager.false()
    for frontier in frontiers:
        manager.governor.checkpoint("sweep")
        total = manager.apply("or", total, frontier)
    return total


def levels_of(nodes):
    # A for loop over a container whose every call is O(1) container
    # work is bounded by what it iterates: no checkpoint needed.
    levels = set()
    for node in nodes:
        levels.add(node.level)
    return levels
