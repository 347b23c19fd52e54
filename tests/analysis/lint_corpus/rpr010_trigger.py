"""RPR010 trigger: governed cycles with no checkpoint inside them.

Four loops, four findings: a ``for`` loop doing kernel work; a
``while`` whose only checkpoint sits on a ``break`` path, which leaves
the strongly connected component and so cannot bound the spin; and two
worklist ``while`` loops whose every call is a container operation —
cheap per iteration, but they run as long as the graph is big.
"""
# repro-lint: governed


def image_sweep(manager, frontiers):
    total = manager.false()
    for frontier in frontiers:
        total = manager.apply("or", total, frontier)
    return total


def drain(manager, work):
    out = []
    while work:
        item = work.pop()
        out.append(compute(manager, item))
        if not work:
            manager.governor.checkpoint("drain")
            break
    return out


def mark(manager, root):
    stack = [root]
    seen = set()
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
    return seen


def drain_total(manager, work):
    total = 0
    while work:
        total += work.pop()
    return total
