"""RPR010 trigger: governed loops with no checkpoint that gets back.

Five findings: a ``for`` loop doing kernel work; a ``while`` whose only
checkpoint sits on a ``break`` path, which leaves the loop; two worklist
``while`` loops whose every call is a container operation (cheap per
iteration, but they run as long as the graph is big); and an unchecked
inner ``while`` that its checkpointed enclosing loop does not cover.
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


def drain_batches(manager, batches):
    while batches:
        manager.governor.checkpoint("outer")
        work = batches.pop()
        while work:
            compute(manager, work.pop())
