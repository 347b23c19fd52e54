"""RPR010 suppressed: deliberately unabortable loops."""
# repro-lint: governed


def hot_loop(manager, work):
    out = []
    # Caller checkpoints around the whole drain; measured -40% if the
    # governor ticks inside (see the kernel-tuning notes).
    while work:  # repro-lint: disable=RPR010
        out.append(compute(manager, work.pop()))
    return out


def pop_all(manager, work):
    while work:  # repro-lint: disable=RPR010
        work.pop()
    return work


def trivial_drain(work):
    total = 0
    while work:  # repro-lint: disable=RPR010
        total += work.pop()
    return total
