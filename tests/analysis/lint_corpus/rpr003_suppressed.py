"""RPR003 suppressed: a deliberately exotic tag, waived."""


def kernel(manager, hits, misses):
    manager.computed.tally("experimental-op", hits, misses)  # repro-lint: disable=RPR003
