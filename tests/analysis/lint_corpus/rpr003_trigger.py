"""RPR003 trigger: unregistered computed-table op tags."""


def kernel(manager, hits, misses):
    manager.computed.tally("frobnicate", hits, misses)


class Holder:
    def kernel(self, hits, misses):
        self._computed.tally("frobnicate", hits, misses)


def aliased(manager, hits, misses):
    computed = manager.computed
    computed.tally("mystery-op", hits, misses)
    tally = computed.tally
    tally("mystery-op", hits, misses)
