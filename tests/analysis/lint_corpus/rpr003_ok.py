"""RPR003 no-trigger: registered tags, dynamic tags, other tallies."""


def kernel(manager, key, op):
    computed = manager.computed
    cache_get, cache_put = computed.probes()
    hits = misses = 0
    if cache_get(key) is None:
        misses += 1
        cache_put(key, 42)
    computed.tally("ite", hits, misses)
    # A dynamic (non-literal) tag is out of static reach; the runtime
    # sanitizer covers it.
    manager.computed.tally(op, hits, misses)
    # tally on something that is not a computed table is not checked.
    return registry.tally("frobnicate", hits, misses)
