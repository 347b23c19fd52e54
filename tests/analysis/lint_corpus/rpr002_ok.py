"""RPR002 no-trigger: nodes go through the unique table, stores through
the factory."""


def build(manager, level, hi, lo):
    return manager.mk(level, hi, lo)


class ArrayStoreFactory:
    # A class merely *named* like the constructor is not a call.
    pass


def pick_store(backend):
    from repro.bdd.backend import create_store

    return create_store(backend)


def pick_manager(manager_cls):
    return manager_cls(backend="array")
