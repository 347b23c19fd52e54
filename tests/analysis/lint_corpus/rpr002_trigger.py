"""RPR002 trigger: direct node-store construction outside the factory."""
from repro.bdd.arraystore import ArrayStore


def smuggle_store():
    return ArrayStore()


def smuggle_qualified(arraystore_module):
    return arraystore_module.ArrayStore()


def smuggle_default(make=lambda: ArrayStore()):
    return make()


class Smuggler:
    store = ArrayStore()
