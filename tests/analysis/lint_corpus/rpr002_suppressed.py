"""RPR002 suppressed: test scaffolding may build a bare store knowingly."""
from repro.bdd.arraystore import ArrayStore


def forge_store():
    return ArrayStore()  # repro-lint: disable=RPR002
