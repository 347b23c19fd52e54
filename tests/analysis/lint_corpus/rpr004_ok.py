"""RPR004 no-trigger: same-manager operands, transfer, scope isolation."""
from repro.bdd import Manager
from repro.store import transfer


def same_manager():
    m1 = Manager()
    a = m1.add_var("a")
    b = m1.add_var("b")
    return m1.apply("and", a, b)


def through_transfer():
    m1 = Manager()
    m2 = Manager()
    a = m1.add_var("a")
    b = m2.add_var("b")
    return m2.apply("and", transfer(a, m2), b)


def producer():
    m1 = Manager()
    name = m1.add_var("v")
    return name


def consumer():
    # Reuses the name `name` with a different manager; provenance must
    # not leak across function scopes.
    m2 = Manager()
    name = m2.add_var("v")
    return m2.apply("and", name, name)
