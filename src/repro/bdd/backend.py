"""Store selection: the one node store, by name.

``Manager(backend=...)``, the serve daemon's ``SessionConfig`` and the
benchmark records name the node store they run on.  One store ships —
:class:`~repro.bdd.arraystore.ArrayStore`, named ``"array"`` — so
``None`` (the default) and ``"array"`` are the only accepted names;
``docs/backends.md`` describes the store.
"""

from __future__ import annotations

from .arraystore import ArrayStore

__all__ = ["DEFAULT_BACKEND", "resolve_backend"]

#: The name of the one node store.
DEFAULT_BACKEND = ArrayStore.name


def resolve_backend(backend: str | None = None) -> str:
    """The store name for ``backend`` (None means the default).

    Unknown names raise ``ValueError``.
    """
    if backend is None:
        return DEFAULT_BACKEND
    if backend != DEFAULT_BACKEND:
        raise ValueError(f"unknown BDD backend {backend!r} "
                         f"(known: {DEFAULT_BACKEND})")
    return backend
