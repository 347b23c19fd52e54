"""BDD approximation algorithms (Section 2 of the paper).

Every under-approximator ``alpha`` guarantees ``alpha(f) <= f``; the
corresponding over-approximators are obtained by duality
(``~alpha(~f)``).  *Safe* algorithms additionally guarantee
``density(alpha(f)) >= density(f)`` (Definition 1).

========================  ===========================================
name                      algorithm
========================  ===========================================
``heavy_branch_subset``   HB — heavy-branch subsetting (ICCAD 95)
``short_paths_subset``    SP — short-path subsetting (ICCAD 95)
``bdd_under_approx``      UA — Shiple's bddUnderApprox (non-safe)
``remap_under_approx``    RUA — the paper's safe remapping algorithm
``safe_minimize``         mu(l, u) — safe interval minimization
``c1`` / ``c2``           the paper's compound methods
========================  ===========================================
"""

from __future__ import annotations

import inspect
from collections.abc import Callable

from ...bdd.function import Function
from .compound import c1, c2, chained, iterated_remap, minimized
from .heavy_branch import heavy_branch_subset
from .minimize import minimize_with_dont_cares, safe_minimize
from .remap import remap_over_approx, remap_under_approx
from .short_paths import short_paths_subset, shortest_path_lengths
from .under_approx import bdd_under_approx

__all__ = [
    "heavy_branch_subset",
    "short_paths_subset",
    "shortest_path_lengths",
    "bdd_under_approx",
    "remap_under_approx",
    "remap_over_approx",
    "safe_minimize",
    "minimize_with_dont_cares",
    "c1",
    "c2",
    "chained",
    "minimized",
    "iterated_remap",
    "over_approx",
    "register_approximator",
    "UNDER_APPROXIMATORS",
]

#: An under-approximation entry: ``fn(f, *, threshold=0) -> Function``
#: with ``fn(f) <= f``.  All knobs beyond the function are keyword-only,
#: so every registry entry is called the same way.
Approximator = Callable[..., Function]

#: Registry used by the CLI, the experiment harness, and the
#: reachability engine; populated by :func:`register_approximator`.
UNDER_APPROXIMATORS: dict[str, Approximator] = {}


def register_approximator(name: str) -> Callable[[Approximator],
                                                 Approximator]:
    """Register an under-approximator under a short method name.

    The decorated callable must accept ``(f, *, threshold=0)`` — one
    positional Function and keyword-only knobs — so the CLI, harness,
    and reachability engine can drive every method uniformly::

        @register_approximator("hb")
        def _hb(f, *, threshold=0):
            return heavy_branch_subset(f, threshold)

    Any other shape raises ``TypeError`` at decoration (see
    :func:`_check_shape`), before the registry changes.
    """

    def decorator(fn: Approximator) -> Approximator:
        if name in UNDER_APPROXIMATORS:
            raise ValueError(f"approximator {name!r} already registered")
        _check_shape(name, fn)
        UNDER_APPROXIMATORS[name] = fn
        return fn

    return decorator


def _check_shape(name: str, fn: Approximator) -> None:
    """Raise ``TypeError`` unless ``fn`` takes exactly one positional
    parameter without a default, no ``*args`` or ``**kwargs``, and a
    default on every keyword-only parameter."""
    problems: list[str] = []
    positional = 0
    for param in inspect.signature(fn).parameters.values():
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            problems.append(f"variadic {param.name!r} is not allowed")
        elif param.kind == param.KEYWORD_ONLY:
            if param.default is param.empty:
                problems.append(f"keyword-only {param.name!r} needs a "
                                f"default")
        else:
            positional += 1
            if param.default is not param.empty:
                problems.append(f"positional {param.name!r} must not "
                                f"have a default")
    if positional != 1:
        problems.append(f"takes {positional} positional parameters, "
                        f"expected exactly 1 (the Function)")
    if problems:
        raise TypeError(f"approximator {name!r}: {'; '.join(problems)}")


@register_approximator("hb")
def _hb(f: Function, *, threshold: int = 0) -> Function:
    """HB — heavy-branch subsetting."""
    return heavy_branch_subset(f, threshold)


@register_approximator("sp")
def _sp(f: Function, *, threshold: int = 0) -> Function:
    """SP — short-path subsetting."""
    return short_paths_subset(f, threshold)


@register_approximator("ua")
def _ua(f: Function, *, threshold: int = 0) -> Function:
    """UA — Shiple's bddUnderApprox."""
    return bdd_under_approx(f, threshold)


@register_approximator("rua")
def _rua(f: Function, *, threshold: int = 0,
         quality: float = 1.0) -> Function:
    """RUA — the paper's safe remapping algorithm."""
    return remap_under_approx(f, threshold, quality=quality)


@register_approximator("c1")
def _c1(f: Function, *, threshold: int = 0,
        quality: float = 1.0) -> Function:
    """C1 — RUA followed by safe minimization."""
    return c1(f, threshold, quality=quality)


@register_approximator("c2")
def _c2(f: Function, *, threshold: int = 0,
        quality: float = 1.0) -> Function:
    """C2 — SP, then RUA, then safe minimization."""
    return c2(f, threshold=threshold, quality=quality)


def over_approx(alpha: Callable[..., Function], f: Function,
                *args, **kwargs) -> Function:
    """Over-approximation by duality: ``~alpha(~f)`` (Section 2)."""
    return ~alpha(~f, *args, **kwargs)
