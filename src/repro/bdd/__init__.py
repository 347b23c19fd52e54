"""Pure-Python ROBDD package (the CUDD-role substrate of the paper).

Public entry points:

* :class:`Manager` — variable declaration, node store, GC, reordering.
* :class:`Function` — operator-overloaded handles on BDDs.
* :func:`constrain`, :func:`restrict` — generalized cofactors.
* :mod:`repro.bdd.counting` — minterm counts, density, path profiles.
* :mod:`repro.bdd.governor` — resource budgets (nodes, steps, wall
  clock) with abortable kernels and clean unwind; armed through
  :meth:`Manager.with_budget`.

The raw-node layer (``manager.mk``, ``function.node``, the traversal and
counting helpers) is an *internal* advanced API used by the
approximation and decomposition algorithms in :mod:`repro.core`.  It
manipulates int node ids owned by the manager's node store — see
:mod:`repro.bdd.arraystore` (``docs/backends.md``).
"""

from .arraystore import TERMINAL_LEVEL
from .backend import DEFAULT_BACKEND, resolve_backend
from .computed import CacheOpStats, ComputedTable, register_op
from .counting import bdd_size, density, log2int, sat_count, shared_size
from .dot import to_dot
from .expr import ExprError, parse
from .function import Function
from .governor import (Budget, BudgetExceeded, DeadlineExceeded, Governor,
                       InjectedAbort, ResourceError)
from .manager import Manager, ManagerStats
from .restrict import constrain, restrict
from .sanitize import Diagnostic, SanitizerError

__all__ = [
    "Manager",
    "ManagerStats",
    "DEFAULT_BACKEND",
    "resolve_backend",
    "ComputedTable",
    "CacheOpStats",
    "register_op",
    "Diagnostic",
    "SanitizerError",
    "Budget",
    "Governor",
    "ResourceError",
    "BudgetExceeded",
    "DeadlineExceeded",
    "InjectedAbort",
    "Function",
    "TERMINAL_LEVEL",
    "constrain",
    "restrict",
    "sat_count",
    "density",
    "bdd_size",
    "shared_size",
    "log2int",
    "to_dot",
    "parse",
    "ExprError",
]
