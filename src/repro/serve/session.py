"""Server-side sessions: one manager, one handle table, the verbs.

A :class:`Session` owns a dedicated :class:`~repro.bdd.manager.Manager`
plus a table of *function handles* — short string ids (``"h1"``,
``"h2"``, ...) naming :class:`~repro.bdd.function.Function` objects the
session keeps alive.  Handles are deduplicated through
``Function.handle`` (the int node id), so by canonicity two
requests producing the same boolean function receive the *same* handle
id — clients can compare functions by comparing handle strings.

Verb bodies run on the thread that owns the session's connection,
under a permit of the server's :class:`~repro.serve.scheduler.
FairToken`, so a session's manager is only ever touched by that one
thread.  The session holds to it: ``execute``, ``snapshot_to`` and
reads of ``manager`` raise :class:`RuntimeError` on any thread but the
one that created the session.  Per-request budgets (the ``budget``
request parameter, merged over the server's configured defaults) are
armed with :meth:`Manager.with_budget` around each verb body; a
governor abort unwinds cleanly, leaves every handle valid, and
surfaces as a structured ``budget`` error response.

Densities travel as JSON numbers, or ``null`` when they pass the float
range (the wire carries standard JSON only, never ``Infinity``).
"""

from __future__ import annotations

import inspect
import itertools
import math
import threading
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator, NoReturn, TYPE_CHECKING

from ..bdd.function import Function
from ..bdd.governor import Budget
from ..bdd.manager import Manager
from ..core.approx import UNDER_APPROXIMATORS
from ..core.decomp import DECOMPOSERS, decompose
from ..fsm.blif import BlifError, parse_blif
from ..fsm.encode import encode
from ..reach.bfs import bfs_reachability, count_states
from ..reach.degrade import ON_BLOWUP_MODES
from ..reach.highdensity import high_density_reachability
from ..reach.transition import TransitionRelation
from .protocol import (E_BAD_HANDLE, E_BAD_REQUEST, E_UNKNOWN_VERB,
                       ProtocolError)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store.store import BDDStore

__all__ = ["Session", "SessionConfig"]

#: ``apply`` op tags accepted over the wire.  ``not`` is unary,
#: ``leq`` returns a boolean instead of a handle; the rest map straight
#: onto the kernel's binary operator table.
BINARY_OPS = ("and", "or", "xor", "xnor", "nand", "nor", "imp", "diff")

#: ``minterms`` enumerates up to 2^n assignments; refuse beyond this.
MAX_MINTERM_VARS = 16

#: ``count`` builds an ``nvars``-bit integer; refuse beyond this.
MAX_COUNT_VARS = 65_536


class SessionConfig:
    """Per-session knobs, shared by every session of one server."""

    __slots__ = ("backend", "cache_limit", "gc_threshold",
                 "node_budget", "step_budget", "deadline", "store")

    def __init__(self, *, backend: str | None = None,
                 cache_limit: int | None = None,
                 gc_threshold: int | None = None,
                 node_budget: int | None = None,
                 step_budget: int | None = None,
                 deadline: float | None = None,
                 store: "BDDStore | None" = None) -> None:
        self.backend = backend
        self.cache_limit = cache_limit
        self.gc_threshold = gc_threshold
        #: per-request budget defaults (request ``budget`` overrides)
        self.node_budget = node_budget
        self.step_budget = step_budget
        self.deadline = deadline
        #: optional persistent BDD store backing the save/load verbs
        self.store = store


def _require(params: dict[str, Any], key: str, kind: type,
             what: str) -> Any:
    try:
        value = params[key]
    except KeyError:
        raise ProtocolError(E_BAD_REQUEST,
                            f"missing parameter {key!r}")
    if not isinstance(value, kind) or isinstance(value, bool) \
            and kind is not bool:
        raise ProtocolError(E_BAD_REQUEST,
                            f"parameter {key!r} must be {what}")
    return value


def _int_param(params: dict[str, Any], key: str, default: int, *,
               minimum: int | None = None) -> int:
    """An optional integer parameter: an int (never a bool), at least
    ``minimum`` when one is given."""
    value = params.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) \
            or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" >= {minimum}"
        raise ProtocolError(
            E_BAD_REQUEST, f"parameter {key!r} must be an integer{bound}")
    return value


def _finite_param(params: dict[str, Any], key: str) -> float:
    """A finite number parameter: an int or a float, never a bool."""
    value = params[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ProtocolError(E_BAD_REQUEST,
                        f"parameter {key!r} must be a finite number")


def _wire_density(density: float) -> float | None:
    """A density for a reply: null once it passes the float range."""
    return density if math.isfinite(density) else None


def _budget_bound(spec: dict[str, Any], key: str) -> int | None:
    """A ``node`` or ``step`` bound of a request budget: null for no
    bound, else an int >= 1 (never a bool)."""
    if spec[key] is None:
        return None
    return _int_param(spec, key, 0, minimum=1)


def _budget_deadline(spec: dict[str, Any]) -> float | None:
    """The ``deadline`` of a request budget: null for none, else a
    finite number of seconds >= 0."""
    if spec["deadline"] is None:
        return None
    deadline = _finite_param(spec, "deadline")
    if deadline < 0:
        raise ProtocolError(E_BAD_REQUEST,
                            "parameter 'deadline' must be >= 0")
    return deadline


class Session:
    """One connected client's state (see the module docstring)."""

    def __init__(self, session_id: str, config: SessionConfig) -> None:
        self.id = session_id
        self.config = config
        #: the one thread that may drive the session
        self._owner = threading.current_thread()
        self._manager = Manager(backend=config.backend,
                                cache_limit=config.cache_limit,
                                gc_threshold=config.gc_threshold)
        #: handle id -> Function (the GC roots of this session)
        self._functions: dict[str, Function] = {}
        #: store key of a rooted node -> its handle id (deduplication)
        self._by_key: dict[int, str] = {}
        self._ids = itertools.count(1)
        #: requests executed (successfully or not) in this session
        self.requests = 0

    def __reduce__(self) -> NoReturn:
        raise TypeError("a Session cannot be pickled: it belongs to its "
                        "connection thread")

    def _check_owner(self) -> None:
        """Refuse every thread but the one that created the session."""
        if threading.current_thread() is not self._owner:
            raise RuntimeError(f"session {self.id} can only be used on "
                               f"the thread that created it")

    @property
    def manager(self) -> Manager:
        """The session's manager, for the thread that owns the session."""
        self._check_owner()
        return self._manager

    # ------------------------------------------------------------------
    # Handle table
    # ------------------------------------------------------------------

    def intern(self, function: Function) -> str:
        """Root ``function`` in the session and return its handle id.

        Idempotent per boolean function: the store key of the root
        node indexes the table, and every rooted node stays live, so
        keys cannot be recycled under us.
        """
        key = function.handle
        handle = self._by_key.get(key)
        if handle is None:
            handle = f"h{next(self._ids)}"
            self._functions[handle] = function
            self._by_key[key] = handle
        return handle

    def resolve(self, params: dict[str, Any], key: str = "f"
                ) -> Function:
        """Look up the function named by the ``key`` request param."""
        handle = _require(params, key, str, "a handle string")
        try:
            return self._functions[handle]
        except KeyError:
            raise ProtocolError(E_BAD_HANDLE,
                                f"unknown handle {handle!r}")

    def release(self, handle: str) -> bool:
        """Drop one handle (its nodes survive until the next GC)."""
        function = self._functions.pop(handle, None)
        if function is None:
            return False
        del self._by_key[function.handle]
        return True

    @property
    def num_handles(self) -> int:
        return len(self._functions)

    def snapshot_to(self, store: "BDDStore") -> int:
        """Persist every live handle under ``snapshot/<session>/...``.

        Runs on the connection thread once the client is gone, so the
        manager stays single-threaded.  Returns the number of handles
        written.
        """
        self._check_owner()
        for handle, function in sorted(self._functions.items()):
            store.save(f"snapshot/{self.id}/{handle}", function,
                       tags=("snapshot", self.id))
        return len(self._functions)

    def close(self) -> None:
        """Release every handle.

        Called on disconnect — this *is* the session GC: dropping the
        Function roots makes every session-private node unreachable,
        and the manager itself becomes garbage once the server lets go
        of the session object.
        """
        self._functions.clear()
        self._by_key.clear()

    # ------------------------------------------------------------------
    # Request execution (connection thread)
    # ------------------------------------------------------------------

    def execute(self, verb: str, params: dict[str, Any]
                ) -> dict[str, Any]:
        """Run one verb under the merged per-request budget."""
        self._check_owner()
        handler = self._VERBS.get(verb)
        if handler is None:
            raise ProtocolError(
                E_UNKNOWN_VERB,
                f"unknown verb {verb!r}; known: "
                f"{', '.join(sorted(self._VERBS))}")
        self.requests += 1
        budget = self._merge_budget(params.get("budget"))
        if verb == "reach":
            # reach builds its own circuit manager; the budget arms
            # there, not on the session manager (see _verb_reach).
            return handler(self, params, budget)
        with self._armed(self._manager, budget):
            return handler(self, params, budget)

    def _merge_budget(self, spec: Any) -> Budget:
        config = self.config
        node, step, deadline = (config.node_budget, config.step_budget,
                                config.deadline)
        if spec is not None:
            if not isinstance(spec, dict):
                raise ProtocolError(E_BAD_REQUEST,
                                    "budget must be an object")
            unknown = set(spec) - {"node", "step", "deadline"}
            if unknown:
                raise ProtocolError(
                    E_BAD_REQUEST,
                    f"unknown budget keys {sorted(unknown)!r}")
            if "node" in spec:
                node = _budget_bound(spec, "node")
            if "step" in spec:
                step = _budget_bound(spec, "step")
            if "deadline" in spec:
                deadline = _budget_deadline(spec)
        try:
            return Budget(node_budget=node, step_budget=step,
                          deadline=deadline)
        except ValueError as exc:  # a bad server-wide default
            raise ProtocolError(E_BAD_REQUEST, str(exc))

    @contextmanager
    def _armed(self, manager: Manager, budget: Budget
               ) -> Iterator[None]:
        if budget.unbounded:
            yield
            return
        with manager.with_budget(node_budget=budget.node_budget,
                                 step_budget=budget.step_budget,
                                 deadline=budget.deadline):
            yield

    # ------------------------------------------------------------------
    # Result helpers
    # ------------------------------------------------------------------

    def _function_result(self, function: Function) -> dict[str, Any]:
        return {"handle": self.intern(function),
                "nodes": len(function),
                "constant": (True if function.is_true
                             else False if function.is_false
                             else None)}

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------

    def _verb_var(self, params: dict[str, Any],
                  budget: Budget) -> dict[str, Any]:
        name = _require(params, "name", str, "a string")
        if not name:
            raise ProtocolError(E_BAD_REQUEST,
                                "variable name must be non-empty")
        fresh = name not in self._manager._var_to_level
        function = (self._manager.add_var(name) if fresh
                    else self._manager.var(name))
        result = self._function_result(function)
        result.update(name=name, fresh=fresh,
                      level=self._manager.level_of_var(name))
        return result

    def _verb_apply(self, params: dict[str, Any],
                    budget: Budget) -> dict[str, Any]:
        op = _require(params, "op", str, "a string")
        f = self.resolve(params, "f")
        if op == "not":
            return self._function_result(~f)
        g = self.resolve(params, "g")
        if op == "leq":
            return {"value": bool(f <= g)}
        if op not in BINARY_OPS:
            raise ProtocolError(
                E_BAD_REQUEST,
                f"unknown op {op!r}; known: not, leq, "
                f"{', '.join(BINARY_OPS)}")
        return self._function_result(self._manager.apply(op, f, g))

    def _verb_ite(self, params: dict[str, Any],
                  budget: Budget) -> dict[str, Any]:
        f = self.resolve(params, "f")
        g = self.resolve(params, "g")
        h = self.resolve(params, "h")
        return self._function_result(f.ite(g, h))

    def _verb_approx(self, params: dict[str, Any],
                     budget: Budget) -> dict[str, Any]:
        method = _require(params, "method", str, "a string")
        approximator = UNDER_APPROXIMATORS.get(method)
        if approximator is None:
            raise ProtocolError(
                E_BAD_REQUEST,
                f"unknown approximation method {method!r}; known: "
                f"{', '.join(UNDER_APPROXIMATORS)}")
        f = self.resolve(params, "f")
        kwargs: dict[str, Any] = {
            "threshold": _int_param(params, "threshold", 0)}
        if "quality" in params:
            if "quality" not in inspect.signature(approximator).parameters:
                raise ProtocolError(
                    E_BAD_REQUEST,
                    f"method {method!r} takes no 'quality' parameter")
            kwargs["quality"] = _finite_param(params, "quality")
        approximation = approximator(f, **kwargs)
        result = self._function_result(approximation)
        result.update(method=method,
                      density=_wire_density(approximation.density()),
                      exact=approximation == f)
        return result

    def _verb_decomp(self, params: dict[str, Any],
                     budget: Budget) -> dict[str, Any]:
        method = _require(params, "method", str, "a string")
        if method not in DECOMPOSERS:
            raise ProtocolError(
                E_BAD_REQUEST,
                f"unknown decomposition method {method!r}; known: "
                f"{', '.join(DECOMPOSERS)}")
        f = self.resolve(params, "f")
        g, h = decompose(f, method)
        return {"method": method,
                "g": self._function_result(g),
                "h": self._function_result(h)}

    def _verb_count(self, params: dict[str, Any],
                    budget: Budget) -> dict[str, Any]:
        f = self.resolve(params, "f")
        # Null (the default) counts over every declared variable.
        nvars: int | None = None
        if params.get("nvars") is not None:
            nvars = _int_param(params, "nvars", 0, minimum=0)
            if nvars > MAX_COUNT_VARS:
                raise ProtocolError(
                    E_BAD_REQUEST,
                    f"count over {nvars} variables refused "
                    f"(limit {MAX_COUNT_VARS})")
        try:
            sat_count = f.sat_count(nvars)
        except ValueError as exc:  # nvars below the support
            raise ProtocolError(E_BAD_REQUEST, str(exc))
        return {"nodes": len(f),
                "sat_count": sat_count,
                "density": _wire_density(f.density(nvars)),
                "support": sorted(f.support())}

    def _verb_minterms(self, params: dict[str, Any],
                       budget: Budget) -> dict[str, Any]:
        f = self.resolve(params, "f")
        names = params.get("names")
        if names is None:
            names = sorted(f.support(),
                           key=self._manager.level_of_var)
        elif not (isinstance(names, list)
                  and all(isinstance(n, str) for n in names)):
            raise ProtocolError(E_BAD_REQUEST,
                                "names must be a list of strings")
        if len(names) > MAX_MINTERM_VARS:
            raise ProtocolError(
                E_BAD_REQUEST,
                f"minterm enumeration over {len(names)} variables "
                f"refused (limit {MAX_MINTERM_VARS})")
        try:
            minterms = [dict(m) for m in f.iter_minterms(names)]
        except (KeyError, ValueError) as exc:
            raise ProtocolError(E_BAD_REQUEST, str(exc))
        return {"names": list(names), "minterms": minterms}

    def _verb_check(self, params: dict[str, Any],
                    budget: Budget) -> dict[str, Any]:
        diagnostics = self._manager.debug_check(raise_on_error=False)
        return {"ok": not diagnostics,
                "diagnostics": [str(d) for d in diagnostics],
                "nodes": len(self._manager)}

    def _verb_release(self, params: dict[str, Any],
                      budget: Budget) -> dict[str, Any]:
        handle = _require(params, "f", str, "a handle string")
        return {"released": self.release(handle)}

    def _verb_reach(self, params: dict[str, Any],
                    budget: Budget) -> dict[str, Any]:
        blif = _require(params, "blif", str, "BLIF text")
        method = params.get("method", "bfs")
        if not isinstance(method, str) or (
                method != "bfs" and method not in UNDER_APPROXIMATORS):
            raise ProtocolError(
                E_BAD_REQUEST,
                f"unknown reach method {method!r}; known: bfs, "
                f"{', '.join(UNDER_APPROXIMATORS)}")
        on_blowup = params.get("on_blowup", "raise")
        if on_blowup not in ON_BLOWUP_MODES:
            raise ProtocolError(
                E_BAD_REQUEST,
                f"unknown on_blowup mode {on_blowup!r}; known: "
                f"{', '.join(ON_BLOWUP_MODES)}")
        # Null (the default) runs to the fixpoint.
        max_iterations: int | None = None
        if params.get("max_iterations") is not None:
            max_iterations = _int_param(params, "max_iterations", 0,
                                        minimum=0)
        threshold = _int_param(params, "threshold", 0)
        try:
            circuit = parse_blif(blif)
        except BlifError as exc:
            raise ProtocolError(E_BAD_REQUEST, f"bad BLIF: {exc}")
        # The circuit gets its own manager — reach is a self-contained
        # query, not a handle factory, and a foreign variable order
        # must not leak into the session.
        encoded = encode(circuit, backend=self.config.backend)
        manager = encoded.manager
        with self._armed(manager, budget):
            with (manager.governor.suspended()
                  if on_blowup != "raise" else nullcontext()):
                tr = TransitionRelation(encoded)
                init = encoded.initial_states()
            if method == "bfs":
                result = bfs_reachability(
                    tr, init, max_iterations=max_iterations,
                    on_blowup=on_blowup)
            else:
                result = high_density_reachability(
                    tr, init, UNDER_APPROXIMATORS[method],
                    threshold=threshold, max_iterations=max_iterations,
                    on_blowup=on_blowup)
        stats = manager.stats
        return {"circuit": circuit.name,
                "method": method,
                "iterations": result.iterations,
                "complete": result.complete,
                "states": count_states(result.reached,
                                       encoded.state_vars),
                "reached_nodes": len(result.reached),
                "seconds": result.seconds,
                "aborts": stats.total_aborts,
                "degradations": stats.total_degradations}

    def _require_store(self) -> "BDDStore":
        store = self.config.store
        if store is None:
            raise ProtocolError(
                E_BAD_REQUEST,
                "no store attached; start the daemon with --store DIR")
        return store

    def _verb_save(self, params: dict[str, Any],
                   budget: Budget) -> dict[str, Any]:
        store = self._require_store()
        name = _require(params, "name", str, "a string")
        if not name:
            raise ProtocolError(E_BAD_REQUEST,
                                "store name must be non-empty")
        function = self.resolve(params, "f")
        tags = params.get("tags", [])
        if not (isinstance(tags, list)
                and all(isinstance(t, str) for t in tags)):
            raise ProtocolError(E_BAD_REQUEST,
                                "tags must be a list of strings")
        digest = store.save(name, function, tags=tags)
        return {"name": name, "hash": digest,
                "nodes": len(function)}

    def _verb_load(self, params: dict[str, Any],
                   budget: Budget) -> dict[str, Any]:
        store = self._require_store()
        name = _require(params, "name", str, "a string")
        # Loaded into the session manager: declared variables merge
        # into the session's order and the rebuilt root is interned
        # like any other result, so a restarted daemon serves the
        # stored function without re-running the computation that
        # produced it.
        function = store.load(self._manager, name)
        result = self._function_result(function)
        result.update(name=name)
        return result

    def _verb_stats(self, params: dict[str, Any],
                    budget: Budget) -> dict[str, Any]:
        return {"id": self.id,
                "handles": self.num_handles,
                "requests": self.requests,
                "manager": self._manager.stats.as_dict()}

    _VERBS: dict[str, Callable[..., dict[str, Any]]] = {
        "var": _verb_var,
        "apply": _verb_apply,
        "ite": _verb_ite,
        "approx": _verb_approx,
        "decomp": _verb_decomp,
        "count": _verb_count,
        "minterms": _verb_minterms,
        "check": _verb_check,
        "release": _verb_release,
        "reach": _verb_reach,
        "save": _verb_save,
        "load": _verb_load,
        "stats": _verb_stats,
    }
