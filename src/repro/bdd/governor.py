"""The resource governor: abortable kernels with clean unwind.

The paper's premise is graceful degradation under resource pressure —
when exact images blow up, a dense under-approximation substitutes for
the exact set and the traversal keeps going (Section 4).  That only
works if a blowing-up operation can be *stopped*: this module is the
in-process analogue of CUDD's ``Cudd_SetMaxMemory``/timeout machinery.

A :class:`Governor` hangs off every :class:`~repro.bdd.manager.Manager`
and enforces three budgets, checked at cheap strided points inside the
explicit-stack kernels (:data:`CHECK_STRIDE` loop iterations between
checks):

* a **node budget** — live plus freshly created unique-table nodes
  (the node store's ``num_nodes``) must not exceed the bound;
* an **operation-step budget** — kernel loop iterations since arming;
* a **wall-clock deadline** — seconds from arming.

On violation the checkpoint raises :class:`BudgetExceeded` or
:class:`DeadlineExceeded` and the kernel *unwinds cleanly*:

* partially built nodes stay in the unique table, but hold no roots —
  the next garbage collection reclaims them;
* the computed table never holds in-progress entries, because kernels
  only memoize **completed** sub-results (an aborted frame's entry was
  simply never inserted);
* :meth:`Manager.debug_check` passes immediately after any abort.

Budgets are armed with :meth:`Manager.with_budget` (exception-safe,
nests) and the aborted operation can simply be re-run — memoized
sub-results from the aborted attempt are valid, so the re-run produces
the exact same canonical result an unbudgeted run would.

Fault injection
---------------
Two knobs abort kernels on purpose so the clean-unwind contract stays
enforced by tests rather than by review:

* :meth:`Governor.inject_abort_after` — deterministic test hook: raise
  :class:`InjectedAbort` at the first checkpoint after ``steps`` kernel
  steps (optionally only in one op), one-shot;
* ``REPRO_INJECT_ABORT=op:steps`` — environment knob giving every fresh
  manager a one-shot injection (e.g. ``apply:500``); the CI smoke job
  sweeps it over the core kernels with ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .arraystore import ArrayStore

__all__ = [
    "CHECK_STRIDE",
    "ResourceError",
    "BudgetExceeded",
    "DeadlineExceeded",
    "InjectedAbort",
    "Budget",
    "Governor",
    "injection_from_env",
]

#: Kernel loop iterations between governor checkpoints.  Kernels tally
#: iterations in a local counter and call
#: :meth:`Governor.checkpoint` every ``CHECK_STRIDE``-th one — the
#: amortized cost is one integer test per iteration plus one method
#: call per stride, small enough to leave always-on (the no-budget
#: overhead target is <= 5% on bench_table2).
CHECK_STRIDE = 64


class ResourceError(RuntimeError):
    """Base of all governor aborts (budget, deadline, injection)."""


class BudgetExceeded(ResourceError):
    """A node or operation-step budget was exceeded mid-kernel."""


class DeadlineExceeded(ResourceError):
    """The armed wall-clock deadline passed mid-kernel."""


class InjectedAbort(BudgetExceeded):
    """A fault-injection abort (test hook or ``REPRO_INJECT_ABORT``).

    Subclasses :class:`BudgetExceeded` so every recovery path — the
    escalation ladder, a Table 1 row's incomplete result — treats an
    injected abort exactly like a real budget violation.
    """


@dataclass(frozen=True)
class Budget:
    """Resource bounds for one armed window (all optional).

    ``deadline`` is *relative* — seconds from the moment of arming;
    the governor converts it to an absolute clock value internally.
    """

    #: bound on live + fresh unique-table nodes (None: unbounded)
    node_budget: int | None = None
    #: bound on kernel steps since arming (None: unbounded)
    step_budget: int | None = None
    #: wall-clock seconds from arming (None: no deadline)
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node_budget must be positive or None")
        if self.step_budget is not None and self.step_budget <= 0:
            raise ValueError("step_budget must be positive or None")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be >= 0 or None")

    @property
    def unbounded(self) -> bool:
        return (self.node_budget is None and self.step_budget is None
                and self.deadline is None)


def injection_from_env() -> tuple[str, int] | None:
    """Parse ``REPRO_INJECT_ABORT=op:steps`` (None when unset).

    ``op`` is a kernel checkpoint tag (``apply``, ``ite``, ``andex``,
    ...); ``steps`` is the kernel-step count after which the op's first
    checkpoint aborts, once per manager.
    """
    raw = os.environ.get("REPRO_INJECT_ABORT", "").strip()
    if not raw:
        return None
    op, sep, steps_text = raw.partition(":")
    try:
        steps = int(steps_text) if sep else 0
    except ValueError:
        raise ValueError(
            f"REPRO_INJECT_ABORT must look like 'op:steps', got {raw!r}")
    if not op or steps <= 0:
        raise ValueError(
            f"REPRO_INJECT_ABORT must look like 'op:steps', got {raw!r}")
    return op, steps


# State snapshot restored by Manager.with_budget / Governor.suspended:
# (node_budget, step_budget, deadline_abs, window_start_steps).
_Token = tuple[int | None, int | None, float | None, int]


class Governor:
    """Per-manager resource governor (see the module docstring).

    Kernels bind ``check = manager.governor.checkpoint`` before their
    loop and call ``check(op)`` every :data:`CHECK_STRIDE`-th
    iteration; everything else (arming, injection, statistics) happens
    through the manager-facing API.
    """

    __slots__ = (
        "_store", "_abort_counts", "_node_budget", "_step_budget",
        "_deadline", "_window_start", "steps",
        "_inject_op", "_inject_remaining",
        "budget_peak_nodes", "budget_peak_steps",
    )

    def __init__(self, store: "ArrayStore",
                 abort_counts: dict[str, int]) -> None:
        # The manager's node store and abort tally, not the manager: a
        # back-reference would put every manager in a reference cycle,
        # freed only when the cycle collector next runs rather than
        # with its last reference.
        self._store = store
        self._abort_counts = abort_counts
        self._node_budget: int | None = None
        self._step_budget: int | None = None
        #: absolute perf_counter deadline (None: no deadline)
        self._deadline: float | None = None
        #: ``steps`` value when the current window was armed
        self._window_start = 0
        #: total kernel steps observed since manager creation
        self.steps = 0
        self._inject_op: str | None = None
        self._inject_remaining: int | None = None
        #: highest live-node / window-step counts seen while armed
        self.budget_peak_nodes = 0
        self.budget_peak_steps = 0
        env = injection_from_env()
        if env is not None:
            self._inject_op, self._inject_remaining = env

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    @property
    def armed(self) -> bool:
        """True when any budget or deadline is currently enforced."""
        return (self._node_budget is not None
                or self._step_budget is not None
                or self._deadline is not None)

    @property
    def node_budget(self) -> int | None:
        return self._node_budget

    @property
    def step_budget(self) -> int | None:
        return self._step_budget

    def remaining_steps(self) -> int | None:
        """Steps left in the armed window (None: unbounded)."""
        if self._step_budget is None:
            return None
        return max(0, self._step_budget
                   - (self.steps - self._window_start))

    def arm(self, budget: Budget) -> _Token:
        """Enforce ``budget`` from now on; returns a restore token.

        Arming replaces the previous budgets wholesale — nesting
        semantics (inner budget wins, outer restored on exit) live in
        :meth:`Manager.with_budget`, which always restores through the
        returned token, body raising or not.
        """
        token: _Token = (self._node_budget, self._step_budget,
                         self._deadline, self._window_start)
        self._node_budget = budget.node_budget
        self._step_budget = budget.step_budget
        self._deadline = None if budget.deadline is None \
            else time.perf_counter() + budget.deadline
        self._window_start = self.steps
        return token

    def restore(self, token: _Token) -> None:
        """Restore the armed state captured by :meth:`arm`."""
        (self._node_budget, self._step_budget, self._deadline,
         self._window_start) = token

    @contextmanager
    def suspended(self) -> Iterator["Governor"]:
        """Run a block with budgets *and* fault injection paused.

        The escalation ladder's recovery work (subset extraction,
        sifting, the final exact fallback) must be allowed to complete
        even though the budget that triggered it is still formally
        armed; this context manager is how that work opts out.
        Exception-safe and nestable.
        """
        token = self.arm(Budget())
        inject = (self._inject_op, self._inject_remaining)
        self._inject_remaining = None
        try:
            yield self
        finally:
            self.restore(token)
            self._inject_op, self._inject_remaining = inject

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def inject_abort_after(self, steps: int,
                           op: str | None = None) -> None:
        """Arm a one-shot abort after ``steps`` further kernel steps.

        Deterministic test hook: the first checkpoint at which the
        matching op (any op when ``op`` is None) has accumulated
        ``steps`` more kernel steps raises :class:`InjectedAbort`, then
        the injection disarms itself.  Granularity is
        :data:`CHECK_STRIDE` steps — the abort fires at the first
        checkpoint at or past the requested count.
        """
        if steps <= 0:
            raise ValueError("steps must be positive")
        self._inject_op = op
        self._inject_remaining = steps

    def clear_injection(self) -> None:
        """Disarm any pending injected abort."""
        self._inject_op = None
        self._inject_remaining = None

    @property
    def injection_pending(self) -> bool:
        return self._inject_remaining is not None

    # ------------------------------------------------------------------
    # The checkpoint (kernel hot path)
    # ------------------------------------------------------------------

    def checkpoint(self, op: str, steps: int = CHECK_STRIDE) -> None:
        """Account ``steps`` kernel steps and enforce the budgets.

        Called from inside kernel loops between frames — never while a
        frame is half-applied — so raising here leaves the unique table
        and computed cache consistent (see the module docstring).
        """
        self.steps += steps
        remaining = self._inject_remaining
        if remaining is not None and (self._inject_op is None
                                      or self._inject_op == op):
            remaining -= steps
            if remaining <= 0:
                self._inject_remaining = None
                self._record_abort(op)
                raise InjectedAbort(
                    f"injected abort in {op!r} "
                    f"(REPRO_INJECT_ABORT/inject_abort_after)")
            self._inject_remaining = remaining
        if self._node_budget is None and self._step_budget is None \
                and self._deadline is None:
            return
        nodes = self._store._count
        if nodes > self.budget_peak_nodes:
            self.budget_peak_nodes = nodes
        window_steps = self.steps - self._window_start
        if window_steps > self.budget_peak_steps:
            self.budget_peak_steps = window_steps
        if self._node_budget is not None and nodes > self._node_budget:
            self._record_abort(op)
            raise BudgetExceeded(
                f"node budget {self._node_budget} exceeded "
                f"({nodes} live nodes) in {op!r}")
        if self._step_budget is not None \
                and window_steps > self._step_budget:
            self._record_abort(op)
            raise BudgetExceeded(
                f"step budget {self._step_budget} exceeded "
                f"({window_steps} steps) in {op!r}")
        if self._deadline is not None \
                and time.perf_counter() > self._deadline:
            self._record_abort(op)
            raise DeadlineExceeded(
                f"deadline exceeded in {op!r}")

    def _record_abort(self, op: str) -> None:
        counts = self._abort_counts
        counts[op] = counts.get(op, 0) + 1
