"""The executor-backend contract: *how* sweep cells run.

:class:`~repro.runner.runner.SweepRunner` owns sweep *policy* — seed
derivation, caching, retry/backoff, per-cell timeouts, failure policies,
and the checkpoint journal.  Everything about where a cell's code
actually executes lives behind :class:`ExecutorBackend`: in this process
(:class:`~.serial.SerialBackend`) or on a local process pool
(:class:`~.process.ProcessPoolBackend`).

The contract is deliberately small:

- :meth:`ExecutorBackend.start` brings the backend up (warms a pool); it
  raises :class:`BackendUnavailableError` when execution can never work
  here, which the runner answers with its in-process serial fallback.
- :meth:`ExecutorBackend.submit` hands over one :class:`CellTask`; it
  may raise :class:`TransientSubmitError` ("not right now — re-offer the
  task later, uncharged") or :class:`BackendUnavailableError` ("never").
- :meth:`ExecutorBackend.poll` blocks up to ``timeout`` seconds and
  returns completed :class:`TaskOutcome` records.  Outcomes carry a
  *kind* that tells the runner how to charge the cell:

  ========== =====================================================
  ``ok``      cell value computed; settle the cell
  ``error``   the cell raised; charge the attempt, retry/backoff
  ``lost``    the worker died under the cell; charge the attempt
  ``requeued`` collateral damage (a sibling's crash/abandonment);
              re-dispatch without charging an attempt
  ``rejected`` the payload/result cannot cross this backend's
              boundary at all; the runner goes serial for the sweep
  ========== =====================================================

- :meth:`ExecutorBackend.abandon` gives up on stuck in-flight tasks (the
  runner's per-cell wall-clock timeout); the backend reclaims whatever
  capacity it can and re-offers innocent tasks as ``requeued`` outcomes.
- :meth:`ExecutorBackend.stats` aggregates counters (``pool_breaks``)
  that the runner merges into ``last_stats``.

Because every cell's seed is a pure function of (root seed, job key),
*placement is irrelevant to results*: any two backends executing the
same grid must produce bit-identical :class:`~repro.runner.job.JobResult`
lists.  ``tests/test_backends.py`` enforces that conformance for every
registered backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable

from ...errors import ReproError
from ..faults import trip
from ..job import Job, run_job

#: Outcome kinds (see the table in the module docstring).
OK = "ok"
ERROR = "error"
LOST = "lost"
REQUEUED = "requeued"
REJECTED = "rejected"


class BackendUnavailableError(ReproError):
    """The backend can never execute this sweep (no pool, unserializable
    payloads...); the runner falls back to its in-process serial
    executor."""


class TransientSubmitError(ReproError):
    """The backend could not accept a task *right now* (a pool mid-
    rebuild); the runner re-offers the task later without charging an
    attempt."""


@dataclass(frozen=True)
class CellTask:
    """One dispatched cell attempt: the job, its derived seed, and the
    (optional, picklable) fault spec that must trip before the body."""

    task_id: int
    job: Job
    seed: int | None
    fault_spec: tuple | None = None


@dataclass(frozen=True)
class TaskOutcome:
    """One completed/settled task as reported by a backend."""

    task_id: int
    kind: str
    value: Any = None
    duration_s: float = 0.0
    error: str | None = None
    error_type: str | None = None


def run_task(task: CellTask, in_worker: bool) -> tuple[Any, float]:
    """Execute one cell attempt in the current process.

    Shared by every backend's execution site (serial, pool worker); the
    fault spec trips *before* the cell body, crashing, raising, or
    hanging as planned.  Returns the cell value and the wall-clock
    duration.
    """
    t0 = time.perf_counter()
    if task.fault_spec is not None:
        trip(task.fault_spec, in_worker)
    value = run_job(task.job, task.seed)
    return value, time.perf_counter() - t0


class ExecutorBackend:
    """Abstract executor backend (see module docstring for the contract).

    ``name`` identifies the backend in stats; ``preemptible`` tells the
    runner whether per-cell wall-clock timeouts are enforceable (an
    in-process cell cannot be abandoned, a pool worker can).
    """

    name: str = "?"
    preemptible: bool = False

    def start(self) -> None:
        """Bring the backend up; raise :class:`BackendUnavailableError`
        if execution can never work here."""

    @property
    def capacity(self) -> int:
        """How many tasks may be in flight concurrently."""
        raise NotImplementedError

    def submit(self, task: CellTask) -> None:
        """Accept one task for execution (see module docstring for the
        exception contract)."""
        raise NotImplementedError

    def poll(self, timeout: float | None) -> list[TaskOutcome]:
        """Completed outcomes, blocking up to ``timeout`` seconds
        (``None`` = until at least one task settles)."""
        raise NotImplementedError

    def abandon(self, task_ids: Iterable[int]) -> None:
        """Give up on stuck in-flight tasks; innocent collateral tasks
        come back as ``requeued`` outcomes from the next :meth:`poll`."""

    def shutdown(self, cancel: bool = True) -> None:
        """Release workers; idempotent."""

    def stats(self) -> dict[str, int]:
        """Aggregate counters merged into ``SweepRunner.last_stats``."""
        return {}
