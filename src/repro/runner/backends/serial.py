"""In-process serial backend: one task at a time, zero isolation.

The reference implementation of the backend contract — and the executor
of last resort the runner falls back to when the process pool reports
:class:`~.base.BackendUnavailableError`.  Execution happens inside
:meth:`poll` in the parent process, so crash faults raise
:class:`~repro.runner.faults.InjectedCrashError` instead of exiting the
interpreter, and per-cell timeouts are unenforceable
(``preemptible=False``).
"""

from __future__ import annotations

from .base import ERROR, OK, CellTask, ExecutorBackend, TaskOutcome, run_task


class SerialBackend(ExecutorBackend):
    name = "serial"
    preemptible = False

    def __init__(self) -> None:
        self._pending: CellTask | None = None

    @property
    def capacity(self) -> int:
        return 1

    def submit(self, task: CellTask) -> None:
        if self._pending is not None:
            raise RuntimeError("serial backend already has a task in flight")
        self._pending = task

    def poll(self, timeout: float | None) -> list[TaskOutcome]:
        task = self._pending
        if task is None:
            return []
        self._pending = None
        try:
            value, duration = run_task(task, in_worker=False)
        except Exception as exc:
            return [TaskOutcome(
                task_id=task.task_id, kind=ERROR,
                error=str(exc) or repr(exc), error_type=type(exc).__name__,
            )]
        return [TaskOutcome(
            task_id=task.task_id, kind=OK, value=value, duration_s=duration,
        )]

    def abandon(self, task_ids) -> None:
        # An in-process task cannot be preempted; nothing to reclaim.
        self._pending = None
