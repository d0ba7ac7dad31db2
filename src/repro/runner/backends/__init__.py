"""Pluggable executor backends for :class:`~repro.runner.SweepRunner`.

The runner owns sweep policy (seeds, cache, retries, timeouts, journal);
a backend owns the mechanics of running cells: in-process
(:class:`SerialBackend`) or on a local process pool
(:class:`ProcessPoolBackend`).  Backends are interchangeable by
construction — per-cell SHA-256 seed derivation makes placement
irrelevant, so the same sweep yields bit-identical results on either
(enforced by the conformance suite in ``tests/test_backends.py``).
"""

from __future__ import annotations

from ...errors import ConfigError
from .base import (
    ERROR,
    LOST,
    OK,
    REJECTED,
    REQUEUED,
    BackendUnavailableError,
    CellTask,
    ExecutorBackend,
    TaskOutcome,
    TransientSubmitError,
    run_task,
)
from .process import ProcessPoolBackend
from .serial import SerialBackend

#: Names accepted by ``SweepRunner(backend=...)``.
BACKENDS = ("serial", "process")


def make_backend(name: str, *, jobs: int = 1, max_rebuilds: int = 16) -> ExecutorBackend:
    """Build a backend from its registry name (``jobs`` sizes the pool)."""
    spec = (name or "").strip().lower()
    if spec == "serial":
        return SerialBackend()
    if spec == "process":
        return ProcessPoolBackend(max(1, jobs), max_rebuilds=max_rebuilds)
    raise ConfigError(f"unknown sweep backend {name!r}; expected one of {BACKENDS}")


__all__ = [
    "BACKENDS",
    "BackendUnavailableError",
    "CellTask",
    "ERROR",
    "ExecutorBackend",
    "LOST",
    "OK",
    "ProcessPoolBackend",
    "REJECTED",
    "REQUEUED",
    "SerialBackend",
    "TaskOutcome",
    "TransientSubmitError",
    "make_backend",
    "run_task",
]
