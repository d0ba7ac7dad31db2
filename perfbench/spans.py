"""Per-layer host-time attribution for the traced run.

:class:`Tracer` wraps each layer's public entry points (the class
attributes named in :data:`BOUNDARIES`) in spans while it is installed,
and puts the originals back on :meth:`Tracer.remove`.  The untraced run
never sees a wrapper.

Spans are not kept one by one: a run makes millions of them.  Each span
pushes a frame on a stack, so it knows its parent; when it ends, its
duration minus its children's is added to its layer's self time, and its
duration to its parent's child time.  A layer's cumulative time counts
only its outermost spans, so a layer that re-enters itself is not
counted twice.

Which end-to-end metric each layer metric should move, and on which
workload, is :data:`MOVES`.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from repro.attacks.base import RowhammerAttack
from repro.cache.hierarchy import CacheHierarchy
from repro.dram.controller import MemoryController
from repro.mem.memory_system import MemorySystem
from repro.pmu.pmu import Pmu
from repro.runner import SweepRunner
from repro.sim.machine import Machine

#: (class, method, layer) — the spans the traced run records.
BOUNDARIES = (
    (Machine, "run", "sim"),
    (MemorySystem, "access", "mem"),
    (MemorySystem, "clflush", "mem"),
    (CacheHierarchy, "access", "cache"),
    (CacheHierarchy, "clflush", "cache"),
    (MemoryController, "access", "dram"),
    (MemoryController, "refresh_row", "dram"),
    (MemoryController, "refresh_neighbors", "dram"),
    (Pmu, "on_access", "pmu"),
    (Pmu, "on_access_other_core", "pmu"),
    (Pmu, "drain_samples", "pmu"),
    (RowhammerAttack, "prepare", "attacks"),
    (SweepRunner, "run", "runner"),
)

#: Timer callbacks and access hooks are attributed by the package that
#: defines them.
CALLBACK_LAYERS = (("repro.core", "core"), ("repro.workloads", "workloads"))

LAYERS = ("sim", "mem", "cache", "dram", "pmu", "core", "workloads",
          "attacks", "runner")

#: Layer metric -> the end-to-end metric and workload it should move.
MOVES = {
    "sim.self_s": "should move wall_s and sim_ms_per_s on hammer_flip; "
                  "no machine work on epoch_grid",
    "mem.self_s": "should move wall_s on hammer_flip, anvil_heavy, evict_anvil",
    "cache.self_s": "should move wall_s on evict_anvil most, then hammer_flip",
    "dram.self_s": "should move wall_s on hammer_flip",
    "pmu.self_s": "should move wall_s on anvil_heavy and evict_anvil; "
                  "no samples on hammer_flip",
    "core.self_s": "about 0 today; the core counts are simulated and must not move",
    "workloads.corunner_s": "should move wall_s on anvil_heavy; 0 elsewhere",
    "attacks.prepare_s": "should move setup_s on evict_anvil (eviction-set build)",
    "runner.overhead_s": "should move wall_s and setup_s on epoch_grid",
    "other.self_s": "host time outside every repro span",
}


def callback_layer(fn) -> str | None:
    module = getattr(fn, "__module__", None) or ""
    for prefix, layer in CALLBACK_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class Tracer:
    """Span accounting over :data:`BOUNDARIES` while installed."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.cumulative_s: dict[str, float] = defaultdict(float)
        #: Counts observed at the boundaries themselves.
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[type, str, object]] = []
        self._hooks: dict[object, object] = {}

    # -- spans -------------------------------------------------------------------

    def span(self, layer: str, fn):
        """``fn`` wrapped in a span of ``layer``."""
        clock, stack, depth = self.clock, self._stack, self._depth
        self_s, cumulative_s = self.self_s, self.cumulative_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            depth[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                self_s[layer] += duration - frame[1]
                depth[layer] -= 1
                if not depth[layer]:
                    cumulative_s[layer] += duration
                if stack:
                    stack[-1][1] += duration

        return traced

    # -- install / remove ------------------------------------------------------------

    def install(self) -> None:
        for cls, name, layer in BOUNDARIES:
            self._patch(cls, name, self._boundary(cls, name, layer))
        self._patch(Machine, "schedule_at", self._schedule_at(Machine.schedule_at))
        self._patch(Machine, "add_access_hook",
                    self._add_hook(Machine.add_access_hook))
        self._patch(Machine, "remove_access_hook",
                    self._remove_hook(Machine.remove_access_hook))

    def remove(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        self._hooks.clear()

    def _patch(self, cls: type, name: str, replacement) -> None:
        self._saved.append((cls, name, vars(cls).get(name)))
        setattr(cls, name, replacement)

    def _boundary(self, cls: type, name: str, layer: str):
        traced = self.span(layer, getattr(cls, name))
        if (cls, name) == (Pmu, "drain_samples"):
            counts = self.counts

            def drain(*args, **kwargs):
                records = traced(*args, **kwargs)
                counts["pmu.samples"] += len(records)
                return records

            return drain
        if (cls, name) == (Pmu, "on_access"):
            counts = self.counts

            def on_access(*args, **kwargs):
                record = traced(*args, **kwargs)
                if record is not None:
                    counts["pmu.monitored_samples"] += 1
                return record

            return on_access
        return traced

    def _schedule_at(self, original):
        def schedule_at(machine, deadline_cycles, callback):
            layer = callback_layer(callback)
            if layer is not None:
                callback = self.span(layer, callback)
            return original(machine, deadline_cycles, callback)

        return schedule_at

    def _add_hook(self, original):
        def add_access_hook(machine, hook):
            layer = callback_layer(hook)
            wrapped = hook if layer is None else self.span(layer, hook)
            self._hooks[hook] = wrapped
            return original(machine, wrapped)

        return add_access_hook

    def _remove_hook(self, original):
        def remove_access_hook(machine, hook):
            return original(machine, self._hooks.pop(hook, hook))

        return remove_access_hook
