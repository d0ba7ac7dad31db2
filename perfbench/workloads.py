"""The benchmark's four workloads, built through the ``repro`` public API.

Every workload takes the parameters and seeds of the paper benches under
``benchmarks/`` but does not import them, so editing a paper bench cannot
change what this benchmark measures.

A workload is run as a closed loop of *operations*.  An operation is one
attack case on a freshly built machine, or one pass over the epoch-model
grids.  Each operation returns its simulated outputs as a JSON-ready dict
(compared exactly against ``perfbench/reference/<workload>.json``) plus
the simulated milliseconds it covered.

The workload seed picks one of the workload's cases,
``case = cases[seed % len(cases)]``; the default seed of every workload is
the paper bench's own seed.  A workload's cases all simulate the same
amount of work, so that host time compares across seeds.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Callable

from repro.attacks import ClflushFreeAttack, DoubleSidedClflushAttack
from repro.core import AnvilConfig, AnvilModule
from repro.presets import paper_machine
from repro.runner import Job, SweepRunner, derive_seed
from repro.sim.epoch import run_epoch_cell
from repro.units import MB
from repro.workloads import SPEC2006_INT, BackgroundMix

#: Placements (machine and attack seeds) that simulate the same work,
#: checked against the stored references by the self-tests.
ALL_PLACEMENTS = tuple(range(16))

#: Simulated length of one ANVIL operation.  ANVIL's first detection
#: completes at 12.01 ms (one 6 ms stage-1 window, then one 6 ms stage-2
#: window), so 13 ms is the shortest whole-millisecond run holding it.
ANVIL_OP_MS = 13.0

#: Table 1's time budget for the double-sided CLFLUSH attack.
HAMMER_MAX_MS = 120.0

REFRESH_CYCLE_MS = 64.0


@dataclass
class Operation:
    """A set-up operation: ``run()`` executes it once."""

    run: Callable[[], dict]
    #: Live objects whose public stats the traced run reads afterwards.
    machine: Any = None
    anvil: Any = None
    mix: Any = None
    #: Host-side bookkeeping of the last run (never compared): per-cell
    #: seconds, retries, pool size.
    host: dict = dataclasses.field(default_factory=dict)


class RunRecorder:
    """Keeps the :class:`RunResult` of every ``Machine.run`` call made on
    one machine, so ``ops_executed`` can be checked even though
    ``Attack.run`` does not return it."""

    def __init__(self, machine) -> None:
        self.results = []
        run = machine.run

        def record(*args, **kwargs):
            result = run(*args, **kwargs)
            self.results.append(result)
            return result

        machine.run = record


# -- machine workloads -------------------------------------------------------


def _attack_op(machine, attack, *, max_ms: float, stop_on_flip: bool,
               anvil=None, mix=None) -> Operation:
    recorder = RunRecorder(machine)

    def run() -> dict:
        start = machine.cycles
        result = attack.run(machine, max_ms=max_ms, stop_on_flip=stop_on_flip)
        end = machine.cycles
        flips = machine.memory.device.tracker.flips
        out = {
            "sim_ms": machine.clock.ms_from_cycles(end - start),
            "end_cycles": end,
            "ops_executed": sum(r.ops_executed for r in recorder.results),
            "iterations": result.iterations,
            "flips": result.flips,
            "first_flip_cycles": flips[0].time_cycles if flips else None,
            "time_to_first_flip_ms": result.time_to_first_flip_ms,
            "min_row_accesses": result.min_row_accesses,
            "llc_misses": result.llc_misses,
            "dram_accesses": result.total_dram_accesses,
        }
        if anvil is not None:
            stats = anvil.stats
            out["detections"] = stats.detection_count
            out["detection_cycles"] = [d.time_cycles for d in stats.detections]
            out["first_detection_ms"] = anvil.first_detection_ms()
            out["selective_refreshes"] = stats.selective_refreshes
            out["stage1_windows"] = stats.stage1_windows
            out["stage2_windows"] = stats.stage2_windows
            out["samples_collected"] = stats.samples_collected
            out["refreshes_per_64ms"] = stats.refreshes_per_interval(
                machine.clock.cycles_from_ms(REFRESH_CYCLE_MS), end - start
            )
        if mix is not None:
            out["injected_ops"] = mix.injected_ops
        return out

    return Operation(run=run, machine=machine, anvil=anvil, mix=mix)


def setup_hammer_flip(case: int) -> Operation:
    """§2.1 / Table 1: double-sided CLFLUSH hammering to the first flip,
    64 ms refresh, no ANVIL, no co-runners."""
    machine = paper_machine(seed=case)
    attack = DoubleSidedClflushAttack(buffer_bytes=256 * MB, seed=case)
    attack.prepare(machine)
    return _attack_op(machine, attack, max_ms=HAMMER_MAX_MS, stop_on_flip=True)


def setup_anvil_heavy(case: int) -> Operation:
    """Table 3 "CLFLUSH (heavy load)": mcf+libquantum+omnetpp co-runners,
    ANVIL-baseline armed, double-sided CLFLUSH attack."""
    machine = paper_machine(seed=case)
    mix = BackgroundMix(seed=case + 6)  # the paper bench's seed 7 at case 1
    mix.attach(machine)
    anvil = AnvilModule(machine, AnvilConfig.baseline())
    anvil.install()
    attack = DoubleSidedClflushAttack(buffer_bytes=256 * MB, seed=case)
    attack.prepare(machine)
    return _attack_op(machine, attack, max_ms=ANVIL_OP_MS, stop_on_flip=False,
                      anvil=anvil, mix=mix)


def setup_evict_anvil(case: int) -> Operation:
    """Table 3 "CLFLUSH-free (light load)": Bit-PLRU eviction-set
    hammering with ANVIL-baseline armed, no co-runners."""
    machine = paper_machine(seed=case)
    anvil = AnvilModule(machine, AnvilConfig.baseline())
    anvil.install()
    attack = ClflushFreeAttack(buffer_bytes=256 * MB, seed=case)
    attack.prepare(machine)
    return _attack_op(machine, attack, max_ms=ANVIL_OP_MS, stop_on_flip=False,
                      anvil=anvil)


# -- the epoch-model grids ---------------------------------------------------

#: Fig 4's (name, config) pairs and benchmarks.
FIG4_CONFIGS = (
    ("ANVIL-baseline", AnvilConfig.baseline()),
    ("ANVIL-light", AnvilConfig.light()),
    ("ANVIL-heavy", AnvilConfig.heavy()),
)
FIG4_BENCHMARKS = ("bzip2", "gcc", "gobmk", "libquantum", "perlbench")


def fig3_jobs(root_seed: int) -> list[Job]:
    del root_seed  # Fig 3 cells derive their seeds inside the runner
    return [
        Job.of(run_epoch_cell, key=f"fig3/{name}", benchmark=name, horizon_s=60.0)
        for name in SPEC2006_INT
    ]


def table4_jobs(root_seed: int) -> list[Job]:
    del root_seed
    return [
        Job.of(run_epoch_cell, key=f"table4/{name}", benchmark=name,
               config=AnvilConfig.baseline(), horizon_s=120.0)
        for name in SPEC2006_INT
    ]


def fig4_jobs(root_seed: int) -> list[Job]:
    return [
        Job.of(
            run_epoch_cell,
            key=f"fig4/{config_name}/{name}",
            seed=derive_seed(root_seed, f"fig4/{name}"),
            benchmark=name,
            config=config,
            config_name=config_name,
            horizon_s=60.0,
        )
        for config_name, config in FIG4_CONFIGS
        for name in FIG4_BENCHMARKS
    ]


#: (grid, paper bench root seed, job builder).
GRIDS = (
    ("fig3", 17, fig3_jobs),
    ("table4", 11, table4_jobs),
    ("fig4", 19, fig4_jobs),
)


def grid_jobs() -> int:
    """Sweep worker count: one per CPU, at most two."""
    return min(2, os.cpu_count() or 1)


def setup_epoch_grid(case: int) -> Operation:
    """Fig 3 + Table 4 + Fig 4 epoch grids through the sweep runner, cache
    off, at most two pool workers."""
    jobs = grid_jobs()
    grids = []
    for name, root, build in GRIDS:
        runner = SweepRunner(
            jobs=jobs,
            root_seed=root + case,
            cache=None,
            backend="process" if jobs > 1 else "serial",
        )
        grids.append((name, runner, build(root + case)))

    host = {"jobs": jobs, "cell_s": [], "retries": 0}

    def run() -> dict:
        out: dict[str, Any] = {"sim_ms": 0.0, "cache_hits": 0, "failures": 0}
        for name, runner, cells in grids:
            results = runner.run(cells)
            out["cache_hits"] += runner.last_stats["cache_hits"]
            out["failures"] += runner.last_stats["failures"]
            host["retries"] += runner.last_stats.get("retries", 0)
            host["cell_s"].extend(r.duration_s for r in results)
            out["sim_ms"] += sum(c.value.horizon_s for c in results if c.ok) * 1000.0
            out[name] = [
                {"key": r.key, "seed": r.seed, "ok": r.ok,
                 **(dataclasses.asdict(r.value) if r.ok else {})}
                for r in results
            ]
        return out

    return Operation(run=run, host=host)


# -- invariants and paper figures ---------------------------------------------


def _hammer_invariants(out: dict) -> list[str]:
    return [] if out["flips"] > 0 else ["the attack did not flip a bit"]


def _anvil_invariants(out: dict) -> list[str]:
    problems = []
    if out["flips"] != 0:
        problems.append(f"{out['flips']} flips under ANVIL")
    if out["detections"] < 1:
        problems.append("ANVIL made no detection")
    return problems


def _epoch_invariants(out: dict) -> list[str]:
    problems = []
    if out["cache_hits"] != 0:
        problems.append(f"runner.cache_hits = {out['cache_hits']}, expected 0")
    if out["failures"] != 0:
        problems.append(f"{out['failures']} sweep cells failed")
    return problems


CALIBRATION_NOTE = (
    "the model is calibrated to the paper, not validated on hardware, "
    "so no hardware error figure is given"
)


def _hammer_paper(out: dict) -> list[str]:
    if not out["flips"]:
        return ["no flip (paper: 220K accesses, 15 ms)"]
    return [
        f"min row accesses {out['min_row_accesses']:,} vs paper 220K",
        f"time to first flip {out['time_to_first_flip_ms']:.1f} ms vs paper "
        "15 ms (the paper's figure is a campaign minimum)",
    ]


def _table3_paper(label: str, detect_ms: float, refreshes: float):
    def lines(out: dict) -> list[str]:
        first = out["first_detection_ms"]
        first = "none" if first is None else f"{first:.2f} ms"
        return [
            f"Table 3 {label}: {out['detections']} detection(s) in "
            f"{out['sim_ms']:.1f} ms, first at {first} (paper avg {detect_ms} ms "
            "to detect)",
            f"refreshes per 64 ms {out['refreshes_per_64ms']:.2f} vs paper "
            f"{refreshes}; flips {out['flips']} vs paper 0",
        ]

    return lines


def _epoch_paper(out: dict) -> list[str]:
    slow = [c["overhead_cycles"] / c["total_cycles"] + c["dram_refresh_penalty"]
            for c in out["fig3"] if c["ok"]]
    fp = {c["benchmark"]: c["superfluous_refreshes"] / c["horizon_s"]
          for c in out["table4"] if c["ok"]}
    top = sorted(fp, key=fp.get)[-2:]
    fig4_max = max(
        1.0 + c["overhead_cycles"] / c["total_cycles"] + c["dram_refresh_penalty"]
        for c in out["fig4"] if c["ok"]
    )
    return [
        f"Fig 3 ANVIL slowdown avg {sum(slow) / len(slow):.2%} vs paper 1.17%, "
        f"peak {max(slow):.2%} vs paper 3.18%",
        f"Table 4 top false-positive refreshers {top[1]} {fp[top[1]]:.2f}/s, "
        f"{top[0]} {fp[top[0]]:.2f}/s vs paper bzip2 1.05/s, gcc 0.71/s",
        f"Fig 4 max normalized time {fig4_max:.3f} vs paper range 1.00-1.08",
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    cases: tuple[int, ...]
    setup: Callable[[int], Operation]
    invariants: Callable[[dict], list[str]]
    paper: Callable[[dict], list[str]]

    def case_of(self, seed: int) -> int:
        return self.cases[seed % len(self.cases)]


WORKLOADS = {
    w.name: w
    for w in (
        # One case: other placements flip at other times (a victim refresh
        # can land mid-hammer), which changes the work up to twofold.
        Workload("hammer_flip", 0, (0,), setup_hammer_flip, _hammer_invariants,
                 _hammer_paper),
        Workload("anvil_heavy", 1, ALL_PLACEMENTS, setup_anvil_heavy,
                 _anvil_invariants,
                 _table3_paper("CLFLUSH (heavy load)", 12.8, 12.35)),
        # One case: the paper's placement hammers at a lower rate than the
        # others, so it simulates fewer operations in the same 13 ms.
        Workload("evict_anvil", 1, (1,), setup_evict_anvil, _anvil_invariants,
                 _table3_paper("CLFLUSH-free (light load)", 22.85, 5.10)),
        Workload("epoch_grid", 0, ALL_PLACEMENTS, setup_epoch_grid,
                 _epoch_invariants, _epoch_paper),
    )
}
