"""The process that runs one workload; started by ``perfbench/run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--setup-only]

Protocol on standard output: human-readable lines, one ``READY`` line
just before the first simulated operation (the set-up clock stops there),
and last a ``RESULT {json}`` line.  ``--setup-only`` exits at ``READY``.

Untraced (``--trace 0``): operations run in a closed loop until
``--seconds`` have passed (at least one).  Traced (``--trace 1``): one
untraced operation, then traced ones; every traced operation must give
the same simulated outputs as the untraced one.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def canonical(outputs: dict) -> dict:
    """``outputs`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(outputs, sort_keys=True))


def compare(outputs: dict, reference: dict | None) -> list[str]:
    if reference is None:
        return ["no stored reference output for this case"]
    keys = sorted(set(outputs) | set(reference))
    differing = [k for k in keys if outputs.get(k) != reference.get(k)]
    return [f"differs from reference in {', '.join(differing)}"] if differing else []


def load_reference(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def git_commit() -> str:
    # The ceiling keeps git from searching above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(workload: str, seed: int, case: int) -> dict:
    from repro.sim.kernels import accel_signature

    return {
        "workload": workload,
        "seed": seed,
        "case": case,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "accel": accel_signature(),
        "git_commit": git_commit(),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
    }


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and that of its largest
    child (the sweep pool's workers).  A pool is shut down without
    waiting for its workers, so they are joined first: a child counts
    only once it has been reaped."""
    for child in multiprocessing.active_children():
        child.join()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(tracer, op, outputs: dict, window_s: float) -> dict:
    """The per-layer metrics of one traced operation."""
    from spans import LAYERS

    self_s = {layer: tracer.self_s.get(layer, 0.0) for layer in LAYERS}
    cumulative = tracer.cumulative_s
    m: dict[str, float] = {}
    for layer in ("sim", "mem", "cache", "dram", "pmu", "core", "workloads"):
        m[f"{layer}.self_s"] = self_s[layer]

    ops = outputs.get("ops_executed", 0)
    m["sim.ops"] = ops
    m["sim.host_ns_per_op"] = cumulative.get("sim", 0.0) * 1e9 / ops if ops else 0.0

    machine = op.machine
    if machine is not None:
        hierarchy = machine.memory.hierarchy
        llc = hierarchy.llc.stats
        device = machine.memory.device
        m["mem.accesses"] = hierarchy.l1.stats.accesses
        m["cache.llc_misses"] = llc.misses
        m["cache.llc_miss_ratio"] = llc.misses / llc.accesses if llc.accesses else 0.0
        m["cache.evictions"] = llc.evictions
        m["dram.activations"] = device.stats.activations
        m["dram.row_hit_ratio"] = (
            device.stats.row_hits / device.stats.accesses if device.stats.accesses else 0.0
        )
        m["dram.blocked_cycles"] = machine.memory.controller.stats.blocked_cycles
        m["dram.flips"] = len(device.tracker.flips)
    else:
        for name in ("mem.accesses", "cache.llc_misses", "cache.llc_miss_ratio",
                     "cache.evictions", "dram.activations", "dram.row_hit_ratio",
                     "dram.blocked_cycles", "dram.flips"):
            m[name] = 0

    m["pmu.samples"] = tracer.counts.get("pmu.samples", 0)
    anvil = op.anvil
    # Each sample taken on the monitored core charges ANVIL's PMI cost.
    m["pmu.pmi_cycles"] = (
        tracer.counts.get("pmu.monitored_samples", 0) * anvil.config.pmi_cost_cycles
        if anvil else 0
    )

    stats = anvil.stats if anvil is not None else None
    m["core.stage1_windows"] = stats.stage1_windows if stats else 0
    m["core.stage2_windows"] = stats.stage2_windows if stats else 0
    m["core.detections"] = stats.detection_count if stats else 0
    m["core.selective_refreshes"] = stats.selective_refreshes if stats else 0
    m["core.overhead_cycles"] = anvil.report().overhead_cycles if anvil else 0

    m["workloads.corunner_s"] = cumulative.get("workloads", 0.0)
    m["workloads.injected_ops"] = op.mix.injected_ops if op.mix is not None else 0

    m["attacks.prepare_s"] = cumulative.get("attacks", 0.0)
    m["attacks.iterations"] = outputs.get("iterations", 0)

    cells = op.host.get("cell_s", [])
    jobs = op.host.get("jobs", 1)
    m["runner.overhead_s"] = (
        max(0.0, cumulative.get("runner", 0.0) - sum(cells) / jobs) if cells else 0.0
    )
    m["runner.cells"] = len(cells)
    m["runner.cache_hits"] = outputs.get("cache_hits", 0)
    m["runner.retries"] = op.host.get("retries", 0)

    m["other.self_s"] = max(0.0, window_s - sum(self_s.values()))
    return m


def run_operation(workload, case: int, op, traced: bool):
    """Set up (unless ``op`` is given) and run one operation; return its
    host seconds, simulated outputs (None if it raised), problems found,
    and per-layer metrics (None unless ``traced``)."""
    from spans import Tracer

    tracer = Tracer() if traced else None
    outputs = None
    problems: list[str] = []
    window_start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
        if op is None:
            op = workload.setup(case)
        t0 = time.perf_counter()
        outputs = canonical(op.run())
        host_s = time.perf_counter() - t0
    # An operation that raises is recorded as failed and the run goes on:
    # the result reports it through ``failed``.
    except Exception:  # repro: noqa[ERR001]
        traceback.print_exc()
        host_s = time.perf_counter() - window_start
        problems.append("raised " + traceback.format_exc().splitlines()[-1])
    finally:
        if tracer is not None:
            tracer.remove()
    if outputs is None:
        return host_s, None, problems, None
    problems += workload.invariants(outputs)
    layers = None
    if tracer is not None:
        window_s = time.perf_counter() - window_start
        layers = layer_metrics(tracer, op, outputs, window_s)
    return host_s, outputs, problems, layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the paper bench's)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import CALIBRATION_NOTE, WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed
    case = workload.case_of(args.seed)
    op = workload.setup(case)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    references = load_reference(workload.name)
    reference = references.get(str(case))

    records: list[dict] = []
    layer_runs: list[dict] = []
    windows: list[float] = []
    first_outputs = None
    start = time.perf_counter()
    while True:
        traced = args.trace == 1 and bool(records)
        window_start = time.perf_counter()
        host_s, outputs, problems, layers = run_operation(workload, case, op, traced)
        windows.append(time.perf_counter() - window_start)
        if outputs is not None:
            problems += compare(outputs, reference)
            if first_outputs is None:
                first_outputs = outputs
            elif outputs != first_outputs:
                problems.append("outputs differ from this run's first operation")
        if layers is not None:
            layer_runs.append(layers)
        records.append({
            "host_s": host_s,
            "sim_ms": outputs["sim_ms"] if outputs else 0.0,
            "traced": traced,
            "problems": problems,
        })
        print(f"op {len(records)}{' traced' if traced else ''}: "
              f"{host_s:.3f} s host, "
              f"{records[-1]['sim_ms']:.3f} ms simulated"
              + (f" FAILED: {'; '.join(problems)}" if problems else ""), flush=True)
        # Free this operation's machine before the next is built, so the
        # peak RSS is that of one operation however many a run makes.
        op = None
        gc.collect()
        # Start another operation only if it would end less than half an
        # operation past the deadline, so a run lasts about ``--seconds``.
        projected = time.perf_counter() - start + statistics.median(windows) / 2
        if projected >= args.seconds and (args.trace == 0 or len(records) >= 2):
            break

    if layer_runs:
        from spans import MOVES

        for metric, target in MOVES.items():
            print(f"layer {metric}: {target}")
    if first_outputs is not None:
        for line in workload.paper(first_outputs):
            print(f"paper: {line}")
        print(f"paper: {CALIBRATION_NOTE}")
    print("fingerprint: " + json.dumps(fingerprint(workload.name, args.seed, case),
                                       sort_keys=True))

    # Timing counts every untraced operation that completed, correct or
    # not; correctness is reported separately through ``failed``.  If
    # none completed there are no timings, and run.py reports the failure.
    timed = [r for r in records if not r["traced"] and r["sim_ms"] > 0]
    result = {
        "attempted": len(records),
        "failed": sum(1 for r in records if r["problems"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    if timed:
        # Totals over the measured section, not medians of its two to six
        # operations: on a host whose speed drifts, a median of so few
        # samples spreads more between runs than their mean does.
        host_s = sum(r["host_s"] for r in timed)
        result["wall_s"] = host_s / len(timed)
        result["sim_ms_per_s"] = sum(r["sim_ms"] for r in timed) / host_s
    if layer_runs and timed:
        layers = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
        traced_s = statistics.median(r["host_s"] for r in records
                                     if r["traced"] and r["sim_ms"] > 0)
        layers["trace.overhead"] = traced_s / timed[0]["host_s"]
        result["layers"] = layers
    print("RESULT " + json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
