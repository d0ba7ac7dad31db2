"""The repository benchmark: host time to regenerate the paper's results.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Workloads, metrics and bounds are in
``BENCHMARK.json``; the workloads themselves in ``perfbench/workloads.py``.

``--trace 0`` measures the end-to-end metrics.  Set-up time is sampled
three times, each from a fresh interpreter until just before the first
simulated operation: two set-up-only processes, then the measuring
process itself, which runs operations in a closed loop for ``--seconds``.
``--trace 1`` runs one operation untraced and then traced ones, and
reports the per-layer metrics (``perfbench/spans.py``).

Every simulated output is compared exactly against
``perfbench/reference/``.  Human-readable lines come first, each metric
by name with its unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

This file imports only the standard library, so it can tell a checkout
without the ``repro`` sources apart and exit with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3
#: Every process this benchmark starts is killed after this long.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(argv: list[str], deadline: float, echo: bool) -> tuple[float, dict | None]:
    """Run ``worker.py`` with ``argv``; return (seconds from start to its
    ``READY`` line, its ``RESULT`` object or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    started = time.perf_counter()
    # Its own process group, so that a kill also reaches the sweep pool.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        start_new_session=True,
    )

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    killer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    killer.start()
    ready_s = None
    result = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line == "READY" and ready_s is None:
                ready_s = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            elif echo:
                print(line, flush=True)
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready_s is None:
        raise WorkerError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return ready_s, result


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the paper bench's)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    setup_samples = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                ready_s, _ = run_worker(common + ["--setup-only", "--seconds", "0"],
                                        deadline, echo=False)
                setup_samples.append(ready_s)
        ready_s, result = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline, echo=True,
        )
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print("perfbench: the worker printed no result", file=sys.stderr)
        return 1
    setup_samples.append(ready_s)

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        wanted = spec["per_layer"]
        values = result.get("layers", {})
    else:
        wanted = spec["end_to_end"]
        values = dict(result)
        values["setup_s"] = statistics.median(setup_samples)
        values["ok_frac"] = (attempted - failed) / attempted
    missing = [m["name"] for m in wanted if m["name"] not in values]
    # Timings are missing when no operation completed; that is reported
    # as failed operations.  Missing without a failure is a defect here.
    if missing and not failed:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    metrics = {}
    for m in wanted:
        if m["name"] in missing:
            print(f"{m['name']}: none, no operation completed")
            continue
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value:.6g} {m['unit']}")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
