"""Regenerate the stored reference outputs in ``perfbench/reference/``.

    PYTHONPATH=src python3 perfbench/make_reference.py WORKLOAD [WORKLOAD ...]

Runs every case of each named workload once, untraced, and writes
``perfbench/reference/<workload>.json`` mapping the case number to its
simulated outputs.  Only a change that is meant to alter simulated
results should ever need this.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import canonical  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    if not names or any(n not in WORKLOADS for n in names):
        print(__doc__, file=sys.stderr)
        return 2
    directory = HERE / "reference"
    directory.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        outputs = {}
        for case in workload.cases:
            outputs[str(case)] = canonical(workload.setup(case).run())
            problems = workload.invariants(outputs[str(case)])
            print(f"{name} case {case}: {problems or 'ok'}", flush=True)
            if problems:
                return 1
        lines = ",\n".join(f"{json.dumps(case)}: {json.dumps(out, sort_keys=True)}"
                           for case, out in outputs.items())
        (directory / f"{name}.json").write_text("{\n" + lines + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
