"""Self-tests of the benchmark (about three minutes on two CPUs).

    PYTHONPATH=src python3 -m pytest perfbench -q

Every workload runs one operation untraced and one traced, through the
same command the benchmark is run with.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MACHINE_LAYERS = ("sim.ops", "mem.accesses", "cache.llc_misses", "dram.activations")

sys.path.insert(0, str(HERE))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(result: dict, wanted: list[dict]) -> dict:
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in wanted]
    for m in wanted:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
    return {name: v["value"] for name, v in metrics.items()}


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {
        name: result_of(bench("--workload", name, "--seconds", "0", "--trace", "1"))
        for name in WORKLOADS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seconds", "0"))
    values = assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert values["ok_frac"] == 1.0
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(traced, workload):
    result = traced[workload]
    assert_metrics(result, SPEC["per_layer"])
    # One untraced and one traced operation, both equal to the reference
    # and to each other.
    assert result["correct"] and result["attempted"] == 2


def test_layer_profiles(traced):
    layers = {name: assert_metrics(r, SPEC["per_layer"]) for name, r in traced.items()}
    hammer = layers["hammer_flip"]
    assert hammer["workloads.injected_ops"] == 0
    assert hammer["pmu.samples"] == 0
    assert hammer["core.detections"] == 0
    assert hammer["dram.flips"] >= 1
    for name in ("anvil_heavy", "evict_anvil"):
        assert layers[name]["core.detections"] >= 1
        assert layers[name]["dram.flips"] == 0
        assert layers[name]["pmu.samples"] > 0
    for metric in MACHINE_LAYERS + ("sim.self_s", "mem.self_s", "cache.self_s",
                                    "dram.self_s"):
        assert layers["epoch_grid"][metric] == 0
    assert layers["epoch_grid"]["runner.cells"] > 0
    assert layers["epoch_grid"]["runner.cache_hits"] == 0
    assert layers["anvil_heavy"]["workloads.corunner_s"] > 0
    for name in ("hammer_flip", "evict_anvil", "epoch_grid"):
        assert layers[name]["workloads.corunner_s"] == 0
    assert layers["evict_anvil"]["cache.evictions"] > layers["hammer_flip"]["cache.evictions"]


def test_cases_of_a_workload_simulate_equal_work():
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        stored = json.loads((HERE / "reference" / f"{name}.json").read_text())
        assert sorted(map(int, stored)) == sorted(workload.cases)
        assert str(workload.case_of(workload.default_seed)) in stored
        work = {(out.get("ops_executed"), out["sim_ms"]) for out in stored.values()}
        assert len(work) == 1, (name, work)


def copy_checkout(tmp_path: Path, with_sources: bool = True) -> Path:
    """A checkout in ``tmp_path``: a copy of the benchmark, and the
    repository's ``src`` linked in unless ``with_sources`` is false."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path


def test_perturbed_reference_fails(tmp_path):
    checkout = copy_checkout(tmp_path)
    path = checkout / "perfbench" / "reference" / "epoch_grid.json"
    stored = json.loads(path.read_text())
    stored["0"]["fig3"][0]["stage1_windows"] += 1
    path.write_text(json.dumps(stored))
    result = result_of(bench("--workload", "epoch_grid", "--seed", "0",
                             "--seconds", "0", cwd=checkout))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_raising_operation_is_reported_as_failed(tmp_path):
    checkout = copy_checkout(tmp_path)
    with open(checkout / "perfbench" / "workloads.py", "a") as f:
        f.write(
            "\n\ndef _raising_setup(case):\n"
            "    def run():\n"
            "        raise RuntimeError('injected')\n"
            "    return Operation(run=run)\n\n\n"
            "WORKLOADS['epoch_grid'] = dataclasses.replace(\n"
            "    WORKLOADS['epoch_grid'], setup=_raising_setup)\n"
        )
    result = result_of(bench("--workload", "epoch_grid", "--seconds", "0", cwd=checkout))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert "wall_s" not in result["metrics"]


def test_checkout_without_sources_fails_without_result(tmp_path):
    checkout = copy_checkout(tmp_path, with_sources=False)
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=checkout)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_restores_every_boundary():
    from repro.sim.machine import Machine
    from spans import BOUNDARIES, Tracer

    patched = [(cls, name) for cls, name, _ in BOUNDARIES] + [
        (Machine, "schedule_at"), (Machine, "add_access_hook"),
        (Machine, "remove_access_hook"),
    ]
    before = {(cls, name): vars(cls).get(name) for cls, name in patched}
    tracer = Tracer()
    tracer.install()
    try:
        assert all(vars(cls).get(name) is not before[(cls, name)]
                   for cls, name in patched)
    finally:
        tracer.remove()
    assert {(cls, name): vars(cls).get(name) for cls, name in patched} == before
