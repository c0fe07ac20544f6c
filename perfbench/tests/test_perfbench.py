"""Tests of the benchmark itself.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import benchenv  # noqa: E402

benchenv.configure()

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bogolib.errors import ConvergenceError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    return done


def last_json(stdout: str) -> dict:
    return json.loads(stdout.rstrip("\n").split("\n")[-1])


def test_spec_lists_the_metrics_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(harness.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, unit, _ in harness.PER_LAYER
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_short_run_of_each_workload_completes(name):
    done = run_bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(harness.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    done = run_bench(
        "--workload", "desk-scenarios", "--seed", "4", "--seconds", "1", "--trace", "1"
    )
    assert done.returncode == 0, done.stderr
    metrics = last_json(done.stdout)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    # Counts are reproduced exactly, as whole numbers.
    assert metrics["number_shift.solve_calls"]["value"] == 3
    assert metrics["homogeneous.fock_dimension.N60"]["value"] == 1891
    assert type(metrics["homogeneous.fock_dimension.N60"]["value"]) is int
    record = json.loads((benchenv.OUT / "desk-scenarios-seed4-trace1.json").read_text())
    rung = [op for op in record["ops"] if op["chain"] == "n2048"]
    assert len(rung) == 1
    assert metrics["gpe.failed.n2048"]["value"] == (0 if rung[0]["ok"] else 1)
    assert record["spans"] and record["layer_self_s"]["desk"]["cli"] > 0


def test_gate_fails_the_linear_evolution():
    grid = workloads.build_grid(workloads.QUENCH_POINTS, workloads.QUENCH_LENGTH, "box")
    potential = workloads.harmonic_potential(grid, 1.0)

    linear = workloads.Probe(
        "dyn",
        lambda index, api: workloads.quench_chain(api, grid, potential, 2.0, 1.2, "linear"),
        workloads.check_quench,
    )
    record = harness.attempt(linear, 0, tracing.RAW, 0)
    assert not record.ok
    assert record.counts["max_mismatch"] > 1e-3
    assert "criterion 08" in record.detail


def test_failed_ladder_rung_is_reported_not_skipped(tmp_path):
    class StalledSolve(tracing.Tracer):
        def __init__(self):
            super().__init__()
            self.solve_stationary = self._stall

        @staticmethod
        def _stall(*args, **kwargs):
            raise ConvergenceError("stationary solve stalled", residual=1.2e-11)

    api = StalledSolve()
    record = harness.attempt(workloads.TrapGround(5, tmp_path).ladder_probe, 0, api, 0)
    assert not record.ok and record.detail.startswith("ConvergenceError")
    assert record.chain == "n2048" and record.traced
    assert [(s["name"], s["tag"]) for s in api.spans] == [("build_phonon_basis", "n2048")]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "trap-ground", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
