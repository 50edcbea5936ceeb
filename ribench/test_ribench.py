"""Tests of the benchmark itself: tiny runs pass their checks, injected faults
are caught, and the printed metric names match BENCHMARK.json.

    python -m pytest ribench/test_ribench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_library()

import riimpute.imputation  # noqa: E402
import riimpute.simulation  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    sim_n=200, sim_reps=2, ri_n=20_000, mar_repeats=1, cli_rows=2_000, m=3, sweeps=10, scaling_ns=(500,)
)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", ["sim-grid", "ri-large", "cli-csv"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_every_check(workload, trace):
    record = run.run_workload(workload, seed=3, seconds=0, trace=trace, sizes=TINY)
    assert record["failures"] == {}
    assert record["result"]["correct"] is True
    assert record["result"]["attempted"] >= 1


def test_printed_metric_names_match_benchmark_json():
    untraced = run.run_workload("ri-large", seed=3, seconds=0, trace=False, sizes=TINY)
    assert list(untraced["result"]["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert {k: v["unit"] for k, v in untraced["result"]["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    traced = run.run_workload("ri-large", seed=3, seconds=0, trace=True, sizes=TINY)
    assert list(traced["result"]["metrics"]) == run.per_layer_keys(TINY)
    assert run.per_layer_keys(workloads.Sizes()) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(run.unit_of(m["name"]) == m["unit"] for m in BENCHMARK["per_layer"])


def test_speed_correction_cancels_a_machine_slowdown():
    # the machine runs at full, half and a third of its speed: the reference slows with the operation
    samples = {"op": [1.0, 2.0, 3.0], "ref:op": [0.02, 0.04, 0.06]}
    scaled, _ = run.corrected(samples, "op")
    assert scaled == pytest.approx([workloads.REF_NOMINAL_S / 0.02] * 3)


def test_altered_imputed_cell_is_an_error(monkeypatch):
    original = riimpute.imputation.ri_impute
    calls = []

    def altered(data, config, **kwargs):
        completions = original(data, config, **kwargs)
        calls.append(1)
        if len(calls) > 1:
            missing = ~data.observed_mask
            completions[0][missing.argmax()] += 1.0
        return completions

    monkeypatch.setattr(riimpute.imputation, "ri_impute", altered)
    record = run.run_workload("ri-large", seed=3, seconds=0, trace=False, sizes=TINY)
    assert record["all_metrics"]["op_error_frac"] > 0
    assert any("different completions" in reason for reason in record["failures"].values())


def test_serial_parallel_mismatch_is_an_error(monkeypatch):
    original = riimpute.simulation.run_scenario

    def mismatched(config, n_jobs=1):
        result = original(config, n_jobs=n_jobs)
        if n_jobs > 1:
            result = dataclasses.replace(result, mean_missing_fraction=result.mean_missing_fraction + 1e-9)
        return result

    monkeypatch.setattr(riimpute.simulation, "run_scenario", mismatched)
    record = run.run_workload("sim-grid", seed=3, seconds=0, trace=False, sizes=TINY)
    assert record["all_metrics"]["op_error_frac"] > 0
    assert all("/parallel/" in label for label in record["failures"])


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "ribench", tmp_path / "ribench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "ribench/run.py", "--workload", "ri-large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".ribench").exists()
