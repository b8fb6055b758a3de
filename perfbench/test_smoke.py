"""Smoke test of the benchmark itself.

Runs every workload at tiny sizes, untraced and traced, and checks that
the output checks pass and that every metric BENCHMARK.json names is
reported with its unit. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# a span each workload must exercise when traced
LAYER_OF = {"train-desk": "autodiff.backward.ms",
            "predict-large": "model.predict_denormalized.ms",
            "ingest": "sampling.estimate_curvature.ms"}


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_checks_and_reports_every_metric(name, trace, tmp_path):
    result, report = run.run_workload(name, seed=3, seconds=0.4, trace=trace,
                                      sizes=TINY, workdir=tmp_path)
    assert result["correct"], report["failures"] + report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        assert values[LAYER_OF[name]] > 0
        assert values["datagen.generate.ms"] > 0
        assert values["trace.self_time_gap"] < 1e-6
    else:
        assert all(values[m["name"]] > 0 for m in section)


def test_wrong_output_counts_as_failed(monkeypatch, tmp_path):
    from aerosurrogate import sampling
    real = sampling.sample_adaptive
    monkeypatch.setattr(sampling, "sample_adaptive",
                        lambda cloud, config: real(cloud, config)[1:])
    result, _ = run.run_workload("ingest", seed=3, seconds=0.2, trace=False,
                                 sizes=TINY, workdir=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_workload_list_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_percentile_is_nearest_rank():
    assert run.percentile([float(i) for i in range(1, 101)], 95) == (95.0, 5)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
