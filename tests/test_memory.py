"""Freed memory stays in the process for the next operation, and a train
step holds only what its backward needs.

Importing the package sets glibc malloc's mmap and trim thresholds, so a
repeated prediction or train step reuses the memory the previous one freed
instead of faulting it in again. Each measurement runs in a fresh process,
so that what earlier tests allocated does not move glibc's thresholds.
Without the fixed thresholds a desk-profile prediction on 8192+4096 points
takes about 5000 minor faults per call and a desk train step 400-600.
"""

import os
from pathlib import Path
import platform
import subprocess
import sys

import pytest

import aerosurrogate

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the thresholds are glibc malloc's")

ROOT = Path(__file__).resolve().parent.parent

_MEASURE = """
import resource, sys, tracemalloc
from aerosurrogate import datagen, model, pointcloud, training

op, n_surface, n_volume = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
measure = sys.argv[4]
config = model.ModelConfig(layers=2, channels=64, slices=16, heads=4,
                           geom_width=6, seed=0, precision="f32")
rec = datagen.generate_records(datagen.DatasetSpec(
    n_samples=1, n_surface=n_surface, n_volume=n_volume, seed=1))[0]
stats = pointcloud.compute_stats([rec])
state = model.init_model(config, stats)
if op == "predict":
    def call():
        model.predict_denormalized(state, rec.surface, rec.volume)
else:
    rec = pointcloud.normalize(rec, stats)
    moments = training.AdamState.fresh(state.params)
    train_config, weights = training.TrainConfig(), training.LossWeights()
    def call():
        training.train_step(state, rec, weights, moments, train_config)
call(), call()
if measure == "peak":
    tracemalloc.start()
    call()
    print(tracemalloc.get_traced_memory()[1])
    sys.exit()
calls = 10
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(calls):
    call()
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / calls)
"""


def measure(op: str, n_surface: int, n_volume: int, what: str) -> float:
    """faults (minor page faults per call) or peak (the traced peak of
    one call, in bytes), in a fresh process."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE, op, str(n_surface), str(n_volume),
         what],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout.splitlines()[-1])


def test_mallopt_accepts_both_thresholds():
    assert aerosurrogate._MALLOC_THRESHOLDS_SET


def test_repeated_prediction_does_not_fault_its_memory_in_again():
    assert measure("predict", 8192, 4096, "faults") < 100


def test_repeated_train_step_does_not_fault_its_memory_in_again():
    assert measure("train", 512, 256, "faults") < 50


def test_train_step_traced_peak_bounded():
    # 7.58 MB with the hand-derived backward and the in-place Adam step;
    # 8.60 MB when the embedding, heads and loss were an autodiff graph
    # and Adam allocated its temporaries
    assert measure("train", 512, 256, "peak") < 8.1e6
