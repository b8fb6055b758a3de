"""Smoke test: the demos run to completion.

Each demo runs as its own process, as a user would start it, and must exit
0; the gradient-check demo must also exit 1 when the check fails. Demo 04
trains a model, which takes longer than the other four together (about
10 s against 3 s on two cores), so it is left out; its pieces (training,
evaluation, the CLI) have tests of their own.
"""

import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_synthetic_dataset.py", "02_surface_sampling.py",
         "03_physics_attention_anatomy.py", "05_gradient_check.py"]


def run_python(args, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    # demos write scratch data under the temp dir; keep it in tmp_path
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    proc = run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_gradient_check_demo_exits_1_on_failure(tmp_path):
    # the demo run with one analytic gradient off by 1 everywhere
    demo = str(ROOT / "demos" / "05_gradient_check.py")
    script = ("import runpy, aerosurrogate.training as t\n"
              "exact = t.loss_and_grads\n"
              "def corrupted(*args):\n"
              "    components, grads = exact(*args)\n"
              "    grads['embedding.w'][...] += 1.0\n"
              "    return components, grads\n"
              "t.loss_and_grads = corrupted\n"
              f"runpy.run_path({demo!r}, run_name='__main__')\n")
    proc = run_python(["-c", script], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.rstrip().endswith("FAIL")
