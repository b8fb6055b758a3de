"""Smoke test: the demos run to completion.

Each demo runs as its own process, as a user would start it, and must exit
0. Demo 04 trains a model, which takes longer than the other four
together (about 10 s against 3 s on two cores), so it is left out; its
pieces (training, evaluation, the CLI) have tests of their own.
"""

import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_synthetic_dataset.py", "02_surface_sampling.py",
         "03_physics_attention_anatomy.py", "05_gradient_check.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    # demos write scratch data under the temp dir; keep it in tmp_path
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
