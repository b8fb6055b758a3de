"""Each module imports on its own.

The package root sets glibc malloc's thresholds and re-exports nothing, so
importing a module loads exactly the package modules it imports, directly
or indirectly, and no others. Each import runs in a fresh interpreter.
"""

import ast
import json
import os
from pathlib import Path
import platform
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aerosurrogate"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def direct_imports(module: str) -> set[str]:
    """The package modules that module names in a relative import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module
                         else (a.name for a in node.names))
    return found


def closure(module: str) -> set[str]:
    todo, seen = [module], set()
    while todo:
        for dep in direct_imports(todo.pop()) - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


def loaded_by(module: str) -> dict:
    """The package modules a fresh interpreter holds after importing
    aerosurrogate.<module>, and whether the malloc thresholds were set."""
    code = (f"import json, sys\nimport aerosurrogate.{module}\n"
            "import aerosurrogate\n"
            "print(json.dumps({'loaded': sorted(m.split('.', 1)[1] for m in "
            "sys.modules if m.startswith('aerosurrogate.')), "
            "'malloc': aerosurrogate._MALLOC_THRESHOLDS_SET}))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module", MODULES)
def test_module_loads_only_what_it_imports(module):
    assert set(loaded_by(module)["loaded"]) == {module} | closure(module)


def test_rng_loads_nothing_else():
    assert loaded_by("rng")["loaded"] == ["rng"]


def test_model_loads_no_training_code():
    loaded = set(loaded_by("model")["loaded"])
    assert not loaded & {"training", "metrics", "sampling", "datagen", "cli"}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the thresholds are glibc malloc's")
def test_malloc_thresholds_set_by_any_module_import():
    assert loaded_by("rng")["malloc"] is True
