"""The tree comparator of ``tools/same_outputs.py``, which tells whether two checkouts write the same outputs."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("_same_outputs", TOOL)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path) -> Path:
    for rel, data in {"run/out/trajectory.csv": b"t,x\n0,1\n", "run/out/fig.svg": b"<svg/>\n",
                      "run/stdout": b"samples: 2\n", "run/exit": b"0\n", "sweep/a/state.csv": b"t\n0\n"}.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


def test_identical_trees_have_no_differences(tool, tmp_path):
    assert tool.compare_trees(_tree(tmp_path / "this"), _tree(tmp_path / "other")) == []


def test_a_changed_byte_and_a_missing_file_are_both_reported(tool, tmp_path):
    this, other = _tree(tmp_path / "this"), _tree(tmp_path / "other")
    (other / "run/out/trajectory.csv").write_bytes(b"t,x\n0,2\n")
    (other / "sweep/a/state.csv").unlink()
    shutil.copy(this / "run/exit", other / "run/extra")
    assert tool.compare_trees(this, other) == [
        "only in this: sweep/a/state.csv",
        "only in other: run/extra",
        "differs: run/out/trajectory.csv",
    ]
