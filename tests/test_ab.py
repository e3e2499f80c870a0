"""The paired A/B tool ``tools/ab.py``: its sign test, and an A/A run of one tiny op."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("_ab", TOOL)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_sign_test_and_its_verdicts(ab):
    assert ab.sign_test(10, 0) == 2 / 1024
    assert ab.sign_test(9, 1) == 2 * 11 / 1024
    assert ab.sign_test(0, 0) == 1.0 and ab.sign_test(3, 3) == 1.0
    assert ab.summary([0.9] * 9 + [1.1])["verdict"] == "better"
    assert ab.summary([1.1] * 10)["verdict"] == "worse"
    faster = ab.summary([0.9] * 8 + [1.1] * 2)
    assert (faster["verdict"], faster["better"], faster["pairs"]) == ("unresolved", 8, 10)


def test_run_as_a_script_it_pins_blas_to_one_thread(ab, tmp_path):
    """As ``perfbench/run.py`` does, so a one-block Z_n side checks its states on one BLAS thread."""
    probe = tmp_path / "probe.py"
    probe.write_text("import os, runpy, sys\n"
                     "tool, names = sys.argv[1], sys.argv[2:]\n"
                     "sys.argv = [tool, '--help']\n"
                     "try:\n"
                     "    runpy.run_path(tool, run_name='__main__')\n"
                     "except SystemExit:\n"
                     "    print(' '.join(os.environ[name] for name in names))\n")
    env = {**os.environ, **dict.fromkeys(ab.THREAD_VARS, "4")}
    done = subprocess.run([sys.executable, str(probe), str(TOOL), *ab.THREAD_VARS], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0 and done.stdout.splitlines()[-1] == " ".join(["1"] * len(ab.THREAD_VARS))
    assert "usage: ab.py" in done.stdout


def _head_is_the_working_tree() -> bool:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return False
    changed = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src/ncgflow"],
                             capture_output=True, text=True)
    return changed.returncode == 0 and changed.stdout == ""


@pytest.mark.skipif(not _head_is_the_working_tree(), reason="needs this repository's git, with src/ncgflow as at HEAD")
def test_an_a_a_run_of_one_tiny_op_writes_the_same_outputs_and_reports_a_verdict(ab):
    report = ab.compare("HEAD", ["presets"], pairs=3, seed=1, scale=0.05, ops=["m2row"])
    run = report["workloads"]["presets"]
    assert run["differ"] == {}
    assert run["verdict"] in ("better", "worse", "unresolved") and run["pairs"] == len(run["ratios"]) == 3
    assert set(run["ops"]) == {"m2row"}


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(), reason="needs this repository's git")
def test_a_revision_is_exported_with_git_archive(ab, tmp_path):
    package = ab.export("HEAD", tmp_path)
    assert package == tmp_path / "src" / "ncgflow" and (package / "cli.py").is_file()
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-tree", "-r", "--name-only", "HEAD", "src/ncgflow"],
                            capture_output=True, text=True, check=True).stdout.split()
    assert sorted(str(p.relative_to(tmp_path)) for p in package.rglob("*") if p.is_file()) == sorted(listed)
