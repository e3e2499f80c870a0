"""The committed ``BENCH_<label>.json`` files: the benchmark runs behind each performance claim.

Each file holds ``label``, ``source``, ``command`` and ``runs``; a run is
one perfbench result line with its workload, seed and environment.  A
change's file ``BENCH_<label>.json`` comes with ``BENCH_<label>-parent.json``,
the same (workload, seed) pairs run on the parent commit.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
CHANGES = [path for path in BENCH_FILES if not path.stem.endswith("-parent")]


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _pairs(bench: dict) -> set:
    return {(run["workload"], run["seed"]) for run in bench["runs"]}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_holds_correct_runs_of_declared_workloads(path):
    bench = _load(path)
    assert set(bench) == {"label", "source", "command", "runs"}
    assert bench["runs"]
    for run in bench["runs"]:
        result = run["result"]
        assert run["workload"] in WORKLOADS
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == END_TO_END


@pytest.mark.parametrize("path", CHANGES, ids=lambda p: p.name)
def test_bench_change_file_has_a_parent_twin_on_the_same_seeds(path):
    parent = path.with_name(f"{path.stem}-parent.json")
    assert parent.is_file(), f"{path.name} has no {parent.name}"
    assert _pairs(_load(path)) == _pairs(_load(parent))
