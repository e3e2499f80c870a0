"""Golden outputs: the CSV rows at whole times of every scenario default.

``golden/scenario_defaults.json`` holds, for each scenario default, the
header and the rows at t = 0, 1, ..., t_end of ``trajectory.csv``,
``invariants.csv`` and ``state.csv``.  A refactor that changes the order
of floating-point operations may move values by round-off only: each value
must stay within ``1e-12 * max(1, max|column|)`` of the pinned one.  The
tolerance is absolute per column because invariant columns hold values
near 1e-15, where a relative bound means nothing.

Regenerate the data file (only for a deliberate change of results) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

from ncgflow.cli import main

GOLDEN = Path(__file__).parent / "golden" / "scenario_defaults.json"
RUNS = {
    "paper-fig1": ["--preset", "paper-fig1"],
    "paper-fig2": ["--preset", "paper-fig2"],
    "m2row": ["--scenario", "m2row"],
    "classical-geodesic": ["--scenario", "classical-geodesic"],
    "classical-burgers": ["--scenario", "classical-burgers"],
}
CSVS = ("trajectory.csv", "invariants.csv", "state.csv")
TOL = 1e-12


def _run(name: str, out: Path) -> Path:
    assert main(["run", *RUNS[name], "--out", str(out)]) == 0
    return out


def _whole_time_rows(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return {
        "header": lines[0].split(","),
        "rows": [row for row in rows if abs(row[0] - round(row[0])) < 1e-9],
    }


def _pinned(outdir: Path) -> dict:
    return {csv: _whole_time_rows(outdir / csv) for csv in CSVS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_scenario_default_matches_golden(name, golden, tmp_path):
    first = _run(name, tmp_path / "a")
    got = _pinned(first)
    for csv in CSVS:
        want = golden[name][csv]
        assert got[csv]["header"] == want["header"], (name, csv)
        assert len(got[csv]["rows"]) == len(want["rows"]), (name, csv)
        for c, column in enumerate(want["header"]):
            gold = [row[c] for row in want["rows"]]
            new = [row[c] for row in got[csv]["rows"]]
            scale = max([1.0] + [abs(v) for v in gold if math.isfinite(v)])
            for g, v in zip(gold, new):
                if math.isfinite(g):
                    assert abs(v - g) <= TOL * scale, (name, csv, column, v, g)
                else:
                    assert v == g or (math.isnan(v) and math.isnan(g)), (name, csv, column, v, g)

    second = _run(name, tmp_path / "b")
    for csv in CSVS:
        assert (first / csv).read_bytes() == (second / csv).read_bytes(), (name, csv)


def _regenerate(scratch: Path) -> None:
    data = {name: _pinned(_run(name, scratch / name)) for name in sorted(RUNS)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(Path(tmp))
    sys.exit(0)
