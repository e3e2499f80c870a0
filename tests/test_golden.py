"""Golden outputs: the CSV rows at whole times of pinned runs.

``golden/scenario_defaults.json`` holds, for each scenario default, the
header and the rows at t = 0, 1, ..., t_end of ``trajectory.csv``,
``invariants.csv`` and ``state.csv``.  ``golden/rk45.json`` holds the same
for the adaptive integrator on the zn, m2 and classical-geodesic defaults
up to t = 2.  ``golden/zn_array.json`` holds the same for rk4 and rk45 on
``golden/zn12.json``, admissible Z_12 data up to t = 2 (perfbench's
``workloads.zn_config`` with ``numpy.random.default_rng(12)``): unlike the
n = 3 default it runs the array form of the Z_n system.  A refactor that changes the order of floating-point
operations may move values by round-off only: each value must stay within
``1e-12 * max(1, max|column|)`` of the pinned one.  The tolerance is
absolute per column because invariant columns hold values near 1e-15,
where a relative bound means nothing.

``golden/run_reports.json`` holds, for every run above, the sorted names
of the files written and the stdout summary of ``ncgflow run`` without
the output path.  Integers, booleans and strings in it must match
exactly, floats within ``1e-12 * max(1, |v|)``.

Regenerate data files (only for a deliberate change of results) with::

    PYTHONPATH=src python tests/test_golden.py [rk45.json run_reports.json ...]

which rewrites the named files, or all of them when none is named.  In
``run_reports.json`` it rewrites the sections of the other data files
named, or every section when it is named alone.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from ncgflow.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
RK45 = ["--method", "rk45", "--t-end", "2"]
ZN12 = ["--config", str(GOLDEN_DIR / "zn12.json")]
# data file -> run name -> cli arguments
GOLDENS = {
    "scenario_defaults.json": {
        "paper-fig1": ["--preset", "paper-fig1"],
        "paper-fig2": ["--preset", "paper-fig2"],
        "m2row": ["--scenario", "m2row"],
        "classical-geodesic": ["--scenario", "classical-geodesic"],
        "classical-burgers": ["--scenario", "classical-burgers"],
    },
    "rk45.json": {
        "zn": ["--scenario", "zn", *RK45],
        "m2": ["--scenario", "m2", *RK45],
        "classical-geodesic": ["--scenario", "classical-geodesic", *RK45],
    },
    "zn_array.json": {
        "rk4": ZN12,
        "rk45": [*ZN12, "--method", "rk45"],
    },
}
CSVS = ("trajectory.csv", "invariants.csv", "state.csv")
REPORTS = "run_reports.json"
TOL = 1e-12


def _run(args: list, out: Path) -> Path:
    assert main(["run", *args, "--out", str(out)]) == 0
    return out


def _token(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return {"True": True, "False": False}.get(text, text)


def _report(args: list, out: Path) -> dict:
    """The files a run writes and its stdout summary, split into tokens, without the output path."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _run(args, out)
    lines = [line.removesuffix(f" to {out}") for line in buf.getvalue().splitlines()]
    return {
        "files": sorted(p.name for p in out.iterdir()),
        "summary": [[_token(word) for word in line.split()] for line in lines],
    }


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
    return {data: json.loads((GOLDEN_DIR / data).read_text(encoding="utf-8")) for data in GOLDENS}


def _check_against_golden(data: str, name: str, golden: dict, tmp_path: Path) -> None:
    args = GOLDENS[data][name]
    first = _run(args, tmp_path / "a")
    got = _pinned(first)
    for csv in CSVS:
        want = golden[data][name][csv]
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

    second = _run(args, tmp_path / "b")
    for csv in CSVS:
        assert (first / csv).read_bytes() == (second / csv).read_bytes(), (name, csv)


@pytest.mark.parametrize("name", sorted(GOLDENS["scenario_defaults.json"]))
def test_scenario_default_matches_golden(name, golden, tmp_path):
    _check_against_golden("scenario_defaults.json", name, golden, tmp_path)


@pytest.mark.parametrize("name", sorted(GOLDENS["rk45.json"]))
def test_rk45_run_matches_golden(name, golden, tmp_path):
    _check_against_golden("rk45.json", name, golden, tmp_path)


@pytest.mark.parametrize("name", sorted(GOLDENS["zn_array.json"]))
def test_zn_array_run_matches_golden(name, golden, tmp_path):
    _check_against_golden("zn_array.json", name, golden, tmp_path)


@pytest.mark.parametrize("data,name", [(data, name) for data in GOLDENS for name in sorted(GOLDENS[data])])
def test_run_report_matches_golden(data, name, tmp_path):
    want = json.loads((GOLDEN_DIR / REPORTS).read_text(encoding="utf-8"))[data][name]
    got = _report(GOLDENS[data][name], tmp_path / "out")
    assert got["files"] == want["files"], name
    assert [len(line) for line in got["summary"]] == [len(line) for line in want["summary"]], name
    for line, gold in zip(got["summary"], want["summary"]):
        for v, g in zip(line, gold):
            if isinstance(g, float):
                assert isinstance(v, float) and abs(v - g) <= TOL * max(1.0, abs(g)), (name, line, gold)
            else:
                assert type(v) is type(g) and v == g, (name, line, gold)


def _regenerate(scratch: Path, files: list) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for data in files:
        if data == REPORTS:
            path = GOLDEN_DIR / REPORTS
            pinned = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
            for d in [d for d in files if d in GOLDENS] or GOLDENS:
                pinned[d] = {name: _report(args, scratch / data / d / name) for name, args in sorted(GOLDENS[d].items())}
        else:
            runs = GOLDENS[data]
            pinned = {name: _pinned(_run(args, scratch / data / name)) for name, args in sorted(runs.items())}
        (GOLDEN_DIR / data).write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(Path(tmp), sys.argv[1:] or [*GOLDENS, REPORTS])
    sys.exit(0)
