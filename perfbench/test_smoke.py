"""Smoke test of the benchmark on shortened inputs (every t_end scaled by 0.02).

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.02


@pytest.fixture(scope="module")
def cli():
    return workloads.import_ncgflow(HERE.parent)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_checks_and_traces(cli, tmp_path, name):
    workload = workloads.build(cli, name, 7, tmp_path / "inputs", scale=SCALE)
    assert workloads.validate(cli, workload) == []
    again = workloads.build(cli, name, 7, tmp_path / "again", scale=SCALE)
    assert [c.steps for c in again.cases] == [c.steps for c in workload.cases]
    for path in (tmp_path / "inputs").glob("*.json"):
        assert path.read_bytes() == (tmp_path / "again" / path.name).read_bytes()

    bench = run.Bench(cli, workload, tmp_path)
    times, steps = bench.untraced(2, random.Random(7))
    assert len(times) == 2 * len(workload.cases)
    assert steps == 2 * sum(c.steps for c in workload.cases)

    tracer = spans.Tracer(run.traced_modules(cli))
    figures = bench.traced(1, random.Random(7), tracer)
    assert bench.failed == 0
    assert set(figures[0]) == set(run.declared_metrics(1))
    assert figures[0]["flow.rhs_evals"] > 0
    if name == "sweep-ensemble":
        assert 0.0 < figures[0]["flow.rk45.accept_ratio"] <= 1.0
        assert figures[0]["cli.sweep.parallel_eff"] > 0.0
    if name == "zn-large":
        assert figures[0]["transport.rhs_us.zn4096"] > 0.0
        assert figures[0]["transport.rhs_us.zn64"] > 0.0


def test_checker_flags_bad_outputs(cli, tmp_path):
    workload = workloads.build(cli, "presets", 1, tmp_path / "inputs", scale=SCALE)
    case = next(c for c in workload.cases if c.name == "paper-fig1")
    out = tmp_path / "out"
    args = [*case.argv, "--out", str(out)]
    assert cli.main(args) == 0
    checker = checks.Checker()
    assert checker.check(case, 0, out, "") == []
    assert checker.check(case, 3, out, "numerical blowup") != []

    inv = out / "invariants.csv"
    lines = inv.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("phi_one_dev")] = "1e-3"
    inv.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
    assert any("not byte-identical" in p for p in checker.check(case, 0, out, ""))
    assert any("phi_one_dev" in p for p in checks.Checker().check(case, 0, out, ""))

    (out / "state.csv").write_text((out / "state.csv").read_text().splitlines()[0] + "\n")
    assert any("data rows" in p for p in checks.Checker().check(case, 0, out, ""))


def test_generated_data_is_admissible():
    rng = np.random.default_rng(3)
    zn = workloads.zn_config(rng, 5, t_end=1.0, stride=1, method="rk4")
    kp, km, m = (np.array([complex(*z) for z in zn[key]]) for key in ("k_plus", "k_minus", "m"))
    np.testing.assert_allclose(np.abs(kp), np.abs(kp[0]), rtol=1e-14)
    np.testing.assert_allclose(km, -np.conj(np.roll(kp, -1)), atol=1e-15)
    assert abs((np.abs(m) ** 2).sum() - 1.0) <= 1e-14

    m2 = workloads.m2_config(rng, t_end=1.0, stride=1, method="rk45")
    k1, k2, m = (np.array([[complex(*z) for z in row] for row in m2[key]]) for key in ("k1", "k2", "m"))
    np.testing.assert_allclose(k2, -k1.conj().T, atol=1e-15)
    assert np.abs(k1 @ k2 - k2 @ k1).max() <= 1e-14
    assert abs(np.trace(m @ m.conj().T).real - 1.0) <= 1e-14


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (2.5, 50.0)
    assert run.tail(list(range(1, 21))) == (10, 50.0)
    assert run.tail(list(range(1, 41))) == (30, 75.0)


def test_command_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "presets", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
