import builtins
import concurrent.futures
import json
import contextlib
import functools
import importlib.util
import math
import multiprocessing
import operator
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
import types
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from ncgflow import cli, flow
from ncgflow.cli import ConfigError, PRESETS, build_config, load_config, main
from ncgflow.svgplot import output_file


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def _col(header, data, name):
    return data[:, header.index(name)]


def test_run_preset_fig1(tmp_path):
    out = tmp_path / "fig1"
    assert main(["run", "--preset", "paper-fig1", "--out", str(out)]) == 0
    for name in ("trajectory.csv", "invariants.csv", "state.csv", "fig1a.svg", "fig1b.svg", "fig1c.svg"):
        assert (out / name).exists(), name

    header, data = _read_csv(out / "state.csv")
    top = _col(header, data, "phi_cum_2")
    np.testing.assert_allclose(top, 1.0, atol=1e-6)
    assert _col(header, data, "phi_one")[0] == pytest.approx(1.0)

    header, data = _read_csv(out / "invariants.csv")
    for i in range(3):
        assert np.abs(_col(header, data, f"reality_{i}")).max() <= 1e-6


def test_run_preset_fig2(tmp_path):
    out = tmp_path / "fig2"
    assert main(["run", "--preset", "paper-fig2", "--out", str(out)]) == 0
    for name in ("fig2a.svg", "fig2b.svg", "fig2c.svg", "fig3a.svg", "fig3b.svg", "fig3c.svg"):
        assert (out / name).exists(), name
    header, data = _read_csv(out / "invariants.csv")
    assert np.abs(_col(header, data, "braiding_fro")).max() <= 1e-6
    assert np.abs(_col(header, data, "phi_one_dev")).max() <= 1e-6


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["run", "--preset", "paper-fig1", "--t-end", "2.0"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("trajectory.csv", "invariants.csv", "state.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_preset_initial_rows_match_data(tmp_path, fig1_data):
    out = tmp_path / "p"
    assert main(["run", "--preset", "paper-fig1", "--t-end", "0.01", "--out", str(out)]) == 0
    header, data = _read_csv(out / "trajectory.csv")
    for i, want in enumerate(fig1_data["k_plus"]):
        assert _col(header, data, f"k_plus_{i}_re")[0] == want.real
        assert _col(header, data, f"k_plus_{i}_im")[0] == want.imag
    for i, want in enumerate(fig1_data["m"]):
        assert _col(header, data, f"m_{i}_re")[0] == want


def test_run_scenario_defaults(tmp_path):
    assert main(["run", "--scenario", "m2row", "--t-end", "2.0", "--out", str(tmp_path / "row")]) == 0
    header, data = _read_csv(tmp_path / "row" / "invariants.csv")
    assert np.abs(_col(header, data, "norm_dev")).max() <= 1e-8

    assert main(["run", "--scenario", "classical-geodesic", "--t-end", "2.0",
                 "--out", str(tmp_path / "geo")]) == 0
    header, data = _read_csv(tmp_path / "geo" / "invariants.csv")
    assert np.abs(_col(header, data, "speed_sq_dev")).max() <= 1e-7

    assert main(["run", "--scenario", "classical-burgers", "--out", str(tmp_path / "bur")]) == 0
    assert (tmp_path / "bur" / "burgers_profiles.svg").exists()


@pytest.mark.parametrize("scenario, column", [("m2row", "norm_dev"), ("classical-geodesic", "speed_sq_dev"),
                                              ("classical-burgers", "mean_dev")])
def test_a_drift_column_is_measured_from_the_first_sample(scenario, column, tmp_path):
    """A drift column is its invariant minus the invariant at t = 0, so its first row is written as exactly 0."""
    assert main(["run", "--scenario", scenario, "--t-end", "0.5", "--out", str(tmp_path / "o")]) == 0
    header, first = (tmp_path / "o" / "invariants.csv").read_text().splitlines()[:2]
    assert first.split(",")[header.split(",").index(column)] == "0"


def test_run_config_file(tmp_path):
    cfg = {
        "scenario": "zn",
        "n": 3,
        "k_plus": [[1, 0], [1, 0], [1, 0]],
        "k_minus": [[-1, 0], [-1, 0], [-1, 0]],
        "m": [[1, 0], [0, 0], [0, 0]],
        "t_end": 1.0,
        "step": 1e-3,
        "stride": 100,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    header, data = _read_csv(out / "trajectory.csv")
    # spatially constant admissible data is stationary
    np.testing.assert_allclose(_col(header, data, "k_plus_0_re"), 1.0, atol=1e-12)
    assert data.shape[0] == 11


def test_zero_field_gives_constant_trajectory(tmp_path):
    cfg = {
        "scenario": "zn",
        "n": 3,
        "k_plus": [[0, 0]] * 3,
        "k_minus": [[0, 0]] * 3,
        "m": [[0.5, 0], [0.5, 0], [0, 0.5]],
        "t_end": 1.0,
        "stride": 200,
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "zero"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    header, data = _read_csv(out / "trajectory.csv")
    for name in header[1:]:
        column = _col(header, data, name)
        np.testing.assert_allclose(column, column[0], atol=0)


def test_run_with_rk45(tmp_path):
    out4, out45 = tmp_path / "rk4", tmp_path / "rk45"
    assert main(["run", "--preset", "paper-fig1", "--t-end", "1.0", "--out", str(out4)]) == 0
    assert main(["run", "--preset", "paper-fig1", "--t-end", "1.0", "--method", "rk45",
                 "--out", str(out45)]) == 0
    _, a = _read_csv(out4 / "trajectory.csv")
    _, b = _read_csv(out45 / "trajectory.csv")
    np.testing.assert_allclose(a, b, atol=1e-7)


def test_csv_floats_roundtrip(tmp_path):
    out = tmp_path / "rt"
    assert main(["run", "--preset", "paper-fig1", "--t-end", "0.5", "--out", str(out)]) == 0
    header, data = _read_csv(out / "trajectory.csv")
    assert _col(header, data, "m_0_re")[0] == 2.0 ** -0.5  # 17 significant digits survive parsing


def _assert_csv_formats_like_format_17g(path, values, cols):
    """``write_csv`` of ``values`` in rows of ``cols`` (a short last row dropped) writes ``format(v, ".17g")``."""
    rows = np.array(values[: len(values) // cols * cols], dtype=np.float64).reshape(-1, cols)
    header = [f"c{i}" for i in range(cols)]
    cli.write_csv(path, header, rows)
    lines = [header] + [[format(v, ".17g") for v in row] for row in rows.tolist()]
    assert path.read_bytes() == "".join(",".join(line) + "\n" for line in lines).encode("utf-8"), cols


def _hard_floats() -> list:
    """The values where a 17-digit writer goes wrong, each signed both ways.

    Each float 10^k (k = -323..308) and its neighbours, where floor(log10)
    may be one off and rounding may carry into the next power of ten;
    17-digit ties, m/4 for odd m near 4e15 (one decimal at 1e15 and up,
    so .25 and .75 round half to even); the powers of two, among them the
    tie 2^-25 = 2.98023223876953125e-8, where 10^24 is not a float; zeros,
    subnormals, the smallest normal float and the largest float; inf and
    nan.
    """
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    values = [v for p in powers for v in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]
    values += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    values += [m / 4 for m in range(4 * 10**15 - 2001, 4 * 10**15 + 2001, 2)]
    values += [0.0, 5e-324, 1e-310, sys.float_info.min, sys.float_info.max, math.inf, math.nan]
    return values + [-v for v in values]


def test_write_csv_formats_like_format_17g(tmp_path):
    values = _hard_floats()  # 12,004 values: rows of 3 and 7 cross the blocks, and a wide row spans three
    for cols in (1, 3, 7, 2 * cli._CSV_BLOCK + 5):
        _assert_csv_formats_like_format_17g(tmp_path / "t.csv", values, cols)


def test_write_csv_leaves_to_format_only_the_ties_it_cannot_settle(tmp_path, monkeypatch):
    """A 17-digit tie is rounded in the kernel where 10^k is a float, and goes to ``format`` where it is not.

    1000000000000000.25 is scaled by 10, exactly, and rounded half to
    even; 2^-25 = 2.98023223876953125e-8 needs 10^24, which is not a
    float, so its scaled fraction lies within the margin of 1/2.
    """
    sent = []
    monkeypatch.setattr(cli, "format", lambda v, spec: sent.append(v) or builtins.format(v, spec), raising=False)
    cli.write_csv(tmp_path / "t.csv", ["a", "b", "c"], [[1000000000000000.25, 2.0**-25, math.inf]])
    assert sent == [2.0**-25, math.inf]
    assert (tmp_path / "t.csv").read_text() == "a,b,c\n1000000000000000.2,2.9802322387695312e-08,inf\n"


def _short_decimals(digits: int):
    """An integer m of ``digits`` digits times 2^j, or times 10^e below 10^15, of either sign.

    They print few digits, in fixed point at X = -4..16 and with the "0.000"
    prefixes, which bit patterns (X outside -4..16 in about 97 % of draws)
    seldom reach.
    """
    m = st.integers(10 ** (digits - 1), 10**digits - 1)
    decimals = st.builds(lambda m, e: float(m * 10**e) if e >= 0 else m / 10**-e, m, st.integers(-25, 15 - digits))
    values = st.one_of(st.builds(math.ldexp, m, st.integers(-60, 60)), decimals)
    return st.one_of(values, values.map(operator.neg))


_FLOAT64 = st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
                     st.integers(1, 17).flatmap(_short_decimals))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_FLOAT64, min_size=1, max_size=64), length=st.integers(1, 3 * cli._CSV_BLOCK),
       cols=st.integers(1, 2 * cli._CSV_BLOCK + 1))
def test_write_csv_formats_any_float64_like_format_17g(tmp_path_factory, values, length, cols):
    """Any bit pattern, in tables of any width: the drawn values repeat up to ``length``, so rows cross blocks."""
    _assert_csv_formats_like_format_17g(tmp_path_factory.mktemp("csv") / "t.csv", np.resize(values, length).tolist(),
                                        min(cols, length))


def test_validate_preset(capsys):
    assert main(["validate", "--preset", "paper-fig1"]) == 0
    text = capsys.readouterr().out
    assert "reality residual" in text
    assert "WARNING" not in text


def test_validate_warns_on_bad_data(tmp_path, capsys):
    cfg = {
        "scenario": "zn",
        "n": 3,
        "k_plus": [[1, 0], [0, 0], [0, 0]],
        "k_minus": [[1, 0], [0, 0], [0, 0]],
        "m": [[1, 0], [0, 0], [0, 0]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 0
    text = capsys.readouterr().out
    assert "warning" in text.lower()


def _perfbench_workloads():
    """perfbench's seeded input generator, loaded from its file (it is only read, never changed)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _seeded_configs() -> list:
    bench, rng = _perfbench_workloads(), np.random.default_rng(101)
    configs = [bench.zn_config(rng, 3, t_end=1.0, stride=1, method="rk4") for _ in range(8)]
    configs += [bench.zn_config(rng, 64, t_end=1.0, stride=1, method="rk4") for _ in range(2)]
    return configs + [bench.m2_config(rng, t_end=1.0, stride=1, method="rk4") for _ in range(8)]


# Each check of validate and the invariants.csv columns that it is the t = 0 maximum of.
_CHECKED_COLUMNS = {
    "zn": {"reality residual": r"reality_\d+", "braiding residual": r"braiding_\d+",
           "normalisation |phi(1)-1|": "phi_one_dev"},
    "m2": {"reality residual": "reality_fro", "braiding residual": "braiding_fro",
           "normalisation |phi(1)-1|": "phi_one_dev"},
}


@pytest.mark.parametrize("source", ["paper-fig1", "paper-fig2"] + [f"seeded-{i}" for i in range(18)])
def test_validate_prints_the_first_row_of_invariants_csv(source, tmp_path, capsys):
    if source in PRESETS:
        args, scenario = ["--preset", source], PRESETS[source]()["scenario"]
    else:
        raw = _seeded_configs()[int(source.split("-")[1])]
        args, scenario = ["--config", str(tmp_path / "cfg.json")], raw["scenario"]
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert main(["validate", *args]) == 0
    printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines()[1:])
    assert main(["run", *args, "--t-end", "0.001", "--out", str(tmp_path / "o")]) == 0
    header, data = _read_csv(tmp_path / "o" / "invariants.csv")
    assert len(printed) == 3
    for check, pattern in _CHECKED_COLUMNS[scenario].items():
        cols = [c for c, name in enumerate(header) if re.fullmatch(pattern, name)]
        assert printed[check].split()[0] == f"{np.abs(data[0, cols]).max():.3e}", check


def test_config_errors_exit_2(tmp_path, capsys):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["run", "--config", str(bad_json), "--out", str(tmp_path / "x")]) == 2
    assert "line" in capsys.readouterr().err

    wrong_scenario = tmp_path / "scenario.json"
    wrong_scenario.write_text(json.dumps({"scenario": "nope"}))
    assert main(["run", "--config", str(wrong_scenario), "--out", str(tmp_path / "y")]) == 2

    short = tmp_path / "short.json"
    short.write_text(json.dumps({"scenario": "zn", "n": 3, "k_plus": [[1, 0]]}))
    assert main(["run", "--config", str(short), "--out", str(tmp_path / "z")]) == 2
    assert "k_plus" in capsys.readouterr().err

    assert main(["run", "--out", str(tmp_path / "w")]) == 2
    assert main(["run", "--preset", "unknown", "--out", str(tmp_path / "v")]) == 2


def test_unbounded_runs_and_bad_out_exit_2(tmp_path, capsys, monkeypatch):
    # each of these once ended in a traceback (OverflowError or FileExistsError)
    for flags in (["--t-end", "inf"], ["--step", "1e-300"], ["--step", "nan"], ["--t-end", "1e9"]):
        assert main(["run", "--preset", "paper-fig1", *flags, "--out", str(tmp_path / "a")]) == 2, flags
        assert capsys.readouterr().err.startswith("config error:"), flags
    for text in ('{"scenario": "zn", "t_end": 1e309}', '{"scenario": "zn", "step": Infinity}'):
        path = tmp_path / "inf.json"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 2, text
        assert capsys.readouterr().err.startswith("config error:"), text
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    taken = tmp_path / "file"
    taken.write_text("")
    assert main(["run", "--scenario", "m2row", "--t-end", "0.01", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("config error:")

    # an empty --out once wrote the outputs into the working directory, where {"out": ""} in a config exits 2
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", "--scenario", "m2row", "--t-end", "0.01", "--out", ""]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not any(cwd.iterdir())


def test_unwritable_output_exits_2(tmp_path, capsys):
    # a directory where a CSV goes; chmod would not stop a process running as root
    (tmp_path / "run" / "trajectory.csv").mkdir(parents=True)
    assert main(["run", "--preset", "paper-fig1", "--t-end", "0.01", "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot write {tmp_path / 'run' / 'trajectory.csv'}: ")
    assert "Traceback" not in err

    config = tmp_path / "run.json"
    config.write_text(json.dumps({"scenario": "zn", "t_end": 0.01}))
    assert main(["sweep", "--configs", str(config), "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == f"{config}: exit 2"
    assert err.startswith("output error: cannot write ") and "internal error" not in err


def test_a_csv_cut_by_the_file_size_limit_is_removed_and_named(tmp_path):
    """``run`` in a child whose RLIMIT_FSIZE is below one CSV's size: exit 2, the file named, no partial file left.

    CPython ignores SIGXFSZ, so the write past the limit fails with EFBIG.
    """
    limit = 50 * 1024  # trajectory.csv of paper-fig1 at t_end 2 holds about 160 kB
    out = tmp_path / "run"
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "ncgflow", "run", "--preset", "paper-fig1", "--t-end", "2",
                           "--out", str(out)], env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)))
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"output error: cannot write {out / 'trajectory.csv'}: File too large\n"
    assert out.is_dir() and not any(out.iterdir())


def test_output_file_removes_its_file_when_a_write_fails(tmp_path):
    path = tmp_path / "a.csv"
    with pytest.raises(OSError) as caught, output_file(path, "wb") as fh:
        fh.write(b"t,x\n")
        raise OSError(28, "No space left on device")
    assert not path.exists() and caught.value.filename == str(path)
    (tmp_path / "dir").mkdir()
    with pytest.raises(IsADirectoryError):  # a file that cannot be opened is left as it is
        with output_file(tmp_path / "dir", "wb"):
            pass
    assert (tmp_path / "dir").is_dir()


def test_blowup_exits_3(tmp_path, capsys):
    cfg = {"scenario": "m2row", "lam": [1, 0], "mu": [0, 0], "q0": [5, 0], "q1": [0, 0], "q2": [0, 0],
           "t_end": 10.0, "step": 1e-2}
    path = tmp_path / "blow.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 3
    assert "blowup" in capsys.readouterr().err.lower()


def _tiny_zn(n: int) -> dict:
    """Z_n data of modulus 4.4e-21 and steps of 1e20: one step of the run overflows."""
    z = 4.4e-21 * np.exp(1j * np.random.default_rng(3).uniform(0.0, 6.3, (3, n)))
    return {"scenario": "zn", "n": n, **{key: [[v.real, v.imag] for v in row] for key, row in
                                          zip(("k_plus", "k_minus", "m"), z)}, "step": 1e20, "t_end": 3e21, "stride": 1}


@pytest.mark.parametrize("raw", [
    _tiny_zn(18),  # the array form
    _tiny_zn(17),  # the scalar form
    {"scenario": "classical-burgers", "amplitude": 1e8, "step": 1e20, "t_end": 3e20, "stride": 1},
], ids=["zn18-arrays", "zn17-scalars", "burgers-arrays"])
def test_a_run_that_overflows_prints_only_documented_lines(raw, tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert [str(w.message) for w in caught] == []
    assert err and all(line.startswith(("warning:", "numerical blowup:")) for line in err), err
    assert err[-1].startswith("numerical blowup:")


def test_rk45_attempt_budget_ends_a_run_whose_steps_shrink_to_the_floor(tmp_path, capsys):
    # q1 = 2^63 drives |m| up so fast that the step controller shrinks toward the 1e-13 floor;
    # without the budget the run would make about t_end / 1e-13 attempts
    cfg = {"scenario": "m2row", "q1": 2**63, "q2": -1, "method": "rk45", "t_end": 0.02, "stride": 1}
    path = tmp_path / "crawl.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 0
    start = time.perf_counter()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"adaptive step attempts exceeded {flow.MAX_ATTEMPTS_PER_STEP} per grid step" in err


def test_an_rk45_run_whose_steps_lie_below_the_floor_finishes(tmp_path, capsys):
    # 7 grid steps of 1.43e-14: rk4 runs them, and rk45 accepts each on its error estimate
    cfg = {"scenario": "m2", "method": "rk45", "t_end": 1e-13, "step": 1.5e-14, "stride": 1}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "samples: 8\n" in capsys.readouterr().out


def test_a_burgers_run_from_values(tmp_path, capsys):
    values = [0.1 * math.sin(2 * math.pi * j / 16) for j in range(16)]
    path = tmp_path / "values.json"
    path.write_text(json.dumps({"scenario": "classical-burgers", "values": values, "stencil": 2, "t_end": 0.01}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    header, data = _read_csv(tmp_path / "o" / "trajectory.csv")
    assert header[1:] == [f"k_{j}" for j in range(16)] and data[0, 1:].tolist() == values
    path.write_text(json.dumps({"scenario": "classical-burgers", "values": values[:15]}))
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "p")]) == 2
    assert capsys.readouterr().err == "config error: field 'values': need at least 16 grid samples\n"


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "config must be a JSON object"),
    ('{"scenario": "zn", "n": ' + "7" * 5000 + "}", "is not valid JSON: "),  # past Python's 4300-digit limit
], ids=["array", "long-integer"])
def test_a_config_that_is_not_a_json_object_exits_2(text, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_preset_and_config_together_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "m2row"}))
    assert main(["run", "--preset", "paper-fig1", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: --preset and --config are mutually exclusive\n"
    assert not (tmp_path / "o").exists()


def test_a_geodesic_whose_x_and_v_lengths_differ_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "classical-geodesic", "manifold": "flat", "x": [0, 0, 0], "v": [1, 0]}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: fields 'x'/'v': expected 3 components each\n"


def test_a_chart_that_fails_warns_and_the_run_exits_0(tmp_path, capsys, monkeypatch):
    line_chart = cli.line_chart

    def fails_on_fig1c(path, **kwargs):
        if path.name == "fig1c.svg":
            raise ValueError("no room")
        line_chart(path, **kwargs)

    monkeypatch.setattr(cli, "line_chart", fails_on_fig1c)
    assert main(["run", "--preset", "paper-fig1", "--t-end", "0.1", "--out", str(tmp_path / "o")]) == 0
    out, err = capsys.readouterr()
    assert err == "warning: could not write fig1c.svg: no room\n"
    wrote = out.splitlines()[-1]
    assert wrote.startswith("wrote trajectory.csv, ") and "fig1b.svg" in wrote and "fig1c" not in wrote
    assert not (tmp_path / "o" / "fig1c.svg").exists() and (tmp_path / "o" / "fig1b.svg").exists()


def test_run_m2_with_large_m_entries(tmp_path):
    # phi values near 1e12 carry round-off of order 1e-5 in their imaginary parts
    cfg = {
        "scenario": "m2",
        "k1": [[1, 0], [0, 2]],
        "k2": [[-1, 0], [0, -2]],
        "m": [[[680726.914, 240617.034], [-540640.166, 480304.273]],
              [[-510885.819, 326174.077], [493539.900, 144720.410]]],
        "t_end": 0.1,
    }
    path = tmp_path / "large_m.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "large")]) == 0


def test_sweep(tmp_path):
    cfg1 = tmp_path / "one.json"
    cfg1.write_text(json.dumps({"scenario": "m2row", "t_end": 1.0}))
    cfg2 = tmp_path / "two.json"
    cfg2.write_text(json.dumps({"scenario": "classical-burgers", "n_grid": 64, "t_end": 0.2}))
    assert main(["sweep", "--configs", str(cfg1), str(cfg2), "--out", str(tmp_path / "sweep")]) == 0
    assert (tmp_path / "sweep" / "one" / "trajectory.csv").exists()
    assert (tmp_path / "sweep" / "two" / "trajectory.csv").exists()


def test_sweep_parallel_and_error_propagation(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"scenario": "m2row", "t_end": 0.5}))
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["sweep", "--configs", str(good), str(bad), "--out", str(tmp_path / "s"), "--jobs", "2"])
    assert code == 2
    assert (tmp_path / "s" / "good" / "trajectory.csv").exists()


def test_sweep_prints_the_same_output_for_any_jobs(tmp_path, capsys):
    paths = _sweep_configs(tmp_path, 3)
    paths[1].write_text("{broken")
    printed = []
    for jobs in ("2", "1"):
        assert main(["sweep", "--configs", *map(str, paths), "--out", str(tmp_path / "s"), "--jobs", jobs]) == 2
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    out = printed[0].out
    assert out.count("scenario") == 2 and out.index(str(tmp_path / "s" / "a")) < out.index(str(tmp_path / "s" / "c"))
    assert printed[0].err.startswith("config error:")


def test_build_config_complex_parsing():
    cfg = build_config({"scenario": "m2row", "lam": 1.5, "mu": [0, 1]})
    assert cfg["lam"] == 1.5 + 0j
    assert cfg["mu"] == 1j
    with pytest.raises(ConfigError):
        build_config({"scenario": "m2row", "lam": "one"})
    with pytest.raises(ConfigError):
        build_config({"scenario": "m2row", "lam": [0, 0], "mu": [0, 0]})
    with pytest.raises(ConfigError):
        build_config({"scenario": "zn", "n": 1})
    with pytest.raises(ConfigError):
        build_config({"scenario": "zn", "stride": 0})
    with pytest.raises(ConfigError):
        build_config({"scenario": "zn", "method": "euler"})


def test_presets_are_admissible():
    for name in ("paper-fig1", "paper-fig2"):
        cfg = build_config(PRESETS[name]())
        assert cfg["t_end"] == 10.0
        assert cfg["step"] == 1e-3


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_config_out_field_used_when_flag_absent(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {"scenario": "m2row", "t_end": 0.5, "out": "from_config"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "from_config" / "trajectory.csv").exists()
    # the flag still wins over the config field
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "trajectory.csv").exists()


def test_scenario_config_mismatch(tmp_path):
    path = tmp_path / "zn.json"
    path.write_text(json.dumps({"scenario": "zn"}))
    assert main(["run", "--config", str(path), "--scenario", "m2", "--out", str(tmp_path / "o")]) == 2


def test_run_prints_validate_warnings(tmp_path, capsys):
    cfg = {
        "scenario": "zn",
        "n": 3,
        "k_plus": [[1, 0], [0, 0], [0, 0]],
        "k_minus": [[1, 0], [0, 0], [0, 0]],
        "m": [[1, 0], [0, 0], [0, 0]],
        "t_end": 0.01,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "bad")]) == 0
    assert "warning: reality residual = 1.000e+00 exceeds 1e-09" in capsys.readouterr().err.splitlines()

    assert main(["run", "--preset", "paper-fig1", "--t-end", "0.01", "--out", str(tmp_path / "fig1")]) == 0
    assert "warning" not in capsys.readouterr().err


def test_burgers_rk4_step_past_the_stability_limit_warns(tmp_path, capsys):
    """The limit 2.83 dx / (c max|K|) at n = 4096, stencil 4, amplitude 0.1 is 0.0316: runs at 0.9x and 1.1x."""
    row = "rk4 step within the stability limit"
    for factor, code in ((0.9, 0), (1.1, 3)):
        step = factor * 2.83 * (2 * math.pi / 4096) / (1.372 * 0.1)
        path = tmp_path / f"burgers{factor}.json"
        path.write_text(json.dumps({"scenario": "classical-burgers", "n_grid": 4096, "step": step, "t_end": 5.0}))
        assert main(["validate", "--config", str(path)]) == 0
        assert f"{row}: {'yes' if code == 0 else 'no'}" in capsys.readouterr().out.splitlines()
        assert main(["run", "--config", str(path), "--out", str(tmp_path / f"b{factor}")]) == code
        err = capsys.readouterr().err
        assert ("warning: step 0.0348053 exceeds the rk4 stability limit 0.0316 " in err) == (code == 3)
    values = {"scenario": "classical-burgers", "values": [0.5] + [0.0] * 15, "step": 2.0}  # limit 1.62
    for method, line in (("rk4", f"{row}: no"), ("rk45", "no algebraic invariants for this scenario; config is "
                                                        "well-formed")):
        path = tmp_path / f"values-{method}.json"
        path.write_text(json.dumps({**values, "method": method}))
        assert main(["validate", "--config", str(path)]) == 0
        assert line in capsys.readouterr().out.splitlines()


# Each of these once ended in a traceback (AlgebraError or ZeroDivisionError).
_ZN_1E309 = '{"scenario": "zn", "k_plus": [[1e309, 0], [1, 0], [1, 0]]}'
_ZN_NAN = '{"scenario": "zn", "k_plus": [[NaN, 0], [1, 0], [1, 0]]}'
_SPHERE_POLE = '{"scenario": "classical-geodesic", "x": [0.0, 0.0], "v": [1.0, 0.0]}'
# These ran into a ValueError: a stage past the pole took sin(inf); the row decayed to 0:0.
_NEAR_POLE = '{"scenario": "classical-geodesic", "x": [1e-300, 0.0], "v": [1.0, 1.0]}'
_ROW_UNDERFLOW = '{"scenario": "m2row", "lam": 5e-324, "mu": 0, "q0": -2000}'
# This wrote NaN state coordinates: the row norm |lam|^2 + |mu|^2 underflowed to 0.
_ROW_TINY = '{"scenario": "m2row", "lam": 1e-200, "mu": 0}'


@pytest.mark.parametrize("text", [_ZN_1E309, _ZN_NAN, _SPHERE_POLE])
def test_non_finite_values_and_the_pole_exit_2(text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("stencil", [4.0, 2.0, True])
def test_a_stencil_that_is_not_a_json_integer_exits_2(stencil, tmp_path, capsys):
    """A float stencil passed the parse and raised TypeError in the burgers kernel: a traceback and exit 1."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "classical-burgers", "stencil": stencil}))
    for argv in (["validate", "--config", str(path)], ["run", "--config", str(path), "--out", str(tmp_path / "o")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: field 'stencil': expected 2 or 4\n"
    assert not (tmp_path / "o").exists()


# The checks of these overflow: |m|^2 = 1e320, and |k1^* + k2|^2 = 1e400 in the Frobenius norm.
_ZN_HUGE_M = '{"scenario": "zn", "m": [1e160, 0, 0]}'
_M2_HUGE_K1 = '{"scenario": "m2", "k1": [[1e200, 0], [0, 2]]}'


@pytest.mark.parametrize("text", [_ZN_HUGE_M, _M2_HUGE_K1], ids=["zn", "m2"])
def test_initial_data_too_large_to_check_exit_2(text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    for argv in (["validate", "--config", str(path)], ["run", "--config", str(path), "--out", str(tmp_path / "o")]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # as a plain run prints them
            assert main(argv) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err.startswith("config error: initial data too large to check: ")
    assert not (tmp_path / "o").exists()


def test_large_data_whose_checks_stay_finite_still_validates(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"scenario": "zn", "k_plus": [1e200, 1e200, 1e200]}')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", "--config", str(path)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out = capsys.readouterr().out
    assert "warning: reality residual = 1.000e+200 exceeds 1e-09" in out
    assert "warning: braiding residual = 1.995e+200 exceeds 1e-09" in out


# An rk4 stage lands on the pole: x0 + (h / 2) v0 = 0, where cot divides by zero.
_AT_THE_POLE = '{"scenario": "classical-geodesic", "x": [0.0005, 0.0], "v": [-1.0, 0.0]}'
_LEAVE_THE_CHART = [(text, method) for method in ("rk4", "rk45") for text in (_NEAR_POLE, _ROW_UNDERFLOW)]
_LEAVE_THE_CHART.append((_AT_THE_POLE, "rk4"))


@pytest.mark.parametrize("text, method", _LEAVE_THE_CHART,
                         ids=[text if method == "rk4" else f"{text}-{method}" for text, method in _LEAVE_THE_CHART])
def test_states_that_leave_the_chart_exit_3(text, method, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    argv = ["run", "--config", str(path), "--t-end", "0.002", "--method", method, "--out", str(tmp_path / "o")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # as a plain run prints them
        assert main(argv) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.splitlines()[-1].startswith("numerical blowup:")


def test_every_source_applies_the_same_rules(tmp_path, capsys):
    with pytest.raises(ConfigError):
        build_config({"scenario": "classical-burgers", "n_grid": 10**9})  # would allocate GBs per array
    assert build_config({"scenario": "classical-burgers", "n_grid": cli.MAX_GRID})["n_grid"] == cli.MAX_GRID
    for raw in ({"scenario": "classical-burgers", "amplitude": math.inf},
                {"scenario": "m2row", "lam": 10**400},
                {"scenario": "classical-geodesic", "v": [1.0, math.nan]}):
        with pytest.raises(ConfigError):
            build_config(raw)
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"scenario": "zn", "t_end": 1e9}))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_sample_memory_is_capped(tmp_path, capsys):
    # only build_config and validate see these configs: none of them is integrated
    cap = flow.MAX_SAMPLE_VALUES
    row = {"scenario": "m2row", "step": 1.0, "stride": 1}  # 4 state values per sample
    assert build_config({**row, "t_end": cap // 4 - 1})["t_end"] == cap // 4 - 1  # exactly cap values
    for raw in ({**row, "t_end": cap // 4},
                {"scenario": "zn", "t_end": 1e5, "stride": 1},
                {"scenario": "classical-burgers", "n_grid": cli.MAX_GRID, "stride": 1}):
        with pytest.raises(ConfigError, match="exceed the limit"):
            build_config(raw)
    path = tmp_path / "long.json"
    path.write_text(json.dumps({**row, "t_end": cap // 4}))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_work_is_capped(tmp_path, capsys):
    # steps x state floats may be at most flow.MAX_STEPS * flow.MAX_SCALAR_STATE; only build_config,
    # validate and run's config stage see these configs
    work = flow.MAX_STEPS * flow.MAX_SCALAR_STATE
    dim = flow.MAX_SCALAR_STATE // 2  # the largest scalar-form state, at MAX_STEPS: exactly the bound
    assert build_config({"scenario": "classical-geodesic", "manifold": "flat", "x": [0.0] * dim, "v": [1.0] * dim,
                         "t_end": 1e8, "step": 1.0, "stride": 10**8})["t_end"] == 1e8
    grid = {"scenario": "classical-burgers", "n_grid": 2**16, "step": 0.5, "stride": 10**8}
    assert build_config({**grid, "t_end": 0.5 * (work // 2**16)})["n_grid"] == 2**16  # exactly the bound
    with pytest.raises(ConfigError, match="exceed the work limit"):
        build_config({**grid, "t_end": 0.5 * (work // 2**16 + 1)})
    # 10^8 steps of 2^20 floats, about 10^14 float-steps: admitted before the bound, some months of running
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"scenario": "classical-burgers", "n_grid": cli.MAX_GRID, "t_end": 1e5,
                                "step": 1e-3, "stride": 10**8}))
    for argv in (["validate", "--config", str(path)], ["run", "--config", str(path), "--out", str(tmp_path / "o")]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "exceed the work limit" in err
    assert not (tmp_path / "o").exists()


def test_flat_geodesic_dimension_is_capped(tmp_path, capsys):
    dim = flow.MAX_SCALAR_STATE // 2
    flat = {"scenario": "classical-geodesic", "manifold": "flat", "t_end": 0.01, "step": 0.01}
    assert len(build_config({**flat, "x": [0.0] * dim, "v": [1.0] * dim})["x"]) == dim
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({**flat, "x": [0.0] * (dim + 1), "v": [1.0] * (dim + 1)}))
    for argv in (["run", "--config", str(path), "--out", str(tmp_path / "o")],
                 ["validate", "--config", str(path)],
                 ["sweep", "--configs", str(path), "--out", str(tmp_path / "s")]):
        assert main(argv) == 2
        assert f"at most {dim} components" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_row_norm_below_the_square_root_of_the_smallest_float(tmp_path, capsys):
    # |lam|^2 + |mu|^2 underflows to 0 here; the state coordinates must not turn NaN
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"scenario": "m2row", "lam": 1e-200, "mu": 0, "t_end": 0.1}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err
    header, data = _read_csv(tmp_path / "o" / "state.csv")
    assert np.isfinite(data).all()
    np.testing.assert_array_equal(data[0, 1:], [-0.5, 0.0, 0.0])  # lam : mu = 1 : 0, the point at infinity


# These ended in a traceback: numpy divides lam and mu by a subnormal scale through its reciprocal, which is inf.
_ROW_SUBNORMAL = [  # a config and its first z = lam / mu
    ('{"scenario": "m2row", "lam": 1e-320, "mu": 0}', (math.inf, 0.0)),
    ('{"scenario": "m2row", "lam": 0, "mu": 1e-320}', (0.0, 0.0)),
    ('{"scenario": "m2row", "lam": [1e-310, 1e-310], "mu": [0, 1e-315], "t_end": 0.5}', (1e5, -1e5)),
]


@pytest.mark.parametrize("text, z0", _ROW_SUBNORMAL)
def test_a_subnormal_row_start_runs(text, z0, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    header, data = _read_csv(tmp_path / "o" / "trajectory.csv")
    z = data[:, [header.index("z_re"), header.index("z_im")]]
    assert not np.isnan(z).any()  # finite, or inf at the pole
    np.testing.assert_allclose(z[0], z0, rtol=1e-8)


def test_a_row_norm_that_overflows_names_its_check(tmp_path, capsys):
    """Squaring |lam| = 1e300 with ** raised OverflowError, whose message named no check."""
    path = tmp_path / "cfg.json"
    path.write_text('{"scenario": "m2row", "lam": 1e300, "mu": 1e300}')
    for argv in (["validate", "--config", str(path)], ["run", "--config", str(path), "--out", str(tmp_path / "o")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: initial data too large to check: normalisation ||m|^2-1| overflows\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, check", [
    ('{"scenario": "m2row", "lam": [1.7e308, 1.7e308], "mu": 0}', "normalisation ||m|^2-1|"),
    ('{"scenario": "m2row", "lam": 0, "mu": 1, "q1": [1.7e308, 1.7e308]}', "metric preserving"),
], ids=["lam", "q1"])
def test_a_row_check_whose_complex_abs_overflows_names_its_check(text, check, tmp_path, capsys):
    """Python's complex abs raised OverflowError here, whose message named no check."""
    path = tmp_path / "cfg.json"
    path.write_text(text)
    for argv in (["validate", "--config", str(path)], ["run", "--config", str(path), "--out", str(tmp_path / "o")]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # as a plain run prints them
            assert main(argv) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == f"config error: initial data too large to check: {check} overflows\n"
    assert not (tmp_path / "o").exists()


def test_sweep_refuses_configs_that_share_a_stem(tmp_path, capsys):
    paths = []
    for parent in ("d1", "d2"):
        (tmp_path / parent).mkdir()
        paths.append(tmp_path / parent / "x.json")
        paths[-1].write_text(json.dumps({"scenario": "m2row", "t_end": 0.01}))
    assert main(["sweep", "--configs", *map(str, paths), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "s").exists()


def _done(fn, item) -> concurrent.futures.Future:
    """A future that already holds ``fn(item)``: a pool's submit, run in this process."""
    future = concurrent.futures.Future()
    future.set_result(fn(item))
    return future


def _fake_pool(monkeypatch, cpus):
    """Stand in for the process pool and the CPU count; returns the max_workers of each pool started."""
    started = []

    class FakePool:  # a real pool would fork every worker at the first submit
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, item):
            return _done(fn, item)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    return started


def _sweep_configs(tmp_path, count):
    paths = [tmp_path / f"{chr(ord('a') + i)}.json" for i in range(count)]
    for path in paths:
        path.write_text(json.dumps({"scenario": "m2row", "t_end": 0.01}))
    return paths


def test_sweep_starts_no_more_workers_than_configs(tmp_path, monkeypatch):
    started = _fake_pool(monkeypatch, cpus=64)
    paths = _sweep_configs(tmp_path, 2)
    assert main(["sweep", "--configs", *map(str, paths), "--out", str(tmp_path / "s"), "--jobs", "5000"]) == 0
    assert started == [2]
    assert (tmp_path / "s" / "b" / "trajectory.csv").exists()


@pytest.mark.parametrize("cpus, expected", [(3, [3]), (1, [])])
def test_sweep_starts_no_more_workers_than_usable_cpus(tmp_path, monkeypatch, cpus, expected):
    started = _fake_pool(monkeypatch, cpus)
    paths = _sweep_configs(tmp_path, 5)
    assert main(["sweep", "--configs", *map(str, paths), "--out", str(tmp_path / "s"), "--jobs", "5000"]) == 0
    assert started == expected  # one usable CPU: the configs run in this process
    assert (tmp_path / "s" / "e" / "trajectory.csv").exists()


def test_usable_cpus_is_positive():
    assert cli._usable_cpus() >= 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(tmp_path, monkeypatch, capsys, jobs):
    started = _fake_pool(monkeypatch, cpus=64)
    paths = _sweep_configs(tmp_path, 2)
    assert main(["sweep", "--configs", *map(str, paths), "--out", str(tmp_path / "s"), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"config error: --jobs: expected an integer >= 1, got {jobs}\n"
    assert started == [] and not (tmp_path / "s").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_reports_an_internal_error_per_config(tmp_path, monkeypatch, capsys, jobs):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "integrate_burgers", boom)
    # with --jobs 2 the jobs run in this process, through a stand-in for the pool
    monkeypatch.setattr(cli, "ProcessPoolExecutor",
                        lambda max_workers: contextlib.nullcontext(types.SimpleNamespace(submit=_done)))
    paths = [tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"]
    paths[0].write_text(json.dumps({"scenario": "m2row", "t_end": 0.01}))
    paths[1].write_text(json.dumps({"scenario": "classical-burgers", "n_grid": 16, "t_end": 0.01}))
    paths[2].write_text(json.dumps({"scenario": "m2row", "t_end": 0.01}))
    assert main(["sweep", "--configs", *map(str, paths), "--out", str(tmp_path / "s"), "--jobs", jobs]) == 1
    out, err = capsys.readouterr()
    assert f"internal error: {paths[1]}: RuntimeError: boom (in boom, test_cli.py:" in err
    assert "Traceback" not in err
    assert [line.rsplit(": ", 1)[1] for line in out.splitlines()[-3:]] == ["exit 0", "exit 1", "exit 0"]
    assert (tmp_path / "s" / "a" / "trajectory.csv").exists() and (tmp_path / "s" / "c" / "trajectory.csv").exists()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the workers inherit the stand-in by fork")
def test_a_sweep_worker_that_dies_is_an_internal_error_of_its_config(tmp_path, monkeypatch, capsys):
    paths = _sweep_configs(tmp_path, 3)
    run_one = cli._run_one_sweep

    def dies_on_b(payload):
        if payload[0] == str(paths[1]):
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not all((tmp_path / f"{stem}.done").exists() for stem in "ac"):
                time.sleep(0.01)
            time.sleep(0.2)  # the other worker puts c's finished result on the pipe
            os._exit(9)
        result = run_one(payload)
        (tmp_path / f"{Path(payload[0]).stem}.done").touch()
        return result

    dies_on_b.__module__, dies_on_b.__qualname__ = cli.__name__, "_run_one_sweep"  # pickled by name, found in the fork
    monkeypatch.setattr(cli, "_run_one_sweep", dies_on_b)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert main(["sweep", "--configs", *map(str, paths), "--out", str(tmp_path / "s"), "--jobs", "2"]) == 1
    out, err = capsys.readouterr()
    assert err == f"internal error: {paths[1]}: worker process died\n"
    assert out.count("scenario m2row") == 2
    assert out.splitlines()[-3:] == [f"{paths[0]}: exit 0", f"{paths[1]}: exit 1", f"{paths[2]}: exit 0"]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the workers inherit the stand-in by fork")
def test_a_dying_sweep_worker_leaves_the_running_configs_to_a_fresh_worker(tmp_path, monkeypatch, capsys):
    paths = _sweep_configs(tmp_path, 3)
    paths[0].write_text(json.dumps({"scenario": "m2", "t_end": 60}))  # still running when b's worker dies
    run_one = cli._run_one_sweep

    def dies_on_b(payload):
        if payload[0] == str(paths[1]):
            time.sleep(0.3)
            os._exit(9)
        return run_one(payload)

    dies_on_b.__module__, dies_on_b.__qualname__ = cli.__name__, "_run_one_sweep"  # pickled by name, found in the fork
    monkeypatch.setattr(cli, "_run_one_sweep", dies_on_b)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert main(["sweep", "--configs", *map(str, paths), "--out", str(tmp_path / "s"), "--jobs", "2"]) == 1
    out, err = capsys.readouterr()
    assert err == f"internal error: {paths[1]}: worker process died\n"
    assert out.splitlines()[-3:] == [f"{paths[0]}: exit 0", f"{paths[1]}: exit 1", f"{paths[2]}: exit 0"]
    assert (tmp_path / "s" / "a" / "fig3c.svg").exists() and (tmp_path / "s" / "c" / "trajectory.csv").exists()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the workers inherit the stand-in by fork")
def test_the_configs_a_dying_worker_leaves_run_again_in_one_fresh_pool(tmp_path, monkeypatch, capsys):
    """b's worker dies once while c runs: b and c run again together, in one pool of the sweep's size."""
    paths, started, died = _sweep_configs(tmp_path, 3), tmp_path / "c.started", tmp_path / "b.died"
    run_one, pools = cli._run_one_sweep, []

    def dies_once_on_b(payload):
        if payload[0] == str(paths[2]) and not started.exists():
            started.touch()
            time.sleep(60)  # the broken pool ends this worker
        if payload[0] == str(paths[1]) and not died.exists():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not started.exists():
                time.sleep(0.01)
            died.touch()
            os._exit(9)
        return run_one(payload)

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    dies_once_on_b.__module__, dies_once_on_b.__qualname__ = cli.__name__, "_run_one_sweep"
    monkeypatch.setattr(cli, "_run_one_sweep", dies_once_on_b)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert main(["sweep", "--configs", *map(str, paths), "--out", str(tmp_path / "s"), "--jobs", "2"]) == 0
    out, err = capsys.readouterr()
    assert pools == [2, 2] and err == ""
    assert out.splitlines()[-3:] == [f"{path}: exit 0" for path in paths]
    assert all((tmp_path / "s" / stem / "trajectory.csv").exists() for stem in "abc")


def test_the_configs_a_broken_pool_refuses_to_submit_run_again_in_one_fresh_pool(tmp_path, monkeypatch, capsys):
    """The first pool breaks after a's submit, as one whose first worker dies at once: b and c run in the next."""
    paths, started, submitted = _sweep_configs(tmp_path, 3), _fake_pool(monkeypatch, cpus=64), []

    def breaks_after_the_first(pool, fn, item):
        if started == [2] and submitted:
            raise cli.BrokenProcessPool("A child process terminated abruptly")
        submitted.append(item[0])
        return _done(fn, item)

    monkeypatch.setattr(cli.ProcessPoolExecutor, "submit", breaks_after_the_first)
    assert main(["sweep", "--configs", *map(str, paths), "--out", str(tmp_path / "s"), "--jobs", "2"]) == 0
    out, err = capsys.readouterr()
    assert started == [2, 2] and submitted == list(map(str, paths)) and err == ""
    assert out.splitlines()[-3:] == [f"{path}: exit 0" for path in paths]
    assert all((tmp_path / "s" / stem / "trajectory.csv").exists() for stem in "abc")


_FIELDS = {
    "zn": ["n", "k_plus", "k_minus", "m"],
    "m2": ["k1", "k2", "m"],
    "m2row": ["lam", "mu", "q0", "q1", "q2"],
    "classical-geodesic": ["manifold", "x", "v"],
    "classical-burgers": ["n_grid", "amplitude", "stencil", "values"],
}
_BIG = "1e309 literal"  # json.dumps cannot write 1e309; the string is replaced in the text
_numbers = st.one_of(
    st.floats(),
    st.integers(-3, 70),
    st.sampled_from([math.inf, -math.inf, math.nan, _BIG, 10**400]),
)
_pairs = st.lists(_numbers, min_size=2, max_size=2)
_values = st.one_of(
    _numbers,
    st.booleans(),
    st.none(),
    st.sampled_from(["sphere", "flat", "rk4", "rk45", ""]),
    _pairs,
    st.lists(_pairs, min_size=1, max_size=4),
    st.lists(st.lists(_pairs, min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(_numbers, min_size=1, max_size=20),
)


@st.composite
def _config_texts(draw):
    scenario = draw(st.sampled_from(sorted(_FIELDS)))
    keys = draw(st.lists(st.sampled_from(_FIELDS[scenario] + ["t_end", "step", "stride", "method"]),
                         unique=True, max_size=6))
    raw = {"scenario": scenario, **{key: draw(_values) for key in keys}}
    return json.dumps(raw).replace(f'"{_BIG}"', "1e309")


@settings(max_examples=60, deadline=None)
@given(_config_texts())
@example(_ZN_1E309)
@example(_ZN_NAN)
@example(_SPHERE_POLE)
@example(_NEAR_POLE)
@example(_ROW_UNDERFLOW)
@example(_ROW_TINY)
def test_any_config_ends_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) in (0, 2)
        out = str(Path(tmp) / "out")
        assert main(["run", "--config", str(path), "--t-end", "0.002", "--step", "0.001", "--out", out]) in (0, 2, 3)
