import json
import math

import numpy as np
import pytest

from ncgflow.cli import ConfigError, PRESETS, build_config, load_config, main


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


def test_blowup_exits_3(tmp_path, capsys):
    cfg = {"scenario": "m2row", "lam": [1, 0], "mu": [0, 0], "q0": [5, 0], "q1": [0, 0], "q2": [0, 0],
           "t_end": 10.0, "step": 1e-2}
    path = tmp_path / "blow.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 3
    assert "blowup" in capsys.readouterr().err.lower()


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
