"""Scenario runner CLI.

``ncgflow run`` integrates one of five scenarios (zn, m2, m2row,
classical-geodesic, classical-burgers) from a JSON config, a built-in
preset, or the scenario default, and writes ``trajectory.csv``,
``invariants.csv``, ``state.csv`` plus SVG panels to the output
directory.  ``validate`` checks the algebraic invariants of the initial
data without integrating; ``sweep`` runs several configs into sibling
output directories.

Config values that are complex numbers are written as ``[re, im]`` pairs
(plain numbers are accepted as reals).  CSV floats carry 17 significant
digits and output bytes are deterministic for a fixed config.

Exit codes: 0 success, 2 config error, 3 numerical blow-up.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .algebra import I2, Mat2Element, ZnElement
from .calculus import VectorField
from .classical import (
    GridField,
    flat_space,
    integrate_burgers,
    integrate_geodesic,
    round_sphere,
    sine_field,
)
from .connection import braiding_residual, reality_residual
from .flow import BlowupError, step_count
from .mobius import metric_preservation_check, run_row
from .svgplot import line_chart
from .transport import run_m2, run_zn, state_eval

__all__ = ["main", "ConfigError", "PRESETS", "build_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

SCENARIOS = ("zn", "m2", "m2row", "classical-geodesic", "classical-burgers")


class ConfigError(Exception):
    """Malformed or inconsistent scenario configuration."""


# Config parsing -----------------------------------------------------------

def _as_complex(value, field: str) -> complex:
    if isinstance(value, bool):
        raise ConfigError(f"field '{field}': expected a number or [re, im] pair")
    if isinstance(value, (int, float, complex)):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(f"field '{field}': expected a number or [re, im] pair")


def _as_complex_list(value, field: str, length: int | None = None) -> list[complex]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"field '{field}': expected a list")
    out = [_as_complex(v, f"{field}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise ConfigError(f"field '{field}': expected {length} entries, got {len(out)}")
    return out


def _as_complex_matrix(value, field: str) -> list[list[complex]]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"field '{field}': expected a 2x2 nested list")
    return [_as_complex_list(row, f"{field}[{i}]", 2) for i, row in enumerate(value)]


def _as_real_list(value, field: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"field '{field}': expected a non-empty list of reals")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"field '{field}[{i}]': expected a real number")
        out.append(float(v))
    return out


def _positive(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise ConfigError(f"field '{field}': expected a finite positive number")
    return float(value)


def _positive_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"field '{field}': expected a positive integer")
    return value


def _preset_zn_fig1() -> dict:
    return {
        "scenario": "zn",
        "n": 3,
        "k_plus": [-cmath.exp(-2j), -cmath.exp(-3j), -1.0 + 0j],
        "k_minus": [cmath.exp(3j), 1.0 + 0j, cmath.exp(2j)],
        "m": [2.0 ** -0.5 + 0j, 0j, 2.0 ** -0.5 + 0j],
        "t_end": 10.0,
        "step": 1e-3,
        "stride": 10,
        "method": "rk4",
    }


def _preset_m2_fig2() -> dict:
    r = 6.0 ** -0.5
    return {
        "scenario": "m2",
        "k1": [[1.0 + 0j, 0j], [0j, 2.0 + 0j]],
        "k2": [[-1.0 + 0j, 0j], [0j, -2.0 + 0j]],
        "m": [[r + 0j, r + 0j], [2.0 * r + 0j, 0j]],
        "t_end": 10.0,
        "step": 1e-3,
        "stride": 10,
        "method": "rk4",
    }


def _default_m2row() -> dict:
    return {
        "scenario": "m2row",
        "lam": 0j,
        "mu": 1.0 + 0j,
        "q0": 0j,
        "q1": 1.0 + 0j,
        "q2": -1.0 + 0j,
        "t_end": 10.0,
        "step": 1e-3,
        "stride": 10,
        "method": "rk4",
    }


def _default_geodesic() -> dict:
    return {
        "scenario": "classical-geodesic",
        "manifold": "sphere",
        "x": [math.pi / 2.0, 0.0],
        "v": [0.4, 1.0],
        "t_end": 10.0,
        "step": 1e-3,
        "stride": 10,
        "method": "rk4",
    }


def _default_burgers() -> dict:
    return {
        "scenario": "classical-burgers",
        "n_grid": 256,
        "amplitude": 0.1,
        "stencil": 4,
        "t_end": 1.0,
        "step": 1e-3,
        "stride": 10,
        "method": "rk4",
    }


PRESETS = {
    "paper-fig1": _preset_zn_fig1,
    "paper-fig2": _preset_m2_fig2,
}

_SCENARIO_DEFAULTS = {
    "zn": _preset_zn_fig1,
    "m2": _preset_m2_fig2,
    "m2row": _default_m2row,
    "classical-geodesic": _default_geodesic,
    "classical-burgers": _default_burgers,
}


def _parse_common(raw: dict, cfg: dict, defaults: dict) -> None:
    cfg["t_end"] = _positive(raw.get("t_end", defaults["t_end"]), "t_end")
    cfg["step"] = _positive(raw.get("step", defaults["step"]), "step")
    cfg["stride"] = _positive_int(raw.get("stride", defaults["stride"]), "stride")
    method = raw.get("method", defaults["method"])
    if method not in ("rk4", "rk45"):
        raise ConfigError(f"field 'method': expected 'rk4' or 'rk45', got {method!r}")
    cfg["method"] = method


def build_config(raw: dict) -> dict:
    """Normalise a raw (JSON-level) config dict into typed values."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"field 'scenario': expected one of {', '.join(SCENARIOS)}, got {scenario!r}")
    defaults = _SCENARIO_DEFAULTS[scenario]()
    cfg: dict = {"scenario": scenario}
    _parse_common(raw, cfg, defaults)
    if "out" in raw:
        if not isinstance(raw["out"], str) or not raw["out"]:
            raise ConfigError("field 'out': expected a non-empty path string")
        cfg["out"] = raw["out"]

    if scenario == "zn":
        n = raw.get("n", defaults["n"])
        if isinstance(n, bool) or not isinstance(n, int) or n < 2:
            raise ConfigError("field 'n': expected an integer >= 2")
        cfg["n"] = n
        for key in ("k_plus", "k_minus", "m"):
            cfg[key] = _as_complex_list(raw.get(key, defaults[key]), key, n)
    elif scenario == "m2":
        for key in ("k1", "k2", "m"):
            cfg[key] = _as_complex_matrix(raw.get(key, defaults[key]), key)
    elif scenario == "m2row":
        for key in ("lam", "mu", "q0", "q1", "q2"):
            cfg[key] = _as_complex(raw.get(key, defaults[key]), key)
        if cfg["lam"] == 0 and cfg["mu"] == 0:
            raise ConfigError("fields 'lam'/'mu': (0, 0) is not a valid row state")
    elif scenario == "classical-geodesic":
        manifold = raw.get("manifold", defaults["manifold"])
        if manifold not in ("sphere", "flat"):
            raise ConfigError(f"field 'manifold': expected 'sphere' or 'flat', got {manifold!r}")
        cfg["manifold"] = manifold
        cfg["x"] = _as_real_list(raw.get("x", defaults["x"]), "x")
        cfg["v"] = _as_real_list(raw.get("v", defaults["v"]), "v")
        dim = 2 if manifold == "sphere" else len(cfg["x"])
        if len(cfg["x"]) != dim or len(cfg["v"]) != dim:
            raise ConfigError(f"fields 'x'/'v': expected {dim} components each")
    else:  # classical-burgers
        stencil = raw.get("stencil", defaults["stencil"])
        if stencil not in (2, 4):
            raise ConfigError("field 'stencil': expected 2 or 4")
        cfg["stencil"] = stencil
        if "values" in raw:
            cfg["values"] = _as_real_list(raw["values"], "values")
            if len(cfg["values"]) < 16:
                raise ConfigError("field 'values': need at least 16 grid samples")
        else:
            n_grid = raw.get("n_grid", defaults["n_grid"])
            if isinstance(n_grid, bool) or not isinstance(n_grid, int) or n_grid < 16:
                raise ConfigError("field 'n_grid': expected an integer >= 16")
            amplitude = raw.get("amplitude", defaults["amplitude"])
            if isinstance(amplitude, bool) or not isinstance(amplitude, (int, float)):
                raise ConfigError("field 'amplitude': expected a number")
            cfg["n_grid"] = n_grid
            cfg["amplitude"] = float(amplitude)
    return cfg


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno})") from exc
    return build_config(raw)


# Output helpers ------------------------------------------------------------

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _complex_columns(name: str, count: int) -> list[str]:
    cols = []
    for i in range(count):
        cols.append(f"{name}_{i}_re")
        cols.append(f"{name}_{i}_im")
    return cols


def _mat_columns(name: str) -> list[str]:
    cols = []
    for i in range(2):
        for j in range(2):
            cols.append(f"{name}_{i}{j}_re")
            cols.append(f"{name}_{i}{j}_im")
    return cols


def _interleave(block: np.ndarray) -> np.ndarray:
    """(T, k) complex -> (T, 2k) float with re/im columns."""
    flat = np.ascontiguousarray(block.reshape(block.shape[0], -1))
    return flat.view(np.float64)


def _try_plots(outdir: Path, jobs) -> list[str]:
    written = []
    for name, kwargs in jobs:
        try:
            line_chart(outdir / name, **kwargs)
            written.append(name)
        except Exception as exc:  # plotting must never fail the run
            print(f"warning: could not write {name}: {exc}", file=sys.stderr)
    return written


# Scenario runners ----------------------------------------------------------

def _run_zn_scenario(cfg: dict, outdir: Path) -> dict:
    run = run_zn(
        cfg["k_plus"],
        cfg["k_minus"],
        cfg["m"],
        t_end=cfg["t_end"],
        h=cfg["step"],
        stride=cfg["stride"],
        method=cfg["method"],
    )
    n = run.n
    t = run.times

    header = ["t"] + _complex_columns("k_plus", n) + _complex_columns("k_minus", n) + _complex_columns("m", n)
    body = np.hstack([t[:, None], _interleave(run.k_plus), _interleave(run.k_minus), _interleave(run.m)])
    write_csv(outdir / "trajectory.csv", header, body)

    reality = run.reality_abs()
    braiding = run.braiding_abs()
    kp_mod = run.k_plus_moduli()
    km_mod = run.k_minus_moduli()
    phi_one = run.phi_one()
    phi_dev = phi_one - 1.0
    header = (
        ["t"]
        + [f"reality_{i}" for i in range(n)]
        + [f"braiding_{i}" for i in range(n)]
        + [f"k_plus_mod_{i}" for i in range(n)]
        + [f"k_minus_mod_{i}" for i in range(n)]
        + ["phi_one_dev"]
    )
    body = np.hstack([t[:, None], reality, braiding, kp_mod, km_mod, phi_dev[:, None]])
    write_csv(outdir / "invariants.csv", header, body)

    sites = run.phi_sites()
    cums = run.phi_cumulative()
    header = ["t"] + [f"phi_{i}" for i in range(n)] + [f"phi_cum_{i}" for i in range(n)] + ["phi_one"]
    body = np.hstack([t[:, None], sites, cums, phi_one[:, None]])
    write_csv(outdir / "state.csv", header, body)

    plots = _try_plots(
        outdir,
        [
            (
                "fig1a.svg",
                dict(
                    series=[(f"phi_cum_{i}", t, cums[:, i]) for i in range(n)],
                    title="cumulative state values",
                    xlabel="t",
                ),
            ),
            (
                "fig1b.svg",
                dict(
                    series=[(f"reality_{i}", t, reality[:, i]) for i in range(n)],
                    title="reality residuals",
                    xlabel="t",
                ),
            ),
            (
                "fig1c.svg",
                dict(series=[("phi_one_dev", t, phi_dev)], title="normalisation deviation", xlabel="t"),
            ),
        ],
    )
    return {
        "samples": len(t),
        "max_reality": float(reality.max()),
        "max_braiding": float(braiding.max()),
        "max_phi_dev": float(np.abs(phi_dev).max()),
        "plots": plots,
    }


def _run_m2_scenario(cfg: dict, outdir: Path) -> dict:
    run = run_m2(
        cfg["k1"],
        cfg["k2"],
        cfg["m"],
        t_end=cfg["t_end"],
        h=cfg["step"],
        stride=cfg["stride"],
        method=cfg["method"],
    )
    t = run.times

    header = ["t"] + _mat_columns("k1") + _mat_columns("k2") + _mat_columns("m")
    body = np.hstack([t[:, None], _interleave(run.k1), _interleave(run.k2), _interleave(run.m)])
    write_csv(outdir / "trajectory.csv", header, body)

    reality = run.reality_fro()
    braiding = run.braiding_fro()
    phi_one = run.phi_one()
    phi_dev = phi_one - 1.0
    bloch_pts = run.bloch_series()
    r2 = (bloch_pts ** 2).sum(axis=1)
    header = ["t", "reality_fro", "braiding_fro", "phi_one_dev", "bloch_r2"]
    body = np.column_stack([t, reality, braiding, phi_dev, r2])
    write_csv(outdir / "invariants.csv", header, body)

    header = ["t", "s", "x", "y", "phi_one"]
    body = np.column_stack([t, bloch_pts, phi_one])
    write_csv(outdir / "state.csv", header, body)

    circle = np.linspace(0.0, 2.0 * math.pi, 257)
    k1_cols = _interleave(run.k1)
    k2_cols = _interleave(run.k2)
    comm_cols = _interleave(run.commutator)
    labels = [f"{i}{j}_{p}" for i in range(2) for j in range(2) for p in ("re", "im")]
    plots = _try_plots(
        outdir,
        [
            (
                "fig2a.svg",
                dict(series=[(f"k1_{lbl}", t, k1_cols[:, c]) for c, lbl in enumerate(labels)],
                     title="k1 entries", xlabel="t"),
            ),
            (
                "fig2b.svg",
                dict(series=[(f"k2_{lbl}", t, k2_cols[:, c]) for c, lbl in enumerate(labels)],
                     title="k2 entries", xlabel="t"),
            ),
            (
                "fig2c.svg",
                dict(series=[(f"comm_{lbl}", t, comm_cols[:, c]) for c, lbl in enumerate(labels)],
                     title="[k1, k2] entries", xlabel="t"),
            ),
            (
                "fig3a.svg",
                dict(
                    series=[("s", t, bloch_pts[:, 0]), ("x", t, bloch_pts[:, 1]), ("y", t, bloch_pts[:, 2])],
                    title="state coordinates",
                    xlabel="t",
                ),
            ),
            (
                "fig3b.svg",
                dict(
                    series=[
                        ("state path", bloch_pts[:, 0], bloch_pts[:, 1]),
                        ("pure states", 0.5 * np.cos(circle), 0.5 * np.sin(circle)),
                    ],
                    title="path in state space",
                    xlabel="s",
                    ylabel="x",
                    equal_aspect=True,
                ),
            ),
            (
                "fig3c.svg",
                dict(series=[("phi_one_dev", t, phi_dev)], title="normalisation deviation", xlabel="t"),
            ),
        ],
    )
    return {
        "samples": len(t),
        "max_reality": float(reality.max()),
        "max_braiding": float(braiding.max()),
        "max_phi_dev": float(np.abs(phi_dev).max()),
        "plots": plots,
    }


def _run_m2row_scenario(cfg: dict, outdir: Path) -> dict:
    run = run_row(
        cfg["lam"],
        cfg["mu"],
        cfg["q0"],
        cfg["q1"],
        cfg["q2"],
        t_end=cfg["t_end"],
        h=cfg["step"],
        stride=cfg["stride"],
        method=cfg["method"],
    )
    t = run.times
    zs = [p.z if not p.is_infinity else complex("inf") for p in run.z_points()]
    z_re = np.array([z.real for z in zs])
    z_im = np.array([z.imag for z in zs])
    header = ["t", "lam_re", "lam_im", "mu_re", "mu_im", "z_re", "z_im"]
    body = np.column_stack([t, run.lam.real, run.lam.imag, run.mu.real, run.mu.imag, z_re, z_im])
    write_csv(outdir / "trajectory.csv", header, body)

    norms = run.norms()
    norm_dev = norms - norms[0]
    write_csv(outdir / "invariants.csv", ["t", "norm_dev"], np.column_stack([t, norm_dev]))

    pts = run.bloch_series()
    write_csv(outdir / "state.csv", ["t", "s", "x", "y"], np.column_stack([t, pts]))

    circle = np.linspace(0.0, 2.0 * math.pi, 257)
    plots = _try_plots(
        outdir,
        [
            (
                "rowflow_state.svg",
                dict(
                    series=[
                        ("state path", pts[:, 0], pts[:, 1]),
                        ("pure states", 0.5 * np.cos(circle), 0.5 * np.sin(circle)),
                    ],
                    title="pure-state path",
                    xlabel="s",
                    ylabel="x",
                    equal_aspect=True,
                ),
            ),
            (
                "rowflow_norm.svg",
                dict(series=[("norm_dev", t, norm_dev)], title="norm deviation", xlabel="t"),
            ),
        ],
    )
    preserved = metric_preservation_check(cfg["q0"], cfg["q1"], cfg["q2"])
    return {
        "samples": len(t),
        "metric_preserving": preserved,
        "max_norm_dev": float(np.abs(norm_dev).max()),
        "plots": plots,
    }


def _run_geodesic_scenario(cfg: dict, outdir: Path) -> dict:
    provider = round_sphere() if cfg["manifold"] == "sphere" else flat_space(len(cfg["x"]))
    run = integrate_geodesic(
        cfg["x"],
        cfg["v"],
        provider,
        t_end=cfg["t_end"],
        h=cfg["step"],
        stride=cfg["stride"],
        method=cfg["method"],
    )
    t = run.times
    dim = provider.dim
    header = ["t"] + [f"x_{i}" for i in range(dim)] + [f"v_{i}" for i in range(dim)]
    write_csv(outdir / "trajectory.csv", header, np.hstack([t[:, None], run.xs, run.vs]))

    speeds = run.speeds_squared()
    dev = speeds - speeds[0]
    write_csv(outdir / "invariants.csv", ["t", "speed_sq_dev"], np.column_stack([t, dev]))
    header = ["t"] + [f"x_{i}" for i in range(dim)] + ["speed_sq"]
    write_csv(outdir / "state.csv", header, np.hstack([t[:, None], run.xs, speeds[:, None]]))

    plots = _try_plots(
        outdir,
        [
            (
                "geodesic_coords.svg",
                dict(series=[(f"x_{i}", t, run.xs[:, i]) for i in range(dim)],
                     title="coordinates", xlabel="t"),
            ),
            (
                "geodesic_speed.svg",
                dict(series=[("speed_sq_dev", t, dev)], title="speed conservation", xlabel="t"),
            ),
        ],
    )
    return {"samples": len(t), "max_speed_dev": float(np.abs(dev).max()), "plots": plots}


def _run_burgers_scenario(cfg: dict, outdir: Path) -> dict:
    if "values" in cfg:
        field = GridField(np.array(cfg["values"]), cfg["stencil"])
    else:
        field = sine_field(cfg["n_grid"], cfg["amplitude"], cfg["stencil"])
    run = integrate_burgers(field, t_end=cfg["t_end"], h=cfg["step"], stride=cfg["stride"], method=cfg["method"])
    t = run.times
    n = run.values.shape[1]
    header = ["t"] + [f"k_{j}" for j in range(n)]
    write_csv(outdir / "trajectory.csv", header, np.hstack([t[:, None], run.values]))

    means = run.values.mean(axis=1)
    mean_dev = means - means[0]
    max_abs = np.abs(run.values).max(axis=1)
    write_csv(outdir / "invariants.csv", ["t", "mean_dev", "max_abs"], np.column_stack([t, mean_dev, max_abs]))
    write_csv(
        outdir / "state.csv",
        ["t", "k_min", "k_max", "k_mean"],
        np.column_stack([t, run.values.min(axis=1), run.values.max(axis=1), means]),
    )

    picks = sorted({0, len(t) // 4, len(t) // 2, (3 * len(t)) // 4, len(t) - 1})
    plots = _try_plots(
        outdir,
        [
            (
                "burgers_profiles.svg",
                dict(series=[(f"t={t[p]:.3g}", run.x, run.values[p]) for p in picks],
                     title="velocity profiles", xlabel="x"),
            ),
            (
                "burgers_mean.svg",
                dict(series=[("mean_dev", t, mean_dev)], title="mean conservation", xlabel="t"),
            ),
        ],
    )
    return {"samples": len(t), "max_mean_dev": float(np.abs(mean_dev).max()), "plots": plots}


_RUNNERS = {
    "zn": _run_zn_scenario,
    "m2": _run_m2_scenario,
    "m2row": _run_m2row_scenario,
    "classical-geodesic": _run_geodesic_scenario,
    "classical-burgers": _run_burgers_scenario,
}


# Initial-data validation ---------------------------------------------------

def _validate_report(cfg: dict) -> list[str]:
    lines = [f"scenario: {cfg['scenario']}"]
    warn = []
    if cfg["scenario"] == "zn":
        field = VectorField(ZnElement(cfg["k_plus"]), ZnElement(cfg["k_minus"]))
        m = ZnElement(cfg["m"])
        checks = [
            ("reality residual", float(np.abs(reality_residual(field).samples).max()), 1e-9),
            ("braiding residual", float(np.abs(braiding_residual(field).samples).max()), 1e-9),
            ("normalisation |phi(1)-1|", abs(state_eval(m, ZnElement.ones(m.n)).real - 1.0), 1e-9),
        ]
    elif cfg["scenario"] == "m2":
        field = VectorField(Mat2Element(cfg["k1"]), Mat2Element(cfg["k2"]))
        m = Mat2Element(cfg["m"])
        checks = [
            ("reality residual", float(np.linalg.norm(reality_residual(field).entries)), 1e-9),
            ("braiding residual", float(np.linalg.norm(braiding_residual(field).entries)), 1e-9),
            ("normalisation |phi(1)-1|", abs(state_eval(m, I2).real - 1.0), 1e-9),
        ]
    elif cfg["scenario"] == "m2row":
        norm = abs(cfg["lam"]) ** 2 + abs(cfg["mu"]) ** 2
        preserved = metric_preservation_check(cfg["q0"], cfg["q1"], cfg["q2"])
        lines.append(f"metric preserving: {'yes' if preserved else 'no'}")
        checks = [("normalisation ||m|^2-1|", abs(norm - 1.0), 1e-9)]
        if not preserved:
            warn.append("Q constants do not preserve the inner product; norm will drift")
    else:
        lines.append("no algebraic invariants for this scenario; config is well-formed")
        checks = []
    for name, value, tol in checks:
        status = "ok" if value <= tol else "WARNING"
        lines.append(f"{name}: {value:.3e} [{status}]")
        if value > tol:
            warn.append(f"{name} = {value:.3e} exceeds {tol:g}")
    for w in warn:
        lines.append(f"warning: {w}")
    return lines


# Command handlers ----------------------------------------------------------

def _resolve_config(args) -> dict:
    sources = sum(1 for v in (args.preset, args.config, args.scenario) if v)
    if sources == 0:
        raise ConfigError("one of --preset, --config or --scenario is required")
    if args.preset and args.config:
        raise ConfigError("--preset and --config are mutually exclusive")
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}")
        cfg = build_config(PRESETS[args.preset]())
    elif args.config:
        cfg = load_config(args.config)
        if args.scenario and args.scenario != cfg["scenario"]:
            raise ConfigError(
                f"--scenario {args.scenario} contradicts config scenario {cfg['scenario']!r}"
            )
    else:
        cfg = build_config(_SCENARIO_DEFAULTS[args.scenario]())
    overrides = {}
    if getattr(args, "t_end", None) is not None:
        overrides["t_end"] = _positive(args.t_end, "t_end")
    if getattr(args, "step", None) is not None:
        overrides["step"] = _positive(args.step, "step")
    if getattr(args, "stride", None) is not None:
        overrides["stride"] = _positive_int(args.stride, "stride")
    if getattr(args, "method", None) is not None:
        overrides["method"] = args.method
    cfg.update(overrides)
    try:
        step_count(cfg["t_end"], cfg["step"])
    except ValueError as exc:
        raise ConfigError(f"fields 't_end'/'step': {exc}") from exc
    return cfg


def _cmd_run(args) -> int:
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(args.out if args.out is not None else cfg.get("out", "out"))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory {outdir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        summary = _RUNNERS[cfg["scenario"]](cfg, outdir)
    except BlowupError as exc:
        print(f"numerical blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    print(
        f"scenario {cfg['scenario']}: t_end={cfg['t_end']:g} step={cfg['step']:g} "
        f"stride={cfg['stride']} method={cfg['method']}"
    )
    for key, value in summary.items():
        if key == "plots":
            continue
        print(f"{key}: {value:.3e}" if isinstance(value, float) else f"{key}: {value}")
    written = ["trajectory.csv", "invariants.csv", "state.csv"] + summary.get("plots", [])
    print(f"wrote {', '.join(written)} to {outdir}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        if args.preset:
            if args.preset not in PRESETS:
                raise ConfigError(f"unknown preset {args.preset!r}")
            cfg = build_config(PRESETS[args.preset]())
        elif args.config:
            cfg = load_config(args.config)
        else:
            raise ConfigError("validate needs --config or --preset")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for line in _validate_report(cfg):
        print(line)
    return EXIT_OK


def _run_one_sweep(payload) -> tuple[str, int]:
    config_path, out_path = payload
    args = argparse.Namespace(
        preset=None, config=config_path, scenario=None, out=out_path,
        t_end=None, step=None, stride=None, method=None,
    )
    return config_path, _cmd_run(args)


def _cmd_sweep(args) -> int:
    jobs = [(str(c), str(Path(args.out) / Path(c).stem)) for c in args.configs]
    worst = EXIT_OK
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_one_sweep, jobs))
    else:
        results = [_run_one_sweep(j) for j in jobs]
    for config_path, code in results:
        print(f"{config_path}: exit {code}")
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ncgflow",
        description="Integrate geodesic-velocity flows on finite *-algebras and classical benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate a scenario and write CSV/SVG outputs")
    run_p.add_argument("--scenario", choices=SCENARIOS, help="scenario with default initial data")
    run_p.add_argument("--preset", help="built-in preset (paper-fig1, paper-fig2)")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument("--out", default=None, help="output directory (default: config 'out' field, else ./out)")
    run_p.add_argument("--t-end", dest="t_end", type=float, help="override final time")
    run_p.add_argument("--step", type=float, help="override integrator step")
    run_p.add_argument("--stride", type=int, help="override output sample stride")
    run_p.add_argument("--method", choices=("rk4", "rk45"), help="override integrator")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="check initial-data invariants without integrating")
    val_p.add_argument("--config", help="JSON config file")
    val_p.add_argument("--preset", help="built-in preset name")
    val_p.set_defaults(func=_cmd_validate)

    sweep_p = sub.add_parser("sweep", help="run several configs into sibling output directories")
    sweep_p.add_argument("--configs", nargs="+", required=True, help="config files")
    sweep_p.add_argument("--out", default="sweep", help="parent output directory")
    sweep_p.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    sweep_p.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
