"""Scenario runner CLI.

``ncgflow run`` integrates one of five scenarios (zn, m2, m2row,
classical-geodesic, classical-burgers) from a JSON config, a built-in
preset, or the scenario default, and writes ``trajectory.csv``,
``invariants.csv``, ``state.csv`` plus SVG panels to the output
directory.  ``validate`` checks the algebraic invariants of the initial
data (and, for a burgers rk4 run, the step against the stencil's stability
limit) without integrating; ``sweep`` runs several configs into sibling
output directories.

Each scenario is one ``_Scenario`` record in ``_SCENARIOS``: its default
config, the parser of its own fields, its runner and its initial-data
checks.  Every config source (preset, ``--scenario`` default, JSON file,
sweep entry, plus the ``run`` flags) becomes one raw dict that
``build_config`` validates, so ``run``, ``validate`` and ``sweep`` apply
the same rules; ``run`` prints the warnings of the checks that
``validate`` reports.

Each scenario also has one monitor list of ``(column, series, summary
key, check name)`` tuples.  ``_monitor`` writes ``invariants.csv`` from them and
derives every ``max_*`` summary line as ``max |series|``.  The zn and m2
checks are the monitors with a check name, applied to a one-sample run of
the initial data, so each check prints the maximum of its columns in the
first row of ``invariants.csv``.  Initial data whose checks overflow is a
config error.

Config values that are complex numbers are written as ``[re, im]`` pairs
(plain numbers are accepted as reals); every number must be finite.  A
run may take at most ``flow.MAX_STEPS`` steps; its samples times the
length of its state vector may be at most ``flow.MAX_SAMPLE_VALUES``
(1 GiB of float64), checked first; its steps times that length, its
work, may be at most ``MAX_STEPS * MAX_SCALAR_STATE`` (2.56e10
float-steps, the work of the longest run on the largest scalar-form
state); and a flat geodesic may have at most ``flow.MAX_SCALAR_STATE / 2``
components.  So an accepted config has bounded time and memory.  CSV
floats carry 17 significant digits and output bytes are deterministic for
a fixed config.

Exit codes: 0 success, 2 config error, 3 numerical blow-up.  In a
``sweep``, a config whose run fails in any other way prints
``internal error: ...`` and reports exit 1 while the others finish.
Each config's stdout and stderr are captured where it runs and printed
in config order, whatever ``--jobs`` is, so a sweep's output is
deterministic too.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import io
import json
import math
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .classical import (
    GRID_SPAN,
    GridField,
    flat_space,
    integrate_burgers,
    integrate_geodesic,
    round_sphere,
    sine_field,
)
from .flow import MAX_SAMPLE_VALUES, MAX_SCALAR_STATE, MAX_STEPS, BlowupError, Trajectory, sample_count, step_count
from .mobius import METRIC_TOL, _metric_residual, metric_preservation_check, run_row
from .svgplot import line_chart
from .transport import M2Run, ZnRun, pack_m2_state, pack_zn_state, run_m2, run_zn

__all__ = ["main", "ConfigError", "PRESETS", "build_config", "load_config"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

MAX_GRID = 2**20  # grid points of a sine-profile burgers run; bounds its memory


class ConfigError(Exception):
    """Malformed or inconsistent scenario configuration."""


# Config parsing -----------------------------------------------------------

def _real(value, field: str, what: str = "a real number") -> float:
    """A finite real number; JSON's Infinity, NaN and 1e309 are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{field}': expected {what}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"field '{field}': expected {what}, got a non-finite value")
    return out


def _positive(value, field: str) -> float:
    out = _real(value, field, "a finite positive number")
    if out <= 0:
        raise ConfigError(f"field '{field}': expected a finite positive number")
    return out


def _int_at_least(value, field: str, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"field '{field}': expected an integer >= {low}")
    return value


def _as_complex(value, field: str) -> complex:
    if isinstance(value, complex):
        parts = (value.real, value.imag)
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        parts = value
    else:
        parts = (value, 0.0)
    what = "a number or [re, im] pair"
    return complex(_real(parts[0], field, what), _real(parts[1], field, what))


def _as_complex_list(value, field: str, length: int) -> list[complex]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"field '{field}': expected a list")
    out = [_as_complex(v, f"{field}[{i}]") for i, v in enumerate(value)]
    if len(out) != length:
        raise ConfigError(f"field '{field}': expected {length} entries, got {len(out)}")
    return out


def _as_complex_matrix(value, field: str) -> list[list[complex]]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"field '{field}': expected a 2x2 nested list")
    return [_as_complex_list(row, f"{field}[{i}]", 2) for i, row in enumerate(value)]


def _as_real_list(value, field: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"field '{field}': expected a non-empty list of reals")
    return [_real(v, f"{field}[{i}]") for i, v in enumerate(value)]


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno})") from exc
    except (ValueError, RecursionError) as exc:  # e.g. an integer of over 4300 digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


# Output helpers ------------------------------------------------------------

_CSV_BLOCK = 2048  # values formatted per pass of the kernel; bounds its temporaries to about 0.5 MB
# A value's text sits in fixed fields of a row of 14 uint32 words, zero outside the text, and is the row's nonzero
# bytes: 0-7 the prefix, right-aligned (sign, the "0.000" of X = -4..-1, first digit); 8-23 digits 1-16 before
# a fixed point; 31 the point; 32-47 digits 1-16 after it; 48-51 the exponent "e+XX"; 52 the separator.
_CSV_ROW = 14
_CSV_K0 = 90  # the row of 10^0 in the table of powers 10^-90..10^120


@functools.cache
def _csv_tables() -> tuple:
    """The constant tables of ``_csv_text``, built on first use (99 KB, in 1-3 ms).

    Powers: per k, 10^k = hi + lo to about 2^-106 (hi correctly rounded
    and lo the rounded rest, both from Python ints), hi split in 26-bit
    halves hh + hl for Dekker's product, and the margin of the rounding
    test, 0 where 10^k is a float (lo = 0, so the scaled value is exact).
    Then, per 4-digit group, its four characters as one uint32; per group
    i of D's digits 1-16 (row i) and its value, the count of D's digits
    1-16 up to the group's last nonzero one, 0 for 0000; per window [a, b)
    of digits 1-16 (column 17 a + b), its byte mask as two uint64 (row 0
    for digits 1-8, row 1 for 9-16); per X + 99, the prefix base (80 where
    no "0.000" is written, so a point may follow the digits), the count k
    of digits 1-16 before a fixed point (0 where all follow the prefix or
    the point), the point word of bytes 24-31 and the exponent word; and
    per prefix base + 10 sign + first digit, the prefix.
    """
    powers = []
    for k in range(-_CSV_K0, 121):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int division rounds correctly
        a, b = hi.as_integer_ratio()
        lo = (num * b - a * den) / (den * b)
        hh = hi * 134217729.0 - (hi * 134217729.0 - hi)
        powers.append((hi, hh, hi - hh, lo, 2.0**-30 if lo else 0.0))
    group = np.arange(10000, dtype=np.int16)
    quads = (group[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")).astype(np.uint8)
    last = 4 - np.argmax(quads[:, ::-1] > ord("0"), axis=1)  # the place of the last nonzero digit, for group > 0
    lasts = ((last + np.arange(0, 16, 4)[:, None]) * (group > 0)).astype(np.int8)
    place, ends = np.arange(16).reshape(2, 1, 1, 8), np.arange(17)
    windows = ((ends[:, None, None] <= place) & (place < ends[:, None])).astype(np.uint8) * np.uint8(255)
    xs = np.arange(-99, 100)
    bases = np.where((xs >= -4) & (xs < 0), 20 * (xs + 4), 80)  # 80: no "0.000" prefix, so a point may follow
    ks = np.where((xs > 0) & (xs <= 16), xs, 0)
    points = (bases == 80) * np.uint64(ord(".") << 56)
    exps = "".join(f"e{x:+03d}" if x < -4 or x > 16 else "\0" * 4 for x in range(-99, 100))
    prefixes = "".join(f"{'-' * sign}{lead}{d}".rjust(8, "\0")
                       for lead in ("0.000", "0.00", "0.0", "0.", "") for sign in (0, 1) for d in range(10))
    return (np.array(powers).T.copy(), quads.view(np.uint32).ravel(), lasts, windows.view(np.uint64).reshape(2, 289),
            bases, ks, points, np.frombuffer(exps.encode(), np.uint32), np.frombuffer(prefixes.encode(), np.uint64))


def _scaled(a: np.ndarray, X: np.ndarray, powers: np.ndarray) -> tuple:
    """``(D, f, margin)``: a 10^(16 - X) = D + f to about 5e-15, D an integer, |f| <= 1/2.

    a hi = p + e exactly (Dekker's two-product; Numer. Math. 18, 1971), p
    an even integer once a 10^(16 - X) >= 2^53, so D = p + rint(q) with
    q = e + a lo is rounded half to even, exactly where lo = 0.
    """
    hi, hh, hl, lo, margin = powers.take(_CSV_K0 + 16 - X, axis=1)
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    q = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    r = np.rint(q)
    return p.astype(np.int64) + r.astype(np.int64), q - r, margin


def _csv_text(x: np.ndarray, first: int, cols: int, buf: np.ndarray) -> bytes:
    """The CSV text of the values ``x``, which follow ``first`` values of a table of ``cols`` columns.

    Each value is scaled to 17 digits D, 10^16 <= D < 10^17, at the
    exponent X = floor(log10 |x|), corrected where log10 is one off, and
    its text is written in the fixed fields of a row of ``buf``, an array
    of ``_CSV_ROW`` uint32 words and ``len(x)`` rows at least: D's digits
    1-16 ANDed with the window [0, k) before the point and with [k, last)
    after it, ``last`` the count of digits up to the last nonzero one.
    Every byte of a row outside its text is written 0, so the text is the
    nonzero bytes of the rows.  A value outside 1e-99 <= |x| <= 9e98, a
    non-finite one, and one whose scaled fraction lies within the margin
    of 1/2, where the double-double cannot settle the rounding, is written
    by ``format(v, ".17g")`` itself; 0 and -0 as D = 0.
    """
    powers, quads, lasts, windows, bases, ks, points, exps, prefixes = _csv_tables()
    n = x.shape[0]
    a = np.abs(x)
    # 0, nan, inf and values outside the range become finite; the float 1e-99 is above 10^-99, so -99 <= X <= 99
    safe = np.fmin(np.fmax(a, 1e-99), 9e98)
    X = np.floor(np.log10(safe)).astype(np.int64)
    D, f, margin = _scaled(safe, X, powers)
    fix = ((D - 10**16 + f < 0) | (D > 10**17)).nonzero()[0]
    while fix.size:
        X[fix] += np.where(D[fix] > 10**17, 1, -1)
        D[fix], f[fix], margin[fix] = _scaled(safe[fix], X[fix], powers)
        fix = fix[(D[fix] - 10**16 + f[fix] < 0) | (D[fix] > 10**17)]
    top = D == 10**17  # rounded up to the next power of ten
    D -= top * (9 * 10**16)
    X += top
    nonzero = x != 0
    D *= nonzero
    X *= nonzero
    slow = (a != safe) & nonzero | (np.abs(np.abs(f) - 0.5) < margin)
    groups = np.empty((2, 2, n), np.int64)  # digits 1-4, 5-8, 9-12 and 13-16 of D, as 4-digit numbers
    halves = groups[:, 1]  # first D's digits 0-8 and 9-16
    np.floor_divide(D, 10**8, out=halves[0])
    np.subtract(D, halves[0] * 10**8, out=halves[1])
    d = halves[0] // 10**8
    halves[0] -= d * 10**8
    np.floor_divide(halves, 10**4, out=groups[:, 0])
    halves -= groups[:, 0] * 10**4
    groups = groups.reshape(4, n)
    words = buf[:n]
    for i, chars in enumerate(quads.take(groups)):
        words[:, 2 + i] = words[:, 8 + i] = chars
    last = np.maximum.reduce([row.take(group) for row, group in zip(lasts, groups)])  # digits up to the last nonzero
    X += 99
    k = ks.take(X)
    fields = words.view(np.uint64)
    fields[:, 0] = prefixes.take(bases.take(X) + 10 * np.signbit(x) + d)
    for j in (0, 1):
        fields[:, 1 + j] &= windows[j].take(k)
        fields[:, 4 + j] &= windows[j].take(17 * k + last)
    fields[:, 3] = points.take(X) * (last > k)
    words[:, 12] = exps.take(X)
    words[:, 13] = ord(",")
    words[cols - 1 - first % cols::cols, 13] = ord("\n")
    for i in slow.nonzero()[0].tolist():
        text = format(float(x[i]), ".17g").encode() + bytes([words[i, 13]])
        words[i] = np.frombuffer(text.ljust(4 * _CSV_ROW, b"\0"), np.uint32)
    text = words.view(np.uint8)
    return text[text != 0].tobytes()


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write the 2-d float ``rows`` under ``header``, each value as ``format(v, ".17g")`` gives it.

    The values are formatted by ``_csv_text``, an exact vectorised kernel,
    in blocks of at most ``_CSV_BLOCK`` of the flattened table, so neither
    a whole-file text nor the Python floats of a wide row (24,577 columns
    at n = 4096) are held.  It scales each value to its 17 digits as a
    double-double and writes their text in fixed fields of a row of
    14 uint32 words per value, whose nonzero bytes are the text; a value
    outside 1e-99 <= |x| <= 9e98, a non-finite one and one within the
    rounding margin of a tie go to ``format`` itself.  On a presets
    round's tables it takes about 220 ns a value, a third of the time of
    the ``"%.17g"`` templates it replaced (README, "Performance").
    """
    rows = np.asarray(rows, dtype=np.float64)
    cols = rows.shape[1]
    flat = rows.ravel()
    buf = np.zeros((min(_CSV_BLOCK, flat.shape[0]), _CSV_ROW), np.uint32)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for first in range(0, flat.shape[0], _CSV_BLOCK):
            fh.write(_csv_text(flat[first : first + _CSV_BLOCK], first, cols, buf))


def _write_table(outdir: Path, name: str, t: np.ndarray, header: list[str], columns: list) -> None:
    """Write ``t`` followed by ``columns`` (1-d columns or 2-d blocks of them) to ``outdir/name``."""
    write_csv(outdir / name, ["t"] + header, np.column_stack([t, *columns]))


def _complex_columns(labels, *names: str) -> list[str]:
    return [f"{name}_{label}_{part}" for name in names for label in labels for part in ("re", "im")]


def _interleave(block: np.ndarray) -> np.ndarray:
    """(T, ...) complex -> (T, 2k) float with re/im columns."""
    flat = np.ascontiguousarray(block.reshape(block.shape[0], -1))
    return flat.view(np.float64)


def _lines(title: str, t: np.ndarray, names: list[str], block: np.ndarray) -> dict:
    """Chart of the columns of ``block`` (or of a 1-d ``block``) against t."""
    cols = block.reshape(len(t), -1)
    return dict(series=[(name, t, cols[:, c]) for c, name in enumerate(names)], title=title, xlabel="t")


def _state_path(pts: np.ndarray, title: str) -> dict:
    """Chart of the (s, x) path of a state inside the circle of pure states."""
    circle = np.linspace(0.0, 2.0 * math.pi, 257)
    return dict(
        series=[("state path", pts[:, 0], pts[:, 1]), ("pure states", 0.5 * np.cos(circle), 0.5 * np.sin(circle))],
        title=title,
        xlabel="s",
        ylabel="x",
        equal_aspect=True,
    )


def _stepping(cfg: dict) -> dict:
    return {"t_end": cfg["t_end"], "h": cfg["step"], "stride": cfg["stride"], "method": cfg["method"]}


# Scenarios -----------------------------------------------------------------

_STEPPING = {"t_end": 10.0, "step": 1e-3, "stride": 10, "method": "rk4"}
_TOL = 1e-9
_M2_LABELS = ("00", "01", "10", "11")  # row-major entries of a 2x2 matrix


@dataclass(frozen=True)
class _Scenario:
    """The five functions that make up one scenario.

    ``default()`` is the raw default config.  ``parse(raw)`` validates the
    scenario's own fields of a raw dict whose defaults are filled in.
    ``columns(cfg)`` is the length of the integrated state vector.
    ``run(cfg, outdir)`` writes the three CSVs and returns ``(times, plots,
    summary)``: ``plots`` lists ``(file name, line_chart keywords)`` and
    ``summary`` the report items after ``samples``.  ``checks(cfg)``
    returns ``(name, value, tol)`` triples on the initial data; a bool
    value is a yes/no fact whose third field is the warning for "no".

    Each runner passes its scenario's monitors, ``(column, series, summary
    key or None, check name or None)`` tuples, to ``_monitor``, which
    writes ``invariants.csv`` and gives every ``max_*`` item of
    ``summary``.  The zn and m2 ``checks`` are ``_monitor_checks`` of the
    same monitors, evaluated on ``ZnRun.of`` / ``M2Run.of`` of the packed
    initial state at t = 0.  m2row checks its own two facts, because its
    ``norm_dev`` column is the drift from the first sample, not the
    distance from 1; burgers checks, for rk4, that the step is within the
    stencil's stability limit, and the geodesic has no checks.

    Runners call ``run_zn``, ``write_csv``, ``line_chart`` and the rest
    through this module's globals, so a wrapper installed on the module
    sees every call.
    """

    default: Callable[[], dict]
    parse: Callable[[dict], dict]
    columns: Callable[[dict], int]
    run: Callable[[dict, Path], tuple]
    checks: Callable[[dict], list]


class _Series(dict):
    """A run's series by name, each computed once: a missing name calls the run's method of that name."""

    def __init__(self, run, **known):
        super().__init__(known)
        self.run = run

    def __missing__(self, name: str) -> np.ndarray:
        value = self[name] = getattr(self.run, name)()
        return value


def _drift(name: str) -> Callable[[_Series], np.ndarray]:
    """The series ``name`` minus its value at the first sample."""
    return lambda s: s[name] - s[name][0]


def _phi_dev(s: _Series) -> np.ndarray:
    return s["phi_one"] - 1.0


def _monitor(outdir: Path, run, monitors, **known) -> tuple[_Series, dict]:
    """Write ``invariants.csv`` from ``monitors``; return the run's ``_Series`` and the summary.

    The ``_Series`` holds each monitor's series under its name, for the
    plots; the summary is ``max |series|`` per key.
    """
    s, header, summary = _Series(run, **known), [], {}
    for name, series, key, _ in monitors:
        values = s[name] = series(s)
        header += [name] if values.ndim == 1 else [f"{name}_{i}" for i in range(values.shape[1])]
        if key:
            summary[key] = float(np.abs(values).max())
    _write_table(outdir, "invariants.csv", run.times, header, [s[name] for name, *_ in monitors])
    return s, summary


def _monitor_checks(monitors, run_class, pack, fields) -> Callable[[dict], list]:
    """The ``checks`` of the monitors that name one: ``max |series|`` at t = 0.

    ``run_class.of`` decodes a one-sample trajectory of the initial data,
    the config's ``fields`` packed by ``pack``; only the checked series are
    computed.
    """
    def checks(cfg: dict) -> list:
        y0 = pack(*(cfg[field] for field in fields))
        s = _Series(run_class.of(Trajectory(np.zeros(1), y0[None])))
        return [(check, float(np.abs(series(s)).max()), _TOL) for _, series, _, check in monitors if check]

    return checks


# Monitors: (invariants.csv column, series, summary key or None, check name or None).
_REALITY, _BRAIDING, _PHI = "reality residual", "braiding residual", "normalisation |phi(1)-1|"
_ZN_MONITORS = (
    ("reality", itemgetter("reality_abs"), "max_reality", _REALITY),
    ("braiding", itemgetter("braiding_abs"), "max_braiding", _BRAIDING),
    ("k_plus_mod", itemgetter("k_plus_moduli"), None, None),
    ("k_minus_mod", itemgetter("k_minus_moduli"), None, None),
    ("phi_one_dev", _phi_dev, "max_phi_dev", _PHI),
)
_M2_MONITORS = (
    ("reality_fro", itemgetter("reality_fro"), "max_reality", _REALITY),
    ("braiding_fro", itemgetter("braiding_fro"), "max_braiding", _BRAIDING),
    ("phi_one_dev", _phi_dev, "max_phi_dev", _PHI),
    ("bloch_r2", lambda s: (s["bloch_series"] ** 2).sum(axis=1), None, None),
)
_ROW_MONITORS = (("norm_dev", _drift("norms"), "max_norm_dev", None),)
_GEODESIC_MONITORS = (("speed_sq_dev", _drift("speeds_squared"), "max_speed_dev", None),)
_BURGERS_MONITORS = (("mean_dev", _drift("means"), "max_mean_dev", None),
                     ("max_abs", lambda s: np.abs(s.run.values).max(axis=1), None, None))


def _zn_default() -> dict:
    return {
        "scenario": "zn",
        "n": 3,
        "k_plus": [-cmath.exp(-2j), -cmath.exp(-3j), -1.0 + 0j],
        "k_minus": [cmath.exp(3j), 1.0 + 0j, cmath.exp(2j)],
        "m": [2.0 ** -0.5 + 0j, 0j, 2.0 ** -0.5 + 0j],
        **_STEPPING,
    }


def _zn_parse(raw: dict) -> dict:
    n = _int_at_least(raw["n"], "n", 2)
    return {"n": n, **{key: _as_complex_list(raw[key], key, n) for key in ("k_plus", "k_minus", "m")}}


def _zn_run(cfg: dict, outdir: Path) -> tuple:
    run = run_zn(cfg["k_plus"], cfg["k_minus"], cfg["m"], **_stepping(cfg))
    t, sites = run.times, range(run.n)
    header = _complex_columns(sites, "k_plus", "k_minus", "m")  # the packed state's order
    _write_table(outdir, "trajectory.csv", t, header, [run.trajectory.states])
    s, summary = _monitor(outdir, run, _ZN_MONITORS)
    header = [f"phi_{i}" for i in sites] + [f"phi_cum_{i}" for i in sites] + ["phi_one"]
    _write_table(outdir, "state.csv", t, header, [s["phi_sites"], s["phi_cumulative"], s["phi_one"]])
    return t, [
        ("fig1a.svg", _lines("cumulative state values", t, [f"phi_cum_{i}" for i in sites], s["phi_cumulative"])),
        ("fig1b.svg", _lines("reality residuals", t, [f"reality_{i}" for i in sites], s["reality"])),
        ("fig1c.svg", _lines("normalisation deviation", t, ["phi_one_dev"], s["phi_one_dev"])),
    ], summary


def _m2_default() -> dict:
    r = 6.0 ** -0.5
    return {
        "scenario": "m2",
        "k1": [[1.0 + 0j, 0j], [0j, 2.0 + 0j]],
        "k2": [[-1.0 + 0j, 0j], [0j, -2.0 + 0j]],
        "m": [[r + 0j, r + 0j], [2.0 * r + 0j, 0j]],
        **_STEPPING,
    }


def _m2_parse(raw: dict) -> dict:
    return {key: _as_complex_matrix(raw[key], key) for key in ("k1", "k2", "m")}


def _m2_run(cfg: dict, outdir: Path) -> tuple:
    run = run_m2(cfg["k1"], cfg["k2"], cfg["m"], **_stepping(cfg))
    t = run.times
    header = _complex_columns(_M2_LABELS, "k1", "k2", "m")  # the packed state's order
    _write_table(outdir, "trajectory.csv", t, header, [run.trajectory.states])
    s, summary = _monitor(outdir, run, _M2_MONITORS)
    bloch_pts = s["bloch_series"]
    _write_table(outdir, "state.csv", t, ["s", "x", "y", "phi_one"], [bloch_pts, s["phi_one"]])
    return t, [
        ("fig2a.svg", _lines("k1 entries", t, _complex_columns(_M2_LABELS, "k1"), _interleave(run.k1))),
        ("fig2b.svg", _lines("k2 entries", t, _complex_columns(_M2_LABELS, "k2"), _interleave(run.k2))),
        ("fig2c.svg", _lines("[k1, k2] entries", t, _complex_columns(_M2_LABELS, "comm"),
                             _interleave(run.commutator))),
        ("fig3a.svg", _lines("state coordinates", t, ["s", "x", "y"], bloch_pts)),
        ("fig3b.svg", _state_path(bloch_pts, "path in state space")),
        ("fig3c.svg", _lines("normalisation deviation", t, ["phi_one_dev"], s["phi_one_dev"])),
    ], summary


def _row_default() -> dict:
    return {"scenario": "m2row", "lam": 0j, "mu": 1.0 + 0j, "q0": 0j, "q1": 1.0 + 0j, "q2": -1.0 + 0j, **_STEPPING}


def _row_parse(raw: dict) -> dict:
    cfg = {key: _as_complex(raw[key], key) for key in ("lam", "mu", "q0", "q1", "q2")}
    if cfg["lam"] == 0 and cfg["mu"] == 0:
        raise ConfigError("fields 'lam'/'mu': (0, 0) is not a valid row state")
    return cfg


def _row_run(cfg: dict, outdir: Path) -> tuple:
    run = run_row(cfg["lam"], cfg["mu"], cfg["q0"], cfg["q1"], cfg["q2"], **_stepping(cfg))
    t = run.times
    gone = np.flatnonzero((run.lam == 0) & (run.mu == 0))
    if gone.size:  # underflow from a subnormal start: 0:0 is no point of the sphere
        raise BlowupError("row state underflowed to (0, 0)", float(t[gone[0] - 1]))
    z = np.array([p.z if not p.is_infinity else complex("inf") for p in run.z_points()])
    _write_table(outdir, "trajectory.csv", t, ["lam_re", "lam_im", "mu_re", "mu_im", "z_re", "z_im"],
                 [run.lam.real, run.lam.imag, run.mu.real, run.mu.imag, z.real, z.imag])

    s, summary = _monitor(outdir, run, _ROW_MONITORS)
    pts = run.bloch_series()
    _write_table(outdir, "state.csv", t, ["s", "x", "y"], [pts])
    return t, [
        ("rowflow_state.svg", _state_path(pts, "pure-state path")),
        ("rowflow_norm.svg", _lines("norm deviation", t, ["norm_dev"], s["norm_dev"])),
    ], {"metric_preserving": metric_preservation_check(cfg["q0"], cfg["q1"], cfg["q2"]), **summary}


def _row_checks(cfg: dict) -> list:
    """The row's checks; a value that overflows is inf, as numpy's complex ``abs`` gives, not an OverflowError."""
    lam, mu = np.complex128(cfg["lam"]), np.complex128(cfg["mu"])
    norm = abs(lam) * abs(lam) + abs(mu) * abs(mu)
    drift = _metric_residual(cfg["q0"], cfg["q1"], cfg["q2"])
    return [("metric preserving", drift <= METRIC_TOL if drift < math.inf else drift,
             "Q constants do not preserve the inner product; norm will drift"),
            ("normalisation ||m|^2-1|", abs(norm - 1.0), _TOL)]


def _geodesic_default() -> dict:
    return {"scenario": "classical-geodesic", "manifold": "sphere", "x": [math.pi / 2.0, 0.0], "v": [0.4, 1.0],
            **_STEPPING}


def _geodesic_parse(raw: dict) -> dict:
    manifold = raw["manifold"]
    if manifold not in ("sphere", "flat"):
        raise ConfigError(f"field 'manifold': expected 'sphere' or 'flat', got {manifold!r}")
    x, v = _as_real_list(raw["x"], "x"), _as_real_list(raw["v"], "v")
    dim = 2 if manifold == "sphere" else len(x)
    if len(x) != dim or len(v) != dim:
        raise ConfigError(f"fields 'x'/'v': expected {dim} components each")
    if 2 * dim > MAX_SCALAR_STATE:
        raise ConfigError(f"fields 'x'/'v': a geodesic has at most {MAX_SCALAR_STATE // 2} components")
    if manifold == "sphere" and math.sin(x[0]) == 0.0:
        raise ConfigError("field 'x': x[0] is a pole of the sphere chart, where cot x[0] is undefined")
    return {"manifold": manifold, "x": x, "v": v}


def _geodesic_run(cfg: dict, outdir: Path) -> tuple:
    provider = round_sphere() if cfg["manifold"] == "sphere" else flat_space(len(cfg["x"]))
    run = integrate_geodesic(cfg["x"], cfg["v"], provider, **_stepping(cfg))
    t = run.times
    coords = [f"x_{i}" for i in range(provider.dim)]
    _write_table(outdir, "trajectory.csv", t, coords + [f"v_{i}" for i in range(provider.dim)], [run.xs, run.vs])

    s, summary = _monitor(outdir, run, _GEODESIC_MONITORS)
    _write_table(outdir, "state.csv", t, coords + ["speed_sq"], [run.xs, s["speeds_squared"]])
    return t, [
        ("geodesic_coords.svg", _lines("coordinates", t, coords, run.xs)),
        ("geodesic_speed.svg", _lines("speed conservation", t, ["speed_sq_dev"], s["speed_sq_dev"])),
    ], summary


def _burgers_default() -> dict:
    return {"scenario": "classical-burgers", "n_grid": 256, "amplitude": 0.1, "stencil": 4, **_STEPPING, "t_end": 1.0}


def _burgers_parse(raw: dict) -> dict:
    if type(raw["stencil"]) is not int or raw["stencil"] not in (2, 4):  # JSON's 4.0 and true are refused
        raise ConfigError("field 'stencil': expected 2 or 4")
    cfg = {"stencil": raw["stencil"]}
    if "values" in raw:
        cfg["values"] = _as_real_list(raw["values"], "values")
        if len(cfg["values"]) < 16:
            raise ConfigError("field 'values': need at least 16 grid samples")
        return cfg
    cfg["n_grid"] = _int_at_least(raw["n_grid"], "n_grid", 16)
    if cfg["n_grid"] > MAX_GRID:
        raise ConfigError(f"field 'n_grid': at most {MAX_GRID} grid points")
    cfg["amplitude"] = _real(raw["amplitude"], "amplitude", "a number")
    return cfg


def _burgers_run(cfg: dict, outdir: Path) -> tuple:
    if "values" in cfg:
        field = GridField(np.array(cfg["values"]), cfg["stencil"])
    else:
        field = sine_field(cfg["n_grid"], cfg["amplitude"], cfg["stencil"])
    run = integrate_burgers(field, **_stepping(cfg))
    t, values = run.times, run.values
    _write_table(outdir, "trajectory.csv", t, [f"k_{j}" for j in range(values.shape[1])], [values])

    s, summary = _monitor(outdir, run, _BURGERS_MONITORS, means=values.mean(axis=1))
    _write_table(outdir, "state.csv", t, ["k_min", "k_max", "k_mean"],
                 [values.min(axis=1), values.max(axis=1), s["means"]])
    picks = sorted({0, len(t) // 4, len(t) // 2, (3 * len(t)) // 4, len(t) - 1})
    return t, [
        ("burgers_profiles.svg", dict(series=[(f"t={t[p]:.3g}", run.x, values[p]) for p in picks],
                                      title="velocity profiles", xlabel="x")),
        ("burgers_mean.svg", _lines("mean conservation", t, ["mean_dev"], s["mean_dev"])),
    ], summary


def _burgers_columns(cfg: dict) -> int:
    return len(cfg["values"]) if "values" in cfg else cfg["n_grid"]


def _burgers_checks(cfg: dict) -> list:
    """For rk4, whether the step is within the stencil's stability limit ``2.83 dx / (c max|K|)``.

    rk4 is stable on the imaginary axis up to |h lambda| = 2 sqrt(2) ~ 2.83,
    and the largest |lambda| of -K d/dx on the grid is c max|K| / dx, with
    c the peak of the stencil's symbol: 1 at order 2, 1.372 at order 4.
    """
    if cfg["method"] != "rk4":
        return []
    rate = {2: 1.0, 4: 1.372}[cfg["stencil"]] * (max(map(abs, cfg["values"])) if "values" in cfg
                                                  else abs(cfg["amplitude"]))
    scaled_dx = 2.83 * GRID_SPAN / _burgers_columns(cfg)
    ok = cfg["step"] * rate <= scaled_dx  # no division: max|K| may be 0 or near the float limit
    warning = "" if ok else (f"step {cfg['step']:g} exceeds the rk4 stability limit {scaled_dx / rate:.3g} of this "
                             f"grid, stencil and max|K|; the run is likely to blow up")
    return [("rk4 step within the stability limit", ok, warning)]


_SCENARIOS = {
    "zn": _Scenario(_zn_default, _zn_parse, lambda cfg: 6 * cfg["n"], _zn_run,
                    _monitor_checks(_ZN_MONITORS, ZnRun, pack_zn_state, ("k_plus", "k_minus", "m"))),
    "m2": _Scenario(_m2_default, _m2_parse, lambda cfg: 24, _m2_run,
                    _monitor_checks(_M2_MONITORS, M2Run, pack_m2_state, ("k1", "k2", "m"))),
    "m2row": _Scenario(_row_default, _row_parse, lambda cfg: 4, _row_run, _row_checks),
    "classical-geodesic": _Scenario(_geodesic_default, _geodesic_parse, lambda cfg: 2 * len(cfg["x"]),
                                    _geodesic_run, lambda cfg: []),
    "classical-burgers": _Scenario(_burgers_default, _burgers_parse, _burgers_columns, _burgers_run,
                                   _burgers_checks),
}
SCENARIOS = tuple(_SCENARIOS)

PRESETS = {"paper-fig1": _zn_default, "paper-fig2": _m2_default}


def build_config(raw: dict) -> dict:
    """Normalise a raw (JSON-level) config dict, scenario defaults filled in, into typed values."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"field 'scenario': expected one of {', '.join(SCENARIOS)}, got {scenario!r}")
    spec = _SCENARIOS[scenario]
    full = {**spec.default(), **raw}
    cfg = {
        "scenario": scenario,
        "t_end": _positive(full["t_end"], "t_end"),
        "step": _positive(full["step"], "step"),
        "stride": _int_at_least(full["stride"], "stride", 1),
        "method": full["method"],
    }
    if cfg["method"] not in ("rk4", "rk45"):
        raise ConfigError(f"field 'method': expected 'rk4' or 'rk45', got {cfg['method']!r}")
    try:
        n_steps = step_count(cfg["t_end"], cfg["step"])
    except ValueError as exc:
        raise ConfigError(f"fields 't_end'/'step': {exc}") from exc
    if "out" in full:
        if not isinstance(full["out"], str) or not full["out"]:
            raise ConfigError("field 'out': expected a non-empty path string")
        cfg["out"] = full["out"]
    cfg.update(spec.parse(full))
    samples, columns = sample_count(n_steps, cfg["stride"]), spec.columns(cfg)
    if samples * columns > MAX_SAMPLE_VALUES:
        raise ConfigError(f"fields 't_end'/'step'/'stride': {samples} samples of {columns} state values exceed "
                          f"the limit of {MAX_SAMPLE_VALUES} values; raise 'stride'")
    if n_steps * columns > MAX_STEPS * MAX_SCALAR_STATE:
        raise ConfigError(f"fields 't_end'/'step': {n_steps} steps of {columns} state values exceed the work limit "
                          f"of {MAX_STEPS * MAX_SCALAR_STATE} float-steps; raise 'step' or lower 't_end'")
    return cfg


def load_config(path: str | Path) -> dict:
    return build_config(_read_json(path))


def _report(cfg: dict) -> tuple[list[str], list[str]]:
    """The check lines that ``validate`` prints and the warnings that ``validate`` and ``run`` print."""
    with np.errstate(all="ignore"):  # entries near the float limit overflow the checks to inf
        checks = _SCENARIOS[cfg["scenario"]].checks(cfg)
    lines = [] if checks else ["no algebraic invariants for this scenario; config is well-formed"]
    warn = []
    for name, value, tol in checks:
        if not math.isfinite(value):
            raise ConfigError(f"initial data too large to check: {name} overflows")
        if isinstance(value, bool):
            lines.append(f"{name}: {'yes' if value else 'no'}")
            if not value:
                warn.append(tol)
            continue
        ok = value <= tol
        lines.append(f"{name}: {value:.3e} [{'ok' if ok else 'WARNING'}]")
        if not ok:
            warn.append(f"{name} = {value:.3e} exceeds {tol:g}")
    return lines, warn


# Command handlers ----------------------------------------------------------

def _config_error(message) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _resolve_config(args) -> dict:
    scenario = getattr(args, "scenario", None)
    if args.preset and args.config:
        raise ConfigError("--preset and --config are mutually exclusive")
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}")
        raw = PRESETS[args.preset]()
    elif args.config:
        raw = _read_json(args.config)
    elif scenario:
        raw = {"scenario": scenario}
    else:
        sources = "--preset, --config or --scenario" if hasattr(args, "scenario") else "--preset or --config"
        raise ConfigError(f"one of {sources} is required")
    flags = {key: getattr(args, key) for key in (*_STEPPING, "out") if getattr(args, key, None) is not None}
    cfg = build_config({**raw, **flags})
    if scenario and scenario != cfg["scenario"]:
        raise ConfigError(f"--scenario {scenario} contradicts config scenario {cfg['scenario']!r}")
    return cfg


def _run_config(cfg: dict, out) -> int:
    """Integrate one validated config into ``out``; returns the exit code."""
    outdir = Path(out)
    try:
        warnings = _report(cfg)[1]
    except ConfigError as exc:
        return _config_error(exc)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        return _config_error(f"cannot create output directory {outdir}: {exc}")
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    try:
        times, plots, summary = _SCENARIOS[cfg["scenario"]].run(cfg, outdir)
    except BlowupError as exc:
        print(f"numerical blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except OSError as exc:  # a CSV could not be written
        return _config_error(f"cannot write output in {outdir}: {exc}")
    written = ["trajectory.csv", "invariants.csv", "state.csv"]
    for name, kwargs in plots:
        try:
            line_chart(outdir / name, **kwargs)
            written.append(name)
        except Exception as exc:  # plotting must never fail the run
            print(f"warning: could not write {name}: {exc}", file=sys.stderr)
    print(
        f"scenario {cfg['scenario']}: t_end={cfg['t_end']:g} step={cfg['step']:g} "
        f"stride={cfg['stride']} method={cfg['method']}"
    )
    for key, value in {"samples": len(times), **summary}.items():
        print(f"{key}: {value:.3e}" if isinstance(value, float) else f"{key}: {value}")
    print(f"wrote {', '.join(written)} to {outdir}")
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        return _config_error(exc)
    return _run_config(cfg, cfg.get("out", "out"))


def _cmd_validate(args) -> int:
    try:
        cfg = _resolve_config(args)
        lines, warnings = _report(cfg)
    except ConfigError as exc:
        return _config_error(exc)
    print(f"scenario: {cfg['scenario']}")
    for line in lines + [f"warning: {w}" for w in warnings]:
        print(line)
    return EXIT_OK


def _run_one_sweep(payload) -> tuple[str, int, str, str]:
    """Run one sweep config; returns its path, its exit code and what it printed to stdout and stderr.

    Any failure ends in the exit code, so the other configs still finish.
    """
    config_path, out_path = payload
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = _run_config(load_config(config_path), out_path)
        except ConfigError as exc:
            code = _config_error(exc)
        except Exception as exc:  # a fault of the program, not of the config: name it and where it was raised
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            print(f"internal error: {config_path}: {type(exc).__name__}: {exc} "
                  f"(in {frame.name}, {Path(frame.filename).name}:{frame.lineno})", file=sys.stderr)
            code = EXIT_INTERNAL
    return config_path, code, stdout.getvalue(), stderr.getvalue()


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        return _config_error(f"--jobs: expected an integer >= 1, got {args.jobs}")
    stems = [Path(c).stem for c in args.configs]
    shared = sorted({stem for stem in stems if stems.count(stem) > 1})
    if shared:
        return _config_error(f"configs would share the output directories {', '.join(shared)} under {args.out}")
    jobs = [(str(c), str(Path(args.out) / stem)) for c, stem in zip(args.configs, stems)]
    workers = min(args.jobs, len(jobs), _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one_sweep, jobs))
    else:
        results = [_run_one_sweep(j) for j in jobs]
    for _, _, stdout, stderr in results:
        sys.stdout.write(stdout)
        sys.stderr.write(stderr)
    for config_path, code, _, _ in results:
        print(f"{config_path}: exit {code}")
    return max(code for _, code, _, _ in results)


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
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="parallel workers, at most one per config and per usable CPU (default 1)")
    sweep_p.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
