"""Seeded inputs and the cases of each benchmark workload.

A *case* is one closed-loop operation: one ``ncgflow.cli.main`` call.  The
program sees only the argv below plus the JSON configs written here; the
seed decides the random initial data and the order of the cases inside
each round.

Generated data is admissible by construction:

* Z_n: ``|K_+|`` constant, ``K_-(i) = -conj(K_+(i+1))``, ``sum |m|^2 = 1``;
  then the reality and braiding residuals vanish.
* M2: ``K1 = U diag(d) U*`` with U unitary and d real, ``K2 = -K1*`` and
  ``tr(m m*) = 1``; K1 is normal, so ``[K1, K2] = 0``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("presets", "zn-large", "sweep-ensemble")
SWEEP_JOBS = 2


def import_ncgflow(root: Path):
    """Import ncgflow from ``root/src`` and nowhere else; return the cli module."""
    src = root / "src"
    if not (src / "ncgflow" / "__init__.py").is_file():
        raise ImportError(f"no ncgflow sources under {src}")
    sys.path.insert(0, str(src))
    from ncgflow import cli

    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        raise ImportError(f"ncgflow was imported from {cli.__file__}, not from {src}")
    return cli


@dataclass(frozen=True)
class Output:
    """One output directory of an op and what it must contain."""

    subdir: str  # relative to the op's --out ("" for run, the config stem for sweep)
    scenario: str
    rows: int  # data rows in each CSV (header excluded)


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple  # cli.main argv without --out
    outputs: tuple  # of Output
    steps: int  # output-grid steps: sum of round(t_end / step) over trajectories


@dataclass
class Workload:
    name: str
    cases: list  # the timed ops of one round
    singles: list = field(default_factory=list)  # per-config runs of a sweep, for the traced run
    description: str = ""

    def round_order(self, rng: random.Random) -> list:
        order = list(self.cases)
        rng.shuffle(order)
        return order


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def zn_config(rng: np.random.Generator, n: int, *, t_end: float, stride: int, method: str) -> dict:
    """Random admissible Z_n initial data."""
    modulus = rng.uniform(0.5, 1.5)
    k_plus = modulus * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    k_minus = -np.conj(np.roll(k_plus, -1))
    m = rng.normal(size=n) + 1j * rng.normal(size=n)
    m /= math.sqrt(float((np.abs(m) ** 2).sum()))
    return {
        "scenario": "zn",
        "n": n,
        "k_plus": [_pair(z) for z in k_plus],
        "k_minus": [_pair(z) for z in k_minus],
        "m": [_pair(z) for z in m],
        "t_end": t_end,
        "step": 1e-3,
        "stride": stride,
        "method": method,
    }


def m2_config(rng: np.random.Generator, *, t_end: float, stride: int, method: str) -> dict:
    """Random admissible M2 initial data."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    k1 = u @ np.diag(rng.uniform(-2.0, 2.0, 2)) @ u.conj().T
    k2 = -k1.conj().T
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m /= math.sqrt(float(np.trace(m @ m.conj().T).real))

    def mat(a):
        return [[_pair(a[i, j]) for j in range(2)] for i in range(2)]

    return {
        "scenario": "m2",
        "k1": mat(k1),
        "k2": mat(k2),
        "m": mat(m),
        "t_end": t_end,
        "step": 1e-3,
        "stride": stride,
        "method": method,
    }


def _steps(cfg: dict) -> int:
    """Integrator steps of a run, as ``flow.integrate`` counts them."""
    return max(1, int(round(cfg["t_end"] / cfg["step"])))


def _rows(cfg: dict) -> int:
    """CSV data rows of a run: every stride-th step from 0, plus the last step."""
    n_steps = _steps(cfg)
    return len(range(0, n_steps + 1, cfg["stride"])) + (1 if n_steps % cfg["stride"] else 0)


def _flag_case(cli, name: str, raw: dict, argv: list, scale: float) -> Case:
    """A case run through --preset/--scenario flags; ``raw`` is what the flags select."""
    cfg = cli.build_config(raw)
    if scale != 1.0:
        cfg["t_end"] *= scale
        argv += ["--t-end", repr(cfg["t_end"])]
    return Case(name, tuple(argv), (Output("", cfg["scenario"], _rows(cfg)),), _steps(cfg))


def _write_config(workdir: Path, name: str, raw: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def _config_case(cli, workdir: Path, name: str, raw: dict) -> Case:
    path = _write_config(workdir, name, raw)
    cfg = cli.load_config(path)
    return Case(name, ("run", "--config", str(path)), (Output("", cfg["scenario"], _rows(cfg)),), _steps(cfg))


def build(cli, name: str, seed: int, workdir: Path, scale: float = 1.0) -> Workload:
    """Generate the inputs of one workload; every input passes ``cli.build_config``.

    ``scale`` shortens every ``t_end`` (the smoke test uses it); the
    benchmark runs at scale 1.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    def t(value: float) -> float:
        return value * scale

    if name == "presets":
        cases = [
            _flag_case(cli, preset, cli.PRESETS[preset](), ["run", "--preset", preset], scale)
            for preset in ("paper-fig1", "paper-fig2")
        ]
        cases += [
            _flag_case(cli, scenario, {"scenario": scenario}, ["run", "--scenario", scenario], scale)
            for scenario in ("m2row", "classical-geodesic", "classical-burgers")
        ]
        return Workload(name, cases, description="5 shipped scenario defaults, once each per round")

    if name == "zn-large":
        cases = [
            _config_case(cli, workdir, "zn4096", zn_config(rng, 4096, t_end=t(2.0), stride=1000, method="rk4")),
            _config_case(cli, workdir, "zn64", zn_config(rng, 64, t_end=t(10.0), stride=100, method="rk4")),
        ]
        return Workload(name, cases, description="Z_n rk4: n=4096 t_end=2 stride=1000; n=64 t_end=10 stride=100")

    raws = [(f"m2-rk4-{i}", m2_config(rng, t_end=t(2.0), stride=10, method="rk4")) for i in range(6)]
    raws += [(f"m2-rk45-{i}", m2_config(rng, t_end=t(2.0), stride=10, method="rk45")) for i in range(3)]
    raws += [(f"zn3-rk45-{i}", zn_config(rng, 3, t_end=t(2.0), stride=10, method="rk45")) for i in range(3)]
    singles = [_config_case(cli, workdir, stem, raw) for stem, raw in raws]
    paths = [c.argv[-1] for c in singles]
    sweep = Case(
        "sweep",
        ("sweep", "--configs", *paths, "--jobs", str(SWEEP_JOBS)),
        tuple(Output(c.name, c.outputs[0].scenario, c.outputs[0].rows) for c in singles),
        sum(c.steps for c in singles),
    )
    return Workload(name, [sweep], singles,
                    description=f"one sweep --jobs {SWEEP_JOBS}: 6 M2 rk4, 3 M2 rk45, 3 Z_3 rk45, t_end=2")


def validate(cli, workload: Workload) -> list:
    """Run ``ncgflow validate`` on every generated config; return the problems found."""
    problems = []
    for case in workload.cases + workload.singles:
        if "--config" not in case.argv:
            continue
        path = case.argv[case.argv.index("--config") + 1]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(["validate", "--config", path])
        if code != 0 or "WARNING" in out.getvalue():
            problems.append(f"{case.name}: validate exit {code}: {out.getvalue().strip()}")
    return problems
