"""Run a fixed list of ``ncgflow`` invocations in this checkout and in another one, and compare their outputs.

Every output file, the stdout and the stderr (with the run's output
directory written as ``OUT``) and the exit status must match byte for
byte.  Run from anywhere::

    python tools/same_outputs.py OTHER_CHECKOUT

Each invocation runs in its own ``python -m ncgflow`` process with that
checkout's ``src`` on ``PYTHONPATH``.  The list is:

* the runs pinned by ``tests/test_golden.py`` (its ``GOLDENS`` table);
* the zn4096 and zn64 configs of the benchmark's ``zn-large`` workload;
* the twelve configs of its ``sweep-ensemble`` workload, each run on its
  own, and all of them as one ``sweep --jobs 2``;
* the scalar-form, array-form and stencil edges that the golden table
  lacks, each from its own config: Z_2 and Z_17 rk4 (the scalar form),
  Z_18 rk4 and rk45 (the smallest array form), Z_19 rk4 at stride 1 (every
  step of the array run sampled), a Z_18 rk4 run from data that is not
  admissible (k_minus = k_plus), which blows up (exit 3) before its
  ``t_end`` of 10, m2row rk45 with complex Q, a flat 3-component geodesic,
  burgers at stencil 2 and from a ``values`` profile, burgers rk45 at
  stencils 4 and 2, burgers rk4 past the stencil's stability limit, which
  warns and blows up (exit 3), burgers rk4 on the smallest grid (16
  ``values`` samples at stride 1, so every step is sampled) at stencil 4,
  where both pad pairs read the grid ends, and at stencil 2, where the one
  pad on each side does, an m2row run that blows up (exit 3), a Z_3
  run whose CSVs hold -0, exact zeros and 3-digit exponents (signed zero
  K and m entries, m entries near 1e-160, so phi is subnormal), and an M2
  config (rk4 and rk45) and an m2row config (rk4) of real entries whose
  imaginary parts are -0.0 and 0.0.  In both rk4 runs a complex constant
  or step coefficient with a -0.0 imaginary part changes signed-zero
  bytes; the rk45 run cannot show one, because its ``np.dot`` stage sums
  write 0.0 for a sum of zeros; and two sphere geodesics that leave the
  chart (exit 3): one from theta = 0.5 heading to the pole at step
  1/16, so a stage lands exactly on theta = 0 (nan rates), and one from
  theta = 0.01 whose velocity passes 1e9 within its first step; and an
  M2 rk45 run of 7 grid steps of 1.43e-14, each below rk45's step floor
  of 1e-13, which rk45 accepts on its error estimate alone; and four
  large Z_n rk4 runs at step 1e-3 on arrays: 2,048 sites that blow up
  (exit 3), 2,048 sites that blow up on sites 1,024 to 2,047 alone
  (k_minus = k_plus there only, exit 3), 2,048 sites with signed zeros
  and subnormal m at sites 1,021 to 1,026, and 2,049 sites (odd n); and
  two array-form runs whose huge steps overflow a stage (exit 3, with no
  floating-point warning on stderr):
  Z_18 rk4 from entries of modulus 4.4e-21 at step 1e20, and burgers rk4
  at amplitude 1e8 and step 1e20; and Z_4096 rk4 near its classical
  limit (the data of ``tests/test_transport.py``'s large-n oracle: unit
  moduli, Re K_+ = sin(2 pi x) / 2, a uniform m, step 0.1 to t = 307.2,
  3,072 steps, stride 1,024), the large-n array form;
* ``validate`` on both presets, on the five scenario defaults and on every
  benchmark config above.

Only ``run`` and ``sweep`` get ``--out``.  The benchmark configs are
generated once, at a fixed seed, by ``perfbench/workloads.py`` (imported,
never written), and the scenario defaults are written next to them as
``{"scenario": NAME}`` and the edge configs under ``edges/``, so both
checkouts read the same JSON files.  Each
difference is printed; the exit status is 1 if there is any, else 0.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 101


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def invocations(workdir: Path) -> list[tuple[str, list[str]]]:
    """``(name, argv without --out)`` of every run to compare; benchmark configs are written under ``workdir``."""
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    workloads = _load(ROOT / "perfbench" / "workloads.py", "_workloads")
    cli = workloads.import_ncgflow(ROOT)  # before the golden table, which imports ncgflow too
    golden = _load(ROOT / "tests" / "test_golden.py", "_golden")
    runs = [(f"golden-{data.split('.')[0]}-{name}", ["run", *args])  # as test_golden runs them
            for data, table in golden.GOLDENS.items() for name, args in table.items()]
    checks = [(f"validate-{preset}", ["validate", "--preset", preset]) for preset in cli.PRESETS]
    (workdir / "scenarios").mkdir(parents=True)
    for scenario in cli.SCENARIOS:
        path = workdir / "scenarios" / f"{scenario}.json"
        path.write_text(json.dumps({"scenario": scenario}), encoding="utf-8")
        checks.append((f"validate-{scenario}", ["validate", "--config", str(path)]))
    zn18 = workloads.zn_config(np.random.default_rng(SEED), 18, t_end=10.0, stride=7, method="rk4")
    m2_zeros = {"scenario": "m2", "t_end": 0.5, "stride": 50,  # real entries whose imaginary parts are +-0
                "k1": [[[1.0, -0.0], [0.5, 0.0]], [[-0.0, 0.0], [-1.0, -0.0]]],
                "k2": [[[-1.0, 0.0], [-0.0, -0.0]], [[0.5, -0.0], [1.0, 0.0]]],
                "m": [[[0.6, -0.0], [0.0, 0.0]], [[-0.0, -0.0], [0.8, 0.0]]]}
    sphere_exit = {"scenario": "classical-geodesic", "x": [0.5, 0.0], "v": [-1.0, 0.0], "t_end": 1.0}
    grid16 = [0.1 * math.sin(0.4 * i) + 0.03 * math.cos(0.9 * i) for i in range(16)]  # the smallest burgers grid
    # 2,048 sites x 2,000 steps, with signed zeros and subnormal m at sites 1,021 to 1,026 in the copy below
    zn2048 = workloads.zn_config(np.random.default_rng(SEED), 2048, t_end=2.0, stride=500, method="rk4")
    special = {key: [list(pair) for pair in zn2048[key]] for key in ("k_plus", "m")}
    for i, (kp, m) in zip(range(1021, 1027), [((0.0, -0.0), (5e-324, -0.0)), ((-0.0, 0.0), (-0.0, -5e-324)),
                                             ((-0.0, -0.0), (1e-310, 0.0)), ((0.0, 0.0), (-2e-320, 1e-315)),
                                             ((-0.0, 0.0), (0.0, -0.0)), ((0.0, -0.0), (-5e-324, 5e-324))]):
        special["k_plus"][i], special["m"][i] = list(kp), list(m)
    # K_- = -(R_{+1} K_+)^*, so the data stays admissible; -0.0 parts stay signed
    special["k_minus"] = [[-re, im] for re, im in special["k_plus"][1:] + special["k_plus"][:1]]
    tiny = 4.4e-21 * np.exp(1j * np.random.default_rng(3).uniform(0.0, 6.3, (3, 18)))  # Z_18 at steps of 1e20
    # Z_4096 near its classical limit: unit moduli, Re K_+ = sin(2 pi x) / 2, uniform m, to tau = 2 t / n = 0.15
    limit = np.exp(1j * np.arccos(0.5 * np.sin(2 * math.pi * np.arange(4096) / 4096)))
    limit = (limit, -np.conj(np.roll(limit, -1)), np.full(4096, 4096**-0.5 + 0j))
    edges = {
        "zn2-rk4": workloads.zn_config(np.random.default_rng(SEED), 2, t_end=2.0, stride=7, method="rk4"),
        "zn17-rk4": workloads.zn_config(np.random.default_rng(SEED), 17, t_end=1.0, stride=7, method="rk4"),
        "zn18-rk4": workloads.zn_config(np.random.default_rng(SEED), 18, t_end=1.0, stride=7, method="rk4"),
        "zn18-rk45": workloads.zn_config(np.random.default_rng(SEED), 18, t_end=1.0, stride=7, method="rk45"),
        "zn19-rk4-stride1": workloads.zn_config(np.random.default_rng(SEED), 19, t_end=1.0, stride=1, method="rk4"),
        "zn18-exit3": {**zn18, "k_minus": zn18["k_plus"]},
        "m2row-rk45": {"scenario": "m2row", "lam": [0.6, -0.2], "mu": [-0.3, 0.8], "q0": [0.0, 0.7],
                       "q1": [1.1, 0.4], "q2": [-1.1, 0.4], "t_end": 2.0, "method": "rk45"},
        "flat3-geodesic": {"scenario": "classical-geodesic", "manifold": "flat", "x": [0.1, -0.2, 0.3],
                           "v": [1.0, 0.5, -0.25], "t_end": 2.0},
        "burgers-stencil2": {"scenario": "classical-burgers", "stencil": 2, "t_end": 0.5},
        "burgers-values": {"scenario": "classical-burgers", "t_end": 0.5,
                           "values": [0.1 * math.sin(0.3 * i) + 0.02 * math.cos(1.1 * i) for i in range(40)]},
        "burgers-rk45": {"scenario": "classical-burgers", "method": "rk45", "t_end": 0.5},
        "burgers-stencil2-rk45": {"scenario": "classical-burgers", "stencil": 2, "method": "rk45", "t_end": 0.5},
        "burgers-exit3": {"scenario": "classical-burgers", "amplitude": 1.0, "step": 0.1, "t_end": 3.0},
        "burgers-grid16-stride1": {"scenario": "classical-burgers", "stencil": 4, "method": "rk4", "stride": 1,
                                   "t_end": 0.5, "values": grid16},
        "burgers-grid16-stencil2-stride1": {"scenario": "classical-burgers", "stencil": 2, "method": "rk4",
                                            "stride": 1, "t_end": 0.5, "values": grid16},
        "m2row-exit3": {"scenario": "m2row", "q0": [40.0, 0.0], "t_end": 1.0},
        "zn3-signed-zeros-subnormal-phi": {"scenario": "zn", "n": 3, "t_end": 0.5, "stride": 50,
                                           "k_plus": [[0.6, 0.0], [-0.0, -0.0], [-0.5, 0.25]],
                                           "k_minus": [[0.0, -0.0], [0.5, 0.25], [-0.6, 0.0]],
                                           "m": [[1e-160, 0.0], [-0.0, -3e-160], [-2e-160, 1e-160]]},
        **{f"m2-signed-zeros-{method}": {**m2_zeros, "method": method} for method in ("rk4", "rk45")},
        "m2row-signed-zeros-rk4": {"scenario": "m2row", "lam": [-0.5, 0.0], "mu": [0.0, -0.0], "q0": [0.8, -0.0],
                                   "q1": [-1.0, 0.0], "q2": [0.8, 0.0], "t_end": 0.5, "stride": 50},
        "geodesic-pole-stage-exit3": {**sphere_exit, "step": 0.0625},
        "geodesic-near-pole-exit3": {**sphere_exit, "x": [0.01, 0.0], "v": [-1.0, 0.5]},
        "m2-rk45-below-floor": {"scenario": "m2", "method": "rk45", "t_end": 1e-13, "step": 1.5e-14, "stride": 1},
        "zn2048-exit3": {**zn2048, "t_end": 10.0, "k_minus": zn2048["k_plus"]},
        # K_- = K_+ on sites 1,024 to 2,047 alone: those sites blow up
        "zn2048-exit3-upper-half": {**zn2048, "t_end": 10.0,
                                    "k_minus": zn2048["k_minus"][:1024] + zn2048["k_plus"][1024:]},
        "zn2048-signed-zeros-subnormal-m": {**zn2048, **special},
        "zn2049": workloads.zn_config(np.random.default_rng(SEED), 2049, t_end=2.0, stride=500, method="rk4"),
        "zn18-huge-step-exit3": {"scenario": "zn", "n": 18, "step": 1e20, "t_end": 3e21, "stride": 1,
                                 **{key: [[z.real, z.imag] for z in row]
                                    for key, row in zip(("k_plus", "k_minus", "m"), tiny)}},
        "burgers-huge-step-exit3": {"scenario": "classical-burgers", "amplitude": 1e8, "step": 1e20, "t_end": 3e20,
                                    "stride": 1},
        "zn4096-classical-limit": {"scenario": "zn", "n": 4096, "step": 0.1, "t_end": 0.15 * 4096 / 2, "stride": 1024,
                                   **{key: [[z.real, z.imag] for z in row]
                                      for key, row in zip(("k_plus", "k_minus", "m"), limit)}},
    }
    (workdir / "edges").mkdir()
    for name, raw in edges.items():
        path = workdir / "edges" / f"{name}.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        runs.append((f"edge-{name}", ["run", "--config", str(path)]))
    for workload in ("zn-large", "sweep-ensemble"):
        built = workloads.build(cli, workload, SEED, workdir / workload)
        cases = built.cases + built.singles
        runs += [(f"{workload}-{case.name}", list(case.argv)) for case in cases]
        checks += [(f"validate-{workload}-{case.name}", ["validate", *case.argv[1:]])
                   for case in cases if case.argv[:2] == ("run", "--config")]
    return runs + checks


def run_all(checkout: Path, runs: list, dest: Path) -> None:
    """Run every invocation on ``checkout``'s sources; ``dest/<name>`` gets ``out/``, the two streams and ``exit``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    for name, argv in runs:
        out = dest / name / "out"
        out.parent.mkdir(parents=True)
        outdir = [] if argv[0] == "validate" else ["--out", str(out)]
        done = subprocess.run([sys.executable, "-m", "ncgflow", *argv, *outdir],
                              cwd=dest, env=env, capture_output=True, text=True)
        for stream in ("stdout", "stderr"):
            (dest / name / stream).write_text(getattr(done, stream).replace(str(out), "OUT"), encoding="utf-8")
        (dest / name / "exit").write_text(f"{done.returncode}\n", encoding="utf-8")


def compare_trees(a: Path, b: Path) -> list[str]:
    """The differences between the file trees under ``a`` and ``b``: files in one only, files whose bytes differ."""
    files = {side: {p.relative_to(side) for p in side.rglob("*") if p.is_file()} for side in (a, b)}
    problems = [f"only in {side.name}: {rel}" for side, other in ((a, b), (b, a))
                for rel in sorted(files[side] - files[other])]
    for rel in sorted(files[a] & files[b]):
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            problems.append(f"differs: {rel}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not (Path(argv[1]) / "src" / "ncgflow").is_dir():
        print(f"usage: {Path(argv[0]).name} OTHER_CHECKOUT (a directory holding src/ncgflow)", file=sys.stderr)
        return 2
    other = Path(argv[1]).resolve()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        runs = invocations(tmp / "configs")
        sides = {"this": ROOT, "other": other}
        for side, checkout in sides.items():
            (tmp / side).mkdir()
            run_all(checkout, runs, tmp / side)
        problems = compare_trees(tmp / "this", tmp / "other")
        failed = sum((tmp / "this" / name / "exit").read_text() != "0\n" for name, _ in runs)
    for problem in problems:
        print(problem)
    print(f"{len(runs)} runs of {ROOT} and {other} ({failed} exited non-zero here): {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
