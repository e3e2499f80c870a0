"""Paired A/B verdicts of this checkout against another revision, from one process, per benchmark workload.

    python tools/ab.py REF [--workloads NAME ...] [--pairs 15] [--seed 1] [--json FILE]

REF is a git revision of this repository, whose ``src/ncgflow`` is exported
with ``git archive`` (no network).  Both sides are loaded into this process
as two packages, ``ncgflow_ref`` and ``ncgflow_this`` (the package imports
only relatively), and each op of a workload is the ``cli.main`` call
that the benchmark times, on the inputs that ``perfbench/workloads.py``
generates from the seed.  Every op
runs once per side to warm that side's caches; those runs also give the
CSV bytes and exit code of each op, compared between the sides.  Then each
pair is one round of the workload on both sides: the ops in a random
order, and for each op the side that runs first drawn at random, so a
change of the host's speed falls on both sides of a pair alike.

Per workload it reports the ratio this / REF of each round's summed op
times: the median, the quartiles, the pairs in which this side was
faster, and a two-sided sign test.  The verdict is ``better`` or
``worse`` when the sign test gives p < 0.05, else ``unresolved``.  It never
replaces the benchmark: both sides share numpy, the allocator and the
garbage collector, and set-up time and peak memory are not measured.  A
``sweep`` forks its workers, which inherit both packages only where the
start method is fork.  The exit status is 1 when some op's outputs
differ between the sides, else 0.  Run as a script it pins BLAS and
OpenMP to one thread before numpy loads, as ``perfbench/run.py`` does.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    # One BLAS/OpenMP thread, as perfbench/run.py sets, so both sides run as the benchmark does; set before numpy loads.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("ref", "this")
ALPHA = 0.05


def export(ref: str, into: Path) -> Path:
    """The ``ncgflow`` package directory of the revision REF, exported under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src/ncgflow"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter where this Python has it (3.10.12, 3.11.4 and later); the archive is this repository's own
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into / "src" / "ncgflow"


def load_cli(package: Path, name: str):
    """Import the package in ``package`` under ``name`` (once per process); returns its ``cli`` module."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                      submodule_search_locations=[str(package)])
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_op(cli, case, out: Path) -> tuple[float, int, dict]:
    """One op into a fresh ``out``: its wall time, its exit code (-1 for an exception) and its CSVs' bytes."""
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        start = perf_counter()
        try:
            code = cli.main([*case.argv, "--out", str(out)])
        except Exception:
            traceback.print_exc()
            code = -1
        wall = perf_counter() - start
    if code == -1:
        print(err.getvalue(), file=sys.stderr)
    return wall, code, {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.csv"))}


def sign_test(better: int, worse: int) -> float:
    """Two-sided p of ``better`` against ``worse`` signs under a fair coin (ties left out)."""
    n, k = better + worse, min(better, worse)
    if not n:
        return 1.0
    return min(1.0, 2.0 * sum(math.comb(n, i) for i in range(k + 1)) / 2.0**n)


def summary(ratios: list) -> dict:
    """Median, quartiles, pairs better and the sign-test verdict of paired ratios this / REF."""
    better, worse = sum(r < 1.0 for r in ratios), sum(r > 1.0 for r in ratios)
    p = sign_test(better, worse)
    median = statistics.median(ratios)
    quartiles = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else [median] * 3
    verdict = "unresolved" if p >= ALPHA else ("better" if median < 1.0 else "worse")
    return {"median": median, "q1": quartiles[0], "q3": quartiles[2], "better": better, "pairs": len(ratios),
            "p": p, "verdict": verdict}


def compare(ref: str, workload_names, pairs: int, seed: int, scale: float = 1.0, ops=None) -> dict:
    """The report of each workload: its verdict over ``pairs`` rounds, per-op medians and the ops whose outputs differ.

    ``scale`` (shortening every t_end) and ``ops`` (only these case names)
    make a run small enough for a test; below scale 1 or on some ops only,
    a verdict measures other traffic than the benchmark's workload, so the
    command line sets neither.
    """
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # the benchmark's case generator

    rng = random.Random(seed)
    report = {"ref": ref, "pairs": pairs, "seed": seed, "scale": scale, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        clis = {"ref": load_cli(export(ref, tmp / "ref"), "ncgflow_ref"),
                "this": load_cli(ROOT / "src" / "ncgflow", "ncgflow_this")}
        for name in workload_names:
            cases = [c for c in workloads.build(clis["this"], name, seed, tmp / name, scale).cases
                     if ops is None or c.name in ops]
            if not cases:
                continue
            differ = {}
            for case in cases:  # the warm-up runs, which give the outputs
                (_, code_ref, csv_ref), (_, code_this, csv_this) = (run_op(clis[s], case, tmp / s) for s in SIDES)
                if code_ref != code_this or csv_ref != csv_this:
                    differ[case.name] = [f"exit {code_ref} / {code_this}"] if code_ref != code_this else sorted(
                        f for f in csv_ref.keys() | csv_this.keys() if csv_ref.get(f) != csv_this.get(f))
            ratios, op_ratios = [], {case.name: [] for case in cases}
            for _ in range(pairs):
                totals = dict.fromkeys(SIDES, 0.0)
                for case in rng.sample(cases, len(cases)):
                    wall = {}
                    for side in rng.sample(SIDES, 2):
                        wall[side] = run_op(clis[side], case, tmp / side)[0]
                        totals[side] += wall[side]
                    op_ratios[case.name].append(wall["this"] / wall["ref"])
                ratios.append(totals["this"] / totals["ref"])
            report["workloads"][name] = {
                **summary(ratios), "ratios": ratios, "differ": differ,
                "ops": {op: statistics.median(r) for op, r in op_ratios.items()}}
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("ref", help="a git revision of this repository")
    p.add_argument("--workloads", nargs="+", default=["presets", "zn-large", "sweep-ensemble"])
    p.add_argument("--pairs", type=int, default=15)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", type=Path, help="also write the report here")
    args = p.parse_args(argv)
    report = compare(args.ref, args.workloads, args.pairs, args.seed)
    for name, w in report["workloads"].items():
        print(f"{name}: this / {args.ref} = {w['median']:.3f} (quartiles {w['q1']:.3f}-{w['q3']:.3f}), "
              f"faster in {w['better']}/{w['pairs']} pairs, sign test p = {w['p']:.2g}: {w['verdict']}")
        print("  per op: " + ", ".join(f"{op} {r:.3f}" for op, r in w["ops"].items()))
        for op, files in w["differ"].items():
            print(f"  outputs differ: {op}: {', '.join(files)}")
        if not w["differ"]:
            print("  outputs: every op's CSV bytes and exit code are the same")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if any(w["differ"] for w in report["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
