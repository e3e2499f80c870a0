"""ncgflow benchmark: one seeded workload, closed loop with one client, in one process.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ncgflow is imported from ``src/``
only.  Each op is one in-process ``ncgflow.cli.main`` call on the inputs
that ``workloads.py`` generates from the seed, and every op's outputs are
checked (``checks.py``).  With ``--trace 0`` the end-to-end metrics are
measured; with ``--trace 1`` every op runs once untraced and once with
the spans of ``spans.py`` installed, and the per-layer metrics plus the
tracing overhead are reported.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Host-speed normalisation: each vCPU of the shared host this was built on
runs the same code at two speeds about 1.8x apart, switching within
seconds, and the share of slow time drifts from minute to minute.  A fixed
numpy kernel (``reference_s``) is timed just before and just after every op
and every set-up probe; the run's slowdown is the mean of those readings
over ``REF_NOMINAL_S``, and every op time in the result is the measured wall
time divided by it (rates are multiplied).  ``setup_s`` stays raw wall time:
process start-up and imports do not follow the kernel.  The raw figures and
the slowdown are printed beside the result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    # One BLAS/OpenMP thread, so that load stays within nproc; set before numpy loads.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10

# Reference kernel: median of REF_REPS runs of REF_LOOPS small-array iterations.
# REF_NOMINAL_S is its time in the fast phase of the baseline host (2-vCPU
# Intel Xeon VM, Python 3.11, numpy 2.4); the slow phase reads about 0.0105 s.
REF_LOOPS = 600
REF_REPS = 3
REF_NOMINAL_S = 0.006

# Host-normalised seconds of one untraced and one traced round at the baseline
# commit.  A run does ceil(--seconds / this) rounds, so every run of a
# workload has the same op count and thus the same percentiles.
ROUND_S = {
    "presets": (4.0, 8.4),
    "zn-large": (2.4, 5.1),
    "sweep-ensemble": (3.4, 13.0),
}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run at nominal host speed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def reference_s() -> float:
    """Seconds of a fixed small-array numpy kernel, median of REF_REPS runs; it tracks host speed."""
    idx = np.array([1, 2, 0])
    mat = np.array([[1.0, 2.0j], [0.5, -1.0]])
    times = []
    for _ in range(REF_REPS):
        vec = np.arange(3, dtype=np.complex128) + 1j
        t0 = perf_counter()
        for _ in range(REF_LOOPS):
            c = vec * vec[idx] - 0.5 * vec
            d = mat @ mat - mat.T @ mat
            vec = c / (1.0 + float(np.abs(c).max()) + 0.0 * float(d[0, 0].real))
        times.append(perf_counter() - t0)
    return statistics.median(times)


def slowdown() -> float:
    return reference_s() / REF_NOMINAL_S


class Bench:
    """One workload run: the op loop, its checks and the times it yields."""

    def __init__(self, cli, workload, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.outdir = workdir / "out"
        self.checker = checks.Checker()
        self.attempted = 0
        self.failed = 0
        self.readings: list = []  # host slowdown, read before and after every op

    def op(self, case) -> float:
        """Run one case and check its outputs; return its wall time."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.readings.append(slowdown())
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = perf_counter()
            try:
                code = self.cli.main([*case.argv, "--out", str(self.outdir)])
            except (Exception, SystemExit):
                code = -1
                traceback.print_exc()
            wall = perf_counter() - t0
        self.readings.append(slowdown())
        problems = self.checker.check(case, code, self.outdir, buf.getvalue())
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {case.name}: " + "; ".join(problems[:5]), file=sys.stderr)
        return wall

    def untraced(self, rounds: int, rng: random.Random) -> tuple:
        """Closed loop over ``rounds`` rounds; (op wall times, output-grid steps)."""
        times, steps = [], 0
        for _ in range(rounds):
            for case in self.workload.round_order(rng):
                times.append(self.op(case))
                steps += case.steps
        return times, steps

    def traced(self, rounds: int, rng: random.Random, tracer) -> list:
        """Per-round layer figures.  Each case runs untraced and traced back to back, the
        order alternating, so that the two sides of ``trace.overhead_frac`` see the same host."""
        figures = []
        for k in range(rounds):
            wall = {False: 0.0, True: 0.0}
            first = len(tracer.start)
            for i, case in enumerate(self.workload.round_order(rng)):
                for traced in (False, True) if (k + i) % 2 == 0 else (True, False):
                    wall[traced] += self._traced_op(case, tracer) if traced else self.op(case)
            last = len(tracer.start)
            singles = 0.0
            if self.workload.singles:
                # The pool's workers keep their spans, so the per-layer figures of a sweep
                # come from its configs run one by one in this process.
                first = len(tracer.start)
                singles = sum(self._traced_op(case, tracer) for case in self.workload.singles)
                last = len(tracer.start)
            row = tracer.layer_metrics(first, last)
            row["cli.sweep.parallel_eff"] = singles / (workloads.SWEEP_JOBS * wall[True])
            row["trace.overhead_frac"] = wall[True] / wall[False] - 1.0
            figures.append(row)
        return figures

    def _traced_op(self, case, tracer) -> float:
        tracer.install()
        sid = tracer.open("op", case=case.name)
        try:
            return self.op(case)
        finally:
            tracer.close(sid)
            tracer.uninstall()


def tail(times: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten samples beyond it.

    The percentile is never below 50: with fewer than twice ten samples no
    tail can be resolved and the median is returned as p50.
    """
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(times), 50.0
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    """ru_maxrss of this process plus that of its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(workload: str, seed: int, workdir: Path, samples: int, readings: list) -> list:
    """Wall times of fresh processes from launch until every input has passed build_config.

    Appends a host slowdown reading before and after each to ``readings``;
    the set-up times themselves are not normalised.
    """
    times = []
    for k in range(samples):
        target = workdir / f"probe-{k}"
        readings.append(slowdown())
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(target)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        readings.append(slowdown())
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
        shutil.rmtree(target, ignore_errors=True)
    return times


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def traced_modules(cli) -> dict:
    import ncgflow.classical
    import ncgflow.mobius
    import ncgflow.transport

    return {"cli": cli, "transport": ncgflow.transport, "mobius": ncgflow.mobius, "classical": ncgflow.classical}


def main(argv=None) -> int:
    args = _args(argv)
    try:
        cli = workloads.import_ncgflow(ROOT)
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _measure(cli, args, declared_metrics(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(cli, args, units: dict, workdir: Path) -> int:
    tracer = spans.Tracer(traced_modules(cli)) if args.trace else None
    if tracer:
        tracer.install()
    workload = workloads.build(cli, args.workload, args.seed, workdir / "inputs")
    if tracer:
        tracer.uninstall()
        build_config_s = tracer.layer_metrics(0, len(tracer.start))["cli.build_config_s"]
    problems = workloads.validate(cli, workload)
    if problems:
        print("perfbench: generated inputs are not admissible:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1

    print(f"env: {json.dumps(environment(args.seed), sort_keys=True)}")
    per_round, per_traced_round = ROUND_S[workload.name]
    bench = Bench(cli, workload, workdir)
    rng = random.Random(args.seed)
    notes = {}
    if tracer:
        rounds = max(1, math.ceil(args.seconds / per_traced_round))
        figures = bench.traced(rounds, rng, tracer)
        slow = statistics.mean(bench.readings)
        raw = spans.median_metrics(figures)
        raw["cli.build_config_s"] = build_config_s
        metrics = spans.normalise(raw, slow)
        tracer.save(WORK / "traces" / f"{workload.name}.npz")
        summary = (f"per-layer figures are per round, the median over {rounds} traced round(s); "
                   f"spans in {WORK.name}/traces/{workload.name}.npz")
    else:
        rounds = max(2, math.ceil(args.seconds / per_round))
        times, steps = bench.untraced(rounds, rng)
        rss = peak_rss_mb()
        setups = setup_seconds(args.workload, args.seed, workdir, SETUP_SAMPLES, bench.readings)
        slow = statistics.mean(bench.readings)
        tail_value, tail_pct = tail(times)
        raw = {
            "run_s.p50": statistics.median(times),
            "run_s.tail": tail_value,
            "steps_per_s": steps / sum(times),
        }
        metrics = {key: value * slow if key == "steps_per_s" else value / slow for key, value in raw.items()}
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = rss
        notes = {
            "setup_s": f"median of {len(setups)} fresh-process set-ups, raw wall time",
            "run_s.p50": f"median of {len(times)} ops",
            "run_s.tail": f"p{tail_pct:.0f} of {len(times)} ops"
            + (f", fewer than {2 * TAIL_BEYOND}: no tail resolvable" if len(times) < 2 * TAIL_BEYOND else ""),
            "steps_per_s": f"{steps} output-grid steps",
            "peak_rss_mb": "ru_maxrss of this process + its largest child",
        }
        for key, value in raw.items():
            notes[key] += f"; raw {value:.6g}"
        summary = f"{len(times)} ops over {rounds} rounds"
    summary += f"; host slowdown {slow:.4f} (mean of {len(bench.readings)} readings), op times divided by it"

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    print(f"workload {workload.name}: {workload.description}; "
          f"{sum(c.steps for c in workload.cases)} output-grid steps per round; closed loop, one client")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name}: {metrics[name]:.6g} {units[name]}{note}")
    print(summary)
    print(f"failed_frac: {bench.failed / bench.attempted:g} ratio ({bench.failed} of {bench.attempted} ops)")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
