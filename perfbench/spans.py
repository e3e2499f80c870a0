"""Spans recorded from outside the program, and the per-layer metrics derived from them.

``Tracer.install`` replaces, for the duration of a traced pass, the public
functions that ``cli`` and ``transport`` call (and the ``integrate`` that
``transport``, ``mobius`` and ``classical`` call) with wrappers that record
a span: name, start, end and parent.  ``integrate`` also wraps the RHS
callable it receives, so every RHS evaluation is a child span that carries
its ``t`` argument.  Spans are kept in columnar arrays in memory and
written out once, when the run ends.

A span's self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import math
import statistics
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

RK45_STAGES = 7

# (module, attribute, span name) triples wrapped with a plain span.
_PLAIN = (
    ("cli", "build_config", "cli.build_config"),
    ("cli", "run_row", "mobius.run_row"),
    ("cli", "integrate_geodesic", "classical.integrate_geodesic"),
    ("cli", "integrate_burgers", "classical.integrate_burgers"),
    ("transport", "reality_residual", "connection.reality_residual"),
    ("transport", "braiding_residual", "connection.braiding_residual"),
)
_POST_METHODS = {
    "ZnRun": ("reality_abs", "braiding_abs", "k_plus_moduli", "k_minus_moduli", "phi_sites", "phi_cumulative",
              "phi_one"),
    "M2Run": ("reality_fro", "braiding_fro", "phi_one", "bloch_series"),
}


class Tracer:
    """Columnar span store plus the wrappers that fill it."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module object (cli, transport, mobius, classical)
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.t_arg = array("d")  # RHS spans: the t argument; other spans: nan
        self.attrs: dict = {}  # span id -> dict, for the few spans that carry counts
        self._stack: list = []
        self._saved: list = []

    # Recording --------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, **attrs) -> int:
        sid = len(self.start)
        self.name.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.t_arg.append(math.nan)
        self.end.append(math.nan)
        if attrs:
            self.attrs[sid] = attrs
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def _plain(self, fn, name: str):
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return wrapper

    def _rhs(self, f, parent: int, name: str):
        nid = self._nid(name)
        names, starts, ends, parents, ts = self.name, self.start, self.end, self.parent, self.t_arg

        def rhs(t, y):
            t0 = perf_counter()
            out = f(t, y)
            t1 = perf_counter()
            names.append(nid)
            parents.append(parent)
            ts.append(t)
            starts.append(t0)
            ends.append(t1)
            return out

        return rhs

    def _integrate(self, fn, module: str):
        def wrapper(f, y0, t_end, **kwargs):
            if module == "transport":
                run = self.names[self.name[self._stack[-1]]] if self._stack else ""
                kind = "m2" if run == "transport.run_m2" else f"zn{len(y0) // 6}"
                rhs_name = f"transport.rhs.{kind}"
            else:
                rhs_name = f"{module}.rhs"
            sid = self.open("flow.integrate", method=kwargs.get("method", "rk4"))
            try:
                return fn(self._rhs(f, sid, rhs_name), y0, t_end, **kwargs)
            finally:
                self.close(sid)

        return wrapper

    def _run(self, fn, name: str):
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                run = fn(*args, **kwargs)
                self.attrs[sid] = {"samples": len(run.times)}
                return run
            finally:
                self.close(sid)

        return wrapper

    def _write_csv(self, fn):
        def wrapper(path, header, rows):
            sid = self.open("cli.write_csv")
            try:
                fn(path, header, rows)
            finally:
                self.close(sid)
            self.attrs[sid] = {"bytes": Path(path).stat().st_size, "values": len(header) * len(rows)}

        return wrapper

    def _line_chart(self, fn):
        def wrapper(path, series, **kwargs):
            sid = self.open("svgplot.line_chart", points=sum(len(xs) for _, xs, _ in series))
            try:
                return fn(path, series, **kwargs)
            finally:
                self.close(sid)

        return wrapper

    # Installing ------------------------------------------------------------

    def install(self) -> None:
        """Replace the traced functions; ``uninstall`` restores them."""
        m = self.modules
        patches = [(m[mod], attr, self._plain(getattr(m[mod], attr), name)) for mod, attr, name in _PLAIN]
        patches += [(m["cli"], attr, self._run(getattr(m["cli"], attr), f"transport.{attr}"))
                    for attr in ("run_zn", "run_m2")]
        patches += [(m[mod], "integrate", self._integrate(m[mod].integrate, mod))
                    for mod in ("transport", "mobius", "classical")]
        patches.append((m["cli"], "write_csv", self._write_csv(m["cli"].write_csv)))
        patches.append((m["cli"], "line_chart", self._line_chart(m["cli"].line_chart)))
        for cls_name, methods in _POST_METHODS.items():
            cls = getattr(m["transport"], cls_name)
            patches += [(cls, meth, self._plain(getattr(cls, meth), f"transport.post.{meth}")) for meth in methods]
        self._saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        for obj, attr, wrapper in patches:
            setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved = []

    # Output ------------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span recorded in this run to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            t_arg=np.frombuffer(self.t_arg, dtype=np.float64),
        )

    def layer_metrics(self, first: int, last: int) -> dict:
        """Per-layer figures of the spans with ids in ``[first, last)``: one pass over a round's cases."""
        name = np.frombuffer(self.name, dtype=np.int32)[first:last]
        start = np.frombuffer(self.start, dtype=np.float64)[first:last]
        dur = np.frombuffer(self.end, dtype=np.float64)[first:last] - start
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last] - first
        t_arg = np.frombuffer(self.t_arg, dtype=np.float64)[first:last]
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))

        def mask(prefix: str):
            return np.isin(name, [i for i, label in enumerate(self.names) if label.startswith(prefix)])

        def total(prefix: str) -> float:
            return float(dur[mask(prefix)].sum())

        def attr_sum(prefix: str, key: str) -> float:
            return float(sum(self.attrs.get(first + i, {}).get(key, 0) for i in np.flatnonzero(mask(prefix))))

        out = {}
        integ = mask("flow.integrate")
        out["flow.integrate.self_s"] = float((dur[integ] - child[integ]).sum())
        rhs = mask("transport.rhs.") | mask("mobius.rhs") | mask("classical.rhs")
        out["flow.rhs_evals"] = int(rhs.sum())

        attempts = accepted = 0
        for i in np.flatnonzero(integ):
            if self.attrs[first + i]["method"] != "rk45":
                continue
            stage_t = t_arg[rhs & (parent == i)][::RK45_STAGES]
            attempts += len(stage_t)
            accepted += int((np.diff(stage_t) > 0).sum()) + 1
        out["flow.rk45.accept_ratio"] = accepted / attempts if attempts else 0.0

        for kind in ("zn3", "m2", "zn64", "zn4096"):
            sel = mask(f"transport.rhs.{kind}")
            out[f"transport.rhs_us.{kind}"] = float(np.median(dur[sel])) * 1e6 if sel.any() else 0.0

        post = mask("transport.post.")
        outer_post = post & ~np.isin(parent, np.flatnonzero(post))
        post_s = float(dur[outer_post].sum())
        samples = attr_sum("transport.run_", "samples")
        out["transport.post_s"] = post_s
        out["transport.post_us_per_sample"] = post_s * 1e6 / samples if samples else 0.0

        out["connection.residual_calls"] = int(mask("connection.").sum())
        out["connection.residual_s"] = total("connection.")
        out["mobius.run_row_s"] = total("mobius.run_row")
        out["classical.integrate_geodesic_s"] = total("classical.integrate_geodesic")
        out["classical.integrate_burgers_s"] = total("classical.integrate_burgers")

        csv_s = total("cli.write_csv")
        out["cli.write_csv_s"] = csv_s
        out["cli.csv_bytes"] = int(attr_sum("cli.write_csv", "bytes"))
        out["cli.csv_values_per_s"] = attr_sum("cli.write_csv", "values") / csv_s if csv_s else 0.0
        out["cli.build_config_s"] = total("cli.build_config")
        out["svgplot.line_chart_s"] = total("svgplot.line_chart")
        out["svgplot.points"] = int(attr_sum("svgplot.line_chart", "points"))
        return out


def normalise(figures: dict, slowdown: float) -> dict:
    """Divide times and multiply rates by the host ``slowdown``; counts and ratios are kept."""
    out = {}
    for key, value in figures.items():
        if key.endswith("_per_s"):
            value *= slowdown
        elif key.endswith("_s") or "_us" in key:
            value /= slowdown
        out[key] = value
    return out


def median_metrics(rounds: list) -> dict:
    """Median of each per-round figure over the traced rounds; counts stay whole numbers."""
    out = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        out[key] = statistics.median_low(values) if isinstance(values[0], int) else statistics.median(values)
    return out
