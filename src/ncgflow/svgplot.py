"""Tiny deterministic SVG line charts; no plotting dependency.

Output bytes depend only on the data, so re-running a scenario rewrites
identical files.  Charts are intentionally plain: framed axes, five ticks
per axis, one polyline per series and a small legend.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["line_chart"]

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
    "#e377c2",
)

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 14, 30, 44


def _expand(lo: float, hi: float) -> tuple[float, float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return -1.0, 1.0
    if hi <= lo:
        pad = max(1e-12, abs(lo) * 1e-3, 1e-3)
        return lo - pad, lo + pad
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def _fmt(v: float) -> str:
    return format(v, ".4g")


@lru_cache(maxsize=64)
def _polyline_template(points: int) -> str:
    return " ".join(["%.2f,%.2f"] * points)


def line_chart(
    path,
    series,
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 640,
    height: int = 420,
    equal_aspect: bool = False,
) -> None:
    """Write a line chart; ``series`` is a list of (label, xs, ys).

    Points with a non-finite coordinate are dropped, and a series is cut to
    the shorter of its xs and ys.  The finite points of all series are
    handled as one array, and the pixel coordinates are computed
    elementwise in the operation order of the per-point expressions in the
    comments below, so the bytes are those of formatting each point on its
    own.  The file is written element by element.
    """
    labels, lengths, xs_all, ys_all = [], [], [], []
    for label, xs, ys in series:
        n = min(len(xs), len(ys))
        labels.append(str(label))
        lengths.append(n)
        xs_all.append(xs[:n])
        ys_all.append(ys[:n])
    x = np.concatenate([np.empty(0), *xs_all], dtype=np.float64)
    y = np.concatenate([np.empty(0), *ys_all], dtype=np.float64)
    keep = np.isfinite(x) & np.isfinite(y)
    if not keep.any():
        raise ValueError("no finite data to plot")
    x, y = x[keep], y[keep]
    # ends[i]:ends[i + 1] are the kept points of series i
    ends = np.concatenate(([0], np.cumsum(keep)))[np.cumsum([0] + lengths)].tolist()

    xmin, xmax = _expand(float(x.min()), float(x.max()))
    ymin, ymax = _expand(float(y.min()), float(y.max()))

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B
    if equal_aspect:
        x_scale = (xmax - xmin) / plot_w
        y_scale = (ymax - ymin) / plot_h
        scale = max(x_scale, y_scale)
        xc, yc = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
        xmin, xmax = xc - 0.5 * scale * plot_w, xc + 0.5 * scale * plot_w
        ymin, ymax = yc - 0.5 * scale * plot_h, yc + 0.5 * scale * plot_h
    if xmax - xmin == 0 or ymax - ymin == 0:
        # Python's float division raises here, where numpy would write nan and inf pixels
        raise ZeroDivisionError("float division by zero")

    # sx(v) = _MARGIN_L + (v - xmin) / (xmax - xmin) * plot_w
    # sy(v) = height - _MARGIN_B - (v - ymin) / (ymax - ymin) * plot_h
    pixels = np.empty((x.size, 2))
    pixels[:, 0] = _MARGIN_L + (x - xmin) / (xmax - xmin) * plot_w
    pixels[:, 1] = height - _MARGIN_B - (y - ymin) / (ymax - ymin) * plot_h
    coords = pixels.ravel().tolist()

    with open(path, "w", encoding="utf-8") as f:

        def emit(element: str) -> None:  # f.write is cheaper than print(..., file=f)
            f.write(element + "\n")

        emit(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
        )
        emit(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')
        emit(
            f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
            'fill="none" stroke="#444444" stroke-width="1"/>'
        )

        for i in range(5):
            frac = i / 4.0
            xv = xmin + frac * (xmax - xmin)
            yv = ymin + frac * (ymax - ymin)
            px = _MARGIN_L + frac * plot_w
            py = height - _MARGIN_B - frac * plot_h
            emit(
                f'<line x1="{px:.2f}" y1="{_MARGIN_T}" x2="{px:.2f}" y2="{height - _MARGIN_B}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
            emit(
                f'<line x1="{_MARGIN_L}" y1="{py:.2f}" x2="{width - _MARGIN_R}" y2="{py:.2f}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
            emit(
                f'<text x="{px:.2f}" y="{height - _MARGIN_B + 16}" font-size="11" '
                f'text-anchor="middle" fill="#222222">{_fmt(xv)}</text>'
            )
            emit(
                f'<text x="{_MARGIN_L - 6}" y="{py + 4:.2f}" font-size="11" '
                f'text-anchor="end" fill="#222222">{_fmt(yv)}</text>'
            )

        if title:
            emit(
                f'<text x="{width / 2:.0f}" y="18" font-size="13" text-anchor="middle" '
                f'fill="#000000">{title}</text>'
            )
        if xlabel:
            emit(
                f'<text x="{width / 2:.0f}" y="{height - 8}" font-size="12" '
                f'text-anchor="middle" fill="#000000">{xlabel}</text>'
            )
        if ylabel:
            emit(
                f'<text x="14" y="{height / 2:.0f}" font-size="12" text-anchor="middle" '
                f'transform="rotate(-90 14 {height / 2:.0f})" fill="#000000">{ylabel}</text>'
            )

        for idx, label in enumerate(labels):
            color = _PALETTE[idx % len(_PALETTE)]
            start, stop = ends[idx], ends[idx + 1]
            if stop > start:
                points = _polyline_template(stop - start) % tuple(coords[2 * start : 2 * stop])
                emit(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.4"/>')
            ly = _MARGIN_T + 14 + 14 * idx
            lx = width - _MARGIN_R - 150
            emit(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            emit(f'<text x="{lx + 22}" y="{ly}" font-size="11" fill="#222222">{label}</text>')

        emit("</svg>")
