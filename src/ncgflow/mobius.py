"""Row-module transport on M2 and the induced flow on the Riemann sphere.

A row vector ``m = (lam, mu)`` is transported by the linear system

    ``d(lam)/dt = Q0 lam + Q2 mu,   d(mu)/dt = Q0 mu + Q1 lam``

with constants Q0, Q1, Q2.  The projective coordinate ``z = lam / mu``
then obeys the Riccati equation ``dz/dt = Q2 - Q1 z^2``, whose exact
solution is the Moebius action of ``exp(t [[0, Q2], [Q1, 0]])``.

Riccati blow-ups are coordinate artifacts of a smooth projective flow, so
``integrate_riccati`` steps in whichever affine chart (z, or w = 1/z) has
modulus at most 1, switching charts whenever the coordinate crosses the
unit circle.  ``sphere_distance`` is the bounded chordal metric used to
compare points near the pole.  A ``SpherePoint`` whose z has an infinite
part, like a plain number with one where a function takes a point
(``inf``, as ``trajectory.csv`` writes the pole), is the point at
infinity, and nan is refused.  ``RowRun.zs`` is the z of every sample
at once, byte for byte ``SpherePoint.from_ratio``'s.

``run_row`` steps the row on Python complex scalars: ``row_rhs`` applied
to ``flow._Expr`` symbols is its stage, compiled on first use into a
system (``flow._stage_kernels``), a per-call right-hand side and a fused
rk4 run with Q0, Q1, Q2 as run arguments, which ``run_row`` binds and
passes to ``integrate``.
"""

from __future__ import annotations

import cmath
import functools
import sys
from dataclasses import dataclass

import numpy as np

from .flow import _assign, _check_stride, _Expr, _stage_kernels, integrate, pack_complex, rk4_step, step_count

__all__ = [
    "SpherePoint",
    "sphere_distance",
    "row_rhs",
    "flow_matrix",
    "mobius_apply",
    "mobius_exact",
    "metric_preservation_check",
    "integrate_riccati",
    "RowRun",
    "run_row",
    "METRIC_TOL",
]

METRIC_TOL = 1e-12  # how far Q0 + conj(Q0) and Q2 + conj(Q1) may be from 0 in a metric-preserving row
_SUBNORMAL_LIFT = 2.0**64  # brings every subnormal into the normal range, exactly


@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere: a finite z, or the point at infinity.

    A z with an infinite part is the point at infinity (z becomes None),
    and a nan z is refused with ValueError.
    """

    z: complex | None = None

    def __post_init__(self):
        if self.z is not None and cmath.isinf(self.z):
            object.__setattr__(self, "z", None)
        elif self.z is not None and cmath.isnan(self.z):
            raise ValueError(f"{self.z!r} is not a point of the sphere")

    @classmethod
    def infinity(cls) -> "SpherePoint":
        return cls(None)

    @classmethod
    def from_ratio(cls, num: complex, den: complex) -> "SpherePoint":
        """The point ``num : den``, both first divided by ``max(|num|, |den|)``.

        numpy divides a complex128 by a real through its reciprocal, which
        overflows for a subnormal scale, so such a ratio is first scaled by
        the exact power of two ``_SUBNORMAL_LIFT``.  A quotient that
        overflows is the point at infinity, with no warning from numpy.
        """
        scale = max(abs(num), abs(den))
        if scale == 0.0:
            raise ValueError("0:0 is not a projective point")
        if scale < sys.float_info.min:
            num, den, scale = num * _SUBNORMAL_LIFT, den * _SUBNORMAL_LIFT, scale * _SUBNORMAL_LIFT
        num, den = num / scale, den / scale
        if den == 0.0:
            return cls.infinity()
        with np.errstate(over="ignore", invalid="ignore"):
            return cls(num / den)

    @property
    def is_infinity(self) -> bool:
        return self.z is None

    def as_ratio(self) -> tuple[complex, complex]:
        if self.z is None:
            return 1.0 + 0.0j, 0.0j
        return complex(self.z), 1.0 + 0.0j


def _as_point(p) -> SpherePoint:
    """p as a sphere point: a number with an infinite part is the point at infinity, and nan a ValueError."""
    return p if isinstance(p, SpherePoint) else SpherePoint(complex(p))


def sphere_distance(p, q) -> float:
    """Chordal-type metric |ad - bc| / (|(a,b)| |(c,d)|), bounded by 1."""
    a, b = _as_point(p).as_ratio()
    c, d = _as_point(q).as_ratio()
    return abs(a * d - b * c) / (np.hypot(abs(a), abs(b)) * np.hypot(abs(c), abs(d)))


def row_rhs(lam: complex, mu: complex, q0: complex, q1: complex, q2: complex):
    """Transport equation for the row (lam, mu)."""
    return q0 * lam + q2 * mu, q0 * mu + q1 * lam


def _row_stage(t: str, inputs: list, rates: list) -> list:
    """The stage of the row transport: ``row_rhs`` on the stage inputs, with the run arguments q0, q1, q2."""
    return _assign(rates, row_rhs(*(_Expr(name, scalars=complex) for name in (*inputs, "q0", "q1", "q2"))))


@functools.lru_cache(maxsize=1)
def _row_kernels():
    """The compiled system of the row transport, from ``_row_stage``: ``rhs(q0, q1, q2, t, y)`` and
    ``rk4(q0, q1, q2, f, y, h, n_steps, stride, out)``, its fused rk4 run."""
    return _stage_kernels(2, _row_stage, ("q0", "q1", "q2"), complex)


def flow_matrix(q1: complex, q2: complex, t: float) -> np.ndarray:
    """Closed form of exp(t [[0, Q2], [Q1, 0]]).

    With w^2 = Q1 Q2 the exponential is cosh(wt) I + sinh(wt)/w N, which
    covers the hyperbolic and trigonometric branches at once; the
    degenerate branch Q1 Q2 = 0 is the nilpotent I + tN.
    """
    q1 = complex(q1)
    q2 = complex(q2)
    gen = np.array([[0.0, q2], [q1, 0.0]], dtype=np.complex128)
    w_sq = q1 * q2
    if w_sq == 0.0:
        return np.eye(2, dtype=np.complex128) + t * gen
    w = cmath.sqrt(w_sq)
    return cmath.cosh(w * t) * np.eye(2, dtype=np.complex128) + (cmath.sinh(w * t) / w) * gen


def mobius_apply(mat: np.ndarray, p) -> SpherePoint:
    """Apply ((a, b), (c, d)) to a sphere point as (az + b) / (cz + d)."""
    num, den = _as_point(p).as_ratio()
    a, b = complex(mat[0, 0]), complex(mat[0, 1])
    c, d = complex(mat[1, 0]), complex(mat[1, 1])
    return SpherePoint.from_ratio(a * num + b * den, c * num + d * den)


def mobius_exact(z0, q1: complex, q2: complex, t: float) -> SpherePoint:
    """Exact time-t image of z0 under the Riccati flow."""
    return mobius_apply(flow_matrix(q1, q2, t), z0)


def metric_preservation_check(q0: complex, q1: complex, q2: complex) -> bool:
    """True iff Q0 is anti-Hermitian and Q2 = -conj(Q1) to ``METRIC_TOL``, so |lam|^2+|mu|^2 is conserved."""
    return _metric_residual(q0, q1, q2) <= METRIC_TOL


def _metric_residual(q0: complex, q1: complex, q2: complex) -> float:
    """``max(|Q0 + conj(Q0)|, |Q2 + conj(Q1)|)`` in numpy: inf, with numpy's overflow warning, where it overflows.

    Python's complex ``abs`` raises OverflowError there instead; below the
    float limit both give the same value.
    """
    return float(max(abs(np.conj(q0) + q0), abs(q2 + np.conj(q1))))


def integrate_riccati(
    z0,
    q1: complex,
    q2: complex,
    t_end: float,
    *,
    h: float = 1e-3,
    stride: int = 1,
):
    """Integrate the Riccati flow with chart switching across the pole.

    Returns (times, points); points are :class:`SpherePoint` samples, so
    pole passages are represented faithfully instead of overflowing.
    """
    n_steps = step_count(t_end, h)
    stride = _check_stride(stride)
    q1 = complex(q1)
    q2 = complex(q2)
    start = _as_point(z0)
    if start.is_infinity:
        coord, inverted = 0.0j, True
    elif abs(start.z) > 1.0:
        coord, inverted = 1.0 / start.z, True
    else:
        coord, inverted = complex(start.z), False

    def emit() -> SpherePoint:
        if inverted:
            return SpherePoint.infinity() if coord == 0.0 else SpherePoint(1.0 / coord)
        return SpherePoint(coord)

    h_eff = t_end / n_steps
    times = [0.0]
    points = [emit()]
    for k in range(1, n_steps + 1):
        if inverted:
            coord = rk4_step(lambda t, w: q1 - q2 * w * w, (k - 1) * h_eff, coord, h_eff)
        else:
            coord = rk4_step(lambda t, z: q2 - q1 * z * z, (k - 1) * h_eff, coord, h_eff)
        if abs(coord) > 1.0:
            coord = 1.0 / coord
            inverted = not inverted
        if k % stride == 0 or k == n_steps:
            times.append(k * h_eff)
            points.append(emit())
    return np.array(times), points


def _ldexp(z: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """``z * 2**exponent``, exact part by part (signed zeros included)."""
    out = np.empty_like(z)
    out.real = np.ldexp(z.real, exponent)
    out.imag = np.ldexp(z.imag, exponent)
    return out


@dataclass(frozen=True)
class RowRun:
    """Sampled row transport; lam and mu are complex time series."""

    times: np.ndarray
    lam: np.ndarray
    mu: np.ndarray

    def norms(self) -> np.ndarray:
        """|lam|^2 + |mu|^2 per sample."""
        return np.abs(self.lam) ** 2 + np.abs(self.mu) ** 2

    def zs(self) -> np.ndarray:
        """z = lam / mu of every sample, inf at the point at infinity; lam and mu finite and not both 0.

        It takes ``SpherePoint.from_ratio``'s steps on whole arrays, so its
        bytes are that reference's: the scale by ``np.hypot`` (numpy's
        complex ``abs`` of an array may differ from a scalar's by an ulp),
        the lift of a subnormal scale, and numpy's complex divisions.
        """
        scale = np.maximum(np.hypot(self.lam.real, self.lam.imag), np.hypot(self.mu.real, self.mu.imag))
        tiny = scale < sys.float_info.min
        with np.errstate(all="ignore"):
            lam, mu, scale = (np.where(tiny, part * _SUBNORMAL_LIFT, part) for part in (self.lam, self.mu, scale))
            den = mu / scale
            z = lam / scale / den
        z[(den == 0.0) | np.isinf(z)] = complex("inf")
        return z

    def bloch_series(self) -> np.ndarray:
        """Normalised state coordinates (s, x, y) of the induced pure state.

        Each sample is scaled by the power of two that brings max(|lam|, |mu|)
        into [1/2, 1) before squaring, so the norm cannot underflow (or
        overflow); the scaling is exact and cancels in every ratio.
        """
        exponent = np.frexp(np.maximum(np.abs(self.lam), np.abs(self.mu)))[1]
        lam, mu = _ldexp(self.lam, -exponent), _ldexp(self.mu, -exponent)
        norm = np.abs(lam) ** 2 + np.abs(mu) ** 2
        s = 0.5 * (np.abs(mu) ** 2 - np.abs(lam) ** 2) / norm
        cross = lam * np.conj(mu) / norm
        return np.column_stack([s, cross.real, cross.imag])


def run_row(
    lam0: complex,
    mu0: complex,
    q0: complex,
    q1: complex,
    q2: complex,
    *,
    t_end: float = 10.0,
    h: float = 1e-3,
    stride: int = 10,
    method: str = "rk4",
) -> RowRun:
    """Integrate the (lam, mu) transport on Python complex scalars."""
    system = _row_kernels().bind(complex(q0), complex(q1), complex(q2))
    y0 = pack_complex(np.array([complex(lam0), complex(mu0)]))
    traj = integrate(system.rhs, y0, t_end, h=h, stride=stride, method=method, system=system)
    blocks = traj.states.view(np.complex128)
    return RowRun(traj.times, blocks[:, 0].copy(), blocks[:, 1].copy())
