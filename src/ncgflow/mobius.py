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
compare points near the pole.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .flow import integrate, pack_complex, rk4_step, step_count

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
]


@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere: a finite z, or the point at infinity."""

    z: complex | None = None

    @classmethod
    def infinity(cls) -> "SpherePoint":
        return cls(None)

    @classmethod
    def from_ratio(cls, num: complex, den: complex) -> "SpherePoint":
        scale = max(abs(num), abs(den))
        if scale == 0.0:
            raise ValueError("0:0 is not a projective point")
        num, den = num / scale, den / scale
        if den == 0.0:
            return cls.infinity()
        return cls(num / den)

    @property
    def is_infinity(self) -> bool:
        return self.z is None

    def as_ratio(self) -> tuple[complex, complex]:
        if self.z is None:
            return 1.0 + 0.0j, 0.0j
        return complex(self.z), 1.0 + 0.0j


def _as_point(p) -> SpherePoint:
    return p if isinstance(p, SpherePoint) else SpherePoint(complex(p))


def sphere_distance(p, q) -> float:
    """Chordal-type metric |ad - bc| / (|(a,b)| |(c,d)|), bounded by 1."""
    a, b = _as_point(p).as_ratio()
    c, d = _as_point(q).as_ratio()
    return abs(a * d - b * c) / (np.hypot(abs(a), abs(b)) * np.hypot(abs(c), abs(d)))


def row_rhs(lam: complex, mu: complex, q0: complex, q1: complex, q2: complex):
    """Transport equation for the row (lam, mu)."""
    return q0 * lam + q2 * mu, q0 * mu + q1 * lam


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


def metric_preservation_check(q0: complex, q1: complex, q2: complex, tol: float = 1e-12) -> bool:
    """True iff Q0 is anti-Hermitian and Q2 = -conj(Q1), so |lam|^2+|mu|^2 is conserved."""
    q0, q1, q2 = complex(q0), complex(q1), complex(q2)
    return abs(q0.conjugate() + q0) <= tol and abs(q2 + q1.conjugate()) <= tol


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
    if stride < 1:
        raise ValueError("stride must be at least 1")
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

    def z_points(self) -> list[SpherePoint]:
        return [SpherePoint.from_ratio(l, m) for l, m in zip(self.lam, self.mu)]

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
    q0, q1, q2 = complex(q0), complex(q1), complex(q2)

    def rhs(t: float, y: list) -> tuple:
        return row_rhs(*y, q0, q1, q2)

    y0 = pack_complex(np.array([complex(lam0), complex(mu0)]))
    traj = integrate(rhs, y0, t_end, h=h, stride=stride, method=method, scalars=complex)
    blocks = traj.states.view(np.complex128)
    return RowRun(traj.times, blocks[:, 0].copy(), blocks[:, 1].copy())
