"""Right-hand sides of the geodesic-velocity equations and ODE integrators.

The velocity equations evolve the generator values of the vector field:

* Z_n, with ``beta = b + K_+ + K_-`` and b recomputed from K:
  ``dK_+/dt = K_+ (R_{-1} beta - beta)``,
  ``dK_-/dt = K_- (R_{+1} beta - beta)``.
* M2(C), with ``B = E12 K1 + E21 K2 + K1 E12 + K2 E21``:
  ``dK_i/dt = [K_i, B] / 2``.  These equations live once, together with b
  and the transport of m, in ``connection._m2_system``; ``m2_rhs`` wraps it.

Integration happens on flat float64 vectors: complex states are packed as
interleaved real/imaginary parts (``pack_complex`` / ``split_complex``)
and the complex structure is reassembled inside each right-hand side.
The default integrator is fixed-step classical RK4; an adaptive
Dormand-Prince 4(5) pair is available as ``method="rk45"`` and lands on
the same output grid.  Both abort with :class:`BlowupError` when an
accepted state leaves the finite ball ``|entry| <= max_abs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import Mat2Element, ZnElement, _shift_indices
from .calculus import VectorField
from .connection import _b_zn, _m2_system

__all__ = [
    "BlowupError",
    "Trajectory",
    "pack_complex",
    "split_complex",
    "rk4_step",
    "integrate",
    "zn_rhs",
    "m2_rhs",
]

Rhs = Callable[[float, np.ndarray], np.ndarray]


class BlowupError(RuntimeError):
    """Integration left the admissible region (non-finite or too large)."""

    def __init__(self, message: str, last_good_time: float):
        super().__init__(f"{message} (last good time t={last_good_time:.6g})")
        self.last_good_time = last_good_time


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: ``states[k]`` is the flat state at ``times[k]``."""

    times: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return self.times.shape[0]


def pack_complex(*arrays) -> np.ndarray:
    """Concatenate complex arrays into one float64 vector (re/im interleaved)."""
    parts = [
        np.ascontiguousarray(np.asarray(a, dtype=np.complex128)).ravel().view(np.float64)
        for a in arrays
    ]
    return np.concatenate(parts)


def split_complex(y: np.ndarray, counts) -> list[np.ndarray]:
    """Inverse of ``pack_complex``: views of y as complex arrays of the given lengths."""
    out = []
    offset = 0
    for count in counts:
        out.append(y[offset : offset + 2 * count].view(np.complex128))
        offset += 2 * count
    return out


def rk4_step(f: Rhs, t: float, y, h: float):
    """One classical Runge-Kutta step; works for arrays and complex scalars."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 4(5) tableau.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERR = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


def _dopri_step(f: Rhs, t: float, y: np.ndarray, h: float):
    ks = [f(t, y)]
    for stage in range(1, 7):
        acc = y + h * sum(a * k for a, k in zip(_DP_A[stage], ks))
        ks.append(f(t + _DP_C[stage] * h, acc))
    y5 = acc  # stage 7 input is the 5th-order solution (FSAL structure)
    err = h * sum(e * k for e, k in zip(_DP_ERR, ks))
    return y5, err


def _check_state(y: np.ndarray, t_good: float, max_abs: float) -> None:
    peak = np.abs(y).max()  # nan or inf if any entry is
    if not math.isfinite(peak):
        raise BlowupError("non-finite state encountered", t_good)
    if peak > max_abs:
        raise BlowupError(f"state magnitude exceeded {max_abs:g}", t_good)


def integrate(
    f: Rhs,
    y0,
    t_end: float,
    *,
    h: float = 1e-3,
    stride: int = 1,
    method: str = "rk4",
    rtol: float = 1e-9,
    atol: float = 1e-9,
    max_abs: float = 1e9,
) -> Trajectory:
    """Integrate ``dy/dt = f(t, y)`` from t=0, sampling every ``stride`` steps.

    The step count is ``round(t_end / h)`` and the actual step is adjusted
    so the grid ends exactly at ``t_end``; output times are multiples of
    ``stride * h`` (plus the endpoint).  Deterministic for fixed inputs.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if h <= 0:
        raise ValueError("step must be positive")
    stride = int(stride)
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if method not in ("rk4", "rk45"):
        raise ValueError(f"unknown method {method!r}")

    y = np.ascontiguousarray(np.asarray(y0, dtype=np.float64).ravel())
    n_steps = max(1, int(round(t_end / h)))
    h_eff = t_end / n_steps
    sample_steps = list(range(0, n_steps + 1, stride))
    if sample_steps[-1] != n_steps:
        sample_steps.append(n_steps)
    wanted = set(sample_steps)

    _check_state(y, 0.0, max_abs)
    samples = [y.copy()]

    if method == "rk4":
        for k in range(1, n_steps + 1):
            t_prev = (k - 1) * h_eff
            y = rk4_step(f, t_prev, y, h_eff)
            _check_state(y, t_prev, max_abs)
            if k in wanted:
                samples.append(y.copy())
    else:
        h_try = h_eff
        for k in range(1, n_steps + 1):
            t = (k - 1) * h_eff
            t_target = k * h_eff
            while t < t_target - 1e-14 * max(1.0, t_target):
                hs = min(h_try, t_target - t)
                y_new, err = _dopri_step(f, t, y, hs)
                scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
                err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
                if err_norm <= 1.0 or hs <= 1e-13 * max(1.0, t_target):
                    _check_state(y_new, t, max_abs)
                    t += hs
                    y = y_new
                factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
                h_try = hs * factor
                if h_try < 1e-13 * max(1.0, t_target):
                    raise BlowupError("adaptive step size underflow", t)
            if k in wanted:
                samples.append(y.copy())

    times = np.array([k * h_eff for k in sample_steps])
    return Trajectory(times, np.vstack(samples))


# Flow right-hand sides (array kernels + element-level wrappers).

def _zn_beta(kp: np.ndarray, km: np.ndarray) -> np.ndarray:
    """beta = b + K_+ + K_- with the divergence-fixing b."""
    n = kp.shape[0]
    return 0.5 * (kp + kp[_shift_indices(n, 1)] + km + km[_shift_indices(n, -1)])


def _rhs_zn(kp: np.ndarray, km: np.ndarray, beta: np.ndarray | None = None):
    n = kp.shape[0]
    if beta is None:
        beta = _b_zn(kp, km) + kp + km
    dkp = kp * (beta[_shift_indices(n, -1)] - beta)
    dkm = km * (beta[_shift_indices(n, 1)] - beta)
    return dkp, dkm


def zn_rhs(field: VectorField) -> VectorField:
    """Time derivative of the Z_n vector field (b recomputed from K)."""
    if not isinstance(field.k1, ZnElement):
        raise TypeError("zn_rhs expects a Z_n vector field")
    dkp, dkm = _rhs_zn(field.k1.samples, field.k2.samples)
    return VectorField(ZnElement(dkp), ZnElement(dkm))


def m2_rhs(field: VectorField) -> VectorField:
    """Time derivative of the M2 vector field ``[K_i, B]/2``."""
    if not isinstance(field.k1, Mat2Element):
        raise TypeError("m2_rhs expects an M2 vector field")
    d = _m2_system(*field.k1.entries.ravel().tolist(), *field.k2.entries.ravel().tolist(), 0, 0, 0, 0)
    return VectorField(Mat2Element([d[0:2], d[2:4]]), Mat2Element([d[4:6], d[6:8]]))
