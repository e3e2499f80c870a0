"""Right-hand sides of the geodesic-velocity equations and ODE integrators.

The velocity equations evolve the generator values of the vector field:

* Z_n, with ``beta = b + K_+ + K_-`` and b recomputed from K:
  ``dK_+/dt = K_+ (R_{-1} beta - beta)``,
  ``dK_-/dt = K_- (R_{+1} beta - beta)``.  These equations live once,
  together with b and the transport of m, as the elementwise functions
  ``connection._zn_beta``, ``_zn_dkp``, ``_zn_dkm`` and ``_zn_dm``;
  ``zn_rhs`` wraps them.
* M2(C), with ``B = E12 K1 + E21 K2 + K1 E12 + K2 E21``:
  ``dK_i/dt = [K_i, B] / 2``.  These equations live once, together with b
  and the transport of m, in ``connection._m2_system``; ``m2_rhs`` wraps it.

Integration happens on flat float64 vectors: complex states are packed as
interleaved real/imaginary parts (``pack_complex`` / ``split_complex``).
``integrate`` steps a state in one of two forms:

* the array form (``scalars=None``, the default): f maps the float64
  vector to a float64 vector, and the complex structure is reassembled
  inside f;
* the scalar form (``scalars=complex`` or ``scalars=float``): f maps a
  list of Python complex numbers (the entries of the packed vector read
  as complex128) or of Python floats to a list of the same length.  For
  the small systems (M2, the m2row module, Z_n below
  ``transport.ZN_SCALAR_CROSSOVER`` sites, the geodesic) numpy's per-call
  overhead costs more than the arithmetic, so rk4 then steps the list
  itself, with ``rk4_step``'s association, and checks each real and
  imaginary part by ``_check_state``'s rule.

In both forms ``y0`` is the packed float64 vector and the samples land in
the same float64 ``Trajectory.states`` block, preallocated from the step
count and the stride; callers (and wrappers of ``integrate`` that read
``len(y0)``, as the benchmark's tracer does to name the Z_n right-hand
sides) see one interface.  ``array_rhs`` turns a scalar right-hand side
into an array one.

The default integrator is fixed-step classical RK4; an adaptive
Dormand-Prince 4(5) pair is available as ``method="rk45"`` and lands on
the same output grid.  Its seven stages are the rows of one ``(7, N)``
array, each stage input is one product of a tableau row with the stages
before it, and the pair is FSAL (first same as last): the last stage of
an accepted step is the first stage of the next, so an attempt costs six
right-hand-side calls.  It runs in the array form only: a scalar f is
called through ``array_rhs``.  Both abort with :class:`BlowupError` when
an accepted state leaves the finite ball ``|entry| <= max_abs``.  A run
may take at most ``MAX_STEPS`` steps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import Mat2Element, ZnElement
from .calculus import VectorField
from .connection import _m2_system, _zn_system

__all__ = [
    "MAX_STEPS",
    "MAX_SAMPLE_VALUES",
    "BlowupError",
    "Trajectory",
    "pack_complex",
    "split_complex",
    "rk4_step",
    "step_count",
    "sample_count",
    "array_rhs",
    "integrate",
    "zn_rhs",
    "m2_rhs",
]

Rhs = Callable[[float, np.ndarray], np.ndarray]

MAX_STEPS = 10**8  # bounds the time of any accepted run
# Bounds the memory of an accepted config: floats in its (samples, state columns)
# block, 1 GiB of float64.  It admits a MAX_GRID burgers run at the default stride.
MAX_SAMPLE_VALUES = 2**27


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


def _rk4_scalars(f, t: float, y: list, h: float) -> list:
    """``rk4_step`` on a list of Python scalars, entry by entry in the same association."""
    half = 0.5 * h
    k1 = f(t, y)
    k2 = f(t + half, [a + half * b for a, b in zip(y, k1)])
    k3 = f(t + half, [a + half * b for a, b in zip(y, k2)])
    k4 = f(t + h, [a + h * b for a, b in zip(y, k3)])
    sixth = h / 6.0
    return [a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]


def array_rhs(f, scalars=complex) -> Rhs:
    """The float64-vector form of ``f(t, values)``, a right-hand side on a list of Python scalars.

    With ``scalars=complex`` the values are the entries of the vector read
    as complex128, otherwise its floats.
    """
    if scalars is complex:
        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            return np.array(f(t, y.view(np.complex128).tolist()), dtype=np.complex128).view(np.float64)
    else:
        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            return np.array(f(t, y.tolist()), dtype=np.float64)
    return rhs


# Dormand-Prince 4(5) tableau.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = tuple(
    np.array(row)
    for row in (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
_DP_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40))


def _dopri_step(f: Rhs, t: float, y: np.ndarray, h: float, k1: np.ndarray):
    """One Dormand-Prince attempt from ``(t, y)`` with first stage ``k1 = f(t, y)``.

    Returns the 5th-order solution, the error estimate and the last stage,
    which is ``f(t + h, y5)``: the first stage of the next step (FSAL).
    """
    ks = np.empty((7, y.shape[0]))
    ks[0] = k1
    for stage in range(1, 7):
        acc = y + h * (_DP_A[stage] @ ks[:stage])
        ks[stage] = f(t + _DP_C[stage] * h, acc)
    return acc, h * (_DP_E @ ks), ks[6]


def step_count(t_end: float, h: float) -> int:
    """Number of steps, ``round(t_end / h)`` and at least 1, of a run.

    Raises ValueError unless t_end and h are finite and positive and the
    count is at most ``MAX_STEPS``.
    """
    if not (0 < t_end < math.inf):
        raise ValueError("t_end must be positive and finite")
    if not (0 < h < math.inf):
        raise ValueError("step must be positive and finite")
    ratio = t_end / h
    if not math.isfinite(ratio) or round(ratio) > MAX_STEPS:
        raise ValueError(f"t_end / step = {ratio:g} exceeds the limit of {MAX_STEPS} steps")
    return max(1, int(round(ratio)))


def sample_count(n_steps: int, stride: int) -> int:
    """Rows of ``Trajectory.states``: every ``stride``-th step from 0, plus the last step."""
    return n_steps // stride + 1 + (1 if n_steps % stride else 0)


def _check_state(y: np.ndarray, t_good: float, max_abs: float) -> None:
    peak = np.abs(y).max()  # nan or inf if any entry is
    if not math.isfinite(peak):
        raise BlowupError("non-finite state encountered", t_good)
    if peak > max_abs:
        raise BlowupError(f"state magnitude exceeded {max_abs:g}", t_good)


def _check_scalars(y: list, t_good: float, max_abs: float) -> None:
    """``_check_state`` on a list of Python floats or complex numbers, part by part.

    A finite sum and ``|entry| <= max_abs`` for every entry pass at once
    (|z| bounds both parts of z); anything else gets the exact rule.
    """
    try:
        if cmath.isfinite(sum(y)) and max(map(abs, y)) <= max_abs:
            return
    except OverflowError:  # |z| of a complex entry beyond the float range
        pass
    _check_state(np.array([(z.real, z.imag) for z in y]), t_good, max_abs)


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
    scalars=None,
) -> Trajectory:
    """Integrate ``dy/dt = f(t, y)`` from t=0, sampling every ``stride`` steps.

    The step count is ``step_count(t_end, h)`` and the actual step is
    adjusted so the grid ends exactly at ``t_end``; output times are
    multiples of ``stride * h`` (plus the endpoint).  ``y0`` is a float64
    vector in either state form; ``scalars`` (None, ``complex`` or
    ``float``) selects the form of f, as the module docstring describes.
    ``rk45`` calls f once at t=0 and then six times per attempted step.
    Deterministic for fixed inputs.
    """
    n_steps = step_count(t_end, h)
    stride = int(stride)
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if method not in ("rk4", "rk45"):
        raise ValueError(f"unknown method {method!r}")
    if scalars not in (None, complex, float):
        raise ValueError(f"scalars must be None, complex or float, not {scalars!r}")

    y = np.ascontiguousarray(np.asarray(y0, dtype=np.float64).ravel())
    h_eff = t_end / n_steps

    _check_state(y, 0.0, max_abs)
    rows = sample_count(n_steps, stride)
    sampled = np.arange(rows, dtype=np.int64) * min(stride, n_steps)
    sampled[-1] = n_steps
    states = np.empty((rows, y.shape[0]))
    states[0] = y
    row = 0

    if method == "rk4":
        if scalars is None:
            step, check, out = rk4_step, _check_state, states
        else:
            step, check = _rk4_scalars, _check_scalars
            out = states.view(np.complex128) if scalars is complex else states
            y = out[0].tolist()
        for k in range(1, n_steps + 1):
            t_prev = (k - 1) * h_eff
            y = step(f, t_prev, y, h_eff)
            check(y, t_prev, max_abs)
            if k % stride == 0 or k == n_steps:
                row += 1
                out[row] = y
    else:
        if scalars is not None:
            f = array_rhs(f, scalars)
        size = y.shape[0]
        h_try = h_eff
        k1 = f(0.0, y)
        for k in range(1, n_steps + 1):
            t = (k - 1) * h_eff
            t_target = k * h_eff
            while t < t_target - 1e-14 * max(1.0, t_target):
                hs = min(h_try, t_target - t)
                y_new, err, k7 = _dopri_step(f, t, y, hs, k1)
                r = err / (atol + rtol * np.maximum(np.abs(y), np.abs(y_new)))
                err_norm = math.sqrt(r @ r / size)
                if err_norm <= 1.0 or hs <= 1e-13 * max(1.0, t_target):
                    _check_state(y_new, t, max_abs)
                    t += hs
                    y = y_new
                    k1 = k7
                factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
                h_try = hs * factor
                if h_try < 1e-13 * max(1.0, t_target):
                    if not math.isfinite(err_norm):  # fails error control at every step size
                        raise BlowupError("non-finite state encountered", t)
                    raise BlowupError("adaptive step size underflow", t)
            if k % stride == 0 or k == n_steps:
                row += 1
                states[row] = y

    return Trajectory(sampled * h_eff, states)


# Flow right-hand sides (element-level wrappers of the connection kernels).

def zn_rhs(field: VectorField) -> VectorField:
    """Time derivative of the Z_n vector field (b recomputed from K)."""
    if not isinstance(field.k1, ZnElement):
        raise TypeError("zn_rhs expects a Z_n vector field")
    kp = field.k1.samples
    dkp, dkm, _ = _zn_system(kp, field.k2.samples, np.zeros_like(kp))
    return VectorField(ZnElement(dkp), ZnElement(dkm))


def m2_rhs(field: VectorField) -> VectorField:
    """Time derivative of the M2 vector field ``[K_i, B]/2``."""
    if not isinstance(field.k1, Mat2Element):
        raise TypeError("m2_rhs expects an M2 vector field")
    d = _m2_system(*field.k1.entries.ravel().tolist(), *field.k2.entries.ravel().tolist(), 0, 0, 0, 0)
    return VectorField(Mat2Element([d[0:2], d[2:4]]), Mat2Element([d[4:6], d[6:8]]))
