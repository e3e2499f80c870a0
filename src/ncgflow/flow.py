"""ODE integrators on flat float64 state vectors.

Complex states are packed as interleaved real/imaginary parts (``pack_complex`` / ``split_complex``).
``integrate`` steps a state in one of two forms:

* the array form (``scalars=None``, the default): f maps the float64
  vector to a float64 vector, and the complex structure is reassembled
  inside f.  rk4 then steps through ``_rk4_arrays``, which keeps its
  stage inputs in buffers made once per run; f may return its input or
  a fresh array, but not a buffer it overwrites on its next call, since
  a stage is still read after the next stage is computed.  rk45 passes
  f a buffer that the next stage overwrites, so f must not keep a
  reference to its input past the call;
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
the same output grid.  It steps one ``(8, N)`` float64 block
``[y, k1, ..., k7]``, made once per run: each stage input is one
``np.dot`` of a coefficient row ``[1, h a_s1, ..., h a_s,s-1]`` (scaled
by each attempt's h) with the rows before it, and f's result goes
straight into the stage's own row; a scalar f reads the
stage input as a list and its list is written into the row's complex
(or float) view.  The pair is FSAL (first same as last): the last stage
of an accepted step is the first stage of the next, a row copy, so an
attempt costs six right-hand-side calls, and an attempt is accepted when
the RMS of its error estimate over ``ATOL + RTOL * max(|y|, |y5|)`` is
at most 1.  Both methods abort with :class:`BlowupError` when an
accepted state leaves the finite ball ``|entry| <= max_abs``.  A run
may take at most ``MAX_STEPS`` steps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MAX_STEPS",
    "RTOL",
    "ATOL",
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
]

Rhs = Callable[[float, np.ndarray], np.ndarray]

MAX_STEPS = 10**8  # bounds the time of any accepted run
RTOL = ATOL = 1e-9  # rk45 error tolerances, relative and absolute
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


def _rk4_arrays(size: int):
    """``rk4_step`` and ``_check_state`` on float64 vectors of ``size``, with reused buffers.

    The stage inputs alternate between two buffers made once, and the
    weighted stage sum ``k1 + 2 k2 + 2 k3 + k4`` is accumulated in a third
    as each stage arrives, so a step allocates only its fresh result
    (callers keep the states it returns) and holds at most two stages at
    a time.  The association is ``rk4_step``'s, so the result is bit for
    bit the same.  f may return its input, so a stage input buffer is
    written only once its stage has been used: 2 k3 goes into k3's own
    input buffer, after y4 = y + h k3 has been formed.
    """
    y_a, y_b, acc = np.empty((3, size))

    def step(f: Rhs, t: float, y: np.ndarray, h: float) -> np.ndarray:
        half = 0.5 * h
        k = f(t, y)  # k1
        np.multiply(half, k, out=y_a)
        np.add(y, y_a, out=y_a)
        k2 = f(t + half, y_a)
        np.multiply(half, k2, out=y_b)
        np.add(y, y_b, out=y_b)
        np.multiply(2.0, k2, out=acc)
        np.add(k, acc, out=acc)
        del k2
        k = f(t + half, y_b)  # k3
        np.multiply(h, k, out=y_a)
        np.add(y, y_a, out=y_a)
        np.multiply(2.0, k, out=y_b)
        np.add(acc, y_b, out=acc)
        del k
        k = f(t + h, y_a)  # k4
        np.add(acc, k, out=acc)
        np.multiply(h / 6.0, acc, out=acc)
        return y + acc

    def check(y: np.ndarray, t_good: float, max_abs: float) -> None:
        _check_state(y, t_good, max_abs, scratch=acc)  # acc is free between steps

    return step, check


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
    dtype = np.complex128 if scalars is complex else np.float64

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return np.array(f(t, y.view(dtype).tolist()), dtype=dtype).view(np.float64)

    return rhs


# Dormand-Prince 4(5) tableau: the nodes of stages 2-7, and one row per stage
# 2-7 of the weights of k1..k6 (the last row is the 5th-order solution, so its
# stage is FSAL), then the error weights of k1..k7 (5th order minus 4th order).
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = np.array([row + (0.0,) * (7 - len(row)) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),
)])


def _dopri_step(f, t: float, h: float, h_coef, stages, y, ks, y5, read, err, scale) -> tuple[float, float]:
    """One Dormand-Prince attempt of size h from ``t`` on the block ``[y, k1, ..., k7]``.

    On entry ``y`` holds the state and ``ks[0]`` its first stage ``f(t, y)``.
    The coefficient rows are ``[1, h a_s1, ..., h a_s,s-1]`` for stages 2-7
    and then ``[1, h E]``; ``h_coef`` is the part after their leading 1 and
    is set to ``h * _DP_A`` here.  Each stage ``(c_s, row, before, out)``
    forms its input in ``y5`` as the product of its coefficient row with
    the block rows before it and puts f's result into its own row ``out``;
    with ``read`` set, f takes the input as a list of scalars and its list
    goes into ``out``, a complex (or float) view.  The last input, ``y5``,
    is the 5th-order solution, and its stage ``f(t + h, y5)`` (``ks[6]``)
    is the first stage of the next step (FSAL).  ``err`` and ``scale`` are
    scratch.  Returns the RMS of the error estimate over
    ``ATOL + RTOL * max(|y|, |y5|)`` and the peak ``max |y5|``, nan if
    any entry is.
    """
    np.multiply(h, _DP_A, out=h_coef)
    for c, row, before, out in stages:
        np.dot(row, before, out=y5)
        out[:] = f(t + c * h, y5 if read is None else read())
    np.abs(y5, out=err)
    peak = np.maximum.reduce(err)
    np.abs(y, out=scale)
    np.maximum(scale, err, out=scale)
    np.multiply(scale, RTOL, out=scale)
    np.add(scale, ATOL, out=scale)
    np.dot(h_coef[6], ks, out=err)
    np.divide(err, scale, out=scale)
    return math.sqrt(np.dot(scale, scale) / y5.shape[0]), peak


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


def _check_state(y: np.ndarray, t_good: float, max_abs: float, scratch=None) -> None:
    _check_peak(np.abs(y, out=scratch).max(), t_good, max_abs)


def _check_peak(peak: float, t_good: float, max_abs: float) -> None:
    """The state rule on the peak ``max |entry|`` of a state, nan or inf if any entry is."""
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
            (step, check), out = _rk4_arrays(y.shape[0]), states
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
        block, coef = np.empty((8, y.shape[0])), np.ones((7, 8))  # coefficient rows: see _dopri_step
        y5, err, scale = np.empty((3, y.shape[0]))
        dtype = np.complex128 if scalars is complex else np.float64
        rows = [k if scalars is None else k.view(dtype) for k in block[1:]]
        stages = tuple((c, coef[i, : i + 2], block[: i + 2], rows[i + 1]) for i, c in enumerate(_DP_C))
        read = None if scalars is None else y5.view(dtype).tolist
        y, ks, h_coef = block[0], block[1:], coef[:, 1:]
        y[:] = y5[:] = states[0]
        rows[0][:] = f(0.0, y5 if read is None else read())
        h_try = h_eff
        # a non-finite stage ends in BlowupError below; numpy need not warn about it first
        with np.errstate(invalid="ignore", over="ignore"):
            for k in range(1, n_steps + 1):
                t = (k - 1) * h_eff
                t_target = k * h_eff
                while t < t_target - 1e-14 * max(1.0, t_target):
                    hs = min(h_try, t_target - t)
                    err_norm, peak = _dopri_step(f, t, hs, h_coef, stages, y, ks, y5, read, err, scale)
                    if err_norm <= 1.0 or hs <= 1e-13 * max(1.0, t_target):
                        _check_peak(peak, t, max_abs)
                        t += hs
                        y[:] = y5
                        ks[0] = ks[6]
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
