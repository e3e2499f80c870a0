"""State transport along a geodesic-velocity flow.

The transported element m obeys the parallel equation

* Z_n:   ``dm/dt = -m b - K_+ (m - R_{-1} m) - K_- (m - R_{+1} m)``
* M2(C): ``dm/dt = -b m - K1 [E12, m] - K2 [E21, m]``

with b recomputed from K at every stage (``connection`` gives the
equations of K and the reduced form of the Z_n rate).

The induced positive map is ``phi(a) = inner_product(m*a, m)`` and, for
M2, its Bloch coordinates are
``(s, x, y) = (phi(diag(-1,1)), phi(X), phi(Y)) / 2``.

K and m are integrated as one coupled system (``run_zn`` / ``run_m2``)
rather than sequentially, so no interpolation error enters through K(t).
The systems are written once, in ``connection``, together with their
element-level entry points.  ``zn_coupled_rhs`` restates
``connection._zn_system`` on reused buffers, byte for byte.

``flow.integrate`` steps these systems in one of its two state forms.
M2 always runs on Python complex scalars (``scalars=complex``).  Z_n runs
on scalars below ``ZN_SCALAR_CROSSOVER`` sites, through the straight-line
kernel that ``connection._zn_site_rates`` compiles once per n, and on
sample arrays (``zn_coupled_rhs``) from there on: the cost of the scalar
form grows with n while that of the array form is nearly flat at small n,
and the constant is where a whole rk4 step costs the same in both.  A Z_n
run needs at least one site.  Either way the state handed to
``integrate`` is the packed float64 vector of ``pack_zn_state`` /
``pack_m2_state``, so a wrapper of ``integrate`` reads the same ``y0``
(the benchmark's tracer names a Z_n right-hand side by ``len(y0) // 6``).

``ZnRun`` and ``M2Run`` are built from a ``Trajectory`` of packed states
(``ZnRun.of``, ``M2Run.of``) and compute their residual and state series
as array expressions over the leading time axis; ``cli`` applies the same
series to a one-sample trajectory of the initial data for its checks.  The
element functions (``reality_residual``, ``braiding_residual``,
``state_eval``, ``bloch``) are the per-sample reference they are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .algebra import AlgebraElement, I2, Mat2Element, _shift_indices, inner_product
from .calculus import OneForm, VectorField, apply_vf, left_multiply_form
from .connection import _m2_system, _zn_site_rates
# The residual functions stay in this namespace: perfbench/spans.py wraps them here.
from .connection import braiding_residual, reality_residual  # noqa: F401
from .flow import Trajectory, array_rhs, integrate, pack_complex

__all__ = [
    "state_eval",
    "BlochPoint",
    "bloch",
    "velocity_functional",
    "zn_coupled_rhs",
    "m2_coupled_rhs",
    "pack_zn_state",
    "pack_m2_state",
    "ZnRun",
    "M2Run",
    "run_zn",
    "run_m2",
    "ZN_SCALAR_CROSSOVER",
]

# Z_n systems with fewer sites than this step on Python scalars (see the module
# docstring).  Timed in one process, interleaved, a whole rk4 run on scalars
# costs 0.95-0.98 of one on arrays at 17 sites and 1.01-1.02 at 18; rk45 breaks
# even near 22.  At most 43, so that a scalar Z_n state fits flow.MAX_SCALAR_STATE.
ZN_SCALAR_CROSSOVER = 18


def state_eval(m: AlgebraElement, a: AlgebraElement) -> complex:
    """The positive map ``phi(a) = <m a, conj m> = integral(m a m^*)``."""
    return (m * a * m.star()).integral()


@dataclass(frozen=True)
class BlochPoint:
    """State coordinates on M2; states fill the closed ball of radius 1/2."""

    s: float
    x: float
    y: float

    @property
    def radius_sq(self) -> float:
        return self.s * self.s + self.x * self.x + self.y * self.y


_OBS_S = Mat2Element([[-1.0, 0.0], [0.0, 1.0]])
_OBS_X = Mat2Element([[0.0, 1.0], [1.0, 0.0]])
_OBS_Y = Mat2Element([[0.0, -1.0j], [1.0j, 0.0]])

# Round-off in Im phi(a) scales with phi(1) = tr(m m^*), so the bound is relative to it.
_HERMITIAN_IMAG_TOL = 1e-10


def _real_state_value(m: Mat2Element, obs: Mat2Element, phi_one: float) -> float:
    value = state_eval(m, obs)
    if abs(value.imag) > _HERMITIAN_IMAG_TOL * phi_one:
        raise ValueError(f"state value of Hermitian observable has imaginary part {value.imag:g}")
    return value.real


def bloch(m: Mat2Element) -> BlochPoint:
    """Bloch coordinates of the state induced by m (m is assumed normalised)."""
    phi_one = state_eval(m, I2).real
    return BlochPoint(
        0.5 * _real_state_value(m, _OBS_S, phi_one),
        0.5 * _real_state_value(m, _OBS_X, phi_one),
        0.5 * _real_state_value(m, _OBS_Y, phi_one),
    )


def velocity_functional(m: AlgebraElement, field: VectorField, xi: OneForm) -> complex:
    """V(xi) = <K(m . xi), conj m>, the velocity of the state path.

    Satisfies d/dt phi(a) = V(da) along coupled trajectories whose K meets
    the reality condition.
    """
    return inner_product(apply_vf(field, left_multiply_form(m, xi)), m)


# Coupled flat systems -----------------------------------------------------

def zn_coupled_rhs(n: int) -> Callable[[float, np.ndarray], np.ndarray]:
    """Flat RHS for the coupled (K_+, K_-, m) Z_n system; b is computed once per call.

    ``_zn_system`` written with ufunc ``out=`` calls, so a call allocates
    nothing but its result, which stays fresh because rk4 still reads a
    stage after computing the next.  K_+, K_-, m and beta are copied into ghost-padded
    scratch of length n + 2 (entry 0 holds site n - 1, entry n + 1 site 0),
    so every neighbour R_{+-1} is a slice view, not a gather.  Each
    operation keeps ``_zn_system``'s association and operand order: numpy's
    complex multiply uses FMA, so ``a * b`` and ``b * a`` can differ in the
    last bit, and the result is byte-identical to ``_zn_system``'s.  The
    scratch is shared by every call, so one closure serves one integration
    at a time.
    """
    ghost = np.empty((3, n + 2), dtype=np.complex128)  # rows K_+, K_-, m
    beta_g = np.empty(n + 2, dtype=np.complex128)
    work = np.empty(n, dtype=np.complex128)
    (kp, km, m), beta = ghost[:, 1:-1], beta_g[1:-1]
    kp_up, km_down, m_up, m_down = ghost[0, 2:], ghost[1, :-2], ghost[2, 2:], ghost[2, :-2]
    beta_up, beta_down = beta_g[2:], beta_g[:-2]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        ghost[:, 1:-1] = y.view(np.complex128).reshape(3, n)
        ghost[:, 0] = ghost[:, n]
        ghost[:, -1] = ghost[:, 1]
        out = np.empty(3 * n, dtype=np.complex128)
        dkp, dkm, dm = out[:n], out[n : 2 * n], out[2 * n :]
        # beta = 0.5 * (kp + kp_up + km + km_down)
        np.add(kp, kp_up, out=beta)
        np.add(beta, km, out=beta)
        np.add(beta, km_down, out=beta)
        np.multiply(0.5, beta, out=beta)
        beta_g[0] = beta[-1]
        beta_g[-1] = beta[0]
        # dK_+ = kp * (beta_down - beta), dK_- = km * (beta_up - beta)
        np.subtract(beta_down, beta, out=dkp)
        np.multiply(kp, dkp, out=dkp)
        np.subtract(beta_up, beta, out=dkm)
        np.multiply(km, dkm, out=dkm)
        # dm = kp * m_down + km * m_up - beta * m
        np.multiply(kp, m_down, out=dm)
        np.multiply(km, m_up, out=work)
        np.add(dm, work, out=dm)
        np.multiply(beta, m, out=work)
        np.subtract(dm, work, out=dm)
        return out.view(np.float64)

    return rhs


def _m2_rates(t: float, y: list) -> list:
    """The coupled M2 right-hand side on the twelve Python complex entries of (K1, K2, m)."""
    return _m2_system(*y)


def m2_coupled_rhs() -> Callable[[float, np.ndarray], np.ndarray]:
    """Flat RHS for the coupled (K1, K2, m) M2 system."""
    return array_rhs(_m2_rates)


def _as_complex(value, shape) -> np.ndarray:
    arr = np.asarray(getattr(value, "samples", getattr(value, "entries", value)), dtype=np.complex128)
    return arr.reshape(shape)


def pack_zn_state(k_plus, k_minus, m) -> np.ndarray:
    return pack_complex(k_plus, k_minus, m)


def pack_m2_state(k1, k2, m) -> np.ndarray:
    return pack_complex(k1, k2, m)


# Decoded runs -------------------------------------------------------------

@dataclass(frozen=True)
class ZnRun:
    """Sampled coupled Z_n trajectory; rows are time samples."""

    times: np.ndarray
    k_plus: np.ndarray   # (T, n) complex
    k_minus: np.ndarray  # (T, n) complex
    m: np.ndarray        # (T, n) complex
    trajectory: Trajectory

    @classmethod
    def of(cls, traj: Trajectory) -> ZnRun:
        """Decode a trajectory of packed ``(K_+, K_-, m)`` states."""
        k_plus, k_minus, m = np.split(traj.states.view(np.complex128), 3, axis=1)
        return cls(traj.times, k_plus, k_minus, m, traj)

    @property
    def n(self) -> int:
        return self.k_plus.shape[1]

    def reality_abs(self) -> np.ndarray:
        return np.abs(self.k_minus + self.k_plus.conj()[:, _shift_indices(self.n, 1)])

    def braiding_abs(self) -> np.ndarray:
        kp, km, n = self.k_plus, self.k_minus, self.n
        return np.abs(km * kp[:, _shift_indices(n, 1)] - km[:, _shift_indices(n, -1)] * kp)

    def k_plus_moduli(self) -> np.ndarray:
        return np.abs(self.k_plus)

    def k_minus_moduli(self) -> np.ndarray:
        return np.abs(self.k_minus)

    def phi_sites(self) -> np.ndarray:
        """phi(delta_i) = |m(i)|^2 per site."""
        return np.abs(self.m) ** 2

    def phi_cumulative(self) -> np.ndarray:
        return np.cumsum(self.phi_sites(), axis=1)

    def phi_one(self) -> np.ndarray:
        return self.phi_sites().sum(axis=1)


@dataclass(frozen=True)
class M2Run:
    """Sampled coupled M2 trajectory; matrices are (T, 2, 2)."""

    times: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    m: np.ndarray
    trajectory: Trajectory

    @classmethod
    def of(cls, traj: Trajectory) -> M2Run:
        """Decode a trajectory of packed ``(K1, K2, m)`` states."""
        blocks = traj.states.view(np.complex128).reshape(-1, 3, 2, 2)
        return cls(traj.times, blocks[:, 0], blocks[:, 1], blocks[:, 2], traj)

    @cached_property
    def commutator(self) -> np.ndarray:
        """[K1, K2] per sample, (T, 2, 2); the braiding residual of M2."""
        return self.k1 @ self.k2 - self.k2 @ self.k1

    def reality_fro(self) -> np.ndarray:
        return np.linalg.norm(self.k1.conj().swapaxes(1, 2) + self.k2, axis=(1, 2))

    def braiding_fro(self) -> np.ndarray:
        return np.linalg.norm(self.commutator, axis=(1, 2))

    def phi_one(self) -> np.ndarray:
        """phi(1) = tr(m m^*) per sample."""
        return (self.m.real ** 2 + self.m.imag ** 2).sum(axis=(1, 2))

    def bloch_series(self) -> np.ndarray:
        """(s, x, y) per sample, from phi(a) = tr(a G) with the Gram matrix G = m^* m."""
        col0, col1 = self.m[:, :, 0], self.m[:, :, 1]
        g01 = (col0.conj() * col1).sum(axis=1)
        s = 0.5 * ((np.abs(col1) ** 2).sum(axis=1) - (np.abs(col0) ** 2).sum(axis=1))
        return np.column_stack([s, g01.real, -g01.imag])


def run_zn(
    k_plus,
    k_minus,
    m,
    *,
    t_end: float = 10.0,
    h: float = 1e-3,
    stride: int = 10,
    method: str = "rk4",
) -> ZnRun:
    """Integrate the coupled Z_n system from the given initial data."""
    kp0 = _as_complex(k_plus, (-1,))
    km0 = _as_complex(k_minus, (-1,))
    m0 = _as_complex(m, (-1,))
    n = kp0.shape[0]
    if km0.shape[0] != n or m0.shape[0] != n:
        raise ValueError("k_plus, k_minus and m must have the same length")
    if not n:
        raise ValueError("a Z_n run needs at least one site")
    y0 = pack_zn_state(kp0, km0, m0)
    if n < ZN_SCALAR_CROSSOVER:
        traj = integrate(_zn_site_rates(n), y0, t_end, h=h, stride=stride, method=method, scalars=complex)
    else:
        traj = integrate(zn_coupled_rhs(n), y0, t_end, h=h, stride=stride, method=method)
    return ZnRun.of(traj)


def run_m2(
    k1,
    k2,
    m,
    *,
    t_end: float = 10.0,
    h: float = 1e-3,
    stride: int = 10,
    method: str = "rk4",
) -> M2Run:
    """Integrate the coupled M2 system from the given initial data."""
    k10 = _as_complex(k1, (2, 2))
    k20 = _as_complex(k2, (2, 2))
    m0 = _as_complex(m, (2, 2))
    y0 = pack_m2_state(k10, k20, m0)
    traj = integrate(_m2_rates, y0, t_end, h=h, stride=stride, method=method, scalars=complex)
    return M2Run.of(traj)
