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
element-level entry points and the per-call right-hand sides on the
packed vector, ``zn_coupled_rhs`` (of the Z_n array system) and
``m2_coupled_rhs`` (of the compiled M2 system), which this module
re-exports.
Both Z_n forms come from the same four site equations: compiled on
scalars, or emitted as ufunc calls on arrays (``flow._array_rates``).

``flow.integrate`` steps these systems, each in its own form.
M2 always runs on Python complex scalars, as the compiled system
``connection._m2_kernels()``.  Z_n runs on scalars below
``ZN_SCALAR_CROSSOVER`` sites, as ``connection._zn_kernels(n)``, and on
sample arrays from there on, as the array system
``connection._zn_arrays(n)`` (``flow._array_system``, which makes the
burgers system too).  Either system goes to ``integrate`` as
``system=``, with its per-call right-hand side as f (rk45 calls it), and
``integrate`` calls the system's own rk4 or rk45 run: the compiled
system's rk4 is its fused run, with the equations written out in the
loop, and the array system's steps the state in the array stage's
ghost-padded layout and calls f only for the first stage.
Between the two Z_n forms, the cost of the scalar
form grows with n while that of the array form is nearly flat at small n;
the constant was set where a whole rk4 run cost the same in both, and the
array form now breaks even a few sites lower (see the constant).  A Z_n
run needs at least one site.  Either way the state handed to
``integrate`` is the packed float64 vector of ``pack_zn_state`` /
``pack_m2_state``, so a wrapper of ``integrate`` reads the same ``y0``
(the benchmark's tracer names a Z_n right-hand side by ``len(y0) // 6``).

``ZnRun`` and ``M2Run`` are built from a ``Trajectory`` of packed states
(``ZnRun.of``, ``M2Run.of``) and compute their residual and state series
as array expressions over the leading time axis; ``cli`` applies the same
series to a one-sample trajectory of the initial data for its checks.  The
element functions (``reality_residual``, ``braiding_residual`` and
``state_eval``, which gives the Bloch coordinates above) are the
per-sample reference they are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraElement, _shift_indices, inner_product
from .calculus import OneForm, VectorField, apply_vf, left_multiply_form
from .connection import _m2_kernels, _zn_arrays, _zn_kernels, m2_coupled_rhs, zn_coupled_rhs
# The residual functions stay in this namespace: perfbench/spans.py wraps them here.
from .connection import braiding_residual, reality_residual  # noqa: F401
from .flow import Trajectory, integrate, pack_complex

__all__ = [
    "state_eval",
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
# docstring).  A whole rk4 run (t_end 0.3, h 1e-3, stride 10) of the fused
# scalar system costs, against one of the array system stepped in its padded
# layout, 1.01-1.03x at 10 sites, 1.16-1.25x at 12, 1.42x at 14, 1.61-1.65x
# at 16, 1.83-1.85x at 18, 1.99-2.10x at 20 and 2.42-2.48x at 24 (fastest
# runs of 21-31 pairs in one process per checkout, 2-vCPU Xeon in its fast
# phase; in its slow phase the array run slows more, and the scalar run costs
# 0.70x at 10 and 0.86x at 12); rk4 breaks even near 10 sites, and rk45 runs
# (t_end 3: 0.88x at 10, 1.07x at 12, 1.37x at 18) near 11.  Lowering the
# constant moves the outputs of the sizes in between by round-off.  At most
# 43, so that a scalar Z_n state fits flow.MAX_SCALAR_STATE.
ZN_SCALAR_CROSSOVER = 18


def state_eval(m: AlgebraElement, a: AlgebraElement) -> complex:
    """The positive map ``phi(a) = <m a, conj m> = integral(m a m^*)``."""
    return (m * a * m.star()).integral()


def velocity_functional(m: AlgebraElement, field: VectorField, xi: OneForm) -> complex:
    """V(xi) = <K(m . xi), conj m>, the velocity of the state path.

    Satisfies d/dt phi(a) = V(da) along coupled trajectories whose K meets
    the reality condition.
    """
    return inner_product(apply_vf(field, left_multiply_form(m, xi)), m)


# Packed states ------------------------------------------------------------

def _as_complex(value, shape) -> np.ndarray:
    return np.asarray(value, dtype=np.complex128).reshape(shape)


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

    @cached_property
    def _phi(self) -> np.ndarray:
        """|m(i)|^2 per sample and site, evaluated once per run."""
        return np.abs(self.m) ** 2

    def phi_sites(self) -> np.ndarray:
        """phi(delta_i) = |m(i)|^2 per site: the run's one array, which callers must not write into."""
        return self._phi

    def phi_cumulative(self) -> np.ndarray:
        return np.cumsum(self._phi, axis=1)

    def phi_one(self) -> np.ndarray:
        return self._phi.sum(axis=1)


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
    system = _zn_kernels(n) if n < ZN_SCALAR_CROSSOVER else _zn_arrays(n)
    return ZnRun.of(integrate(system.rhs, y0, t_end, h=h, stride=stride, method=method, system=system))


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
    system = _m2_kernels()
    return M2Run.of(integrate(system.rhs, y0, t_end, h=h, stride=stride, method=method, system=system))
