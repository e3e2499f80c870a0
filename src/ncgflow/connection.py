"""Connection data (b, K) for the transport bimodule, and its residuals.

For a vector field K the inner product is preserved when two conditions
hold: the divergence condition, which pins the Hermitian part of b, and
the reality condition on K.  We always take the anti-Hermitian (gauge)
part of b to be zero, so b is fully determined by K:

* Z_n:   ``b = (R_{+1}K_+ - K_+ + R_{-1}K_- - K_-) / 2``
* M2(C): ``b = ([E12, K1] + [E21, K2]) / 2``

``reality_residual`` and ``braiding_residual`` quantify how far K is from
satisfying the reality condition and from the braided compatibility
constraint that the flow preserves.  Both vanish on admissible initial
data and are monitored, not enforced, along trajectories.

Each algebra's equations are written once, as one kernel: b (through
``beta = b + K_+ + K_-`` on Z_n), the velocity flow dK/dt and the
transport dm/dt.  ``_zn_system`` works on the sample arrays of
(K_+, K_-, m); ``_m2_system`` on the twelve Python complex entries of
(K1, K2, m).  ``solve_b`` here, ``flow.zn_rhs`` / ``flow.m2_rhs``,
``transport.zn_transport_rhs`` / ``transport.m2_transport_rhs`` and the
coupled ``transport.zn_coupled_rhs`` / ``transport.m2_coupled_rhs`` are
wrappers over them.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, Mat2Element, ZnElement, _shift_indices, commutator
from .calculus import VectorField, apply_vf, d

__all__ = [
    "solve_b",
    "reality_residual",
    "braiding_residual",
    "divergence_pairing",
]


# Array kernels shared with the integrator hot path (flow / transport).

def _zn_system(kp: np.ndarray, km: np.ndarray, m: np.ndarray):
    """Coupled Z_n right-hand side on the samples of K_+, K_- and m.

    ``beta = b + K_+ + K_- = (K_+ + R_{+1}K_+ + K_- + R_{-1}K_-) / 2``.
    Returns ``dK_+ = K_+ (R_{-1}beta - beta)``, ``dK_- = K_- (R_{+1}beta - beta)``
    and ``dm = -m b - K_+ (m - R_{-1}m) - K_- (m - R_{+1}m)``.  One
    statement per equation: a single tuple expression of the same
    arithmetic is measurably slower at large n.
    """
    n = kp.shape[0]
    up, down = _shift_indices(n, 1), _shift_indices(n, -1)
    beta = 0.5 * (kp + kp[up] + km + km[down])
    dkp = kp * (beta[down] - beta)
    dkm = km * (beta[up] - beta)
    dm = -m * (beta - kp - km) - kp * (m - m[down]) - km * (m - m[up])
    return dkp, dkm, dm


def _m2_system(a1, b1, c1, d1, a2, b2, c2, d2, ma, mb, mc, md):
    """Coupled M2 right-hand side on the row-major entries of K1, K2 and m.

    ``B = E12 K1 + E21 K2 + K1 E12 + K2 E21 = [[s, t1], [t2, s]]`` with
    ``t_i = tr K_i``; its scalar diagonal s drops out of ``[K_i, B]``.
    ``b = ([E12, K1] + [E21, K2]) / 2 = [[p, q], [r, -p]]``.  Returns the
    twelve entries of ``dK1 = [K1, B]/2``, ``dK2 = [K2, B]/2`` and
    ``dm = -b m - K1 [E12, m] - K2 [E21, m]`` as a list.  Works on Python
    complex scalars, where it is far cheaper than 2x2 numpy products.
    """
    t1 = a1 + d1
    t2 = a2 + d2
    p = 0.5 * (c1 - b2)
    q = 0.5 * (d1 - a1)
    r = 0.5 * (a2 - d2)
    u = ma - md
    return [
        0.5 * (b1 * t2 - c1 * t1),
        0.5 * (t1 * (a1 - d1)),
        0.5 * (t2 * (d1 - a1)),
        0.5 * (c1 * t1 - b1 * t2),
        0.5 * (b2 * t2 - c2 * t1),
        0.5 * (t1 * (a2 - d2)),
        0.5 * (t2 * (d2 - a2)),
        0.5 * (c2 * t1 - b2 * t2),
        -(p * ma + q * mc) - a1 * mc + a2 * mb - b2 * u,
        -(p * mb + q * md) + a1 * u + b1 * mc - b2 * mb,
        -(r * ma - p * mc) - c1 * mc + c2 * mb - d2 * u,
        -(r * mb - p * md) + c1 * u + d1 * mc - d2 * mb,
    ]


def solve_b(field: VectorField) -> AlgebraElement:
    """The b with zero gauge part satisfying the divergence condition."""
    # The unit commutes with the generators, so dm/dt = -b at m = 1.
    if isinstance(field.k1, ZnElement):
        return ZnElement(-_zn_system(field.k1.samples, field.k2.samples, np.ones(field.k1.n, complex))[2])
    dm = _m2_system(*field.k1.entries.ravel().tolist(), *field.k2.entries.ravel().tolist(), 1, 0, 0, 1)[8:]
    return Mat2Element([[-dm[0], -dm[1]], [-dm[2], -dm[3]]])


def reality_residual(field: VectorField) -> AlgebraElement:
    """Deviation of K from the reality condition; zero iff K is real.

    Z_n: ``rho(i) = K_-(i) + K_+(i+1)^*``; M2: ``rho = K1^* + K2``.
    """
    if isinstance(field.k1, ZnElement):
        return field.k2 + field.k1.star().shift(+1)
    return field.k1.star() + field.k2


def braiding_residual(field: VectorField) -> AlgebraElement:
    """Defect of the braided compatibility constraint.

    Z_n: ``G(i) = K_-(i) K_+(i+1) - K_-(i-1) K_+(i)``; M2: ``[K1, K2]``.
    """
    if isinstance(field.k1, ZnElement):
        return field.k2 * field.k1.shift(+1) - field.k2.shift(-1) * field.k1
    return commutator(field.k1, field.k2)


def divergence_pairing(field: VectorField, b: AlgebraElement, a: AlgebraElement) -> complex:
    """integral(b*a + K(da) + a*b^*); zero for every a iff (b, K) satisfies the divergence condition."""
    return (b * a + apply_vf(field, d(a)) + a * b.star()).integral()

