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

Each algebra's equations are written once: b (through
``beta = b + K_+ + K_-`` on Z_n), the velocity flow dK/dt and the
transport dm/dt.  The paper's Z_n transport
``dm/dt = -m b - K_+ (m - R_{-1}m) - K_- (m - R_{+1}m)`` is evaluated as
``dm/dt = K_+ R_{-1}m + K_- R_{+1}m - beta m``: C(Z_n) is commutative, so
the ``K_+ m`` and ``K_- m`` terms cancel against those of ``-m b``.  On Z_n
the equations are four elementwise functions,
``_zn_beta`` (beta at a site from its four neighbours) and the three
rates ``_zn_dkp``, ``_zn_dkm`` and ``_zn_dm``, and they come in two
forms: ``_zn_system`` calls each once on the gathered sample arrays of
(K_+, K_-, m), and ``_zn_sites`` calls each once per site on Python
complex scalars, which is cheaper below ``transport.ZN_SCALAR_CROSSOVER``
sites.  ``_m2_system`` works on the twelve Python complex entries of
(K1, K2, m).  ``solve_b`` here, ``flow.zn_rhs`` / ``flow.m2_rhs``,
``transport.zn_transport_rhs`` / ``transport.m2_transport_rhs`` and
``transport.m2_coupled_rhs`` are wrappers over them;
``transport.zn_coupled_rhs`` restates ``_zn_system`` on reused buffers
and is tested byte for byte against it.
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


# Kernels shared with the integrator hot path (flow / transport).

def _zn_beta(kp, kp_up, km, km_down):
    """``beta = b + K_+ + K_- = (K_+ + R_{+1}K_+ + K_- + R_{-1}K_-) / 2`` at a site.

    Like the three rates below it is elementwise: the arguments are the
    values at one site and at its neighbours, as scalars or as gathered
    arrays.
    """
    return 0.5 * (kp + kp_up + km + km_down)


def _zn_dkp(kp, beta, beta_down):
    """``dK_+ = K_+ (R_{-1}beta - beta)``."""
    return kp * (beta_down - beta)


def _zn_dkm(km, beta, beta_up):
    """``dK_- = K_- (R_{+1}beta - beta)``."""
    return km * (beta_up - beta)


def _zn_dm(kp, km, m, beta, m_up, m_down):
    """``dm = -m b - K_+ (m - R_{-1}m) - K_- (m - R_{+1}m) = K_+ R_{-1}m + K_- R_{+1}m - beta m``.

    C(Z_n) is commutative and ``b = beta - K_+ - K_-``, so the ``K_+ m`` and
    ``K_- m`` terms cancel.
    """
    return kp * m_down + km * m_up - beta * m


def _zn_system(kp: np.ndarray, km: np.ndarray, m: np.ndarray):
    """Coupled Z_n right-hand side on the sample arrays of K_+, K_- and m.

    Each rate gathers its neighbours in its own call: holding all four
    gathers at once measurably slows large n (the allocator returns and
    refetches the extra memory on every call).
    """
    n = kp.shape[0]
    up, down = _shift_indices(n, 1), _shift_indices(n, -1)
    beta = _zn_beta(kp, kp[up], km, km[down])
    return _zn_dkp(kp, beta, beta[down]), _zn_dkm(km, beta, beta[up]), _zn_dm(kp, km, m, beta, m[up], m[down])


def _zn_sites(kp: list, km: list, m: list) -> list:
    """``_zn_system`` site by site on lists of Python complex scalars.

    Returns the rates of K_+, K_- and m as one flat list, in that order.
    """
    beta = list(map(_zn_beta, kp, kp[1:] + kp[:1], km, km[-1:] + km[:-1]))
    return [
        *map(_zn_dkp, kp, beta, beta[-1:] + beta[:-1]),
        *map(_zn_dkm, km, beta, beta[1:] + beta[:1]),
        *map(_zn_dm, kp, km, m, beta, m[1:] + m[:1], m[-1:] + m[:-1]),
    ]


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

