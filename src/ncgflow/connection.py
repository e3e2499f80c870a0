"""The coupled equations of the flow and the transport, and the connection data (b, K).

For a vector field K the inner product is preserved when two conditions
hold: the divergence condition, which pins the Hermitian part of b, and
the reality condition on K.  We always take the anti-Hermitian (gauge)
part of b to be zero, so b is fully determined by K:

* Z_n:   ``b = (R_{+1}K_+ - K_+ + R_{-1}K_- - K_-) / 2``
* M2(C): ``b = ([E12, K1] + [E21, K2]) / 2``

With b recomputed from K, the velocity flow of K and the transport of
the element m are

* Z_n, with ``beta = b + K_+ + K_-``:
  ``dK_+/dt = K_+ (R_{-1} beta - beta)``, ``dK_-/dt = K_- (R_{+1} beta - beta)``
  and ``dm/dt = -m b - K_+ (m - R_{-1}m) - K_- (m - R_{+1}m)``;
* M2(C), with ``B = E12 K1 + E21 K2 + K1 E12 + K2 E21``:
  ``dK_i/dt = [K_i, B] / 2`` and ``dm/dt = -b m - K1 [E12, m] - K2 [E21, m]``.

C(Z_n) is commutative, so the ``K_+ m`` and ``K_- m`` terms of the Z_n
transport cancel against those of ``-m b`` and every Z_n kernel evaluates
``dm/dt = K_+ R_{-1}m + K_- R_{+1}m - beta m``.

Each algebra's equations are written once.  On Z_n they are four
elementwise functions, ``_zn_beta`` (beta at a site from its four
neighbours) and the three rates ``_zn_dkp``, ``_zn_dkm`` and ``_zn_dm``,
in two forms: ``_zn_system`` calls each once on the gathered sample
arrays of (K_+, K_-, m), and ``_zn_sites`` calls each once per site on
Python complex scalars, which is cheaper below
``transport.ZN_SCALAR_CROSSOVER`` sites.  ``_m2_system`` works on the
twelve Python complex entries of (K1, K2, m).  ``transport.zn_coupled_rhs``
restates ``_zn_system`` on reused buffers and is tested byte for byte
against it.

The element entry points are ``solve_b`` (b = -dm/dt at m = 1),
``zn_rhs`` / ``m2_rhs`` (dK/dt as a vector field) and
``zn_transport_rhs`` / ``m2_transport_rhs`` (dm/dt).  Each checks its
algebra and calls ``_coupled_rates``, the one place where elements are
unpacked into the kernels.

``reality_residual`` and ``braiding_residual`` quantify how far K is from
satisfying the reality condition and from the braided compatibility
constraint that the flow preserves.  Both vanish on admissible initial
data and are monitored, not enforced, along trajectories.
"""

from __future__ import annotations

import numpy as np

from .algebra import I2, AlgebraElement, Mat2Element, ZnElement, _shift_indices, commutator
from .calculus import VectorField, apply_vf, d

__all__ = [
    "solve_b",
    "zn_rhs",
    "m2_rhs",
    "zn_transport_rhs",
    "m2_transport_rhs",
    "reality_residual",
    "braiding_residual",
    "divergence_pairing",
]


# Kernels shared with the integrator hot path (transport).

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

    The array reference: the element entry points call it, and
    ``transport.zn_coupled_rhs``, which steps every run of
    ``transport.ZN_SCALAR_CROSSOVER`` sites or more, is tested byte for
    byte against it.
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


def _coupled_rates(field: VectorField, m: AlgebraElement):
    """The data arrays of ``(dK1, dK2, dm)`` at (K, m); K and m must be of one algebra."""
    if isinstance(m, ZnElement):
        return _zn_system(field.k1.samples, field.k2.samples, m.samples)
    entries = np.concatenate((field.k1.entries, field.k2.entries, m.entries)).ravel().tolist()
    return np.array(_m2_system(*entries)).reshape(3, 2, 2)


def solve_b(field: VectorField) -> AlgebraElement:
    """The b with zero gauge part satisfying the divergence condition."""
    # The unit commutes with the generators, so dm/dt = -b at m = 1.
    unit = ZnElement.ones(field.k1.n) if isinstance(field.k1, ZnElement) else I2
    return type(unit)(-_coupled_rates(field, unit)[2])


def zn_rhs(field: VectorField) -> VectorField:
    """Time derivative of the Z_n vector field (b recomputed from K)."""
    if not isinstance(field.k1, ZnElement):
        raise TypeError("zn_rhs expects a Z_n vector field")
    dkp, dkm, _ = _coupled_rates(field, ZnElement.zeros(field.k1.n))
    return VectorField(ZnElement(dkp), ZnElement(dkm))


def m2_rhs(field: VectorField) -> VectorField:
    """Time derivative of the M2 vector field ``[K_i, B]/2``."""
    if not isinstance(field.k1, Mat2Element):
        raise TypeError("m2_rhs expects an M2 vector field")
    dk1, dk2, _ = _coupled_rates(field, Mat2Element.zeros())
    return VectorField(Mat2Element(dk1), Mat2Element(dk2))


def zn_transport_rhs(m: ZnElement, field: VectorField) -> ZnElement:
    """dm/dt for Z_n transport."""
    if not isinstance(m, ZnElement):
        raise TypeError("zn_transport_rhs expects a ZnElement")
    return ZnElement(_coupled_rates(field, m)[2])


def m2_transport_rhs(m: Mat2Element, field: VectorField) -> Mat2Element:
    """dm/dt for M2 transport."""
    if not isinstance(m, Mat2Element):
        raise TypeError("m2_transport_rhs expects a Mat2Element")
    return Mat2Element(_coupled_rates(field, m)[2])


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

