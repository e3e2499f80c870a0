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
  Both regroup exactly around ``A = b + K1 E12 + K2 E21 = B / 2 =
  [[w, h1], [h2, w]]``, with ``h_i = tr K_i / 2`` and ``w = (c1 + b2) / 2``
  (``c1`` and ``b2`` the off-diagonal entries of K1 and K2): ``dK_i/dt =
  [K_i, H]`` with ``H = [[0, h1], [h2, 0]]``, and ``dm/dt = -A m + K1 m
  E12 + K2 m E21``, which is how every M2 kernel evaluates them.

C(Z_n) is commutative, so the ``K_+ m`` and ``K_- m`` terms of the Z_n
transport cancel against those of ``-m b`` and every Z_n kernel evaluates
``dm/dt = K_+ R_{-1}m + K_- R_{+1}m - beta m``.

The classical limit of Z_n, as this package reads the paper's "motivated
from classical geometry".  Under reality, ``K_-(i) = -conj K_+(i+1)``,
so ``g_i = K_+(i) + K_-(i-1) = 2i Im K_+(i)``, beta at site i is
``(g_i + g_{i+1}) / 2`` and ``d log K_+(i)/dt = (g_{i-1} - g_{i+1}) / 2``
is imaginary.  So each ``|K_+(i)| = r_i`` stays constant, and the phases
``K_+(i) = r_i exp(i theta_i)`` obey ``theta_i' = r_{i-1} sin theta_{i-1}
- r_{i+1} sin theta_{i+1}``.  With ``r_i = r``, ``x = i/n`` and
``tau = 2t/n`` this is ``theta_tau + (r sin theta)_x = 0`` up to
O(1/n^2), so ``u = r cos theta = Re K_+`` solves the inviscid equation
``u_tau + u u_x = 0`` (the velocity-field equation on the flat line that
``classical`` integrates), and the state's density ``rho = n |m(i)|^2``
at ``x = (i + 1/2)/n`` solves the continuity equation ``rho_tau + (u
rho)_x = 0``.  Before the shock both hold at second order in 1/n; the
tests hold large Z_n runs to the characteristics solutions of the two
equations (Goodman and Lax, Comm. Pure Appl. Math. 41 (1988), on such
dispersive limits).

Each algebra's equations are written once.  On Z_n they are four
elementwise functions, ``_zn_beta`` (beta at a site from its four
neighbours) and the three rates ``_zn_dkp``, ``_zn_dkm`` and ``_zn_dm``.
``_zn_stage(n)`` applies each once per site to ``flow._Expr`` symbols,
which write the operations out as code: beta once per site, then the 3n
rates.  ``_zn_kernels(n)`` compiles that stage text, on first use, into
one compiled system (``flow._stage_kernels``): a straight-line
right-hand side on the 3n Python complex entries and a whole rk4 run
with the stage written out four times per step; below
``transport.ZN_SCALAR_CROSSOVER`` sites that is cheaper than arrays.  The
compiled source is made of site indices, fixed names and the ``repr`` of
the equations' float constants, so it performs the equations' operations
in their order.  ``_zn_array_stage`` is the one array form: it makes
the views of a ghost-padded layout of the packed state, three rows of
n + 2 complex entries whose pads hold the cyclically neighbouring
sites, and binds them to ``_zn_rates_of()``, the same four functions
applied to ``_Expr`` names of those views, whose expression trees are emitted
(``flow._array_rates``) as one ufunc call per operation, in the same
association and operand order, once per process: the emitted text names
only views, so it is the same at every n.  So the equations are written
once, with two backends.  ``_zn_arrays(n)`` is the
array system of Z_n from ``transport.ZN_SCALAR_CROSSOVER`` sites on, made
of that stage and layout by ``flow._array_system``, as burgers is: its
``rk4`` keeps its state and stage inputs in that layout and calls the
stage with no copy, its ``rk45`` is ``flow._dopri``, and its per-call
``rhs`` is ``zn_coupled_rhs(n)``, which rk45 and the element entry points
below call.  The tests hold the array form byte for byte to the four
functions called once each on gathered sample arrays.  On M2,
``_m2_temporaries`` (h1, h2, w, e1, e2, x1, x2) and ``_m2_system`` (the
twelve rates of (K1, K2, m)) make ``_m2_stage``, 50 operations, which
``_m2_kernels`` compiles the same way; ``m2_coupled_rhs()`` is its
per-call rhs on the packed float64 vector.

The element entry points are ``solve_b`` (b = -dm/dt at m = 1),
``zn_rhs`` / ``m2_rhs`` (dK/dt as a vector field) and
``zn_transport_rhs`` / ``m2_transport_rhs`` (dm/dt).  Each checks its
algebra and calls ``_coupled_rates``, the one place where elements are
packed for a per-call rhs (``zn_coupled_rhs`` or ``m2_coupled_rhs``); it
raises ``AlgebraMismatchError`` unless K and m are of one algebra and
group order.

``reality_residual`` and ``braiding_residual`` quantify how far K is from
satisfying the reality condition and from the braided compatibility
constraint that the flow preserves.  Both vanish on admissible initial
data and are monitored, not enforced, along trajectories.
"""

from __future__ import annotations

import functools

import numpy as np

from typing import Callable

from .algebra import I2, AlgebraElement, Mat2Element, ZnElement, commutator
from .calculus import VectorField
from .flow import _array_rates, _array_system, _assign, _Expr, _names, _stage_kernels, _System, pack_complex

__all__ = [
    "solve_b",
    "zn_rhs",
    "m2_rhs",
    "zn_transport_rhs",
    "m2_transport_rhs",
    "reality_residual",
    "braiding_residual",
    "zn_coupled_rhs",
    "m2_coupled_rhs",
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


@functools.cache
def _zn_rates_of():
    """The factory of the Z_n stage's ``rates(t)`` (``flow._array_rates``), emitted once per process.

    Its steps name only views, so the emitted text is the same at every n:
    the pad fill of (K_+, K_-, m), the four site functions applied to
    ``_Expr`` names of the views and the pad fill of beta between them.
    Each pad fill is one copy.
    """
    kp, km, m, kp_up, km_down, m_up, m_down, beta, beta_up, beta_down = map(
        _Expr, ("kp", "km", "m", "kp_up", "km_down", "m_up", "m_down", "beta", "beta_up", "beta_down"))
    return _array_rates([("ghost_pads", _Expr("ghost_sources")), ("beta", _zn_beta(kp, kp_up, km, km_down)),
                         ("beta_pads", _Expr("beta_sources")), ("dkp", _zn_dkp(kp, beta, beta_down)),
                         ("dkm", _zn_dkm(km, beta, beta_up)), ("dm", _zn_dm(kp, km, m, beta, m_up, m_down))],
                        ("work",), complex)


def _zn_array_stage(y: np.ndarray, k: np.ndarray):
    """The Z_n stage on arrays: ``rates(t)``, the rates at y written into k.

    y and k are float64 buffers of 6 (n + 2) floats, the ghost-padded
    layout of n sites of the packed state: three rows (K_+, K_-, m) of
    n + 2 complex entries, with the sites at entries 1..n, so every
    neighbour R_{+-1} is a slice view, not a gather.  The pads, entries 0
    and n + 1, hold the last and the first site, n - 1 and 0; where n = 1
    both pads hold that one site.  ``rates`` fills y's pads with one
    strided copy, writes beta into padded scratch of its own and fills
    its pads the same way, and then writes dK_+, dK_- and dm into the
    sites of k, leaving k's pads as they are; it returns nothing.  Its
    ufunc calls are those of ``_zn_rates_of()``, emitted once per process
    from the four site functions, so they keep the equations' association
    and operand order: numpy's complex multiply uses FMA, so ``a * b``
    and ``b * a`` can differ in the last bit, and the rates are
    byte-identical to the four functions called once each on gathered
    sample arrays.  Binding only makes views, with beta and work scratch
    of its own.
    """
    n = y.shape[0] // 6 - 2
    ghost = y.view(np.complex128).reshape(3, n + 2)
    beta = np.empty(n + 2, dtype=np.complex128)
    ends = slice(n, 0, 1 - n) if n > 1 else slice(1, 2)  # sites n - 1 and 0, entries n and 1
    (kp, km, m), (dkp, dkm, dm) = ghost[:, 1:-1], k.view(np.complex128).reshape(3, n + 2)[:, 1:-1]
    return _zn_rates_of()(
        ghost_pads=ghost[:, :: n + 1], ghost_sources=ghost[:, ends], beta_pads=beta[:: n + 1],
        beta_sources=beta[ends], kp=kp, km=km, m=m, kp_up=ghost[0, 2:], km_down=ghost[1, :-2], m_up=ghost[2, 2:],
        m_down=ghost[2, :-2], dkp=dkp, dkm=dkm, dm=dm, beta=beta[1:-1], beta_up=beta[2:], beta_down=beta[:-2],
        work=np.empty(n, dtype=np.complex128))


def zn_coupled_rhs(n: int) -> Callable[[float, np.ndarray], np.ndarray]:
    """Flat RHS for the coupled (K_+, K_-, m) Z_n system; b is computed once per call.

    The per-call ``rhs`` of ``_zn_arrays(n)``: each call copies y into a
    ghost-padded buffer, runs ``_zn_array_stage`` there and returns a
    fresh copy of the rates' sites.  One closure serves one integration
    at a time.
    """
    return _zn_arrays(n).rhs


def m2_coupled_rhs() -> Callable[[float, np.ndarray], np.ndarray]:
    """Flat RHS for the coupled (K1, K2, m) M2 system: the compiled scalar rhs on the packed float64 vector."""
    rhs = _m2_kernels().rhs
    return lambda t, y: np.array(rhs(t, y.view(np.complex128).tolist()), dtype=np.complex128).view(np.float64)


def _zn_arrays(n: int) -> _System:
    """The array system of Z_n (``flow._array_system``): ``_zn_array_stage`` in three rows with one complex pad.

    Its rk4 run (``flow._rk4_arrays``) keeps the state, the stage inputs
    and the rates in the stage's ghost-padded layout, three rows with one
    complex entry (two floats) of pad at each end, so a stage is one call
    and the rk4 combination copies nothing.
    """
    return _array_system(_zn_array_stage, (3, 2), 6 * n)


def _zn_stage(n: int, t: str, inputs: list, rates: list) -> list:
    """The stage of the Z_n system: beta once per site, then the rates of K_+, K_- and m, in that order."""
    kp, km, m = ([_Expr(name, scalars=complex) for name in inputs[j * n : (j + 1) * n]] for j in range(3))
    beta = [_Expr(f"beta{i}", scalars=complex) for i in range(n)]
    up = [(i + 1) % n for i in range(n)]  # R_{+1}; index i - 1 is R_{-1}
    return [*_assign(_names("beta", n), (_zn_beta(kp[i], kp[up[i]], km[i], km[i - 1]) for i in range(n))),
            *_assign(rates, [*(_zn_dkp(kp[i], beta[i], beta[i - 1]) for i in range(n)),
                             *(_zn_dkm(km[i], beta[i], beta[up[i]]) for i in range(n)),
                             *(_zn_dm(kp[i], km[i], m[i], beta[i], m[up[i]], m[i - 1]) for i in range(n))])]


@functools.lru_cache(maxsize=32)
def _zn_kernels(n: int):
    """The compiled system of Z_n on the 3n Python complex entries of (K_+, K_-, m).

    It is compiled once per n (``flow._stage_kernels``) from
    ``_zn_stage``, the four site equations applied to ``_Expr`` symbols:
    ``rhs(t, y)`` is the per-call right-hand side and ``rk4`` the fused rk4
    run.
    """
    return _stage_kernels(3 * n, functools.partial(_zn_stage, n), (), complex)


def _m2_temporaries(a1, b1, c1, d1, a2, b2, c2, d2, ma, mb, mc, md, h1, h2) -> dict:
    """The stage temporaries of ``_m2_system``, in the order they are assigned.

    ``h_i = tr K_i / 2``, ``w = (c1 + b2) / 2``, ``e_i = a_i - d_i`` and
    ``x_i = b_i h2 - c_i h1``, which reads h1 and h2, the names of the
    first two (on numbers, their values).
    """
    return {"h1": 0.5 * (a1 + d1), "h2": 0.5 * (a2 + d2), "w": 0.5 * (c1 + b2), "e1": a1 - d1, "e2": a2 - d2,
            "x1": b1 * h2 - c1 * h1, "x2": b2 * h2 - c2 * h1}


def _m2_system(a1, b1, c1, d1, a2, b2, c2, d2, ma, mb, mc, md, h1, h2, w, e1, e2, x1, x2):
    """Coupled M2 right-hand side on the row-major entries of K1, K2 and m and ``_m2_temporaries``.

    ``B = E12 K1 + E21 K2 + K1 E12 + K2 E21 = 2 [[w, h1], [h2, w]]`` and
    ``b = ([E12, K1] + [E21, K2]) / 2 = [[w - b2, h1 - a1], [h2 - d2, w - c1]]``.
    B's scalar diagonal drops out of ``[K_i, B]``, so ``dK_i = [K_i, B] / 2
    = [K_i, H]`` with ``H = [[0, h1], [h2, 0]]``, that is
    ``[[x_i, h1 e_i], [-(h2 e_i), -x_i]]``.  In ``dm = -b m - K1 [E12, m] -
    K2 [E21, m]`` the terms ``-K1 E12 m - K2 E21 m`` join ``-b m``, so
    ``dm = -A m + K1 m E12 + K2 m E21`` with ``A = b + K1 E12 + K2 E21 =
    B / 2``.  Returns the twelve entries of dK1, dK2 and dm as a list.
    """
    return [
        x1, h1 * e1, -(h2 * e1), -x1,
        x2, h1 * e2, -(h2 * e2), -x2,
        (a2 * mb + b2 * md) - (w * ma + h1 * mc),
        (a1 * ma + b1 * mc) - (w * mb + h1 * md),
        (c2 * mb + d2 * md) - (h2 * ma + w * mc),
        (c1 * ma + d1 * mc) - (h2 * mb + w * md),
    ]


def _m2_stage(t: str, inputs: list, rates: list) -> list:
    """The stage of the M2 system: the seven temporaries, then the twelve rates, each assigned once."""
    y = [_Expr(name, scalars=complex) for name in inputs]
    temporaries = _m2_temporaries(*y, *(_Expr(name, scalars=complex) for name in ("h1", "h2")))
    named = [_Expr(name, scalars=complex) for name in temporaries]
    return [*_assign(temporaries, temporaries.values()), *_assign(rates, _m2_system(*y, *named))]


@functools.lru_cache(maxsize=1)
def _m2_kernels():
    """The compiled system of M2 on the twelve Python complex entries of (K1, K2, m), from ``_m2_stage``.

    On Python complex scalars they are far cheaper than 2x2 numpy products.
    """
    return _stage_kernels(12, _m2_stage, (), complex)


def _coupled_rates(field: VectorField, m: AlgebraElement):
    """The data arrays of ``(dK1, dK2, dm)`` at (K, m); K and m must be of one algebra and group order."""
    field.k1._coerce(m)
    rhs = zn_coupled_rhs(m.n) if isinstance(m, ZnElement) else m2_coupled_rhs()
    y = pack_complex(field.k1._data, field.k2._data, m._data)
    return rhs(0.0, y).view(np.complex128).reshape(3, *m._data.shape)


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

