"""Classical cross-checks: geodesics with Christoffel symbols and the
velocity-field equation on a periodic 1-d grid.

A geodesic solves the standard second-order system

    ``dx/dt = v,   dv^i/dt = -Gamma^i_jk(x) v^j v^k``

and ``pullback_geodesic_check`` measures, by second-order finite
differences, how far a sampled curve is from solving it.  A manifold is
given by a ``ChristoffelProvider``: its nonzero index triples ``(i, j, k)``,
their ``Gamma^i_jk`` and its metric, each written once as an elementwise
function of x.  ``_geodesic_system`` contracts
``ChristoffelProvider.symbols(x)``, the list of ``(i, j, k,
Gamma^i_jk(x))``, with v in one scalar loop, and the check applies the
same contraction to the sampled coordinate columns;
``integrate_geodesic`` steps that system applied once to
``flow._Expr`` symbols (``_geodesic_stage``), so the symbols are written
into the stage, compiled once per provider, on first use, into a compiled
system (``flow._stage_kernels``): a straight-line right-hand side and a
fused rk4 run that compute the sin and cos of the stage's x once and call
nothing else.  ``GeodesicRun.speeds_squared`` applies the metric to the
sampled coordinate columns at once; ``speed_squared`` is its per-point
reference.

On the line the velocity-field equation reduces to an inviscid transport
equation, ``dK/dt = -K K' - Gamma K^2``.  The line here is flat, Gamma = 0,
so ``integrate_burgers`` steps ``dK/dt = -K K'`` on a periodic grid over
[0, 2pi); it is integrated only in the smooth pre-shock regime and checked
against the method of characteristics in the tests.  The stencil is
written once, as the elementwise ``_derivative`` of a sample's
neighbours.  ``spatial_derivative``, the public reference, applies it to
gathered arrays.  The stage (``_burgers_stage``) applies
``-K _derivative(...)`` to ``flow._Expr`` names of views of a
ghost-padded layout whose pads hold the other end of the grid, so every
shift is a slice view, and emits its expression tree, after the two pad
copies, as ufunc calls (``flow._array_rates``), byte for byte the
reference.
``integrate_burgers`` steps the array system of that stage
(``flow._array_system``), as ``transport`` steps Z_n, so an rk4 run steps
the state in place in that layout, with no gather and no allocation per
stage.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import _shift_indices
from .flow import _array_rates, _array_system, _assign, _Expr, _stage_kernels, cos, integrate, sin

__all__ = [
    "ChristoffelProvider",
    "flat_space",
    "round_sphere",
    "speed_squared",
    "GeodesicRun",
    "integrate_geodesic",
    "GridField",
    "sine_field",
    "spatial_derivative",
    "BurgersRun",
    "integrate_burgers",
    "pullback_geodesic_check",
]

GRID_SPAN = 2.0 * math.pi


Symbols = list[tuple[int, int, int, float]]


@dataclass(frozen=True)
class ChristoffelProvider:
    """Christoffel symbols of a chart, plus its metric for speed checks, as elementwise functions of x.

    ``triples`` are the ``(i, j, k)`` of the symbols that may be nonzero,
    in lexicographic order, and ``gammas(x)`` returns their
    ``Gamma^i_jk(x)`` in that order; ``metric(x)`` returns the rows of
    g(x).  Both are written once, with ``flow.sin`` and ``flow.cos``, so
    they apply to a point (a sequence of floats), to a sequence of
    coordinate arrays (one value per sample) and to ``flow._Expr`` names
    (the compiled stage).  Providers holding the same functions are equal
    and share one compiled system (``_geodesic_rates``).
    """

    dim: int
    triples: tuple[tuple[int, int, int], ...]
    gammas: Callable[[Sequence], Sequence]
    metric: Callable[[Sequence], Sequence[Sequence]]

    def symbols(self, x) -> Symbols:
        """The ``(i, j, k, Gamma^i_jk(x))`` of the triples."""
        return [(i, j, k, g) for (i, j, k), g in zip(self.triples, self.gammas(x))]


def _no_symbols(x) -> tuple:
    return ()


def _flat_metric(x) -> list:
    return [[1.0 if i == j else 0.0 for j in range(len(x))] for i in range(len(x))]


def flat_space(dim: int = 2) -> ChristoffelProvider:
    return ChristoffelProvider(dim, (), _no_symbols, _flat_metric)


def _sphere_gammas(x) -> tuple:
    """Gamma^0_11 = -sin cos and Gamma^1_01 = Gamma^1_10 = cot of the unit sphere at x = (theta, phi)."""
    s, c = sin(x[0]), cos(x[0])
    return -s * c, c / s, c / s


def _sphere_metric(x) -> tuple:
    s = sin(x[0])
    return (1.0, 0.0), (0.0, s * s)


def round_sphere() -> ChristoffelProvider:
    """Unit 2-sphere in (theta, phi) coordinates."""
    return ChristoffelProvider(2, ((0, 1, 1), (1, 0, 1), (1, 1, 0)), _sphere_gammas, _sphere_metric)


def _add_christoffel_term(acc: list, symbols: Symbols, v: Sequence[float]) -> list:
    """``acc[i] += Gamma^i_jk v^j v^k`` over the symbols, in place; returns acc."""
    for i, j, k, g in symbols:
        acc[i] += g * v[j] * v[k]
    return acc


def _geodesic_system(y: list, dim: int, symbols: Symbols) -> list:
    """(dx/dt, dv/dt) of the state y = x + v as one list, with the symbols at x."""
    v = y[dim:]
    acc = _add_christoffel_term([0.0] * dim, symbols, v)
    return v + [-a for a in acc]


def _geodesic_stage(provider: ChristoffelProvider, t: str, inputs: list, rates: list) -> list:
    """The stage of ``_geodesic_system``, with the provider's symbols written out on the stage's x.

    The sin and cos of each coordinate that the symbols read are computed
    once per stage (``flow._assign``).  A stage that leaves the chart (a
    ValueError or ZeroDivisionError: sin(inf), or a pole of the sphere)
    sets every rate to nan, so the integrator reports a blow-up.
    """
    y = [_Expr(name) for name in inputs]
    lines = _assign(rates, _geodesic_system(y, provider.dim, provider.symbols(y[: provider.dim])))
    return ["try:", *("    " + line for line in lines), "except (ValueError, ZeroDivisionError):",
            f"    {' = '.join(rates)} = nan"]


@functools.lru_cache(maxsize=16)
def _geodesic_rates(provider: ChristoffelProvider):
    """The compiled system of ``_geodesic_system``, once per provider, from ``_geodesic_stage``.

    ``rhs(t, y)`` is the per-call right-hand side and
    ``rk4(f, y, h, n_steps, stride, out)`` the fused rk4 run; every
    ``round_sphere()`` (and every ``flat_space`` of one dimension) is one
    provider.  More than ``flow.MAX_SCALAR_STATE / 2`` components are
    refused before anything is compiled or cached.
    """
    return _stage_kernels(2 * provider.dim, functools.partial(_geodesic_stage, provider), (), float)


def speed_squared(x, v, provider: ChristoffelProvider) -> float:
    """``v . g(x) v`` at one point: the per-point reference of ``GeodesicRun.speeds_squared``."""
    v = np.asarray(v, dtype=np.float64)
    g = np.array(provider.metric(np.asarray(x, dtype=np.float64)), dtype=np.float64)
    return float(v @ g @ v)


@dataclass(frozen=True)
class GeodesicRun:
    times: np.ndarray
    xs: np.ndarray  # (T, dim)
    vs: np.ndarray  # (T, dim)
    provider: ChristoffelProvider

    def speeds_squared(self) -> np.ndarray:
        """``speed_squared`` at every sample, as the sum of ``(g_ij v^i) v^j`` over the metric's nonzero entries.

        The metric is evaluated once on the coordinate columns.  Its sum
        is taken in another order than ``v @ g @ v``, so a value may differ
        from ``speed_squared``'s in its last bits.
        """
        g, v = self.provider.metric(self.xs.T), self.vs.T
        return sum(gij * v[i] * v[j] for i, row in enumerate(g) for j, gij in enumerate(row) if np.any(gij))


def integrate_geodesic(
    x0,
    v0,
    provider: ChristoffelProvider,
    *,
    t_end: float = 10.0,
    h: float = 1e-3,
    stride: int = 10,
    method: str = "rk4",
) -> GeodesicRun:
    x0 = np.asarray(x0, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)
    dim = provider.dim
    if x0.shape != (dim,) or v0.shape != (dim,):
        raise ValueError(f"x0 and v0 must have shape ({dim},)")
    system = _geodesic_rates(provider)
    traj = integrate(system.rhs, np.concatenate([x0, v0]), t_end, h=h, stride=stride, method=method, system=system)
    return GeodesicRun(traj.times, traj.states[:, :dim], traj.states[:, dim:], provider)


@dataclass(frozen=True)
class GridField:
    """Velocity samples on a periodic grid over [0, 2pi)."""

    values: np.ndarray
    stencil: int = 4

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 16:
            raise ValueError("GridField needs at least 16 samples")
        if not isinstance(self.stencil, numbers.Integral) or self.stencil not in (2, 4):
            raise ValueError("stencil order must be 2 or 4")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dx(self) -> float:
        return GRID_SPAN / self.n


def sine_field(n: int = 256, amplitude: float = 0.1, stencil: int = 4) -> GridField:
    x = np.arange(n) * (GRID_SPAN / n)
    return GridField(amplitude * np.sin(x), stencil)


def _derivative(up2, up1, down1, down2, dx: float, stencil: int):
    """The centred derivative at a sample from its neighbours, 2nd or 4th order.

    ``up_s`` and ``down_s`` are the samples s steps up and down the grid;
    the 2nd-order stencil reads only the nearest ones.  Like the Z_n site
    functions it is elementwise: on gathered arrays it is
    ``spatial_derivative``, on ``flow._Expr`` names the burgers stage.
    """
    if stencil == 2:
        return (up1 - down1) / (2.0 * dx)
    return (-up2 + 8.0 * up1 - 8.0 * down1 + down2) / (12.0 * dx)


def spatial_derivative(values: np.ndarray, dx: float, stencil: int = 4) -> np.ndarray:
    """Centred periodic derivative, 2nd or 4th order: ``_derivative`` on the samples gathered at each shift."""
    values = np.asarray(values)
    return _derivative(*(values[_shift_indices(len(values), s)] for s in (2, 1, -1, -2)), dx, stencil)


def _burgers_stage(n: int, dx: float, stencil: int):
    """The stage of ``dK/dt = -K K'`` on n samples, layout ``(1, stencil // 2)``: ``bind(x, k)`` gives ``rates(t)``.

    x and k are ghost-padded buffers of n + stencil floats, the samples
    at entries ``pad .. pad + n - 1`` (``pad = stencil // 2``).  ``bind``
    makes the shifted views of ``_derivative``, the pads and their sources
    as slices of x, so no shift is a gather.  ``rates`` fills x's pads,
    each side by one slice copy of the other end's samples (a copy step),
    and writes ``-K * _derivative(...)`` into k's sites; k's pads stay as
    they are.  Its ufunc calls are emitted once per stage
    (``flow._array_rates``) from the tree of that expression on ``_Expr``
    names of the views, in its association and operand order, so the rate
    is byte-identical to ``-K * spatial_derivative(K, dx, stencil)``.  The
    expression holds ``dx`` as a constant, so each stage is emitted anew.
    Each bound stage has scratch of its own.
    """
    pad = stencil // 2
    shifts = {"v": 0, "up2": 2, "up1": 1, "down1": -1, "down2": -2}  # +-2 are read at stencil 4 only
    v, up2, up1, down1, down2, left_src, right_src = map(_Expr, [*shifts, "left_src", "right_src"])
    rate = -v * _derivative(up2, up1, down1, down2, dx, stencil)
    rates_of = _array_rates([("left", left_src), ("right", right_src), ("rate", rate)], ("work", "term"), float)

    def bind(x: np.ndarray, k: np.ndarray):
        return rates_of(rate=k[pad : pad + n], left=x[:pad], left_src=x[n : n + pad], right=x[n + pad :],
                        right_src=x[pad : 2 * pad], work=np.empty(n), term=np.empty(n),
                        **{name: x[pad + s : pad + s + n] for name, s in shifts.items()})

    return bind


@dataclass(frozen=True)
class BurgersRun:
    times: np.ndarray
    values: np.ndarray  # (T, n)

    @property
    def x(self) -> np.ndarray:
        n = self.values.shape[1]
        return np.arange(n) * (GRID_SPAN / n)


def integrate_burgers(
    field: GridField,
    *,
    t_end: float = 1.0,
    h: float = 1e-3,
    stride: int = 10,
    method: str = "rk4",
) -> BurgersRun:
    system = _array_system(_burgers_stage(field.n, field.dx, field.stencil), (1, field.stencil // 2), field.n)
    traj = integrate(system.rhs, field.values, t_end, h=h, stride=stride, method=method, system=system)
    return BurgersRun(traj.times, traj.states)


def pullback_geodesic_check(times, samples, provider: ChristoffelProvider) -> float:
    """Max finite-difference geodesic residual of a uniformly sampled curve.

    Residual at each interior sample is ``max_i |gdd^i + Gamma^i_jk gd^j gd^k|``
    with second-order centred differences; it vanishes (to O(dt^2)) iff
    the curve is a geodesic.  The provider's symbols and the contraction
    apply to whole coordinate columns, and a nan residual anywhere makes
    the result nan.  A sample on a pole of the sphere (sin theta = 0) has
    an infinite cot there, so its residual is inf or nan, without a
    warning.
    """
    times = np.asarray(times, dtype=np.float64)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.shape[0] != times.shape[0]:
        raise ValueError("times and samples disagree in length")
    if samples.shape[1] != provider.dim:
        raise ValueError(f"samples must have {provider.dim} columns, one per coordinate")
    if times.shape[0] < 3:
        raise ValueError("need at least 3 samples")
    steps = np.diff(times)
    dt = steps[0]
    if dt <= 0 or np.any(np.abs(steps - dt) > 1e-9 * max(1.0, abs(dt))):
        raise ValueError("samples must be uniformly spaced in time")

    vel = (samples[2:] - samples[:-2]) / (2.0 * dt)
    acc = (samples[2:] - 2.0 * samples[1:-1] + samples[:-2]) / (dt * dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = _add_christoffel_term(list(acc.T), provider.symbols(list(samples[1:-1].T)), list(vel.T))
    return float(np.max(np.abs(residual)))
