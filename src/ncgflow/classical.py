"""Classical cross-checks: geodesics with Christoffel symbols and the
velocity-field equation on a periodic 1-d grid.

``geodesic_rhs`` is the standard second-order system

    ``dx/dt = v,   dv^i/dt = -Gamma^i_jk(x) v^j v^k``

and ``pullback_geodesic_check`` measures, by second-order finite
differences, how far a sampled curve is from solving it.  A manifold is
given by a ``ChristoffelProvider``: its nonzero index triples ``(i, j, k)``,
declared once, and a function giving their ``Gamma^i_jk`` at a point.
Both functions contract ``ChristoffelProvider.symbols(x)``, the list of
``(i, j, k, Gamma^i_jk(x))``, with v in one scalar loop, and
``integrate_geodesic`` steps the same contraction applied once to
``flow._Expr`` symbols: a straight-line right-hand side compiled once
per (dim, triples), on first use, that calls the provider's values
function once per stage.

On the line the velocity-field equation reduces to an inviscid transport
equation, ``dK/dt = -K K' - Gamma K^2`` on a periodic grid over [0, 2pi);
it is integrated only in the smooth pre-shock regime and checked against
the method of characteristics in the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import _shift_indices
from .flow import _compile, _Expr, _text, integrate

__all__ = [
    "ChristoffelProvider",
    "flat_space",
    "round_sphere",
    "geodesic_rhs",
    "speed_squared",
    "GeodesicRun",
    "integrate_geodesic",
    "GridField",
    "sine_field",
    "spatial_derivative",
    "burgers_rhs",
    "BurgersRun",
    "integrate_burgers",
    "pullback_geodesic_check",
]

GRID_SPAN = 2.0 * math.pi


Symbols = list[tuple[int, int, int, float]]


@dataclass(frozen=True)
class ChristoffelProvider:
    """Christoffel symbols of a chart, plus its metric for speed checks.

    ``triples`` are the ``(i, j, k)`` of the symbols that may be nonzero,
    in lexicographic order, and ``values(x)`` returns their
    ``Gamma^i_jk(x)`` in that order; x is a sequence of floats.
    """

    dim: int
    triples: tuple[tuple[int, int, int], ...]
    values: Callable[[Sequence[float]], Sequence[float]]
    metric: Callable[[np.ndarray], np.ndarray]

    def symbols(self, x) -> Symbols:
        """The ``(i, j, k, Gamma^i_jk(x))`` of the triples."""
        return [(i, j, k, g) for (i, j, k), g in zip(self.triples, self.values(x))]


def flat_space(dim: int = 2) -> ChristoffelProvider:
    return ChristoffelProvider(dim, (), lambda x: (), lambda x: np.eye(dim))


def round_sphere() -> ChristoffelProvider:
    """Unit 2-sphere in (theta, phi) coordinates."""

    def values(x):
        sin, cos = math.sin(x[0]), math.cos(x[0])
        cot = cos / sin
        return -sin * cos, cot, cot

    def metric(x):
        return np.diag([1.0, math.sin(x[0]) ** 2])

    return ChristoffelProvider(2, ((0, 1, 1), (1, 0, 1), (1, 1, 0)), values, metric)


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


@functools.lru_cache(maxsize=16)
def _geodesic_rates(dim: int, triples: tuple):
    """``make(values)``: the right-hand side ``rhs(t, y)`` of ``_geodesic_system``, straight-line.

    Compiled once per (dim, triples) from ``_geodesic_system`` applied to
    ``_Expr`` symbols for x, v and the values of the triples.  ``rhs``
    unpacks y into one local per entry, calls ``values(y[:dim])`` once
    (ValueError unless it returns one value per triple) and returns the
    rates; a stage that leaves the chart (a ValueError or
    ZeroDivisionError in ``values``: sin(inf), or a pole of the sphere)
    returns nan entries, so the integrator reports a blow-up.
    """
    y = [_Expr(f"{name}{i}") for name in ("x", "v") for i in range(dim)]
    gammas = [_Expr(f"g{n}") for n in range(len(triples))]
    rates = _geodesic_system(y, dim, [(*ijk, g) for ijk, g in zip(triples, gammas)])
    lines = ["def make(values):", "    def rhs(t, y):", f"        [{', '.join(map(_text, y))}] = y", "        try:",
             f"            gammas = values(y[:{dim}])", "        except (ValueError, ZeroDivisionError):",
             f"            return [nan] * {2 * dim}", f"        [{', '.join(map(_text, gammas))}] = gammas",
             f"        return [{', '.join(map(_text, rates))}]", "    return rhs", ""]
    return _compile("\n".join(lines), "make", nan=math.nan)


def geodesic_rhs(x: np.ndarray, v: np.ndarray, provider: ChristoffelProvider):
    """(dx/dt, dv/dt) of the geodesic equation at (x, v)."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    out = np.array(_geodesic_system(x.tolist() + v.tolist(), provider.dim, provider.symbols(x.tolist())))
    return out[: provider.dim], out[provider.dim :]


def speed_squared(x, v, provider: ChristoffelProvider) -> float:
    v = np.asarray(v, dtype=np.float64)
    g = provider.metric(np.asarray(x, dtype=np.float64))
    return float(v @ g @ v)


@dataclass(frozen=True)
class GeodesicRun:
    times: np.ndarray
    xs: np.ndarray  # (T, dim)
    vs: np.ndarray  # (T, dim)
    provider: ChristoffelProvider

    def speeds_squared(self) -> np.ndarray:
        return np.array([speed_squared(x, v, self.provider) for x, v in zip(self.xs, self.vs)])


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
    rhs = _geodesic_rates(dim, provider.triples)(provider.values)
    traj = integrate(rhs, np.concatenate([x0, v0]), t_end, h=h, stride=stride, method=method, scalars=float)
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
        if self.stencil not in (2, 4):
            raise ValueError("stencil order must be 2 or 4")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dx(self) -> float:
        return GRID_SPAN / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx


def sine_field(n: int = 256, amplitude: float = 0.1, stencil: int = 4) -> GridField:
    x = np.arange(n) * (GRID_SPAN / n)
    return GridField(amplitude * np.sin(x), stencil)


def spatial_derivative(values: np.ndarray, dx: float, stencil: int = 4) -> np.ndarray:
    """Centred periodic derivative, 2nd or 4th order."""
    values = np.asarray(values)
    n = values.shape[0]

    def shifted(steps: int) -> np.ndarray:  # values[(i + steps) % n]
        return values[_shift_indices(n, steps)]

    if stencil == 2:
        return (shifted(1) - shifted(-1)) / (2.0 * dx)
    return (-shifted(2) + 8.0 * shifted(1) - 8.0 * shifted(-1) + shifted(-2)) / (12.0 * dx)


def _burgers_rate(v: np.ndarray, dx: float, stencil: int, gamma_values: Optional[np.ndarray]) -> np.ndarray:
    """``-K K' - Gamma K^2`` on grid samples, with Gamma sampled on the grid (or None)."""
    out = -v * spatial_derivative(v, dx, stencil)
    if gamma_values is not None:
        out = out - gamma_values * v * v
    return out


def _gamma_values(gamma, field: GridField) -> Optional[np.ndarray]:
    return None if gamma is None else np.asarray(gamma(field.x), dtype=np.float64)


def burgers_rhs(field: GridField, gamma: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> np.ndarray:
    """dK/dt = -K K' - Gamma(x) K^2 on the grid (pre-shock regime assumed)."""
    return _burgers_rate(field.values, field.dx, field.stencil, _gamma_values(gamma, field))


@dataclass(frozen=True)
class BurgersRun:
    times: np.ndarray
    values: np.ndarray  # (T, n)
    stencil: int

    @property
    def x(self) -> np.ndarray:
        n = self.values.shape[1]
        return np.arange(n) * (GRID_SPAN / n)


def integrate_burgers(
    field: GridField,
    gamma: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    *,
    t_end: float = 1.0,
    h: float = 1e-3,
    stride: int = 10,
    method: str = "rk4",
) -> BurgersRun:
    stencil, dx, gamma_values = field.stencil, field.dx, _gamma_values(gamma, field)
    traj = integrate(lambda t, y: _burgers_rate(y, dx, stencil, gamma_values), field.values, t_end,
                     h=h, stride=stride, method=method)
    return BurgersRun(traj.times, traj.states, stencil)


def pullback_geodesic_check(times, samples, provider: ChristoffelProvider) -> float:
    """Max finite-difference geodesic residual of a uniformly sampled curve.

    Residual at each interior sample is ``max_i |gdd^i + Gamma^i_jk gd^j gd^k|``
    with second-order centred differences; it vanishes (to O(dt^2)) iff
    the curve is a geodesic.
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
    worst = 0.0
    for x, v, a in zip(samples[1:-1].tolist(), vel.tolist(), acc.tolist()):
        for r in _add_christoffel_term(a, provider.symbols(x), v):
            worst = max(worst, abs(r))
    return worst
