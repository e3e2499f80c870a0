import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from ncgflow import classical
from ncgflow import (
    GridField,
    burgers_rhs,
    flat_space,
    geodesic_rhs,
    integrate,
    integrate_burgers,
    integrate_geodesic,
    pullback_geodesic_check,
    round_sphere,
    sine_field,
    spatial_derivative,
    speed_squared,
)
from oracles import great_circle, great_circle_initial_velocity, transport_characteristics_sine


def test_flat_space_straight_line():
    run = integrate_geodesic([0.0, 0.0], [1.0, 0.0], flat_space(2), t_end=5.0, h=1e-3, stride=100)
    np.testing.assert_allclose(run.xs[:, 0], run.times, atol=1e-12)
    np.testing.assert_allclose(run.xs[:, 1], 0.0, atol=1e-12)


def test_sphere_christoffels():
    sphere = round_sphere()
    theta = 0.7
    x = np.array([theta, 0.3])
    symbols = {(i, j, k): g for i, j, k, g in sphere.symbols(x)}
    assert symbols[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta))
    assert symbols[1, 0, 1] == pytest.approx(math.cos(theta) / math.sin(theta))
    assert symbols[1, 1, 0] == pytest.approx(math.cos(theta) / math.sin(theta))
    assert set(symbols) == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}  # every other symbol is 0


def test_geodesic_rhs_shape():
    dx, dv = geodesic_rhs([1.0, 0.0], [0.2, 0.4], round_sphere())
    np.testing.assert_allclose(dx, [0.2, 0.4])
    assert dv.shape == (2,)


def _generic_contraction(provider, x, v, acc):
    """acc^i + Gamma^i_jk(x) v^j v^k, one lookup of each index triple in the provider's symbols."""
    symbols = {(i, j, k): g for i, j, k, g in provider.symbols(x)}
    out = []
    for i in range(provider.dim):
        r = acc[i]
        for j in range(provider.dim):
            for k in range(provider.dim):
                g = symbols.get((i, j, k), 0.0)
                if g != 0.0:
                    r += g * v[j] * v[k]
        out.append(r)
    return np.array(out)


@pytest.mark.parametrize("provider", [round_sphere(), flat_space(3)], ids=["sphere", "flat3"])
def test_geodesic_rhs_equals_generic_contraction(provider):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(0.05, math.pi - 0.05, provider.dim)
        v = rng.normal(size=provider.dim)
        dx, dv = geodesic_rhs(x, v, provider)
        assert np.array_equal(dx, v)
        assert np.array_equal(dv, -_generic_contraction(provider, x, v, np.zeros(provider.dim)))

    times = np.arange(0.0, 1.0, 0.125)
    samples = rng.uniform(0.5, 2.5, (times.shape[0], provider.dim))
    vel = (samples[2:] - samples[:-2]) / 0.25
    acc = (samples[2:] - 2.0 * samples[1:-1] + samples[:-2]) / 0.125**2
    worst = max(np.abs(_generic_contraction(provider, x, v, a)).max() for x, v, a in zip(samples[1:-1], vel, acc))
    assert pullback_geodesic_check(times, samples, provider) == worst


_SPECIAL = [0.0, -0.0, 1e-300, -1e300, 5e-324, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("provider", [round_sphere(), flat_space(1), flat_space(3), flat_space(8)],
                         ids=["sphere", "flat1", "flat3", "flat8"])
def test_compiled_geodesic_rates_equal_the_system(provider):
    dim = provider.dim
    rhs = classical._geodesic_rates(dim, provider.triples)(provider.values)
    rng = np.random.default_rng(8)
    for trial in range(60):
        y = rng.uniform(0.05, math.pi - 0.05, 2 * dim).tolist()
        if trial >= 20:  # velocities with signed zeros, extremes and non-finite entries
            y[dim:] = rng.choice(_SPECIAL + [1.5, -0.25], dim).tolist()
        got = rhs(0.0, y)
        want = classical._geodesic_system(y, dim, provider.symbols(y[:dim]))
        assert type(got) is list and np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("theta", [0.0, math.inf, -math.inf])  # the pole (cot = 1/0), and sin(inf)
def test_a_stage_that_leaves_the_sphere_chart_has_nan_rates(theta):
    sphere = round_sphere()
    rates = classical._geodesic_rates(2, sphere.triples)(sphere.values)(0.0, [theta, 0.0, 1.0, 1.0])
    assert len(rates) == 4 and all(math.isnan(r) for r in rates)


def test_equatorial_great_circle_stays_on_equator():
    run = integrate_geodesic([math.pi / 2, 0.0], [0.0, 1.0], round_sphere(), t_end=10.0, h=1e-3, stride=100)
    assert np.abs(run.xs[:, 0] - math.pi / 2).max() <= 1e-8


def test_sphere_speed_conserved():
    run = integrate_geodesic([math.pi / 2, 0.0], [0.4, 1.0], round_sphere(), t_end=10.0, h=1e-3, stride=100)
    speeds = run.speeds_squared()
    assert np.abs(speeds - speeds[0]).max() <= 1e-6


def test_sphere_geodesic_matches_exact_great_circle():
    incl = 0.6
    curve = great_circle(incl)
    v0 = great_circle_initial_velocity(incl)
    run = integrate_geodesic([math.pi / 2, 0.0], v0, round_sphere(), t_end=2.5, h=1e-3, stride=250)
    exact = curve(run.times)
    np.testing.assert_allclose(run.xs, exact, atol=1e-8)


def test_speed_squared_uses_metric():
    x = [0.5, 0.0]
    v = [0.0, 2.0]
    assert speed_squared(x, v, round_sphere()) == pytest.approx(4.0 * math.sin(0.5) ** 2)
    assert speed_squared(x, v, flat_space(2)) == pytest.approx(4.0)


# Grid transport -------------------------------------------------------------

def test_spatial_derivative_orders():
    n = 256
    x = np.arange(n) * (2 * math.pi / n)
    f = np.sin(3 * x)
    exact = 3 * np.cos(3 * x)
    err4 = np.abs(spatial_derivative(f, 2 * math.pi / n, 4) - exact).max()
    err2 = np.abs(spatial_derivative(f, 2 * math.pi / n, 2) - exact).max()
    assert err4 < 1e-5 < err2 < 1e-2
    assert err4 < err2 / 100


@pytest.mark.parametrize("stencil", [2, 4])
def test_spatial_derivative_equals_the_rolled_stencil(stencil):
    v = np.random.default_rng(3).normal(size=64)
    dx = 2 * math.pi / 64
    if stencil == 2:
        rolled = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * dx)
    else:
        rolled = (-np.roll(v, -2) + 8.0 * np.roll(v, -1) - 8.0 * np.roll(v, 1) + np.roll(v, 2)) / (12.0 * dx)
    assert spatial_derivative(v, dx, stencil).tobytes() == rolled.tobytes()


def test_integrate_burgers_steps_burgers_rhs():
    field = sine_field(32, 0.1, 2)
    gamma = lambda x: 0.1 * np.cos(x)
    run = integrate_burgers(field, gamma, t_end=0.05, h=1e-3, stride=10)
    ref = integrate(lambda t, y: burgers_rhs(GridField(y, field.stencil), gamma), field.values, 0.05, h=1e-3, stride=10)
    assert run.values.tobytes() == ref.states.tobytes()


def test_burgers_rhs_constant_field():
    field = GridField(np.full(32, 0.7))
    np.testing.assert_allclose(burgers_rhs(field), 0, atol=1e-14)


def test_burgers_rhs_gamma_term():
    field = GridField(np.full(32, 2.0))
    out = burgers_rhs(field, gamma=lambda x: np.ones_like(x))
    np.testing.assert_allclose(out, -4.0, atol=1e-12)


def test_burgers_matches_characteristics():
    eps = 0.1
    run = integrate_burgers(sine_field(256, eps), t_end=1.0, h=1e-3, stride=100)
    exact = transport_characteristics_sine(run.x, 1.0, eps)
    assert np.abs(run.values[-1] - exact).max() <= 1e-4


def test_burgers_convective_derivative_along_characteristics():
    # following dx/dt = K, the value dK/dt + Gamma K^2 vanishes (flat line: Gamma = 0)
    eps = 0.1
    run = integrate_burgers(sine_field(256, eps), t_end=1.0, h=1e-3, stride=10)
    splines = [CubicSpline(np.append(run.x, 2 * math.pi), np.append(v, v[0]), bc_type="periodic") for v in run.values]
    dt = run.times[1] - run.times[0]
    for x0 in (0.5, 2.0, 4.0):
        # characteristic position is exact for the sine datum
        k0 = eps * math.sin(x0)
        values = np.array([splines[i](x0 + k0 * t) for i, t in enumerate(run.times)])
        assert np.abs(values - k0).max() <= 1e-6  # K constant along the characteristic
        dkdt = np.gradient(values, dt)
        assert np.abs(dkdt[1:-1]).max() <= 1e-4


def test_burgers_mean_conserved():
    run = integrate_burgers(sine_field(128, 0.1), t_end=1.0, h=1e-3, stride=100)
    means = run.values.mean(axis=1)
    assert np.abs(means - means[0]).max() <= 1e-12


def test_grid_field_validation():
    with pytest.raises(ValueError):
        GridField(np.zeros(8))
    with pytest.raises(ValueError):
        GridField(np.zeros(32), stencil=3)


# Sampled-curve geodesic residual -------------------------------------------

def test_pullback_check_straight_line():
    times = np.arange(0, 10, 1e-2)
    samples = np.column_stack([times, np.zeros_like(times)])
    assert pullback_geodesic_check(times, samples, flat_space(2)) <= 1e-8


def test_pullback_check_integrated_great_circle():
    sphere = round_sphere()
    run = integrate_geodesic([math.pi / 2, 0.0], [0.3, 0.9], sphere, t_end=2.0, h=1e-3, stride=10)
    assert pullback_geodesic_check(run.times, run.xs, sphere) <= 1e-4


def test_pullback_check_rejects_latitude_circle():
    # circle of latitude theta = pi/4 at unit speed is not a geodesic
    theta = math.pi / 4
    times = np.arange(0, 2, 1e-2)
    phi = times / math.sin(theta)
    samples = np.column_stack([np.full_like(times, theta), phi])
    assert pullback_geodesic_check(times, samples, round_sphere()) >= 0.1


def test_pullback_check_converges_quadratically():
    curve = great_circle(0.7)
    residuals = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        times = np.arange(0.3, 2.3, dt)
        residuals.append(pullback_geodesic_check(times, curve(times), round_sphere()))
    assert 3.5 <= residuals[0] / residuals[1] <= 4.5
    assert 3.5 <= residuals[1] / residuals[2] <= 4.5


def test_pullback_check_input_validation():
    flat = flat_space(2)
    with pytest.raises(ValueError):
        pullback_geodesic_check([0.0, 1.0], np.zeros((2, 2)), flat)
    with pytest.raises(ValueError):
        pullback_geodesic_check([0.0, 0.5, 2.0], np.zeros((3, 2)), flat)
    with pytest.raises(ValueError):
        pullback_geodesic_check([0.0, 0.5, 1.0], np.zeros((3, 3)), flat)
