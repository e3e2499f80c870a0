import cmath
import math

import numpy as np
import pytest

from ncgflow import (
    BlowupError,
    Mat2Element,
    VectorField,
    ZnElement,
    integrate,
    m2_rhs,
    pack_complex,
    rk4_step,
    split_complex,
    zn_rhs,
)
from oracles import m2_flow_oracle, zn3_flow_oracle


def test_pack_split_roundtrip():
    a = np.array([1 + 2j, 3 - 4j])
    b = np.array([5j])
    y = pack_complex(a, b)
    assert y.dtype == np.float64 and y.shape == (6,)
    ra, rb = split_complex(y, (2, 1))
    np.testing.assert_allclose(ra, a)
    np.testing.assert_allclose(rb, b)


def test_zn_rhs_constant_field_stationary():
    K = VectorField(ZnElement([1j, 1j, 1j]), ZnElement([-2, -2, -2]))
    out = zn_rhs(K)
    np.testing.assert_allclose(out.k1.samples, 0, atol=1e-15)
    np.testing.assert_allclose(out.k2.samples, 0, atol=1e-15)


def test_zn_rhs_preset_site_value(fig1_data):
    K = VectorField(ZnElement(fig1_data["k_plus"]), ZnElement(fig1_data["k_minus"]))
    out = zn_rhs(K)
    expected = (-cmath.exp(-3j)) * (1j * math.sin(2.0))
    assert abs(out.k1.samples[1] - expected) <= 1e-14


def test_zn_rhs_matches_site_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        kp = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        km = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        out = zn_rhs(VectorField(ZnElement(kp), ZnElement(km)))
        okp, okm = zn3_flow_oracle(kp, km)
        np.testing.assert_allclose(out.k1.samples, okp, atol=1e-14)
        np.testing.assert_allclose(out.k2.samples, okm, atol=1e-14)


def test_m2_rhs_zero_and_central():
    zero = VectorField(Mat2Element.zeros(), Mat2Element.zeros())
    np.testing.assert_allclose(m2_rhs(zero).k1.entries, 0, atol=0)
    central = VectorField(2j * Mat2Element.identity(), -3 * Mat2Element.identity())
    np.testing.assert_allclose(m2_rhs(central).k1.entries, 0, atol=1e-15)
    np.testing.assert_allclose(m2_rhs(central).k2.entries, 0, atol=1e-15)


def test_m2_rhs_preset_value(fig2_data):
    K = VectorField(Mat2Element(fig2_data["k1"]), Mat2Element(fig2_data["k2"]))
    out = m2_rhs(K)
    np.testing.assert_allclose(out.k1.entries, [[0, -1.5], [-1.5, 0]], atol=1e-14)
    dk1, dk2 = m2_flow_oracle(fig2_data["k1"], fig2_data["k2"])
    np.testing.assert_allclose(out.k1.entries, dk1, atol=1e-14)
    np.testing.assert_allclose(out.k2.entries, dk2, atol=1e-14)


def test_rhs_type_guards():
    zn_field = VectorField(ZnElement.ones(3), ZnElement.ones(3))
    m2_field = VectorField(Mat2Element.identity(), Mat2Element.identity())
    with pytest.raises(TypeError):
        zn_rhs(m2_field)
    with pytest.raises(TypeError):
        m2_rhs(zn_field)


# Integrator ----------------------------------------------------------------

def test_integrate_exponential_decay():
    traj = integrate(lambda t, y: -y, np.array([1.0]), 2.0, h=1e-3, stride=100)
    np.testing.assert_allclose(traj.states[:, 0], np.exp(-traj.times), atol=1e-10)


def test_integrate_sampling_grid():
    traj = integrate(lambda t, y: 0 * y, np.array([1.0, 2.0]), 1.0, h=0.1, stride=3)
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])
    assert traj.states.shape == (5, 2)


def test_integrate_fourth_order():
    # harmonic oscillator: halving the step divides the final error by ~16
    def f(t, y):
        return np.array([y[1], -y[0]])

    y0 = np.array([1.0, 0.0])
    exact = np.array([math.cos(5.0), -math.sin(5.0)])
    errs = []
    for h in (0.05, 0.025):
        traj = integrate(f, y0, 5.0, h=h, stride=10 ** 9)
        errs.append(np.abs(traj.states[-1] - exact).max())
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_integrate_blowup_reports_last_good_time():
    with pytest.raises(BlowupError) as excinfo:
        integrate(lambda t, y: y * y, np.array([2.0]), 1.0, h=1e-3)
    # dy/dt = y^2 from y(0)=2 blows up at t = 0.5
    assert 0.4 < excinfo.value.last_good_time <= 0.5


def _nan_from(t0, value):
    """-y up to t0, then a constant non-finite derivative."""
    return lambda t, y: np.full_like(y, value) if t >= t0 else -y


# (method, rhs, y0, t_end, h, max_abs, message, last_good_time); the last
# good time is the start of the step that failed.
_BLOWUPS = [
    ("rk4", _nan_from(0.25, np.nan), [1.0, 2.0], 1.0, 1e-3, 1e9, "non-finite state", 0.249),
    ("rk4", _nan_from(0.25, np.inf), [1.0, 2.0], 1.0, 1e-3, 1e9, "non-finite state", 0.249),
    ("rk4", _nan_from(0.25, np.inf), [1.0, 2.0], 1.0, 1e-3, math.inf, "non-finite state", 0.249),
    ("rk4", lambda t, y: -y, [1.0, np.nan], 1.0, 1e-3, 1e9, "non-finite state", 0.0),
    ("rk4", lambda t, y: -y, [np.inf, 1.0], 1.0, 1e-3, 1e9, "non-finite state", 0.0),
    ("rk4", lambda t, y: y, [1.0, -0.5], 5.0, 1e-3, 10.0, "state magnitude exceeded 10", 2.302),
    ("rk4", lambda t, y: -y, [1.0, 20.0], 1.0, 1e-3, 10.0, "state magnitude exceeded 10", 0.0),
    ("rk45", lambda t, y: -y, [1.0, np.nan], 1.0, 1e-3, 1e9, "non-finite state", 0.0),
    ("rk45", lambda t, y: -y, [np.inf, 1.0], 1.0, 1e-3, 1e9, "non-finite state", 0.0),
    # a step at the 1e-13 floor is accepted whatever its error estimate
    ("rk45", _nan_from(0.0, np.nan), [1.0], 5e-14, 5e-14, 1e9, "non-finite state", 0.0),
    ("rk45", _nan_from(0.0, np.inf), [1.0], 5e-14, 5e-14, 1e9, "non-finite state", 0.0),
    ("rk45", lambda t, y: y, [1.0, -0.5], 5.0, 1e-3, 10.0, "state magnitude exceeded 10", 2.302),
    ("rk45", lambda t, y: -y, [1.0, 20.0], 1.0, 1e-3, 10.0, "state magnitude exceeded 10", 0.0),
    ("rk45", lambda t, y: y * y, [2.0], 1.0, 1e-3, 1e9, "state magnitude exceeded 1e+09", 0.49999999896698627),
    # a non-finite trial step fails error control, so the state never becomes non-finite
    ("rk45", _nan_from(0.25, np.nan), [1.0, 2.0], 1.0, 1e-3, 1e9, "adaptive step size underflow",
     0.24999999999950268),
]


@pytest.mark.parametrize("method, f, y0, t_end, h, max_abs, message, last_good", _BLOWUPS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(_BLOWUPS)])
def test_blowup_message_and_last_good_time(method, f, y0, t_end, h, max_abs, message, last_good):
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(BlowupError) as excinfo:
        integrate(f, np.array(y0), t_end, h=h, method=method, max_abs=max_abs)
    assert str(excinfo.value).startswith(message)
    assert excinfo.value.last_good_time == pytest.approx(last_good, rel=0, abs=1e-15)


def test_integrate_rejects_bad_arguments():
    f = lambda t, y: y
    with pytest.raises(ValueError):
        integrate(f, np.array([1.0]), -1.0)
    with pytest.raises(ValueError):
        integrate(f, np.array([1.0]), 1.0, h=0)
    with pytest.raises(ValueError):
        integrate(f, np.array([1.0]), 1.0, stride=0)
    with pytest.raises(ValueError):
        integrate(f, np.array([1.0]), 1.0, method="euler")


def test_rk45_matches_rk4():
    def f(t, y):
        return np.array([y[1], -math.sin(y[0])])

    y0 = np.array([1.2, 0.0])
    a = integrate(f, y0, 5.0, h=1e-3, stride=1000, method="rk4")
    b = integrate(f, y0, 5.0, h=1e-2, stride=100, method="rk45", rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(a.times, b.times)
    np.testing.assert_allclose(a.states, b.states, atol=1e-7)


def test_rk4_step_backwards_consistent():
    f = lambda t, y: np.array([math.cos(t) * y[0]])
    y = np.array([1.3])
    there = rk4_step(f, 0.5, y, 1e-3)
    back = rk4_step(f, 0.5 + 1e-3, there, -1e-3)
    np.testing.assert_allclose(back, y, atol=1e-15)
