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
from ncgflow import flow, transport
from oracles import dopri_attempt_oracle, m2_flow_oracle, zn3_flow_oracle


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
    # a non-finite trial step fails error control until the step underflows; the cause is named
    ("rk45", _nan_from(0.25, np.nan), [1.0, 2.0], 1.0, 1e-3, 1e9, "non-finite state",
     0.24999999999950268),
]


@pytest.mark.parametrize("method, f, y0, t_end, h, max_abs, message, last_good", _BLOWUPS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(_BLOWUPS)])
def test_blowup_message_and_last_good_time(method, f, y0, t_end, h, max_abs, message, last_good):
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(BlowupError) as excinfo:
        integrate(f, np.array(y0), t_end, h=h, method=method, max_abs=max_abs)
    assert str(excinfo.value).startswith(message)
    assert excinfo.value.last_good_time == pytest.approx(last_good, rel=0, abs=1e-15)


@pytest.mark.parametrize("method, f, y0, t_end, h, max_abs, message, last_good", _BLOWUPS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(_BLOWUPS)])
def test_blowup_message_and_last_good_time_on_scalars(method, f, y0, t_end, h, max_abs, message, last_good):
    def on_floats(t, y):  # the same right-hand side on a list of Python floats
        return f(t, np.array(y)).tolist()

    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(BlowupError) as excinfo:
        integrate(on_floats, np.array(y0), t_end, h=h, method=method, max_abs=max_abs, scalars=float)
    assert str(excinfo.value).startswith(message)
    assert excinfo.value.last_good_time == pytest.approx(last_good, rel=0, abs=1e-15)


@pytest.mark.parametrize("z, max_abs", [
    (1e308 + 1e308j, math.inf),  # |z| overflows, the parts do not
    (8.0 + 8.0j, 10.0),  # |z| > 10 >= each part
    (11.0 + 0.0j, 10.0),
    (complex(0.0, math.inf), math.inf),
    (complex(-math.inf, 1.0), 1e9),
    (complex(1.0, math.nan), 1e9),
    (complex(math.nan, math.inf), math.inf),
])
def test_scalar_check_applies_the_rule_to_each_part(z, max_abs):
    y = [0.5 + 0.5j, z]
    packed = np.array(y).view(np.float64)
    outcomes = []
    for check, state in ((flow._check_state, packed), (flow._check_scalars, y)):
        try:
            check(state, 0.5, max_abs)
            outcomes.append(None)
        except BlowupError as exc:
            outcomes.append((str(exc), exc.last_good_time))
    assert outcomes[0] == outcomes[1]


def _fig2_state(fig2_data):
    return transport.pack_m2_state(fig2_data["k1"], fig2_data["k2"], fig2_data["m"])


def test_scalar_rk4_equals_array_rk4_on_m2(fig2_data):
    y0 = _fig2_state(fig2_data)
    on_scalars = integrate(transport._m2_rates, y0, 2.0, h=1e-3, stride=10, scalars=complex)
    on_arrays = integrate(transport.m2_coupled_rhs(), y0, 2.0, h=1e-3, stride=10)
    assert np.array_equal(on_scalars.times, on_arrays.times)
    assert np.array_equal(on_scalars.states, on_arrays.states)


def test_scalar_rk45_is_byte_identical_to_the_array_rhs(fig2_data):
    y0 = _fig2_state(fig2_data)
    on_scalars = integrate(transport._m2_rates, y0, 2.0, h=1e-3, stride=10, method="rk45", scalars=complex)
    on_arrays = integrate(transport.m2_coupled_rhs(), y0, 2.0, h=1e-3, stride=10, method="rk45")
    assert on_scalars.states.tobytes() == on_arrays.states.tobytes()
    assert on_scalars.times.tobytes() == on_arrays.times.tobytes()


def _zn_state(n, seed=5):
    rng = np.random.default_rng(seed)
    k_plus = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    m = rng.normal(size=n) + 1j * rng.normal(size=n)
    return transport.pack_zn_state(k_plus, -np.conj(np.roll(k_plus, -1)), m / np.linalg.norm(m))


@pytest.mark.parametrize("n", [3, transport.ZN_SCALAR_CROSSOVER - 1, transport.ZN_SCALAR_CROSSOVER])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_zn_scalar_and_array_forms_agree(n, method):
    y0 = _zn_state(n)
    on_scalars = integrate(transport._zn_site_rates(n), y0, 1.0, h=1e-3, stride=50, method=method, scalars=complex)
    on_arrays = integrate(transport.zn_coupled_rhs(n), y0, 1.0, h=1e-3, stride=50, method=method)
    assert np.array_equal(on_scalars.times, on_arrays.times)
    assert np.abs(on_scalars.states - on_arrays.states).max() <= 1e-13 * np.abs(on_arrays.states).max()


def test_run_zn_picks_the_form_by_crossover(monkeypatch):
    forms = []

    def recording(f, y0, t_end, **kwargs):
        forms.append((len(y0) // 6, kwargs.get("scalars")))
        return integrate(f, y0, t_end, **kwargs)

    monkeypatch.setattr(transport, "integrate", recording)
    for n in (3, transport.ZN_SCALAR_CROSSOVER - 1, transport.ZN_SCALAR_CROSSOVER, 64):
        z = _zn_state(n).view(np.complex128)
        transport.run_zn(z[:n], z[n : 2 * n], z[2 * n :], t_end=0.01, h=1e-3, stride=5)
    c = transport.ZN_SCALAR_CROSSOVER
    assert forms == [(3, complex), (c - 1, complex), (c, None), (64, None)]


def test_integrate_preallocates_the_sampled_rows():
    traj = integrate(lambda t, y: [-v for v in y], np.array([1.0, 2.0]), 1.0, h=0.1, stride=3, scalars=float)
    assert flow.sample_count(10, 3) == len(traj) == 5
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])
    assert flow.sample_count(10, 5) == 3 and flow.sample_count(10, 10**9) == 2 and flow.sample_count(1, 1) == 2
    assert len(integrate(lambda t, y: -y, np.array([1.0]), 1.0, h=0.1, stride=10**30)) == 2


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
    with pytest.raises(ValueError):
        integrate(f, np.array([1.0]), 1.0, scalars=int)
    for t_end, h in ((math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan), (1.0, 1e-300), (1e300, 1e-300),
                     (flow.MAX_STEPS * 1e-3 + 1e-3, 1e-3)):
        with pytest.raises(ValueError):
            integrate(f, np.array([1.0]), t_end, h=h)


def _counting_rk45(monkeypatch, f):
    """Wrap f and the Dormand-Prince attempt with call counters."""
    counts = {"rhs": 0, "attempts": 0}
    step = flow._dopri_step

    def rhs(t, y):
        counts["rhs"] += 1
        return f(t, y)

    def attempt(*args):
        counts["attempts"] += 1
        return step(*args)

    monkeypatch.setattr(flow, "_dopri_step", attempt)
    return rhs, counts


@pytest.mark.parametrize("rate, h, rejects", [(1.0, 0.05, False), (50.0, 0.1, True)])
def test_rk45_fsal_calls_and_accuracy(monkeypatch, rate, h, rejects):
    # y' = -rate y; at rate 50 trial steps of 0.1 fail error control
    rhs, counts = _counting_rk45(monkeypatch, lambda t, y: -rate * y)
    y0 = np.array([1.0, -2.0])
    traj = integrate(rhs, y0, 1.0, h=h, method="rk45")
    assert counts["rhs"] == 1 + 6 * counts["attempts"]
    assert (counts["attempts"] > round(1.0 / h)) == rejects
    exact = np.exp(-rate * traj.times)[:, None] * y0
    assert np.all(np.abs(traj.states - exact) <= 1e-9 + 1e-9 * np.abs(exact))


def _on_packed(f):
    """A right-hand side on lists of complex scalars, as one on the packed float64 vector."""
    return lambda t, y: np.array(f(t, y.view(np.complex128).tolist())).view(np.float64)


@pytest.mark.parametrize("system", ["zn12-arrays", "m2-scalars"])
def test_one_accepted_rk45_step_matches_the_oracle(system, fig2_data):
    if system == "zn12-arrays":
        y0, f, scalars, f_oracle = _zn_state(12), transport.zn_coupled_rhs(12), None, transport.zn_coupled_rhs(12)
    else:
        y0, f, scalars, f_oracle = _fig2_state(fig2_data), transport._m2_rates, complex, _on_packed(transport._m2_rates)
    times = []

    def counted(t, y):
        times.append(t)
        return f(t, y)

    h = 0.01
    traj = integrate(counted, y0, h, h=h, method="rk45", scalars=scalars)
    y5, err = dopri_attempt_oracle(f_oracle, 0.0, y0, h)
    assert len(times) == 7  # k1, then one attempt, accepted
    r = err / (flow.ATOL + flow.RTOL * np.maximum(np.abs(y0), np.abs(y5)))
    assert math.sqrt(np.mean(r * r)) <= 1.0
    scale = np.maximum(1.0, np.abs(traj.states).max(axis=0))
    assert np.all(np.abs(traj.states[-1] - y5) <= 1e-15 * scale)
    assert traj.states[0].tobytes() == y0.tobytes()


def test_rk45_matches_rk4():
    def f(t, y):
        return np.array([y[1], -math.sin(y[0])])

    y0 = np.array([1.2, 0.0])
    a = integrate(f, y0, 5.0, h=1e-3, stride=1000, method="rk4")
    b = integrate(f, y0, 5.0, h=1e-2, stride=100, method="rk45")
    np.testing.assert_allclose(a.times, b.times)
    np.testing.assert_allclose(a.states, b.states, atol=1e-7)


def test_rk4_step_backwards_consistent():
    f = lambda t, y: np.array([math.cos(t) * y[0]])
    y = np.array([1.3])
    there = rk4_step(f, 0.5, y, 1e-3)
    back = rk4_step(f, 0.5 + 1e-3, there, -1e-3)
    np.testing.assert_allclose(back, y, atol=1e-15)


_STEP_RHSS = {
    "identity": lambda t, y: y,  # returns its input: the buffers must not alias a live stage
    "decay": lambda t, y: -y,
    "quadratic": lambda t, y: y * y - t,
    "zn12": transport.zn_coupled_rhs(12),
}


@pytest.mark.parametrize("name", sorted(_STEP_RHSS))
def test_buffered_rk4_equals_rk4_step_bit_for_bit(name):
    f = _STEP_RHSS[name]
    y = _zn_state(12, seed=9)
    step, _ = flow._rk4_arrays(y.shape[0])
    for h in (1e-3, 0.1, -0.05, 1e-3):  # repeated steps reuse the buffers
        want = rk4_step(f, 0.25, y, h)
        got = step(f, 0.25, y, h)
        assert got.tobytes() == want.tobytes()
        assert got is not y
        y = got


@pytest.mark.parametrize("name", sorted(_STEP_RHSS))
def test_array_rk4_run_equals_a_loop_of_rk4_step(name):
    f = _STEP_RHSS[name]
    y = 0.1 * _zn_state(12, seed=10)
    traj = integrate(f, y, 0.05, h=1e-3, stride=10)
    for k in range(1, 51):
        y = rk4_step(f, (k - 1) * 1e-3, y, 1e-3)
        if k % 10 == 0:
            assert traj.states[k // 10].tobytes() == y.tobytes(), k
