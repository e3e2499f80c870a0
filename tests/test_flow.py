import ast
import cmath
import functools
import io
import math
import operator
import os
import re
import tokenize
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgflow import (
    BlowupError,
    Mat2Element,
    VectorField,
    ZnElement,
    integrate,
    m2_rhs,
    pack_complex,
    rk4_step,
    zn_rhs,
)
from ncgflow import classical, connection, flow, mobius, transport
from ncgflow.cli import main
from oracles import call_stage, call_system, dopri_attempt_oracle, m2_flow_oracle, per_call_rk4, zn3_flow_oracle

_M2 = connection._m2_kernels()  # the compiled M2 system on twelve complex scalars
_m2_rhs = _M2.rhs  # its per-call right-hand side


def test_pack_complex_interleaves_the_inputs_in_order():
    a = np.array([1 + 2j, 3 - 4j])
    b = np.array([5j])
    y = pack_complex(a, b)
    assert y.dtype == np.float64 and y.shape == (6,)
    assert y.view(np.complex128).tolist() == [1 + 2j, 3 - 4j, 5j]


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


# id: (method, rhs, y0, t_end, h, message, last_good_time); the last good
# time is the start of the step that failed, and the bound is flow.MAX_ABS = 1e9.
_BLOWUPS = {
    "rk4-0": ("rk4", _nan_from(0.25, np.nan), [1.0, 2.0], 1.0, 1e-3, "non-finite state", 0.249),
    "rk4-1": ("rk4", _nan_from(0.25, np.inf), [1.0, 2.0], 1.0, 1e-3, "non-finite state", 0.249),
    "rk4-3": ("rk4", lambda t, y: -y, [1.0, np.nan], 1.0, 1e-3, "non-finite state", 0.0),
    "rk4-4": ("rk4", lambda t, y: -y, [np.inf, 1.0], 1.0, 1e-3, "non-finite state", 0.0),
    "rk4-5": ("rk4", lambda t, y: y, [1e8, -0.5e8], 5.0, 1e-3, "state magnitude exceeded 1e+09", 2.302),
    "rk4-6": ("rk4", lambda t, y: -y, [1.0, 2e9], 1.0, 1e-3, "state magnitude exceeded 1e+09", 0.0),
    "rk45-7": ("rk45", lambda t, y: -y, [1.0, np.nan], 1.0, 1e-3, "non-finite state", 0.0),
    "rk45-8": ("rk45", lambda t, y: -y, [np.inf, 1.0], 1.0, 1e-3, "non-finite state", 0.0),
    # at the 1e-13 floor a nan error estimate rejects the attempt, and the cause is named
    "rk45-9": ("rk45", _nan_from(0.0, np.nan), [1.0], 5e-14, 5e-14, "non-finite state", 0.0),
    "rk45-10": ("rk45", _nan_from(0.0, np.inf), [1.0], 5e-14, 5e-14, "non-finite state", 0.0),
    "rk45-11": ("rk45", lambda t, y: y, [1e8, -0.5e8], 5.0, 1e-3, "state magnitude exceeded 1e+09", 2.302),
    "rk45-12": ("rk45", lambda t, y: -y, [1.0, 2e9], 1.0, 1e-3, "state magnitude exceeded 1e+09", 0.0),
    "rk45-13": ("rk45", lambda t, y: y * y, [2.0], 1.0, 1e-3, "state magnitude exceeded 1e+09", 0.49999999896698627),
    # a non-finite trial step fails error control until the step underflows; the cause is named
    "rk45-14": ("rk45", _nan_from(0.25, np.nan), [1.0, 2.0], 1.0, 1e-3, "non-finite state", 0.24999999999950268),
    # a rejected attempt whose next size falls below the floor names its own start
    "rk45-15": ("rk45", lambda t, y: -1e13 * y, [1.0], 1e-12, 5e-14, "adaptive step size underflow", 0.0),
}


@pytest.mark.parametrize("method, f, y0, t_end, h, message, last_good", _BLOWUPS.values(), ids=_BLOWUPS.keys())
def test_blowup_message_and_last_good_time(method, f, y0, t_end, h, message, last_good):
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(BlowupError) as excinfo:
        integrate(f, np.array(y0), t_end, h=h, method=method)
    assert str(excinfo.value).startswith(message)
    assert excinfo.value.last_good_time == pytest.approx(last_good, rel=0, abs=1e-15)


def _integrate_in(form: str, f, y0, t_end: float, **kwargs):
    """``integrate`` of the array rhs f, or (``"scalars"``) of the same f on lists of Python floats as a compiled system."""
    if form == "arrays":
        return integrate(f, y0, t_end, **kwargs)
    system = call_system(lambda t, y: f(t, np.array(y)).tolist(), len(y0), float)
    return integrate(system.rhs, y0, t_end, system=system, **kwargs)


@pytest.mark.parametrize("form", ["arrays", "scalars"])
def test_rk45_accepts_an_attempt_below_the_floor_on_its_error_estimate(form):
    y0 = np.array([1.0, 2.0])  # 7 grid steps of 1.43e-14, each below the floor of 1e-13
    traj = _integrate_in(form, lambda t, y: 0.0 * y, y0, 1e-13, h=1.5e-14, method="rk45")
    assert traj.states.tobytes() == np.tile(y0, (8, 1)).tobytes()


@pytest.mark.parametrize("form", ["arrays", "scalars"])
def test_rk45_step_size_underflows_at_a_jump(form):
    jump = lambda t, y: np.full_like(y, 1e6 if t >= 0.5 else 0.0)
    with pytest.raises(BlowupError, match="^adaptive step size underflow") as excinfo:
        _integrate_in(form, jump, np.array([0.0]), 1.0, h=1e-3, stride=10, method="rk45")
    assert excinfo.value.last_good_time == 0.4999999999998941


def test_the_array_rk4_state_check_bounds_each_entry_not_the_sum_of_squares():
    """Entries of at most MAX_ABS pass whatever their sum of squares; one ulp above it does not.

    The run checks each state by its peak ``max |entry|``, the exact rule,
    so a state whose sum of squares exceeds ``MAX_ABS**2`` passes.
    """
    y0 = np.array([1e9, -1e9, 9e8, 9e8])  # sum of squares 3.6e18
    traj = integrate(lambda t, y: 0.0 * y, y0, 1.0, h=0.25)
    assert traj.states.tobytes() == np.tile(y0, (5, 1)).tobytes()
    ulp = lambda t, y: np.array([2.0**-23, 0.0])  # one rk4 step of size 1 takes 1e9 one ulp up
    assert rk4_step(ulp, 0.0, np.array([1e9, 0.0]), 1.0)[0] == np.nextafter(1e9, np.inf)
    with pytest.raises(BlowupError, match="^state magnitude exceeded 1e\\+09") as excinfo:
        integrate(ulp, np.array([1e9, 0.0]), 2.0, h=1.0)
    assert excinfo.value.last_good_time == 0.0


@pytest.mark.parametrize("method, f, y0, t_end, h, message, last_good", _BLOWUPS.values(), ids=_BLOWUPS.keys())
def test_blowup_message_and_last_good_time_on_scalars(method, f, y0, t_end, h, message, last_good):
    def on_floats(t, y):  # the same right-hand side on a list of Python floats
        return f(t, np.array(y)).tolist()

    system = call_system(on_floats, len(y0), float)
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(BlowupError) as excinfo:
        integrate(system.rhs, np.array(y0), t_end, h=h, method=method, system=system)
    assert str(excinfo.value).startswith(message)
    assert excinfo.value.last_good_time == pytest.approx(last_good, rel=0, abs=1e-15)


@pytest.mark.parametrize("z", [
    1e308 + 1e308j,  # |z| overflows, the parts do not
    8e8 + 8e8j,  # |z| > 1e9 >= each part
    1.1e9 + 0j,
    complex(0.0, math.inf),
    complex(-math.inf, 1.0),
    complex(1.0, math.nan),
    complex(math.nan, math.inf),
], ids=lambda z: f"{z}-{flow.MAX_ABS}")  # the entry and the bound
def test_scalar_check_applies_the_rule_to_each_part(z):
    # h = 6, so the rk4 weight h / 6 is 1 and the last stage of step 3 puts z into the state
    f = lambda t, y: [0j, z if t == 18.0 else 0j]
    y0 = np.array([0.5 + 0.5j, 0j]).view(np.float64)
    y = np.array([0.5 + 0.5j, 0j], dtype=object)
    with np.errstate(invalid="ignore"):  # 1.0 * complex(0, inf) takes 0 * inf, as the run does
        for k in range(3):  # the reference: Python scalar arithmetic
            y = rk4_step(lambda t, v: np.array(f(t, list(v)), dtype=object), 6.0 * k, y, 6.0)
    state = np.array(y.tolist()).view(np.float64)
    assert state[2:].tolist() == [z.real, z.imag] or not cmath.isfinite(z)
    outcomes, system = [], call_system(f, 2, complex)
    for run in (lambda: flow._check_state(state, 12.0),
                lambda: integrate(system.rhs, y0, 18.0, h=6.0, system=system).states[-1]):
        try:
            outcomes.append(run())
        except BlowupError as exc:
            outcomes.append((str(exc), exc.last_good_time))
    if outcomes[0] is None:  # the state passes: the run ends on it
        assert outcomes[1].tobytes() == state.tobytes()
    else:
        assert outcomes[0] == outcomes[1]


def _fig2_state(fig2_data):
    return transport.pack_m2_state(fig2_data["k1"], fig2_data["k2"], fig2_data["m"])


def test_scalar_rk4_equals_array_rk4_on_m2(fig2_data):
    y0 = _fig2_state(fig2_data)
    on_scalars = integrate(_m2_rhs, y0, 2.0, h=1e-3, stride=10, system=_M2)
    on_arrays = integrate(transport.m2_coupled_rhs(), y0, 2.0, h=1e-3, stride=10)
    assert np.array_equal(on_scalars.times, on_arrays.times)
    assert np.array_equal(on_scalars.states, on_arrays.states)


def test_scalar_rk45_is_byte_identical_to_the_array_rhs(fig2_data):
    y0 = _fig2_state(fig2_data)
    on_scalars = integrate(_m2_rhs, y0, 2.0, h=1e-3, stride=10, method="rk45", system=_M2)
    on_arrays = integrate(transport.m2_coupled_rhs(), y0, 2.0, h=1e-3, stride=10, method="rk45")
    assert on_scalars.states.tobytes() == on_arrays.states.tobytes()
    assert on_scalars.times.tobytes() == on_arrays.times.tobytes()


def _zn_state(n, seed=5):
    rng = np.random.default_rng(seed)
    k_plus = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    m = rng.normal(size=n) + 1j * rng.normal(size=n)
    return transport.pack_zn_state(k_plus, -np.conj(np.roll(k_plus, -1)), m / np.linalg.norm(m))


def _zn_state12(seed):
    return _zn_state(12, seed)


@pytest.mark.parametrize("n", sorted({3, 9, 10, transport.ZN_SCALAR_CROSSOVER - 1, transport.ZN_SCALAR_CROSSOVER}))
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_zn_scalar_and_array_forms_agree(n, method):
    y0 = _zn_state(n)
    system = connection._zn_kernels(n)
    on_scalars = integrate(system.rhs, y0, 1.0, h=1e-3, stride=50, method=method, system=system)
    on_arrays = integrate(transport.zn_coupled_rhs(n), y0, 1.0, h=1e-3, stride=50, method=method)
    assert np.array_equal(on_scalars.times, on_arrays.times)
    assert np.abs(on_scalars.states - on_arrays.states).max() <= 1e-13 * np.abs(on_arrays.states).max()


def test_run_zn_picks_the_form_by_crossover(monkeypatch):
    forms = []

    def recording(f, y0, t_end, **kwargs):
        rk45 = kwargs["system"].rk45  # a compiled system's rk45 reads lists of its entry type
        forms.append((len(y0) // 6, None if rk45 is flow._dopri else rk45.keywords["scalars"]))
        return integrate(f, y0, t_end, **kwargs)

    monkeypatch.setattr(transport, "integrate", recording)
    for n in (3, transport.ZN_SCALAR_CROSSOVER - 1, transport.ZN_SCALAR_CROSSOVER, 64):
        z = _zn_state(n).view(np.complex128)
        transport.run_zn(z[:n], z[n : 2 * n], z[2 * n :], t_end=0.01, h=1e-3, stride=5)
    c = transport.ZN_SCALAR_CROSSOVER
    assert forms == [(3, complex), (c - 1, complex), (c, None), (64, None)]


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_a_wrapper_of_integrate_sees_every_rhs_call(method, fig2_data, monkeypatch):
    """The contract of a tracer that wraps the positional f of each module's integrate, keywords passed through."""
    z = _zn_state(3).view(np.complex128)
    stepping = dict(t_end=0.3, h=1e-3, stride=10, method=method)
    runs = {  # each compiled system, through the integrate of its module
        "zn3": lambda: transport.run_zn(z[:3], z[3:6], z[6:], **stepping),
        "m2": lambda: transport.run_m2(fig2_data["k1"], fig2_data["k2"], fig2_data["m"], **stepping),
        "m2row": lambda: mobius.run_row(0.6 - 0.2j, -0.3 + 0.8j, 0.3j, -1.1 + 0.4j, 1.1 + 0.4j, **stepping),
        "geodesic": lambda: classical.integrate_geodesic([1.1, 0.4], [0.3, -0.5], classical.round_sphere(), **stepping),
    }
    calls, states = {"rhs": 0}, []

    def wrapping(wrap_f):
        def wrapper(f, y0, t_end, **kwargs):
            def counted(t, y):
                calls["rhs"] += 1
                return f(t, y)

            traj = integrate(counted if wrap_f else f, y0, t_end, **kwargs)
            states.append(traj.states)
            return traj

        return wrapper

    def traced(name, wrap_f):
        for module in (transport, mobius, classical):
            monkeypatch.setattr(module, "integrate", wrapping(wrap_f))
        runs[name]()
        return states.pop()

    _, counts = _counting_rk45(monkeypatch, None)
    for name in runs:
        plain = traced(name, False)
        calls["rhs"] = counts["attempts"] = 0
        assert traced(name, True).tobytes() == plain.tobytes(), name
        if method == "rk4":  # the fused run makes no call of f
            assert calls["rhs"] == counts["attempts"] == 0, name
        else:
            assert counts["attempts"] >= 30 and calls["rhs"] == 1 + 6 * counts["attempts"], name


def test_integrate_preallocates_the_sampled_rows():
    traj = integrate(lambda t, y: -y, np.array([1.0, 2.0]), 1.0, h=0.1, stride=3)
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
    for method in ("rk4", "rk45"):
        for system in (None, _M2):
            with pytest.raises(ValueError, match="y0 is empty"):
                integrate(f, np.array([]), 1.0, method=method, system=system)
    for removed in ("scalars", "rk4_run"):  # a compiled system is the one way to step scalars
        with pytest.raises(TypeError):
            integrate(f, np.array([1.0]), 1.0, **{removed: None})
    for t_end, h in ((math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan), (1.0, 1e-300), (1e300, 1e-300),
                     (flow.MAX_STEPS * 1e-3 + 1e-3, 1e-3)):
        with pytest.raises(ValueError):
            integrate(f, np.array([1.0]), t_end, h=h)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_a_y0_of_another_length_than_the_system_is_refused(method):
    system = connection._zn_kernels(2)  # 6 complex entries: 12 floats
    for y0 in (np.zeros(8), np.zeros(14)):
        with pytest.raises(ValueError, match=f"y0 holds {y0.shape[0]} floats for a system of 12"):
            integrate(system.rhs, y0, 1.0, method=method, system=system)
    bound = call_system(lambda t, y: y, 3, float)
    assert bound.floats == 3
    with pytest.raises(ValueError, match="y0 holds 6 floats for a system of 3"):
        integrate(bound.rhs, np.zeros(6), 1.0, method=method, system=bound)


def test_a_stride_that_is_not_an_integer_is_refused():
    f, y0 = (lambda t, y: -y), np.array([1.0])
    for stride in (2.5, 2.0, "2"):  # integrate read 2.5 as 2, integrate_riccati sampled where k % 2.5 == 0
        with pytest.raises(ValueError, match="stride must be an integer"):
            integrate(f, y0, 1.0, h=0.1, stride=stride)
        with pytest.raises(ValueError, match="stride must be an integer"):
            mobius.integrate_riccati(0.5, 1j, 1j, 1.0, h=0.1, stride=stride)
    for stride in (2, np.int64(2), np.int32(2)):
        assert integrate(f, y0, 1.0, h=0.1, stride=stride).times.tolist() == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        times, _ = mobius.integrate_riccati(0.5, 1j, 1j, 1.0, h=0.1, stride=stride)
        assert times.tolist() == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])


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
        y0, f, system, f_oracle = _zn_state(12), transport.zn_coupled_rhs(12), None, transport.zn_coupled_rhs(12)
    else:
        y0, f, system, f_oracle = _fig2_state(fig2_data), _m2_rhs, _M2, _on_packed(_m2_rhs)
    times = []

    def counted(t, y):
        times.append(t)
        return f(t, y)

    h = 0.01
    traj = integrate(counted, y0, h, h=h, method="rk45", system=system)
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


_LIST_RHSS = {
    "identity": lambda t, y: y,  # returns its input
    "tuple": lambda t, y: tuple(v * v - t for v in y),
    "coupled": lambda t, y: [0.5 * y[i - 1] - v * t for i, v in enumerate(y)],
}


@pytest.mark.parametrize("name", sorted(_LIST_RHSS))
@pytest.mark.parametrize("scalars", [complex, float])
@pytest.mark.parametrize("size", [1, 2, 4, 12, 27])
def test_unrolled_rk4_equals_rk4_step_bit_for_bit(name, scalars, size):
    f = _LIST_RHSS[name]
    run = per_call_rk4(size, scalars)
    rng = np.random.default_rng(size)
    y0 = 0.25 * (rng.normal(size=size) + (1j * rng.normal(size=size) if scalars is complex else 0.0))
    n_steps = 8  # not a multiple of the strides 3 and 7

    def on_objects(t, values):  # rk4_step on object arrays: Python scalar arithmetic, entry by entry
        return np.array(f(t, list(values)), dtype=object)

    for h in (1e-3, 0.1, -0.05):
        for stride in (1, 3, 7):
            y, want = np.array(y0.tolist(), dtype=object), [y0.tolist()]
            for k in range(1, n_steps + 1):
                y = rk4_step(on_objects, (k - 1) * h, y, h)
                if k % stride == 0 or k == n_steps:
                    want.append(y.tolist())
            assert all(type(v) is scalars for v in want[-1])
            out = np.zeros((flow.sample_count(n_steps, stride), size), dtype=scalars)
            out[0] = y0
            run(f, None, y0.view(np.float64), h, n_steps, stride, out.view(np.float64))
            assert out.tobytes() == np.array(want, dtype=scalars).tobytes()


def _fused_systems():
    """(name, compiled system with its run arguments bound, initial entries) of each package system."""
    rng = np.random.default_rng(18)
    for n in (1, 2, 3, 10, 17):
        yield f"zn{n}", connection._zn_kernels(n), (0.3 * (rng.normal(size=3 * n) + 1j * rng.normal(size=3 * n))).tolist()
    yield "m2", _M2, (0.3 * (rng.normal(size=12) + 1j * rng.normal(size=12))).tolist()
    yield "m2row", mobius._row_kernels().bind(0.2 + 0.7j, -1.1 + 0.4j, 0.9 - 0.3j), [0.6 - 0.2j, -0.3 + 0.8j]
    for provider, x in ((classical.round_sphere(), [1.1, 0.4]), *((classical.flat_space(d), rng.normal(size=d).tolist())
                                                                  for d in (1, 3, 8))):
        system = classical._geodesic_rates(provider)
        yield f"geodesic{provider.dim}", system, x + rng.normal(size=provider.dim).tolist()


def _packed(entries: list) -> np.ndarray:
    """Python complex numbers or floats as the packed float64 state."""
    return np.array(entries).view(np.float64)


@pytest.mark.parametrize("case", list(_fused_systems()), ids=lambda case: case[0])
def test_fused_rk4_run_equals_the_per_call_run_of_its_rhs(case):
    _, system, y0 = case
    entry, y = type(y0[0]), _packed(y0)
    assert all(type(v) is entry for v in y0) and system.rk45.keywords == {"scalars": entry}
    n_steps = 8  # not a multiple of the strides 3 and 7
    for h in (1e-3, 0.05, -0.05):
        for stride in (1, 3, 7):
            fused, per_call = np.zeros((2, flow.sample_count(n_steps, stride), y.shape[0]))
            fused[0] = per_call[0] = y
            system.rk4(system.rhs, y, h, n_steps, stride, fused)
            per_call_rk4(len(y0), entry)(system.rhs, None, y, h, n_steps, stride, per_call)
            assert fused.tobytes() == per_call.tobytes()


def _blowup(run, *args):
    with pytest.raises(BlowupError) as caught:
        run(*args)
    return str(caught.value), caught.value.last_good_time


@pytest.mark.parametrize("case", ["past-max-abs", "non-finite-start", "pole-stage"])
def test_fused_rk4_run_blows_up_like_the_per_call_run(case):
    if case == "pole-stage":  # theta = 0.02 - t: stage 2 of the first step lands on the pole, theta = 0
        sphere = classical.round_sphere()
        system = classical._geodesic_rates(sphere)
        y0, h = [0.02, 0.0, -1.0, 0.0], 0.04
        assert all(math.isnan(r) for r in system.rhs(0.0, [0.0, 0.0, -1.0, 0.0]))
    else:  # lam' = 40 lam passes MAX_ABS near t = 0.52; a nan entry fails the first check
        system = mobius._row_kernels().bind(40.0 + 0j, 0j, 0j)
        h = 0.01
        y0 = [1.0 + 0j, 0.5j] if case == "past-max-abs" else [complex(math.nan, 0.0), 1.0 + 0j]
    y = _packed(y0)
    out = np.zeros((2, y.shape[0]))
    out[0] = y
    got = _blowup(system.rk4, system.rhs, y, h, 100, 100, out.copy())
    assert got == _blowup(per_call_rk4(len(y0), type(y0[0])), system.rhs, None, y, h, 100, 100, out.copy())
    assert got[1] == {"past-max-abs": 0.51, "non-finite-start": 0.0, "pole-stage": 0.0}[case]
    assert ("exceeded" if case == "past-max-abs" else "non-finite") in got[0]


def _linear(a: list, y: list) -> list:
    """``A y``, each row summed from the left: on numbers, or on ``flow._Expr`` symbols as source text."""
    return [functools.reduce(operator.add, (c * v for c, v in zip(row, y))) for row in a]


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 24), entry=st.sampled_from([complex, float]), n_steps=st.integers(1, 25),
       stride=st.integers(1, 30), h=st.floats(1e-3, 0.2), backwards=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_compiled_linear_run_equals_a_loop_of_rk4_step(size, entry, n_steps, stride, h, backwards, seed):
    """y' = A y with random constants written into the stage: every sampled row of the run is rk4_step's.

    Forwards the run goes through ``integrate``; backwards (h < 0, which
    ``integrate`` refuses) it is the system's rk4 stepper called as
    ``integrate`` calls it, with the initial state in row 0 of the block.
    """
    rng = np.random.default_rng(seed)

    def draw(*shape):  # entries in the unit box; A is scaled so that no run nears MAX_ABS
        x = rng.uniform(-1.0, 1.0, shape)
        return x + 1j * rng.uniform(-1.0, 1.0, shape) if entry is complex else x

    a, y0 = (draw(size, size) / size).tolist(), draw(size).tolist()
    constants = [[flow._Expr(f"complex({c.real!r}, {c.imag!r})" if entry is complex else repr(c)) for c in row]
                 for row in a]
    system = flow._stage_kernels(
        size, lambda t, inputs, rates: flow._assign(rates, _linear(constants, list(map(flow._Expr, inputs)))), (), entry)
    y = _packed(y0)
    if backwards:
        h = -h
        states = np.zeros((flow.sample_count(n_steps, stride), y.shape[0]))
        states[0] = y
        system.rk4(system.rhs, y, h, n_steps, stride, states)
    else:
        states = integrate(system.rhs, y, n_steps * h, h=h, stride=stride, system=system).states
        h = n_steps * h / n_steps  # integrate's actual step
    rates = lambda t, v: np.array(_linear(a, list(v)), dtype=object)  # Python scalar arithmetic, entry by entry
    want = [np.array(y0, dtype=object)]
    for k in range(1, n_steps + 1):
        want.append(rk4_step(rates, (k - 1) * h, want[-1], h))
    rows = np.array([want[k].tolist() for k in _sampled_steps(n_steps, stride)], dtype=entry)
    assert states.tobytes() == rows.tobytes()


def _recorded_sources(monkeypatch) -> list:
    """The list that every source compiled from now on is appended to, in order."""
    sources, compile_source = [], flow._compile

    def recording(source, name, **names):
        sources.append(source)
        return compile_source(source, name, **names)

    monkeypatch.setattr(flow, "_compile", recording)  # every kernel is compiled through flow
    return sources


def _compile_complex_systems() -> int:
    """Compile Z_1 to Z_17, M2 and m2row afresh; returns the number of sources, an rhs and a fused run each."""
    for n in range(1, transport.ZN_SCALAR_CROSSOVER):
        connection._zn_kernels.__wrapped__(n)
    connection._m2_kernels.__wrapped__()
    mobius._row_kernels.__wrapped__()
    return 2 * (transport.ZN_SCALAR_CROSSOVER - 1) + 2 + 2


def test_compiled_sources_hold_only_indices_and_fixed_constants(monkeypatch):
    sources = _recorded_sources(monkeypatch)
    for size in [*range(1, 33), 256]:  # the per-call reference run
        flow._compile_rk4(size, call_stage, ("g",), complex if size % 2 else float)
    complex_sources = _compile_complex_systems()  # each system compiles its per-call rhs and its fused rk4 run
    for provider in (classical.round_sphere(), classical.flat_space(3), classical.flat_space(128)):
        classical._geodesic_rates.__wrapped__(provider)
    # the rk4 weights and the bound of the state check, beta's and M2's 1/2, and the geodesic's 0.0 start;
    # a complex system writes the weights and the 1/2 as complex constants, such as (0.5+0j)
    constants = {repr(c) for c in (0.5, 2.0, 6.0, flow.MAX_ABS, 0.0)}
    complex_constants = {repr(complex(c)) for c in (0.5, 2.0, 6.0)}
    assert len(sources) == 33 + complex_sources + 2 * 3
    for source in sources:
        assert set(re.findall(_COMPLEX_LITERAL, source)) <= complex_constants
        for token in tokenize.generate_tokens(io.StringIO(re.sub(_COMPLEX_LITERAL, "c", source)).readline):
            assert token.type != tokenize.STRING, token
            if token.type == tokenize.NUMBER:
                assert token.string.isdigit() or token.string in constants, token


_COMPLEX_LITERAL = r"\([^()\s]*j\)"  # a complex constant as its repr writes it, such as (0.5+0j) or (2+0j)
_TIME_GRID = {"t", "h", "half", "sixth", "step", "n_steps", "stride"}  # a run's float time grid and step counter


def _real_operand(node: ast.expr) -> bool:
    """Whether an operand is real: a real literal, a ``_k`` name of float64 bytes or a float step coefficient."""
    if isinstance(node, ast.Name):
        return node.id in ("h", "half", "sixth") or re.fullmatch("_k[0-9a-f]{16}", node.id) is not None
    try:
        return not isinstance(ast.literal_eval(node), complex)
    except ValueError:  # not a literal
        return False


def test_compiled_complex_systems_multiply_their_entries_by_complex_constants_only(monkeypatch):
    """No real number is an operand of the arithmetic on a complex system's entries.

    On CPython 3.11 ``x * z`` for a float x converts x to ``complex(x,
    0.0)`` on every call and computes the complex product, so writing x
    as that complex constant gives the same bytes with no mixed-type
    dispatch.  Real literals remain in the arithmetic of the float time
    grid (t = (step - 1) h, h / 2, h / 6) and as the state check's bound,
    compared against ``abs(...)``.
    """
    sources = _recorded_sources(monkeypatch)
    count = _compile_complex_systems()
    assert len(sources) == count
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            on_grid = {name.id for name in ast.walk(node) if isinstance(name, ast.Name)} <= _TIME_GRID
            if isinstance(node, ast.BinOp) and not on_grid:
                assert not any(map(_real_operand, (node.left, node.right))), ast.unparse(node)
            if isinstance(node, ast.Compare) and not on_grid and any(map(_real_operand, node.comparators)):
                assert isinstance(node.left, ast.Call) and node.left.func.id == "abs", ast.unparse(node)
                assert [ast.literal_eval(c) for c in node.comparators] == [flow.MAX_ABS], ast.unparse(node)


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan, -math.nan, complex(-0.0, 1.0), complex(math.inf, 0.0)],
                         ids=["inf", "-inf", "nan", "-nan", "complex(-0.0, 1.0)", "complex(inf, 0)"])
def test_a_compiled_constant_keeps_its_bytes_where_its_repr_does_not_read_back(c):
    """rhs and the fused rk4 run of a stage with the constant c compute what Python's operators give on c.

    inf and nan are not literals, -nan prints as nan, and ``(-0+1j)``
    reads back with a +0.0 real part.  One rk4 step of size 1/4 is
    compared bit for bit, or, where Python's step is not finite, the run
    must blow up at its start.
    """
    entry = complex if isinstance(c, complex) else float
    system = flow._stage_kernels(
        2, lambda t, inputs, rates: flow._assign(rates, [flow._Expr(inputs[0]) * c, c - flow._Expr(inputs[1])]),
        (), entry)
    y0 = [entry(0.5), entry(-0.25)]
    rates = lambda t, y: np.array([y[0] * c, c - y[1]], dtype=object)  # Python's operators on the entries
    assert np.array(system.rhs(0.0, y0)).tobytes() == np.array(rates(0.0, y0).tolist()).tobytes()
    with np.errstate(invalid="ignore", over="ignore"):  # numpy reports the flags that Python's float operations set
        want = rk4_step(rates, 0.0, np.array(y0, dtype=object), 0.25).tolist()
    if all(map(cmath.isfinite, want)):
        states = integrate(system.rhs, _packed(y0), 0.25, h=0.25, system=system).states
        assert states[-1].tobytes() == _packed(want).tobytes()
    else:
        with pytest.raises(BlowupError, match="^non-finite state") as excinfo:
            integrate(system.rhs, _packed(y0), 0.25, h=0.25, system=system)
        assert excinfo.value.last_good_time == 0.0


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("scalars", [complex, float, None])
def test_scalar_rhs_of_the_wrong_length_raises(method, scalars):
    y0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    form = list if scalars else np.array  # the array form returns a float64 vector
    for returned in (1, 2, 4):  # numpy would broadcast one entry over a stage's row or buffer
        f = lambda t, y: form([-y[0]] * returned)
        system = call_system(f, 3 if scalars is complex else 6, scalars) if scalars else None
        with pytest.raises(ValueError, match=None if scalars else f"{returned} entries for a state of 6"):
            integrate(system.rhs if scalars else f, y0, 0.1, h=0.01, method=method, system=system)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_scalar_form_state_size_is_capped(method):
    cap = flow.MAX_SCALAR_STATE
    decay = lambda t, y: [-v for v in y]
    system = call_system(decay, cap, float)
    traj = integrate(system.rhs, np.ones(cap), 0.01, h=0.01, method=method, system=system)
    assert traj.states.shape == (2, cap)
    for entries, scalars in (((cap + 2) // 2, complex), (cap + 2, float)):  # refused before anything compiles
        with pytest.raises(ValueError, match=f"at most {cap} floats, not {cap + 2}"):
            call_system(decay, entries, scalars)
    assert integrate(lambda t, y: -y, np.ones(cap + 2), 0.01, h=0.01, method=method).states.shape == (2, cap + 2)


_STEP_RHSS = {  # a right-hand side and its test state at a seed
    "identity": (lambda t, y: y, _zn_state12),  # returns its input: the buffers must not alias a live stage
    "decay": (lambda t, y: -y, _zn_state12),
    "quadratic": (lambda t, y: y * y - t, _zn_state12),
    "zn12": (transport.zn_coupled_rhs(12), _zn_state12),
    "zn64": (transport.zn_coupled_rhs(64), lambda seed: _zn_state(64, seed)),  # past the scalar crossover
    # the 72 floats of a Z_12 state as grid samples, scaled so that h = 0.1 stays well before the shock
    "burgers4": (flow._array_system(classical._burgers_stage(72, classical.GRID_SPAN / 72, 4), (1, 2), 72).rhs,
                 lambda seed: 0.05 * _zn_state12(seed)),
}


@pytest.mark.parametrize("name", sorted(_STEP_RHSS))
def test_buffered_rk4_equals_rk4_step_bit_for_bit(name):
    f, state = _STEP_RHSS[name]
    y0 = state(9)
    n_steps = 4  # repeated steps reuse the buffers
    for h in (1e-3, 0.1, -0.05):
        y, want = y0, [y0]
        for k in range(1, n_steps + 1):
            y = rk4_step(f, (k - 1) * h, y, h)
            want.append(y)
        out = np.zeros((n_steps + 1, y0.shape[0]))
        out[0] = y0
        flow._rk4_arrays(f, y0, h, n_steps, 1, out, flow._plain_stage(f), (1, 0))
        assert out.tobytes() == np.array(want).tobytes()
        assert y0.tobytes() == state(9).tobytes()  # the run does not write into its input


@pytest.mark.parametrize("name", sorted(_STEP_RHSS))
def test_array_rk4_run_equals_a_loop_of_rk4_step(name):
    f, state = _STEP_RHSS[name]
    y = 0.1 * state(10)
    traj = integrate(f, y, 0.05, h=1e-3, stride=10)
    for k in range(1, 51):
        y = rk4_step(f, (k - 1) * 1e-3, y, 1e-3)
        if k % 10 == 0:
            assert traj.states[k // 10].tobytes() == y.tobytes(), k


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_a_plain_f_may_return_a_buffer_that_it_reuses(method):
    """Each stage of a plain f is copied at once, so a stage that f overwrites on its next call is not read."""
    y0, reused = _zn_state12(4), np.empty(72)
    fresh = integrate(lambda t, y: y * (-1.0 - t), y0, 0.05, h=1e-3, stride=10, method=method)
    into_one_buffer = integrate(lambda t, y: np.multiply(y, -1.0 - t, reused), y0, 0.05, h=1e-3, stride=10,
                                method=method)
    assert into_one_buffer.states.tobytes() == fresh.states.tobytes()


def _rk4_step_states(f, y0, h, n_steps):
    """The state after each of ``n_steps`` steps of ``rk4_step`` from y0, y0 first."""
    states = [y0]
    for k in range(1, n_steps + 1):
        states.append(rk4_step(f, (k - 1) * h, states[-1], h))
    return np.array(states)


def _sampled_steps(n_steps, stride):
    """The steps that ``integrate`` samples: every stride-th from 0, plus the last."""
    return sorted({*range(0, n_steps + 1, stride), n_steps})


@pytest.mark.parametrize("n", [1, 2, 18, 64])
def test_fused_zn_array_run_equals_a_loop_of_rk4_step_bit_for_bit(n):
    """The array system's run, stepped in its ghost-padded layout, against rk4_step on the per-call rhs."""
    f, y0, system = transport.zn_coupled_rhs(n), _zn_state(n, 9), connection._zn_arrays(n)
    n_steps = 6
    for h in (1e-3, 0.1, -0.05):
        want = _rk4_step_states(f, y0, h, n_steps)
        for stride in (1, 3, 4):  # 1 and 3 divide n_steps, 4 does not
            out = np.zeros((flow.sample_count(n_steps, stride), 6 * n))
            out[0] = y0
            system.rk4(system.rhs, y0, h, n_steps, stride, out)
            assert out.tobytes() == want[_sampled_steps(n_steps, stride)].tobytes(), (h, stride)
        assert y0.tobytes() == _zn_state(n, 9).tobytes()  # the run does not write into its input


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), n_steps=st.integers(1, 25), stride=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_fused_zn_array_run_equals_the_per_call_run(n, n_steps, stride, seed):
    y0, h = _zn_state(n, seed), 0.01
    system = connection._zn_arrays(n)
    fused = integrate(system.rhs, y0, n_steps * h, h=h, stride=stride, system=system)
    per_call = integrate(transport.zn_coupled_rhs(n), y0, n_steps * h, h=h, stride=stride)
    assert fused.states.tobytes() == per_call.states.tobytes()
    assert fused.times.tobytes() == per_call.times.tobytes()
    # integrate's docstring: every stride-th step from 0 and the last, at multiples of the actual step
    steps, h_eff = _sampled_steps(n_steps, stride), n_steps * h / n_steps
    assert len(fused) == flow.sample_count(n_steps, stride) == len(steps)
    assert fused.times.tolist() == [k * h_eff for k in steps]
    want = _rk4_step_states(transport.zn_coupled_rhs(n), y0, h_eff, n_steps)
    assert fused.states.tobytes() == want[steps].tobytes()  # the last row is the state after n_steps


@pytest.mark.parametrize("scale, h, message, last_good", [
    (0.44, 1.0, "state magnitude exceeded 1e+09", 4.0),
    (4.4e-21, 1e20, "non-finite state encountered", 5e20),  # tiny data, huge steps: one step overflows
])
def test_fused_zn_array_run_blows_up_as_the_per_call_run(scale, h, message, last_good):
    n = 18
    z = scale * np.exp(1j * np.random.default_rng(3).uniform(0.0, 6.3, 3 * n))
    y0, system = transport.pack_zn_state(*z.reshape(3, n)), connection._zn_arrays(n)
    seen = []
    for f, kwargs in ((transport.zn_coupled_rhs(n), {}), (system.rhs, {"system": system})):
        with warnings.catch_warnings(record=True) as caught, pytest.raises(BlowupError) as info:
            warnings.simplefilter("always")
            integrate(f, y0, 30 * h, h=h, **kwargs)
        assert str(info.value) == f"{message} (last good time t={last_good:.6g})"
        assert info.value.last_good_time == last_good
        seen.append([(w.category, str(w.message), w.filename, w.lineno) for w in caught])
    assert seen == [[], []]  # integrate reports no floating-point event of either run


def test_an_array_rk4_run_calls_f_once():
    """f gives the first stage of a Z_64 array run and nothing more; the system's stage gives the others."""
    y0, system, calls = _zn_state(64), connection._zn_arrays(64), []

    def f(t, y):
        calls.append(t)
        return system.rhs(t, y)

    integrate(f, y0, 5.0, h=0.01, stride=5, system=system)
    assert calls == [0.0]


_UFUNCS = ("add", "subtract", "multiply", "absolute", "dot")


def _no_fork():
    pytest.fail("an array rk4 run forked a process")


@pytest.mark.parametrize("n, steps", [(64, 10000), (4096, 1000)])  # zn-large's Z_64 steps; 4,096 x 1,000 site-steps
def test_a_zn_array_rk4_run_makes_one_blocks_ufunc_calls(n, steps, monkeypatch):
    """13 ufunc calls per stage (4 add, 3 subtract, 6 multiply), 13 per step's combination (7 add, 6 multiply)
    and one absolute per step's check, with no dot, which may start BLAS threads, and no process forked."""
    counts, y0 = dict.fromkeys(_UFUNCS, 0), _zn_state(n)

    def counting(name):
        real = getattr(np, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    for name in _UFUNCS:
        monkeypatch.setattr(np, name, counting(name))
    monkeypatch.setattr(os, "fork", _no_fork)
    connection._zn_rates_of.cache_clear()  # emitted again, with the counting ufuncs bound
    try:
        system = connection._zn_arrays(n)
        integrate(system.rhs, y0, steps * 1e-3, h=1e-3, stride=100, system=system)
    finally:
        connection._zn_rates_of.cache_clear()
    stages = 4 * steps  # the first from f, which runs the same stage
    assert counts == {"add": 4 * stages + 7 * steps, "subtract": 3 * stages, "multiply": 6 * stages + 6 * steps,
                      "absolute": steps, "dot": 0}


_FLOATS = call_system(lambda t, y: [0.5 * y[i - 1] - v * t for i, v in enumerate(y)], 3, float)
_FORMS = {  # a right-hand side, its compiled system and its initial state in each form
    None: (transport.m2_coupled_rhs(), None, None),
    complex: (_m2_rhs, _M2, None),
    float: (_FLOATS.rhs, _FLOATS, np.array([1.0, -0.5, 0.25])),
}


@pytest.mark.parametrize("scalars", [None, complex, float], ids=["arrays", "complex", "float"])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_every_stepper_samples_every_stride_th_state_and_the_last(method, scalars, fig2_data, monkeypatch):
    f, system, y0 = _FORMS[scalars]
    y0 = _fig2_state(fig2_data) if y0 is None else y0
    _, counts = _counting_rk45(monkeypatch, f)
    every = integrate(f, y0, 0.5, h=0.01, stride=1, method=method, system=system)
    every_attempts = counts["attempts"]
    sampled = integrate(f, y0, 0.5, h=0.01, stride=7, method=method, system=system)
    steps = [*range(0, 50, 7), 50]  # 50 steps: the last is not a multiple of 7
    assert sampled.times.tobytes() == every.times[steps].tobytes()
    if method == "rk4":
        assert sampled.states.tobytes() == every.states[steps].tobytes()
    else:  # rk45 steps up to the next sampled step: fewer, longer attempts; states moved by 1.2 RTOL at most
        assert 0 < counts["attempts"] - every_attempts < every_attempts
        scale = np.maximum(1.0, np.abs(every.states[steps]))
        assert np.all(np.abs(sampled.states - every.states[steps]) <= 10 * flow.RTOL * scale)


@pytest.mark.parametrize("scenario", ["zn", "m2", "m2row", "classical-geodesic", "classical-burgers"])
def test_rk45_attempts_per_run_at_the_scenario_defaults(scenario, monkeypatch, tmp_path):
    """rk45 lands only on the sampled steps: 200 sample intervals of the default stride 10 at t_end = 2.

    At stride 1 every attempt is one whole grid step and is accepted.
    """
    _, counts = _counting_rk45(monkeypatch, None)
    run = ["run", "--scenario", scenario, "--method", "rk45", "--t-end", "2", "--out", str(tmp_path)]
    assert main(run) == 0
    assert counts["attempts"] <= 202
    counts["attempts"] = 0
    assert main([*run, "--stride", "1"]) == 0
    assert counts["attempts"] == 2000


# The array-stage emitter, flow._array_rates: random expressions against numpy's operators on the same expression.
_VIEWS = ("a", "b", "c")
_SCRATCH = tuple(f"s{i}" for i in range(8))  # more than an expression of 8 leaves can need
_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-4, 4),
                     st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, math.inf, -math.inf, math.nan, -math.nan]))
_PARTS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
# a complex repr such as infj or (nan+infj) does not read back as a number, so the tree, not the text, is emitted
_COMPLEX_NUMBERS = st.one_of(_NUMBERS, st.builds(complex, _PARTS, _PARTS), st.sampled_from(
    [complex(0.0, math.inf), complex(-math.inf, -0.0), complex(1.5, -math.inf)]))
_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -2.2e-310, 1.0, -3.5, 1e308, -1e308, math.inf, -math.inf, math.nan])
_OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv]


def _apply(node, leaf):
    """A tree's value: ``leaf(name)`` for a view name, ``op(*operands)`` for ``(op, *operands)``, a number itself."""
    if isinstance(node, str):
        return leaf(node)
    if isinstance(node, tuple):
        return node[0](*(_apply(operand, leaf) for operand in node[1:]))
    return node


def _operations(children, numbers):
    """One operation on trees: a binary operator with a tree or a number on either side, or -, sin or cos."""
    binary = st.builds(lambda op, node, other, swap: (op, other, node) if swap else (op, node, other),
                       st.sampled_from(_OPERATORS), children, st.one_of(children, numbers), st.booleans())
    return st.one_of(binary, st.tuples(st.sampled_from([operator.neg, flow.sin, flow.cos]), children))


def _trees(numbers):
    """Expression trees over the views: a view alone (a copy step) or an operation of up to 8 leaves."""
    views = st.sampled_from(_VIEWS)
    return st.one_of(views, _operations(st.recursive(views, lambda c: _operations(c, numbers), max_leaves=8), numbers))


@settings(max_examples=200, deadline=None)
@given(scalars=st.sampled_from([float, complex]), data=st.data())
def test_emitted_rates_write_the_bytes_of_numpys_operators(scalars, data):
    """The emitted steps give, in each target, the bytes that numpy's operators give on the same expression.

    A step whose expression is a view is a copy.  The constants include +-0, subnormals, +-inf and nan, and
    complex ones with an infinite part.
    """
    trees = data.draw(st.lists(_trees(_COMPLEX_NUMBERS if scalars is complex else _NUMBERS), min_size=1, max_size=3))
    size = 6 * (2 if scalars is complex else 1)  # floats per view: 6 entries
    parts = st.lists(st.one_of(st.floats(), _SPECIAL), min_size=size, max_size=size)
    views = {name: np.array(data.draw(parts)).view(np.complex128 if scalars is complex else np.float64)
             for name in _VIEWS}
    targets = {f"out{i}": np.full(6, np.nan, dtype=views["a"].dtype) for i in range(len(trees))}
    steps = [(name, _apply(tree, flow._Expr)) for name, tree in zip(targets, trees)]
    rates = flow._array_rates(steps, _SCRATCH, scalars)(
        **targets, **views, **{name: np.empty_like(views["a"]) for name in _SCRATCH})
    with np.errstate(all="ignore"):
        wants = [_apply(tree, views.__getitem__) for tree in trees]
        assert rates(0.0) is None
    for (name, expr), want in zip(steps, wants):
        assert targets[name].dtype == want.dtype and targets[name].tobytes() == want.tobytes(), expr.text


@settings(max_examples=200, deadline=None)
@given(trees=st.lists(_trees(_NUMBERS), min_size=3, max_size=3),
       y=st.lists(st.one_of(st.floats(), _SPECIAL), min_size=3, max_size=3))
def test_compiled_rates_compute_what_pythons_operators_give(trees, y):
    """A float stage compiled from random expressions gives the bytes of Python's operators and math's sin and cos.

    The leaves are the stage inputs.  Where Python raises ZeroDivisionError
    (x / 0) or ValueError (sin or cos of inf), the compiled rates raise one
    of the two: a call on an input is evaluated before the first rate.
    """
    system = flow._stage_kernels(3, lambda t, inputs, rates: flow._assign(
        rates, [_apply(tree, lambda view: flow._Expr(inputs[_VIEWS.index(view)])) for tree in trees]), (), float)
    try:
        want = [_apply(tree, dict(zip(_VIEWS, y)).__getitem__) for tree in trees]
    except (ValueError, ZeroDivisionError):
        with pytest.raises((ValueError, ZeroDivisionError)):
            system.rhs(0.0, y)
    else:
        assert np.array(system.rhs(0.0, y)).tobytes() == np.array(want, dtype=np.float64).tobytes()


def test_a_call_on_a_name_is_bound_once_per_stage():
    """sin and cos of an input are one line each, however many rates read them; a call on an operation is inline."""
    x, v = flow._Expr("s0"), flow._Expr("s1")
    lines = flow._assign(["ka0", "ka1"], [flow.sin(x) * v - flow.cos(x), flow.cos(x) / flow.sin(x) + flow.sin(x * v)])
    assert lines == ["sin_s0 = sin(s0)", "cos_s0 = cos(s0)", "ka0 = ((sin_s0 * s1) - cos_s0)",
                     "ka1 = ((cos_s0 / sin_s0) + sin((s0 * s1)))"]


def test_the_emitter_refuses_a_target_or_scratch_view_that_is_a_leaf_of_its_expression():
    """Either would be overwritten before it is read: (a * b) goes into out, (c * out) into s."""
    a, b, c, out, s = map(flow._Expr, ("a", "b", "c", "out", "s"))
    with pytest.raises(ValueError, match="^out: a target or scratch view is a leaf of its own expression$"):
        flow._array_rates([("out", a * b + c * out)], ("s",), float)
    with pytest.raises(ValueError, match="^out: a target or scratch view is a leaf of its own expression$"):
        flow._array_rates([("out", a * b + c * s)], ("s",), float)
    flow._array_rates([("out", a * b + c * b)], ("s",), float)  # the same shape over other leaves is emitted


def test_the_emitter_keeps_the_bytes_of_each_constant():
    """A constant is shared only by numbers of the same bytes: nan and -nan print alike but keep their signs."""
    a, views = flow._Expr("a"), np.zeros((3, 1))
    steps = [("nan", a * math.nan), ("neg_nan", a * -math.nan), ("neg_zero", a * -0.0)]
    flow._array_rates(steps, (), float)(nan=views[0], neg_nan=views[1], neg_zero=views[2], a=np.ones(1))(0.0)
    want = [np.ones(1) * math.nan, np.ones(1) * -math.nan, np.ones(1) * -0.0]
    assert views.tobytes() == np.concatenate(want).tobytes()


def test_array_stages_are_emitted_once_per_stage_not_per_bind(monkeypatch):
    """The Z_n rates compile once per process and each burgers stage once when it is made.

    The Z_n steps name only views, so the first Z_n build compiles its
    rates and a build at another n compiles nothing; binding a stage and
    running rk4 and rk45 compile nothing either.
    """
    sources = []

    def recording(source, name, **names):
        sources.append(source)
        return compile_source(source, name, **names)

    compile_source = flow._compile
    monkeypatch.setattr(flow, "_compile", recording)
    connection._zn_rates_of.cache_clear()

    def zn(n):
        return lambda: connection._zn_arrays(n), _zn_state(n, 4)

    burgers = (lambda: flow._array_system(classical._burgers_stage(16, 0.4, 2), (1, 1), 16),
               np.linspace(-0.1, 0.1, 16))
    for (make, y0), compiles in ((zn(18), 1), (zn(64), 0), (zn(18), 0), (burgers, 1), (burgers, 1)):
        sources.clear()
        system = make()
        assert len(sources) == compiles
        for method in ("rk4", "rk45"):
            integrate(system.rhs, y0, 0.01, h=1e-3, method=method, system=system)
        assert len(sources) == compiles
