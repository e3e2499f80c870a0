import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import mat2_elements, zn_elements
from ncgflow import (
    I2,
    Mat2Element,
    OneForm,
    BlowupError,
    VectorField,
    ZnElement,
    braiding_residual,
    d,
    m2_transport_rhs,
    reality_residual,
    run_m2,
    run_zn,
    state_eval,
    velocity_functional,
    zn_transport_rhs,
)
from ncgflow import transport
from ncgflow.cli import main
from ncgflow.connection import _zn_kernels
from ncgflow.flow import Trajectory
from oracles import (
    bloch_point,
    density_characteristics_sine,
    m2_kflow_oracle,
    m2_transport_oracle,
    transport_characteristics_sine,
    zn2_transport_oracle,
    zn3_transport_oracle,
    zn_sites_oracle,
    zn_system,
    zn_transport_oracle,
)


def _zn_field(data):
    return VectorField(ZnElement(data["k_plus"]), ZnElement(data["k_minus"]))


def _m2_field(data):
    return VectorField(Mat2Element(data["k1"]), Mat2Element(data["k2"]))


def test_zn_transport_trivial_cases():
    n = 3
    zero_field = VectorField(ZnElement.zeros(n), ZnElement.zeros(n))
    m = ZnElement([1, 2j, 3])
    np.testing.assert_allclose(zn_transport_rhs(m, zero_field).samples, 0, atol=0)

    const_field = VectorField(ZnElement([1j, 1j, 1j]), ZnElement([2, 2, 2]))
    const_m = ZnElement([5, 5, 5])
    np.testing.assert_allclose(zn_transport_rhs(const_m, const_field).samples, 0, atol=1e-15)


def test_zn_transport_matches_site_oracle(fig1_data):
    kp = np.array(fig1_data["k_plus"])
    km = np.array(fig1_data["k_minus"])
    m = np.array(fig1_data["m"], dtype=complex)
    out = zn_transport_rhs(ZnElement(m), _zn_field(fig1_data))
    np.testing.assert_allclose(out.samples, zn3_transport_oracle(kp, km, m), atol=1e-14)


def test_m2_transport_trivial_and_oracle(fig2_data):
    zero = VectorField(Mat2Element.zeros(), Mat2Element.zeros())
    np.testing.assert_allclose(m2_transport_rhs(I2, zero).entries, 0, atol=0)

    out = m2_transport_rhs(Mat2Element(fig2_data["m"]), _m2_field(fig2_data))
    expected = m2_transport_oracle(fig2_data["k1"], fig2_data["k2"], fig2_data["m"])
    np.testing.assert_allclose(out.entries, expected, atol=1e-14)


def test_state_eval_examples(fig1_data, fig2_data):
    m = ZnElement(fig1_data["m"])
    assert state_eval(m, ZnElement.ones(3)) == pytest.approx(1.0)
    m2 = Mat2Element(fig2_data["m"])
    assert state_eval(m2, I2) == pytest.approx(1.0)
    assert state_eval(ZnElement.zeros(3), ZnElement.ones(3)) == 0


def test_state_eval_site_values(fig1_data):
    m = ZnElement(fig1_data["m"])
    for i, want in enumerate([0.5, 0.0, 0.5]):
        assert state_eval(m, ZnElement.delta(3, i)) == pytest.approx(want)


def _bloch(m):
    """``M2Run.bloch_series`` of a one-sample run at m."""
    y0 = transport.pack_m2_state(np.eye(2), np.eye(2), np.asarray(m, dtype=complex))
    return transport.M2Run.of(Trajectory(np.zeros(1), y0[None])).bloch_series()[0]


def test_bloch_examples(fig2_data):
    assert _bloch(fig2_data["m"]) == pytest.approx((-1 / 3, 1 / 6, 0.0), abs=1e-12)
    assert _bloch([[1, 0], [0, 0]]) == pytest.approx((-0.5, 0.0, 0.0))
    assert _bloch(np.eye(2) / np.sqrt(2)) == pytest.approx((0.0, 0.0, 0.0))
    np.testing.assert_allclose(_bloch(fig2_data["m"]), bloch_point(Mat2Element(fig2_data["m"])), rtol=0, atol=1e-15)


def test_velocity_functional_trivial():
    n = 3
    m = ZnElement([1, 1j, 0])
    zero_field = VectorField(ZnElement.zeros(n), ZnElement.zeros(n))
    xi = OneForm(ZnElement.ones(n), ZnElement.ones(n))
    assert velocity_functional(m, zero_field, xi) == 0

    K = VectorField(ZnElement.ones(n), ZnElement.ones(n))
    assert velocity_functional(m, K, d(ZnElement.ones(n))) == 0


def test_velocity_functional_site_formula(fig1_data):
    # V(e_plus . a) = sum_i K_+(i) m(i-1) a(i) m(i)^*
    K = _zn_field(fig1_data)
    rng = np.random.default_rng(3)
    m = ZnElement(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    a = ZnElement(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    xi = OneForm(a, ZnElement.zeros(3))
    kp = np.array(fig1_data["k_plus"])
    ms = m.samples
    expected = sum(kp[i] * ms[i - 1] * a.samples[i] * np.conj(ms[i]) for i in range(3))
    assert velocity_functional(m, K, xi) == pytest.approx(expected, abs=1e-13)


@pytest.fixture(scope="module")
def short_zn_run(fig1_data):
    return run_zn(fig1_data["k_plus"], fig1_data["k_minus"], fig1_data["m"], t_end=3.0, h=1e-3, stride=30)


@pytest.fixture(scope="module")
def short_m2_run(fig2_data):
    return run_m2(fig2_data["k1"], fig2_data["k2"], fig2_data["m"], t_end=3.0, h=1e-3, stride=30)


def test_zn_run_conserves_normalisation(short_zn_run):
    assert np.abs(short_zn_run.phi_one() - 1.0).max() <= 1e-9


def test_zn_run_shapes_and_times(short_zn_run):
    assert short_zn_run.k_plus.shape == short_zn_run.m.shape
    assert short_zn_run.times[0] == 0.0
    assert short_zn_run.times[-1] == pytest.approx(3.0)
    assert np.all(np.diff(short_zn_run.times) > 0)


def test_m2_run_stays_in_state_ball(short_m2_run):
    pts = short_m2_run.bloch_series()
    assert np.abs(pts[:, 2]).max() <= 1e-10
    assert ((pts ** 2).sum(axis=1) <= 0.25 + 1e-8).all()


@settings(max_examples=25, deadline=None)
@given(zn_elements())
def test_zn_state_positivity_along_run(short_zn_run, a):
    for row in short_zn_run.m[:: len(short_zn_run.m) // 4]:
        m = ZnElement(row)
        value = state_eval(m, a.star() * a)
        assert value.real >= -1e-10
        assert abs(value.imag) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(mat2_elements())
def test_m2_state_positivity_along_run(short_m2_run, a):
    for row in short_m2_run.m[:: len(short_m2_run.m) // 4]:
        m = Mat2Element(row)
        value = state_eval(m, a.star() * a)
        assert value.real >= -1e-10
        assert abs(value.imag) <= 1e-10


def test_run_zn_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        run_zn([1, 1, 1], [1, 1], [0, 0, 0], t_end=0.1)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_run_zn_rejects_an_empty_ring(method):
    with pytest.raises(ValueError, match="at least one site"):
        run_zn([], [], [], t_end=0.1, method=method)


# Time-axis series against the per-sample element API ----------------------

def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit(rng, shape):
    z = _complex_normal(rng, shape)
    return z / np.sqrt((np.abs(z) ** 2).sum())


def _random_zn_run(rng, admissible, n=5):
    if admissible:  # |K_+| constant and K_- = -R_1(K_+^*)
        kp = 0.8 * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        km = -np.conj(np.roll(kp, -1))
    else:
        kp, km = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
    return run_zn(kp, km, _unit(rng, n), t_end=0.5, h=1e-3, stride=25)


def _random_m2_run(rng, admissible):
    if admissible:  # K1 normal and K2 = -K1^*
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        k1 = u @ np.diag(rng.uniform(-2, 2, 2)) @ u.conj().T
        k2 = -k1.conj().T
    else:
        k1, k2 = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
    return run_m2(k1, k2, _unit(rng, (2, 2)), t_end=0.5, h=1e-3, stride=25)


@pytest.mark.parametrize("admissible", [True, False])
def test_zn_run_series_match_element_api(admissible):
    run = _random_zn_run(np.random.default_rng(11), admissible)
    fields = [VectorField(ZnElement(kp), ZnElement(km)) for kp, km in zip(run.k_plus, run.k_minus)]
    ms = [ZnElement(m) for m in run.m]
    assert (run.reality_abs().max() <= 1e-12) == admissible
    np.testing.assert_allclose(run.reality_abs(), [np.abs(reality_residual(f).samples) for f in fields],
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(run.braiding_abs(), [np.abs(braiding_residual(f).samples) for f in fields],
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(run.phi_one(), [state_eval(m, ZnElement.ones(run.n)).real for m in ms],
                               rtol=0, atol=1e-14)
    sites = [[state_eval(m, ZnElement.delta(run.n, i)).real for i in range(run.n)] for m in ms]
    np.testing.assert_allclose(run.phi_sites(), sites, rtol=0, atol=1e-14)
    np.testing.assert_allclose(run.phi_cumulative(), np.cumsum(sites, axis=1), rtol=0, atol=1e-14)


def test_a_zn_run_evaluates_m_squared_once(tmp_path, monkeypatch):
    """paper-fig1 takes |m| once on its initial-data check and once on its run, not once per state series."""
    blocks, calls = [], []
    decode = transport.ZnRun.of.__func__

    def recording(cls, traj):
        run = decode(cls, traj)
        blocks.append(run.m)
        return run

    class CountingNumpy:  # numpy as transport sees it, counting np.abs on the m block of a decoded run
        def __getattr__(self, name):
            return getattr(np, name)

        def abs(self, x, *args, **kwargs):
            calls.extend(m.shape for m in blocks if x is m)
            return np.abs(x, *args, **kwargs)

    monkeypatch.setattr(transport.ZnRun, "of", classmethod(recording))
    monkeypatch.setattr(transport, "np", CountingNumpy())
    assert main(["run", "--preset", "paper-fig1", "--out", str(tmp_path)]) == 0
    assert calls == [(1, 3), (1001, 3)]


@pytest.mark.parametrize("admissible", [True, False])
def test_m2_run_series_match_element_api(admissible):
    run = _random_m2_run(np.random.default_rng(12), admissible)
    fields = [VectorField(Mat2Element(k1), Mat2Element(k2)) for k1, k2 in zip(run.k1, run.k2)]
    ms = [Mat2Element(m) for m in run.m]
    assert (run.reality_fro().max() <= 1e-12) == admissible
    np.testing.assert_allclose(run.reality_fro(), [np.linalg.norm(reality_residual(f).entries) for f in fields],
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(run.commutator, [braiding_residual(f).entries for f in fields], rtol=0, atol=1e-14)
    np.testing.assert_allclose(run.braiding_fro(), [np.linalg.norm(braiding_residual(f).entries) for f in fields],
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(run.phi_one(), [state_eval(m, I2).real for m in ms], rtol=0, atol=1e-14)
    # bloch_point is complex: its imaginary parts must vanish too
    np.testing.assert_allclose(run.bloch_series(), [bloch_point(m) for m in ms], rtol=0, atol=1e-14)


def test_bloch_series_scales_with_phi_one():
    # entries near 6e5: the series is quadratic in m, so it scales by phi(1) = tr(m m^*)
    m = np.array([[680726.914 + 240617.034j, -540640.166 + 480304.273j],
                  [-510885.819 + 326174.077j, 493539.900 + 144720.410j]])
    scale = state_eval(Mat2Element(m), I2).real
    np.testing.assert_allclose(_bloch(m) / scale, _bloch(m / np.sqrt(scale)), rtol=0, atol=1e-12)


def _zn_flat(n, rng, admissible):
    """A packed Z_n state: admissible data as perfbench generates it, or arbitrary complex entries."""
    if not admissible:
        return rng.normal(size=6 * n) * rng.uniform(0.1, 10.0)
    k_plus = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    m = rng.normal(size=n) + 1j * rng.normal(size=n)
    return transport.pack_zn_state(k_plus, -np.conj(np.roll(k_plus, -1)), m / np.linalg.norm(m))


def _zn_reference(y, n):
    z = y.view(np.complex128)
    return np.concatenate(zn_system(z[:n], z[n : 2 * n], z[2 * n :])).view(np.float64)


def test_buffered_zn_rhs_is_byte_identical_to_the_reference_system():
    """Every n the parser accepts (n >= 2) up to 4096, on admissible and arbitrary data."""
    rng = np.random.default_rng(7)
    for n in range(2, 4097):
        rhs = transport.zn_coupled_rhs(n)
        for admissible in (True, False):
            y = _zn_flat(n, rng, admissible)
            assert rhs(0.0, y).tobytes() == _zn_reference(y, n).tobytes(), (n, admissible)


def test_buffered_zn_rhs_is_byte_identical_on_special_values():
    rng = np.random.default_rng(8)
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308, 1.0])
    for n in (1, 2, 3, 10, 17, 333):  # at n = 1 both ghost pads hold the one site
        rhs = transport.zn_coupled_rhs(n)
        for _ in range(20):
            y = rng.choice(values, size=6 * n)
            with np.errstate(all="ignore"):
                assert rhs(0.0, y).tobytes() == _zn_reference(y, n).tobytes(), n


_SPECIAL_ENTRIES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308])


@pytest.mark.parametrize("n", range(2, transport.ZN_SCALAR_CROSSOVER + 3))
def test_compiled_zn_site_kernel_is_byte_identical_to_the_site_form(n):
    """Admissible, arbitrary and special entries, against the site-by-site form it replaced."""
    rng = np.random.default_rng(100 + n)
    rhs = _zn_kernels(n).rhs
    states = [_zn_flat(n, rng, admissible) for admissible in (True, False)]
    for _ in range(10):  # special entries mixed with ordinary ones
        y = _zn_flat(n, rng, False)
        spots = rng.random(6 * n) < 0.5
        y[spots] = rng.choice(_SPECIAL_ENTRIES, size=int(spots.sum()))
        states.append(y)
    states.append(rng.choice(_SPECIAL_ENTRIES, size=6 * n))
    for y in states:
        z = y.view(np.complex128).tolist()
        got = np.array(rhs(0.5, z))
        want = np.array(zn_sites_oracle(z[:n], z[n : 2 * n], z[2 * n :]))
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        rhs(0.0, [0j] * (3 * n + 1))


@pytest.mark.parametrize("n", [1, 2, 10, 64, 4096])
def test_buffered_zn_rhs_keeps_no_stale_scratch(n):
    rng = np.random.default_rng(n)
    y_a, y_b = _zn_flat(n, rng, True), _zn_flat(n, rng, False)
    rhs = transport.zn_coupled_rhs(n)
    first = rhs(0.0, y_a)
    first_bytes = first.tobytes()
    second = rhs(0.0, y_b)
    third = rhs(0.0, y_a)
    assert third.tobytes() == first_bytes == first.tobytes()  # each result is fresh
    assert second.tobytes() == _zn_reference(y_b, n).tobytes()


# The three Z_n forms against the paper's form of the transport -------------

def _zn_transport_cases(n):
    """(K_+, K_-, m, packed state) on admissible and on arbitrary data."""
    rng = np.random.default_rng(n)
    for admissible in (True, False):
        y = _zn_flat(n, rng, admissible)
        z = y.view(np.complex128)
        yield z[:n], z[n : 2 * n], z[2 * n :], y


def _assert_matches_transport_oracle(dm, kp, km, m):
    tol = 1e-13 * max(1.0, np.abs(np.concatenate([kp, km])).max() * np.abs(m).max())
    np.testing.assert_allclose(dm, zn_transport_oracle(kp, km, m), rtol=0, atol=tol)


@pytest.mark.parametrize("n", [2, 3, 9, 10, 64, 4096])
def test_zn_system_transport_matches_the_paper_form(n):
    """The reference system that the array kernel is held to byte for byte (see above)."""
    for kp, km, m, _ in _zn_transport_cases(n):
        _assert_matches_transport_oracle(zn_system(kp, km, m)[2], kp, km, m)


@pytest.mark.parametrize("n", range(2, transport.ZN_SCALAR_CROSSOVER + 3))
def test_zn_sites_transport_matches_the_paper_form(n):
    for kp, km, m, y in _zn_transport_cases(n):
        _assert_matches_transport_oracle(_zn_kernels(n).rhs(0.0, y.view(np.complex128).tolist())[2 * n :], kp, km, m)


@pytest.mark.parametrize("n", [10, 64, 4096])
def test_buffered_zn_transport_matches_the_paper_form(n):
    rhs = transport.zn_coupled_rhs(n)
    for kp, km, m, y in _zn_transport_cases(n):
        _assert_matches_transport_oracle(rhs(0.0, y).view(np.complex128)[2 * n :], kp, km, m)


# Exact invariants of the Z_n K-flow ------------------------------------------

def _drift(series):
    """max over t of |x(t) - x(0)|, relative to max(1, |x(0)|), for each entry of a (T, ...) series."""
    return float((np.abs(series - series[0]) / np.maximum(1.0, np.abs(series[0]))).max())


@pytest.mark.parametrize("method, stride, bound", [("rk4", 100, 1e-8), ("rk45", 1, 1e-8), ("rk45", 100, 1e-7)],
                         ids=["rk4", "rk45", "rk45-stride100"])
@pytest.mark.parametrize("admissible", [True, False], ids=["admissible", "arbitrary"])
@pytest.mark.parametrize("n", [3, 12, 64])
def test_zn_flow_keeps_its_exact_invariants(n, admissible, method, stride, bound):
    """For any data the flow conserves c_i = K_+(i) K_-(i-1), prod K_+ and H = sum (K_+ - K_-).

    Sum K_+ is no invariant, and must move: the negative control.  rk45 at
    stride 1 takes one attempt per grid step of 1e-3; at stride 100 its
    attempts grow to 0.1, and the largest drift over these cases measured
    1.7e-8 (prod K_+, n = 64, admissible), so its bound is about 6x that.
    """
    rng = np.random.default_rng(n)
    y = _zn_flat(n, rng, True) if admissible else rng.normal(size=6 * n)
    z = y.view(np.complex128)
    run = transport.run_zn(z[:n], z[n : 2 * n], z[2 * n :], t_end=1.0, h=1e-3, stride=stride, method=method)
    kp, km = run.k_plus, run.k_minus
    assert _drift(kp * np.roll(km, 1, axis=1)) <= bound
    assert _drift(kp.prod(axis=1)) <= bound
    assert _drift((kp - km).sum(axis=1)) <= 1e-13
    assert _drift(kp.sum(axis=1)) > 1e-3


# Closed forms for any data: the M2 K-flow and the Z_2 transport ---------------

@pytest.mark.parametrize("method, stride, bound", [("rk4", 100, 2e-12), ("rk45", 1, 1e-13), ("rk45", 100, 2e-9)],
                         ids=["rk4-2e-12", "rk45-1e-13", "rk45-stride100-2e-09"])
def test_m2_kflow_matches_its_closed_form(method, stride, bound):
    """K_i(t) against ``m2_kflow_oracle`` over t = 2 at h = 1e-3, on seeded complex data that is not admissible.

    Errors are relative to max(1, max |K|) over the run; the largest over
    these seeds measured 4.9e-13 (rk4), 2.3e-14 (rk45 at stride 1, one
    attempt per grid step) and 3.8e-10 (rk45 at stride 100, attempts of up
    to 0.1; bound about 5x that, well inside RTOL times the 2000 steps).
    """
    for seed in range(8):
        rng = np.random.default_rng(seed)
        k1, k2, m = (_complex_normal(rng, (2, 2)) for _ in range(3))
        run = run_m2(k1, k2, m, t_end=2.0, h=1e-3, stride=stride, method=method)
        exact = np.array([m2_kflow_oracle(k1, k2, t) for t in run.times])
        error = np.abs(np.stack([run.k1, run.k2], axis=1) - exact).max()
        assert error <= bound * max(1.0, np.abs(exact).max()), seed


@pytest.mark.parametrize("method, stride, bound", [("rk4", 100, 3e-11), ("rk45", 1, 2e-14), ("rk45", 100, 1e-8)],
                         ids=["rk4-3e-11", "rk45-2e-14", "rk45-stride100-1e-08"])
def test_zn2_transport_matches_its_closed_form(method, stride, bound):
    """m(t) against ``zn2_transport_oracle`` over t = 1 at h = 1e-3, on seeded complex data that is not admissible.

    Errors are relative to max(1, max |m|) over the run; the largest over
    these seeds measured 7.5e-12 (rk4), 4.1e-15 (rk45 at stride 1) and
    1.7e-9 (rk45 at stride 100; bound about 6x that).  The K-flow is
    static: the two sites' beta sum the same four terms in other orders, so
    K may move by a few ulps of |K| |beta| per unit time.
    """
    for seed in range(8):
        rng = np.random.default_rng(seed)
        kp, km, m = (_complex_normal(rng, 2) for _ in range(3))
        run = run_zn(kp, km, m, t_end=1.0, h=1e-3, stride=stride, method=method)
        exact = np.array([zn2_transport_oracle(kp, km, m, t) for t in run.times])
        assert np.abs(run.m - exact).max() <= bound * max(1.0, np.abs(exact).max()), seed
        k_scale = max(1.0, np.abs(kp).max(), np.abs(km).max())
        k_moved = max(np.abs(run.k_plus - kp).max(), np.abs(run.k_minus - km).max())
        assert k_moved <= 16 * np.finfo(float).eps * k_scale ** 2, seed


@pytest.mark.parametrize("n", [transport.ZN_SCALAR_CROSSOVER - 1, transport.ZN_SCALAR_CROSSOVER])
def test_both_zn_forms_blow_up_alike(n, monkeypatch):
    """The compiled and the array form, forced by the crossover, end one blowing-up rk4 run with the same error.

    K_- = K_+ is not admissible and grows past flow.MAX_ABS before t_end;
    the compiled run checks its complex entries and the array run its
    floats, and both name the start of the same step.
    """
    rng = np.random.default_rng(7)
    kp, m = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    seen = []
    for crossover in (n + 1, n):  # the compiled form, then the array form
        monkeypatch.setattr(transport, "ZN_SCALAR_CROSSOVER", crossover)
        with pytest.raises(BlowupError) as info:
            run_zn(kp, kp, m, t_end=10.0, h=0.01, stride=5)
        seen.append((str(info.value), info.value.last_good_time))
    assert seen[0] == seen[1]
    assert seen[0][0].startswith("state magnitude exceeded 1e+09 (last good time t=")


# Measured max |Re K_+ - u| and max |n phi_i - rho((i + 1/2) / n)| at n = 64, 128, ..., 1,024 and 4,096 (h 0.1,
# tau 0.15), each bounded at twice its value.  rho at n = 64 (1.72e-2, order 1.79 to n = 128) is left out.
_CLASSICAL_LIMIT = {64: (2.07e-3, None), 128: (5.25e-4, 4.96e-3), 256: (1.32e-4, 1.30e-3), 512: (3.29e-5, 3.29e-4),
                    1024: (8.23e-6, 8.24e-5)}
_CLASSICAL_LIMIT_4096 = (5.15e-7, 5.16e-6)


def _classical_limit_errors(n):
    """max |Re K_+ - u| and max |n phi_i - rho((i + 1/2) / n, tau)| of a Z_n run to tau = 0.15 (h 0.1).

    The data are real, of unit moduli, K_+ = exp(i arccos u0) with u0 =
    sin(2 pi x) / 2 at x = i / n, and a uniform m, so n phi starts at 1;
    u and rho are the characteristics solutions of the continuum limit.
    """
    tau = 0.15
    x = np.arange(n) / n
    k_plus = np.exp(1j * np.arccos(0.5 * np.sin(2 * math.pi * x)))
    run = run_zn(k_plus, -np.conj(np.roll(k_plus, -1)), np.full(n, n**-0.5 + 0j), t_end=tau * n / 2, h=0.1,
                 stride=10**6)
    u = transport_characteristics_sine(2 * math.pi * x, 2 * math.pi * tau, 0.5)
    rho = density_characteristics_sine(2 * math.pi * (x + 0.5 / n), 2 * math.pi * tau, 0.5, np.ones_like)
    return np.max(np.abs(run.k_plus[-1].real - u)), np.max(np.abs(n * run.phi_sites()[-1] - rho))


def test_large_zn_tends_to_inviscid_burgers_at_second_order():
    """Real Z_n data of unit moduli, K_+ = exp(i arccos u0), tend to u_tau + u u_x = 0 and rho_tau + (u rho)_x = 0.

    Under reality, K_-(i) = -conj K_+(i+1), each |K_+(i)| stays 1 and the
    phases obey, with x = i/n and tau = 2t/n, the inviscid Burgers equation
    for u = Re K_+ up to O(1/n^2), and the state's density rho = n phi_i
    at x = (i + 1/2) / n the continuity equation.  From u0 = sin(2 pi x) / 2
    to tau = 0.15, before the shock at 1 / pi, Re K_+ meets the
    characteristics solution and n phi the density carried along the
    characteristics, oracles that share no equation with the Z_n system,
    and both errors fall four-fold per doubling of n.  Every run is the
    array form.
    """
    errors = np.array([_classical_limit_errors(n) for n in _CLASSICAL_LIMIT])
    for n, measured, error in zip(_CLASSICAL_LIMIT, _CLASSICAL_LIMIT.values(), errors):
        assert error[0] <= 2 * measured[0] and (measured[1] is None or error[1] <= 2 * measured[1]), (n, error)
    orders = np.log2(errors[:-1] / errors[1:])
    u_orders, rho_orders = orders[:, 0], orders[1:, 1]
    assert np.all((1.9 <= u_orders) & (u_orders <= 2.1)), u_orders
    assert np.all((1.9 <= rho_orders) & (rho_orders <= 2.1)), rho_orders


def test_zn4096_holds_the_classical_limit_bounds():
    """Z_4096 over 3,072 steps, the array form, holds both bounds."""
    u_error, rho_error = _classical_limit_errors(4096)
    assert u_error <= 2 * _CLASSICAL_LIMIT_4096[0] and rho_error <= 2 * _CLASSICAL_LIMIT_4096[1], (u_error, rho_error)
