import numpy as np
import pytest
from hypothesis import given, settings

from conftest import mat2_elements, zn_elements
from ncgflow import (
    I2,
    Mat2Element,
    OneForm,
    VectorField,
    ZnElement,
    bloch,
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
from ncgflow.connection import _zn_site_rates, _zn_system
from ncgflow.transport import _real_state_value
from oracles import m2_transport_oracle, zn3_transport_oracle, zn_sites_oracle, zn_transport_oracle


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


def test_bloch_examples(fig2_data):
    p = bloch(Mat2Element(fig2_data["m"]))
    assert p.s == pytest.approx(-1 / 3, abs=1e-12)
    assert p.x == pytest.approx(1 / 6, abs=1e-12)
    assert p.y == pytest.approx(0.0, abs=1e-12)

    pure = bloch(Mat2Element([[1, 0], [0, 0]]))
    assert (pure.s, pure.x, pure.y) == pytest.approx((-0.5, 0.0, 0.0))

    mixed = bloch(Mat2Element(np.eye(2) / np.sqrt(2)))
    assert (mixed.s, mixed.x, mixed.y) == pytest.approx((0.0, 0.0, 0.0))
    assert mixed.radius_sq == pytest.approx(0.0)


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

def _unit(rng, shape):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
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
    pts = [bloch(m) for m in ms]
    np.testing.assert_allclose(run.bloch_series(), [[p.s, p.x, p.y] for p in pts], rtol=0, atol=1e-14)


def test_bloch_tolerance_is_relative_to_phi_one():
    # entries near 6e5: Im phi(a) picks up round-off near 5e-6, far below 1e-10 * phi(1)
    m = Mat2Element([[680726.914 + 240617.034j, -540640.166 + 480304.273j],
                     [-510885.819 + 326174.077j, 493539.900 + 144720.410j]])
    scale = state_eval(m, I2).real
    p = bloch(m)
    q = bloch(m / np.sqrt(scale))
    assert (p.s / scale, p.x / scale, p.y / scale) == pytest.approx((q.s, q.x, q.y), abs=1e-12)


def test_bloch_check_still_rejects_complex_values():
    m = Mat2Element([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="imaginary part"):
        _real_state_value(m, Mat2Element([[1j, 0.0], [0.0, 0.0]]), 1.0)


def _zn_flat(n, rng, admissible):
    """A packed Z_n state: admissible data as perfbench generates it, or arbitrary complex entries."""
    if not admissible:
        return rng.normal(size=6 * n) * rng.uniform(0.1, 10.0)
    k_plus = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    m = rng.normal(size=n) + 1j * rng.normal(size=n)
    return transport.pack_zn_state(k_plus, -np.conj(np.roll(k_plus, -1)), m / np.linalg.norm(m))


def _zn_reference(y, n):
    z = y.view(np.complex128)
    return np.concatenate(_zn_system(z[:n], z[n : 2 * n], z[2 * n :])).view(np.float64)


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
    for n in (2, 3, 10, 17, 333):
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
    rhs = _zn_site_rates(n)
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


@pytest.mark.parametrize("n", [2, 10, 64, 4096])
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
    for kp, km, m, _ in _zn_transport_cases(n):
        _assert_matches_transport_oracle(_zn_system(kp, km, m)[2], kp, km, m)


@pytest.mark.parametrize("n", range(2, transport.ZN_SCALAR_CROSSOVER + 3))
def test_zn_sites_transport_matches_the_paper_form(n):
    for kp, km, m, y in _zn_transport_cases(n):
        _assert_matches_transport_oracle(_zn_site_rates(n)(0.0, y.view(np.complex128).tolist())[2 * n :], kp, km, m)


@pytest.mark.parametrize("n", [10, 64, 4096])
def test_buffered_zn_transport_matches_the_paper_form(n):
    rhs = transport.zn_coupled_rhs(n)
    for kp, km, m, y in _zn_transport_cases(n):
        _assert_matches_transport_oracle(rhs(0.0, y).view(np.complex128)[2 * n :], kp, km, m)


# Exact invariants of the Z_n K-flow ------------------------------------------

def _drift(series):
    """max over t of |x(t) - x(0)|, relative to max(1, |x(0)|), for each entry of a (T, ...) series."""
    return float((np.abs(series - series[0]) / np.maximum(1.0, np.abs(series[0]))).max())


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("admissible", [True, False], ids=["admissible", "arbitrary"])
@pytest.mark.parametrize("n", [3, 12, 64])
def test_zn_flow_keeps_its_exact_invariants(n, admissible, method):
    """For any data the flow conserves c_i = K_+(i) K_-(i-1), prod K_+ and H = sum (K_+ - K_-).

    Sum K_+ is no invariant, and must move: the negative control.
    """
    rng = np.random.default_rng(n)
    y = _zn_flat(n, rng, True) if admissible else rng.normal(size=6 * n)
    z = y.view(np.complex128)
    run = transport.run_zn(z[:n], z[n : 2 * n], z[2 * n :], t_end=1.0, h=1e-3, stride=100, method=method)
    kp, km = run.k_plus, run.k_minus
    assert _drift(kp * np.roll(km, 1, axis=1)) <= 1e-8
    assert _drift(kp.prod(axis=1)) <= 1e-8
    assert _drift((kp - km).sum(axis=1)) <= 1e-13
    assert _drift(kp.sum(axis=1)) > 1e-3
