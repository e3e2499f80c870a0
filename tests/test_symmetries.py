"""Exact symmetries of the flows: each maps a run to another run, so it is a reference at any size and data.

Time rescaling, on every flow: K scaled by LAM runs LAM times as fast.

The rates of K (Q on the row, v on the geodesic, u on burgers) are
quadratic in K and the rates of the other parts are linear in it.  So
with K scaled by LAM and ``t_end`` and h divided by LAM, a run gives LAM
times K and the same other parts, at the times divided by LAM.  LAM = 4
is a power of two: while no value leaves the normal range, every
product, sum and step combination scales exactly, so rk4 holds bit for
bit.  rk45's error control adds ATOL, which does not scale, so its
attempts may differ: a run holds bit for bit when they do not (the times
of its right-hand side calls are the base run's divided by LAM) and to
the tolerance otherwise.  The data keep every part at least 0.05 or 0
and the runs short, so nothing underflows or blows up.

Cyclic shift, on Z_n: rolling every site of (K_+, K_-, m) by one rolls
the trajectory, since every site obeys the same equations of its own
and its neighbours' values.  Linearity in m, on Z_n and M2: K's flow
does not read m and m's rate is linear in m, so m -> 2m gives 2 m(t) and
the same K(t); on the row, (lam, mu) -> 2 (lam, mu) gives 2 (lam, mu)(t).
Both hold bit for bit under rk4, in both Z_n forms.  Under rk45 the
scaled m changes the error norm, as ATOL does not scale, and the rolled
state the rounding of its stage sums, so rk45 holds as the rescaling
does, the rolled runs to round-off when their attempts match.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncgflow import classical, cli, mobius, transport
from ncgflow.classical import GridField, integrate_burgers, integrate_geodesic, round_sphere
from ncgflow.mobius import run_row
from ncgflow.transport import ZN_SCALAR_CROSSOVER, run_m2, run_zn

LAM = 4.0
RK45_TOL = 1e-7  # two runs whose attempts differ, each within RTOL = ATOL = 1e-9 per step

_part = st.one_of(st.floats(0.05, 0.5), st.floats(-0.5, -0.05), st.just(0.0))
_complex = st.builds(complex, _part, _part)
# (n_steps, h, stride, method): t_end = n_steps * h is at most 0.2
_stepping = st.tuples(st.integers(1, 10), st.sampled_from([1e-3, 0.005, 0.02]), st.integers(1, 4),
                      st.sampled_from(["rk4", "rk45"]))


def _parts(seed, size):
    """``size`` random parts at least 0.05 and at most 0.5 in magnitude, about a tenth of them 0 or -0."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], size) * rng.uniform(0.05, 0.5, size) * (rng.random(size) > 0.1)


def _complexes(seed, shape):
    return _parts(seed, 2 * int(np.prod(shape))).view(np.complex128).reshape(shape)


def _lam_times(z):
    """LAM z, part by part: a complex product with LAM is one with LAM + 0j, which can flip the sign of a zero part."""
    if isinstance(z, complex):
        return complex(LAM * z.real, LAM * z.imag)
    return (LAM * z.view(np.float64)).view(z.dtype)


def _traced(module, run, args, t_end, h, stride, method):
    """``run(*args, ...)`` and the times at which its integration called its right-hand side f."""
    calls, integrate = [], module.integrate

    def traced(f, y0, t_end, **options):
        def g(t, y):
            calls.append(t)
            return f(t, y)

        return integrate(g, y0, t_end, **options)

    with mock.patch.object(module, "integrate", traced):
        return run(*args, t_end=t_end, h=h, stride=stride, method=method), calls


def _assert_rescaled(module, run, parts, args, scaled_args, stepping):
    """The run of ``scaled_args`` at ``t_end / LAM`` and ``h / LAM`` against the run of ``args``.

    ``parts(result)`` gives the sample times, the part that scales by LAM
    and the part that stays.
    """
    n_steps, h, stride, method = stepping
    base, calls = _traced(module, run, args, n_steps * h, h, stride, method)
    scaled, scaled_calls = _traced(module, run, scaled_args, n_steps * h / LAM, h / LAM, stride, method)
    (times, k, other), (scaled_times, scaled_k, scaled_other) = parts(base), parts(scaled)
    assert scaled_times.tobytes() == (times / LAM).tobytes()
    if scaled_calls == [t / LAM for t in calls]:
        assert scaled_k.tobytes() == _lam_times(k).tobytes()
        assert scaled_other.tobytes() == other.tobytes()
    else:
        assert method == "rk45"
        np.testing.assert_allclose(scaled_k, _lam_times(k), rtol=RK45_TOL, atol=RK45_TOL)
        np.testing.assert_allclose(scaled_other, other, rtol=RK45_TOL, atol=RK45_TOL)


@pytest.mark.parametrize("n", [1, 3, ZN_SCALAR_CROSSOVER - 1, ZN_SCALAR_CROSSOVER, 64])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stepping=_stepping)
def test_zn(n, seed, stepping):
    kp, km, m = _complexes(seed, (3, n))
    _assert_rescaled(transport, run_zn, lambda r: (r.times, np.stack([r.k_plus, r.k_minus]), r.m),
                     (kp, km, m), (_lam_times(kp), _lam_times(km), m), stepping)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stepping=_stepping)
def test_m2(seed, stepping):
    k1, k2, m = _complexes(seed, (3, 2, 2))
    _assert_rescaled(transport, run_m2, lambda r: (r.times, np.stack([r.k1, r.k2]), r.m),
                     (k1, k2, m), (_lam_times(k1), _lam_times(k2), m), stepping)


@settings(max_examples=20, deadline=None)
@given(lam=_complex, mu=_complex, q=st.tuples(_complex, _complex, _complex), stepping=_stepping)
def test_m2row(lam, mu, q, stepping):
    _assert_rescaled(mobius, run_row, lambda r: (r.times, np.empty(0), np.stack([r.lam, r.mu])),
                     (lam, mu, *q), (lam, mu, *map(_lam_times, q)), stepping)


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(0.5, 2.6), phi=st.floats(-3.0, 3.0), v=st.tuples(_part, _part), stepping=_stepping)
def test_sphere_geodesic(theta, phi, v, stepping):
    x0, v0 = np.array([theta, phi]), np.array(v)

    def run(x0, v0, **stepping):
        return integrate_geodesic(x0, v0, round_sphere(), **stepping)

    _assert_rescaled(classical, run, lambda r: (r.times, r.vs, r.xs), (x0, v0), (x0, _lam_times(v0)), stepping)


@pytest.mark.parametrize("stencil", [2, 4])
@settings(max_examples=15, deadline=None)
@given(n=st.integers(16, 64), seed=st.integers(0, 2**32 - 1), stepping=_stepping)
def test_burgers(stencil, n, seed, stepping):
    values = _parts(seed, n)

    def run(values, **stepping):
        return integrate_burgers(GridField(values, stencil), **stepping)

    _assert_rescaled(classical, run, lambda r: (r.times, r.values, np.empty(0)), (values,), (_lam_times(values),),
                     stepping)


# Each n in its own form, and in the other where that form exists: the array form is forced at every n by a
# crossover of 1, and the compiled form holds at most flow.MAX_SCALAR_STATE floats, so n = 64 has no compiled form.
_ZN_FORMS = [(n, None) for n in (3, 5, ZN_SCALAR_CROSSOVER - 1, ZN_SCALAR_CROSSOVER, 64)] + [
    (3, 1), (5, 1), (ZN_SCALAR_CROSSOVER - 1, 1), (ZN_SCALAR_CROSSOVER, ZN_SCALAR_CROSSOVER + 1)]


def _twice(z):
    """2 z, part by part, as ``_lam_times`` scales by LAM."""
    if isinstance(z, complex):
        return complex(2.0 * z.real, 2.0 * z.imag)
    return (2.0 * z.view(np.float64)).view(z.dtype)


def _assert_maps(module, run, parts, args, image_args, images, stepping, crossover=None, same_calls_tol=0.0,
                 rk4_tol=0.0):
    """The run of ``image_args`` against the run of ``args`` with each of its ``parts`` mapped by ``images``.

    Both runs take the same time grid.  They hold to ``rk4_tol`` under
    rk4.  Under rk45 they hold to ``same_calls_tol`` when they call their
    right-hand side at the same times, and to RK45_TOL otherwise.  A
    tolerance of 0 is bit for bit.  ``crossover`` forces the Z_n form.
    """
    n_steps, h, stride, method = stepping
    with mock.patch.object(transport, "ZN_SCALAR_CROSSOVER", crossover or ZN_SCALAR_CROSSOVER):
        base, calls = _traced(module, run, args, n_steps * h, h, stride, method)
        image, image_calls = _traced(module, run, image_args, n_steps * h, h, stride, method)
    assert image.times.tobytes() == base.times.tobytes()
    tol = rk4_tol if method == "rk4" else same_calls_tol if image_calls == calls else None
    for got, part, image_of in zip(parts(image), parts(base), images):
        if tol == 0.0:
            assert got.tobytes() == image_of(part).tobytes()
        elif tol:
            np.testing.assert_allclose(got, image_of(part), rtol=0.0, atol=tol)
        else:
            np.testing.assert_allclose(got, image_of(part), rtol=RK45_TOL, atol=RK45_TOL)


def _roll(z):
    return np.roll(z, 1, axis=-1)


# rk45 forms each stage input with np.dot over the whole state, whose rounding can depend on an entry's position:
# rolled rk45 runs with the same call times were measured apart by at most 2.4e-16 over 360 draws of these cases.
ROLL_RK45_TOL = 1e-14


@pytest.mark.parametrize("n, crossover", _ZN_FORMS)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stepping=_stepping)
def test_zn_cyclic_shift(n, crossover, seed, stepping):
    """Rolling every site of (K_+, K_-, m) by one rolls the trajectory: each site's equations see the same values."""
    kp, km, m = _complexes(seed, (3, n))
    _assert_maps(transport, run_zn, lambda r: (r.k_plus, r.k_minus, r.m), (kp, km, m), tuple(map(_roll, (kp, km, m))),
                 (_roll,) * 3, stepping, crossover, ROLL_RK45_TOL)


@pytest.mark.parametrize("n, crossover", _ZN_FORMS)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stepping=_stepping)
def test_zn_linearity_in_m(n, crossover, seed, stepping):
    """m -> 2m gives 2 m(t) and the same K(t): K's flow does not read m, and m's rate is linear in it."""
    kp, km, m = _complexes(seed, (3, n))
    _assert_maps(transport, run_zn, lambda r: (np.stack([r.k_plus, r.k_minus]), r.m), (kp, km, m),
                 (kp, km, _twice(m)), (lambda k: k, _twice), stepping, crossover)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stepping=_stepping)
def test_m2_linearity_in_m(seed, stepping):
    k1, k2, m = _complexes(seed, (3, 2, 2))
    _assert_maps(transport, run_m2, lambda r: (np.stack([r.k1, r.k2]), r.m), (k1, k2, m), (k1, k2, _twice(m)),
                 (lambda k: k, _twice), stepping)


@settings(max_examples=20, deadline=None)
@given(lam=_complex, mu=_complex, q=st.tuples(_complex, _complex, _complex), stepping=_stepping)
def test_m2row_linearity(lam, mu, q, stepping):
    """(lam, mu) -> 2 (lam, mu) gives 2 (lam, mu)(t): the row's rates are linear in it."""
    _assert_maps(mobius, run_row, lambda r: (np.stack([r.lam, r.mu]),), (lam, mu, *q), (_twice(lam), _twice(mu), *q),
                 (_twice,), stepping)


def _reflect(z):
    """P z, with P f(i) = f(-i mod n) over the last axis."""
    return np.roll(z[..., ::-1], 1, axis=-1)


# the reflected run sums beta's four terms in another order: 2.2e-16 at most under rk4 and 3.3e-16 under rk45 over
# 96 scratch runs of these forms (t_end 0.2)
REFLECT_TOL = 1e-14


@pytest.mark.parametrize("n, crossover", _ZN_FORMS)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stepping=_stepping)
def test_zn_reflection(n, crossover, seed, stepping):
    """(K_+, K_-, m) -> (P K_-, P K_+, P m), with P f(i) = f(-i mod n), maps a run to a run.

    P R_{+1} = R_{-1} P, as both send f to i -> f(1 - i).  So the image has
    beta' = (P K_- + R_{+1} P K_- + P K_+ + R_{-1} P K_+) / 2
    = P (K_- + R_{-1} K_- + K_+ + R_{+1} K_+) / 2 = P beta, and each rate is
    the reflected other rate: dK_+' = P K_- (R_{-1} P beta - P beta) =
    P (K_- (R_{+1} beta - beta)) = P dK_-, dK_-' = P dK_+ likewise, and
    dm' = P K_- R_{-1} P m + P K_+ R_{+1} P m - P beta P m = P dm.  The
    image sums beta's terms in another order, so it holds to round-off.
    """
    kp, km, m = _complexes(seed, (3, n))
    _assert_maps(transport, run_zn, lambda r: (np.stack([r.k_plus, r.k_minus]), r.m), (kp, km, m),
                 (_reflect(km), _reflect(kp), _reflect(m)), (lambda k: _reflect(k[::-1]), _reflect), stepping,
                 crossover, REFLECT_TOL, REFLECT_TOL)


def _conjugation(u, power):
    """K -> lam^power U K U*, with U = diag(u) and lam = u_1 conj(u_2), entry by entry on (..., 2, 2) arrays."""
    lam = u[0] * u[1].conjugate()
    factor = np.multiply.outer(u, np.conj(u)) * {1: lam, -1: lam.conjugate(), 0: 1.0}[power]
    return lambda k: factor * k


# U = diag(1j, 1) permutes and negates parts, which is exact; a random U rounds: 4.5e-16 at most under rk4 and
# 5.9e-16 under rk45 with the same call times, over 20 scratch runs (t_end 0.2)
M2_COVARIANCE_TOL = 1e-14


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stepping=_stepping, phases=st.one_of(
    st.just((1j, 1.0)), st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)).map(
        lambda ab: (np.exp(1j * ab[0]), np.exp(1j * ab[1])))))
def test_m2_unitary_covariance(seed, stepping, phases):
    """(K1, K2, m) -> (lam U K1 U*, conj(lam) U K2 U*, U m U*) maps a run to a run, for U = diag(u1, u2) unitary.

    With lam = u1 conj(u2), U E12 U* = lam E12 and U E21 U* = conj(lam) E21.
    So E12 K1' = lam E12 U K1 U* = lam U (U* E12 U) K1 U* = lam conj(lam)
    U E12 K1 U* = U E12 K1 U*, and likewise for the other three terms of
    B and for both commutators of b, as |lam| = 1: B' = U B U* and
    b' = U b U*.  Then dK1' = [K1', B'] / 2 = lam U [K1, B] U* / 2 =
    lam U dK1 U*, dK2' = conj(lam) U dK2 U*, and dm' = -b' m' - K1'
    [E12, m'] - K2' [E21, m'] = U dm U*, since [E12, U m U*] = conj(lam)
    U [E12, m] U* and [E21, U m U*] = lam U [E21, m] U*.
    """
    u = np.array(phases)
    exact = phases == (1j, 1.0)
    k1, k2, m = _complexes(seed, (3, 2, 2))
    images = (_conjugation(u, 1), _conjugation(u, -1), _conjugation(u, 0))
    _assert_maps(transport, run_m2, lambda r: (r.k1, r.k2, r.m), (k1, k2, m),
                 tuple(image(z) for image, z in zip(images, (k1, k2, m))), images, stepping,
                 same_calls_tol=0.0 if exact else M2_COVARIANCE_TOL, rk4_tol=0.0 if exact else M2_COVARIANCE_TOL)


def _read_csv(path):
    """The header and the float rows of a CSV that ``cli`` wrote."""
    header, *rows = path.read_text().splitlines()
    return header.split(","), np.array([[float(v) for v in row.split(",")] for row in rows])


def _lam_parts(value):
    """A config's complex values, in nested lists, as [re, im] pairs times LAM, part by part."""
    if isinstance(value, list):
        return [_lam_parts(v) for v in value]
    return [LAM * value.real, LAM * value.imag]


@pytest.mark.parametrize("scenario, k_fields", [("zn", ("k_plus", "k_minus")), ("m2", ("k1", "k2"))])
def test_cli_run_rescaled(scenario, k_fields, tmp_path):
    """``cli.main`` on a rescaled config writes trajectory.csv's t / LAM, LAM K and the same m, bit for bit.

    The scaled config has K times LAM, part by part, and ``t_end`` and
    ``step`` divided by LAM; the base is the scenario default at ``t_end`` 0.5.
    """
    base = {**cli._SCENARIOS[scenario].default(), "t_end": 0.5}
    scaled = {**base, **{field: _lam_parts(base[field]) for field in k_fields}, "t_end": base["t_end"] / LAM,
              "step": base["step"] / LAM}
    tables = []
    for name, config in (("base", base), ("scaled", scaled)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config, default=lambda z: [z.real, z.imag]))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        tables.append(_read_csv(tmp_path / name / "trajectory.csv"))
    (header, rows), (scaled_header, scaled_rows) = tables
    assert scaled_header == header and header[0] == "t"
    scale = np.array([1 / LAM] + [LAM if column.startswith(k_fields) else 1.0 for column in header[1:]])
    assert scaled_rows.tobytes() == (rows * scale).tobytes()
