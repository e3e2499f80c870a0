import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ncgflow import (
    RowRun,
    SpherePoint,
    flow_matrix,
    integrate_riccati,
    metric_preservation_check,
    mobius_apply,
    mobius_exact,
    row_rhs,
    run_row,
    sphere_distance,
)
from oracles import mobius_expm_oracle

_small = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
_small_complex = st.builds(complex, _small, _small)


def test_row_rhs_examples():
    assert row_rhs(1 + 2j, -1j, 0, 0, 0) == (0, 0)
    dlam, dmu = row_rhs(0, 1, 0, 1, 1)
    assert (dlam, dmu) == (1, 0)
    # anti-Hermitian generator rotates the phase only
    dlam, dmu = row_rhs(1, 1j, 1j * 0.7, 0, 0)
    assert dlam == pytest.approx(0.7j)
    assert dmu == pytest.approx(-0.7)


def test_riccati_rhs_is_q2_minus_q1_z_squared():
    """dz/dt = Q2 - Q1 z^2: the slope at t = 0 of the flow_matrix action, and of integrate_riccati's first step."""
    z0, q1, q2, eps = 0.5j, 2, 3, 1e-5
    rhs = 3 - 2 * (0.5j) ** 2
    ahead, behind = (mobius_apply(flow_matrix(q1, q2, t), z0).z for t in (eps, -eps))
    assert (ahead - behind) / (2 * eps) == pytest.approx(rhs, rel=1e-8)
    _, points = integrate_riccati(z0, q1, q2, eps, h=eps)
    assert (points[1].z - z0) / eps == pytest.approx(rhs, rel=1e-4)


def test_flow_matrix_branches():
    np.testing.assert_allclose(flow_matrix(1, 1, 0.0), np.eye(2), atol=1e-15)
    # nilpotent branch
    np.testing.assert_allclose(flow_matrix(0, 2, 0.5), [[1, 1], [0, 1]], atol=1e-15)
    # trigonometric branch: Q1=1, Q2=-1 generates a rotation
    rot = flow_matrix(1, -1, 0.3)
    np.testing.assert_allclose(rot, [[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]], atol=1e-14)


def test_mobius_exact_examples():
    p = mobius_exact(0.0, 1, 1, 1.0)
    assert p.z == pytest.approx(math.tanh(1.0))
    # identity at t = 0
    q = mobius_exact(0.25 + 0.5j, 2, -3, 0.0)
    assert q.z == pytest.approx(0.25 + 0.5j)
    # rotation branch passes through infinity
    r = mobius_exact(0.0, 1, -1, math.pi / 2)
    assert r.is_infinity or abs(r.z) > 1e12


def test_mobius_exact_against_expm_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q1, q2 = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
        z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        t = rng.uniform(-1.5, 1.5)
        num, den = mobius_expm_oracle(z0, q1, q2, t)
        want = SpherePoint.from_ratio(num, den)
        got = mobius_exact(z0, q1, q2, t)
        assert sphere_distance(got, want) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(_small_complex, _small_complex, _small_complex, _small, _small)
def test_mobius_exact_group_law(z0, q1, q2, s, t):
    one_shot = mobius_exact(z0, q1, q2, s + t)
    two_step = mobius_exact(mobius_exact(z0, q1, q2, s), q1, q2, t)
    assert sphere_distance(one_shot, two_step) <= 1e-10


def test_sphere_distance_properties():
    assert sphere_distance(1 + 1j, 1 + 1j) == 0
    assert sphere_distance(0, 1) == pytest.approx(sphere_distance(1, 0))
    inf = SpherePoint.infinity()
    assert sphere_distance(inf, inf) == 0
    assert sphere_distance(0, inf) == pytest.approx(1.0)
    assert sphere_distance(1e300, inf) <= 1e-250


@pytest.mark.parametrize("pole", [math.inf, -math.inf, complex("inf"), complex(1.0, -math.inf),
                                  complex(math.inf, math.nan)])
def test_infinite_numbers_are_the_point_at_infinity(pole, recwarn):
    inf = SpherePoint.infinity()
    assert sphere_distance(pole, inf) == 0.0
    assert sphere_distance(pole, 0) == 1.0
    assert mobius_exact(pole, 1, -1, 0.5) == mobius_exact(inf, 1, -1, 0.5)
    assert mobius_exact(inf, 1, -1, 0.5).z == pytest.approx(1.8305, abs=1e-4)
    times, points = integrate_riccati(pole, 1, -1, 0.01)
    assert points[0].is_infinity
    assert not recwarn.list


@pytest.mark.parametrize("nan", [math.nan, complex(math.nan, 0.0), complex(0.0, math.nan)])
def test_nan_is_not_a_point(nan, recwarn):
    with pytest.raises(ValueError, match="not a point of the sphere"):
        sphere_distance(nan, SpherePoint.infinity())
    with pytest.raises(ValueError, match="not a point of the sphere"):
        mobius_exact(nan, 1, -1, 0.5)
    assert not recwarn.list


@pytest.mark.parametrize("pole", [math.inf, complex("inf"), complex(1.0, -math.inf), complex(math.inf, math.nan)])
def test_a_sphere_point_with_an_infinite_z_is_the_point_at_infinity(pole, recwarn):
    inf, point = SpherePoint.infinity(), SpherePoint(pole)
    assert point == inf and point.is_infinity
    assert sphere_distance(point, inf) == 0.0 and sphere_distance(point, 0) == 1.0
    assert mobius_exact(point, 1, -1, 0.5) == mobius_exact(inf, 1, -1, 0.5)
    mat = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert mobius_apply(mat, point) == mobius_apply(mat, inf) == SpherePoint(1 / 3)
    assert not recwarn.list


@pytest.mark.parametrize("nan", [math.nan, complex(math.nan, 0.0), complex(0.0, math.nan)])
def test_a_sphere_point_with_a_nan_z_is_refused(nan):
    with pytest.raises(ValueError, match="not a point of the sphere"):
        SpherePoint(nan)


def test_sphere_point_from_ratio():
    assert SpherePoint.from_ratio(2.0, 1.0).z == 2.0
    assert SpherePoint.from_ratio(1.0, 0.0).is_infinity
    with pytest.raises(ValueError):
        SpherePoint.from_ratio(0.0, 0.0)


@pytest.mark.parametrize("num, den", [
    (1e-320, 0.0), (0.0, 1e-320), (1e-320, 1e-320), (complex(1e-310, 1e-310), complex(0.0, 1e-315)),
    (complex(5e-324, -0.0), complex(3e-323, -5e-324)), (complex(2e-308, -1e-309), complex(0.0, 2e-310)),
])
def test_from_ratio_of_subnormal_numpy_complexes_is_the_point_of_python_complexes(num, den):
    """numpy divides a complex128 by a real through the reciprocal, which overflows for a subnormal scale."""
    want = SpherePoint.from_ratio(complex(num), complex(den))
    got = SpherePoint.from_ratio(np.complex128(num), np.complex128(den))
    assert sphere_distance(got, want) <= 1e-15


@pytest.mark.parametrize("num, den", [(1.0, 1e-320), (1.0 + 1.0j, 1e-320j), (1e300 + 1e300j, 1e-300 + 1e-300j),
                                      (-3.0, complex(-0.0, 5e-324))])
def test_a_quotient_that_overflows_is_infinity_with_no_numpy_warning(num, den):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SpherePoint.from_ratio(np.complex128(num), np.complex128(den)).is_infinity
        assert SpherePoint.from_ratio(complex(num), complex(den)).is_infinity
        mat = np.array([[num, 0.0], [0.0, den]], dtype=complex)
        assert mobius_apply(mat, np.complex128(1.0)).is_infinity
        assert mobius_apply(mat, SpherePoint(np.complex128(1.0))).is_infinity


def test_riccati_linear_drift():
    times, points = integrate_riccati(0.2, 0.0, 0.5, 1.0, h=1e-3, stride=100)
    for t, p in zip(times, points):
        assert abs(p.z - (0.2 + 0.5 * t)) <= 1e-10


def test_riccati_tanh():
    times, points = integrate_riccati(0.0, 1.0, 1.0, 2.0, h=1e-3, stride=100)
    for t, p in zip(times, points):
        assert abs(p.z - math.tanh(t)) <= 1e-9


def test_riccati_pole_crossing():
    # z(t) = -tan t passes through infinity at t = pi/2 and comes back
    times, points = integrate_riccati(0.0, 1.0, -1.0, 2.0, h=1e-3, stride=10)
    for t, p in zip(times, points):
        assert sphere_distance(p, mobius_exact(0.0, 1.0, -1.0, t)) <= 1e-8
    crossed = [p for p in points if p.is_infinity or abs(p.z) > 1]
    assert crossed, "trajectory should leave the unit disc"


def test_riccati_from_outside_the_unit_disc():
    # a start with |z0| > 1 steps in the inverted chart w = 1/z from the first step on
    times, points = integrate_riccati(2.0, 1.0, -1.0, 1.0, h=1e-3, stride=10)
    assert points[0].z == 2.0
    for t, p in zip(times, points):
        assert sphere_distance(p, mobius_exact(2.0, 1.0, -1.0, t)) <= 1e-8


def test_riccati_chart_matches_row_transport():
    q0, q1, q2 = 0.3j, 1.0, -1.0
    run = run_row(0.0, 1.0, q0, q1, q2, t_end=2.0, h=1e-3, stride=20)
    _, points = integrate_riccati(0.0, q1, q2, 2.0, h=1e-3, stride=20)
    for z_row, p_ric in zip(run.zs(), points):  # z_row is inf at the point at infinity
        assert sphere_distance(z_row, p_ric) <= 1e-8


def test_the_z_kernel_writes_the_bytes_of_from_ratio():
    """``RowRun.zs`` against ``SpherePoint.from_ratio`` per sample, byte for byte (inf at the point at infinity).

    The samples: random ratios over 600 decades, every pair of parts from
    signed zeros, subnormals, normal and huge values (mu = 0 among them),
    and a subnormal lam with mu = 0.
    """
    rng = np.random.default_rng(35)
    parts = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-320, 1e-308, 1.0, -1.0, 0.5, -3.7, 1e-300, 1e300]
    values = [complex(a, b) for a in parts for b in parts]
    pairs = np.array([(lam, mu) for lam in values for mu in values if lam or mu])
    scaled = rng.normal(size=(4, 2000)) * np.exp(rng.uniform(-700.0, 700.0, (4, 2000)))
    lam = np.concatenate([pairs[:, 0], scaled[0] + 1j * scaled[1], [5e-324j]])
    mu = np.concatenate([pairs[:, 1], scaled[2] + 1j * scaled[3], [0j]])
    with np.errstate(all="ignore"):
        points = [SpherePoint.from_ratio(l, m) for l, m in zip(lam, mu)]
    want = np.array([complex("inf") if p.is_infinity else p.z for p in points])
    assert any(p.is_infinity for p in points) and np.isinf(want).sum() > len(parts) ** 2
    assert RowRun(np.zeros(len(lam)), lam, mu).zs().tobytes() == want.tobytes()


def test_metric_preservation_examples():
    assert metric_preservation_check(1j, 1, -1)
    assert metric_preservation_check(0, 0, 0)
    assert not metric_preservation_check(1, 0, 0)
    assert not metric_preservation_check(0, 1, 1)


def test_norm_conserved_when_metric_preserved():
    run = run_row(0.6, 0.8j, 1j, 1 + 0.5j, -1 + 0.5j, t_end=10.0, h=1e-3, stride=100)
    assert np.abs(run.norms() - 1.0).max() <= 1e-8


def test_norm_grows_when_not_preserved():
    # Q0 = 1 alone gives lam = lam0 exp(t), so the norm grows as exp(2t)
    run = run_row(1.0, 0.0, 1.0, 0.0, 0.0, t_end=1.0, h=1e-3, stride=100)
    np.testing.assert_allclose(run.norms(), np.exp(2.0 * run.times), rtol=1e-6)


def test_mobius_apply_matches_direct_formula():
    mat = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    z = 0.5 + 0.25j
    assert mobius_apply(mat, z).z == pytest.approx((z + 2) / (3 * z + 4))
    assert mobius_apply(mat, SpherePoint.infinity()).z == pytest.approx(1 / 3)
