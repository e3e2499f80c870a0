import math

import numpy as np
from hypothesis import given

from conftest import m2_real_vector_fields, zn_real_vector_fields
from ncgflow import (
    E12,
    E21,
    E11,
    E22,
    Mat2Element,
    VectorField,
    ZnElement,
    braiding_residual,
    divergence_pairing,
    reality_residual,
    solve_b,
)

TOL = 1e-12


def _fig1_field(fig1_data):
    return VectorField(ZnElement(fig1_data["k_plus"]), ZnElement(fig1_data["k_minus"]))


def _fig2_field(fig2_data):
    return VectorField(Mat2Element(fig2_data["k1"]), Mat2Element(fig2_data["k2"]))


def test_solve_b_constant_field_is_zero():
    K = VectorField(ZnElement([2j, 2j, 2j]), ZnElement([1, 1, 1]))
    np.testing.assert_allclose(solve_b(K).samples, 0, atol=0)


def test_solve_b_m2_preset(fig2_data):
    b = solve_b(_fig2_field(fig2_data))
    # [E12, diag(1,2)] = E12 and [E21, -diag(1,2)] = E21
    np.testing.assert_allclose(b.entries, 0.5 * (E12 + E21).entries, atol=TOL)


def test_solve_b_zn_preset_site_values(fig1_data):
    kp = fig1_data["k_plus"]
    km = fig1_data["k_minus"]
    b = solve_b(_fig1_field(fig1_data))
    # per-site substitution of b(i) = (K+(i+1) - K+(i) + K-(i-1) - K-(i)) / 2
    for i in range(3):
        expected = 0.5 * (kp[(i + 1) % 3] - kp[i] + km[(i - 1) % 3] - km[i])
        assert abs(b.samples[i] - expected) <= TOL
    assert abs(b.samples[1] - (math.cos(3.0) - 1.0)) <= TOL


def test_reality_residual_presets(fig1_data, fig2_data):
    rho = reality_residual(_fig1_field(fig1_data))
    np.testing.assert_allclose(np.abs(rho.samples), 0, atol=TOL)
    rho2 = reality_residual(_fig2_field(fig2_data))
    np.testing.assert_allclose(np.abs(rho2.entries), 0, atol=TOL)
    zero = VectorField(ZnElement.zeros(3), ZnElement.zeros(3))
    np.testing.assert_allclose(reality_residual(zero).samples, 0, atol=0)


def test_braiding_residual_presets(fig1_data, fig2_data):
    kp = np.array(fig1_data["k_plus"])
    km = np.array(fig1_data["k_minus"])
    # all products K_-(i) K_+(i+1) equal -1 for this data
    np.testing.assert_allclose(km * np.roll(kp, -1), -1, atol=TOL)
    g = braiding_residual(_fig1_field(fig1_data))
    np.testing.assert_allclose(np.abs(g.samples), 0, atol=TOL)

    g2 = braiding_residual(_fig2_field(fig2_data))
    np.testing.assert_allclose(np.abs(g2.entries), 0, atol=0)

    const = VectorField(ZnElement([1j, 1j, 1j]), ZnElement([2, 2, 2]))
    np.testing.assert_allclose(np.abs(braiding_residual(const).samples), 0, atol=TOL)


@given(zn_real_vector_fields())
def test_zn_divergence_identity_on_basis(K):
    b = solve_b(K)
    for i in range(3):
        assert abs(divergence_pairing(K, b, ZnElement.delta(3, i))) <= TOL


@given(m2_real_vector_fields())
def test_m2_divergence_identity_on_basis(K):
    b = solve_b(K)
    for a in (E11, E12, E21, E22):
        assert abs(divergence_pairing(K, b, a)) <= TOL


@given(zn_real_vector_fields())
def test_zn_hermitian_part_of_b(K):
    b = solve_b(K)
    expected = K.k1.shift(1) - K.k1 + K.k2.shift(-1) - K.k2
    np.testing.assert_allclose((b + b.star()).samples, expected.samples, atol=TOL)


@given(m2_real_vector_fields())
def test_m2_b_hermitian(K):
    b = solve_b(K)
    np.testing.assert_allclose(b.entries, b.star().entries, atol=TOL)

