import numpy as np
import pytest
from hypothesis import given

from conftest import mat2_elements, zn_elements, zn_vector_fields
from ncgflow import (
    AlgebraMismatchError,
    E11,
    E12,
    E21,
    I2,
    Mat2Element,
    OneForm,
    VectorField,
    ZnElement,
    apply_vf,
    d,
    left_multiply_form,
    right_multiply_form,
)

TOL = 1e-12


def _form_close(xi, eta, atol=TOL):
    a = getattr(xi.c1, "samples", getattr(xi.c1, "entries", None))
    b = getattr(eta.c1, "samples", getattr(eta.c1, "entries", None))
    np.testing.assert_allclose(a, b, atol=atol)
    a = getattr(xi.c2, "samples", getattr(xi.c2, "entries", None))
    b = getattr(eta.c2, "samples", getattr(eta.c2, "entries", None))
    np.testing.assert_allclose(a, b, atol=atol)


def test_d_of_unit_vanishes():
    xi = d(ZnElement.ones(3))
    np.testing.assert_allclose(xi.c1.samples, 0, atol=0)
    np.testing.assert_allclose(xi.c2.samples, 0, atol=0)
    eta = d(I2)
    np.testing.assert_allclose(eta.c1.entries, 0, atol=0)


def test_d_delta0():
    # coefficients follow from the shift definition evaluated per site
    d0, d1, d2 = (ZnElement.delta(3, i) for i in range(3))
    xi = d(d0)
    np.testing.assert_allclose(xi.c1.samples, (d0 - d1).samples)
    np.testing.assert_allclose(xi.c2.samples, (d0 - d2).samples)


def test_d_matrix_unit():
    xi = d(E11)
    np.testing.assert_allclose(xi.c1.entries, (-E12).entries)  # [E12, E11] = -E12
    np.testing.assert_allclose(xi.c2.entries, E21.entries)     # [E21, E11] = +E21


def test_left_multiply_by_unit():
    xi = OneForm(ZnElement([1, 2, 3]), ZnElement([0, 1j, 0]))
    _form_close(left_multiply_form(ZnElement.ones(3), xi), xi)


def test_left_multiply_shifts():
    xi = OneForm(ZnElement.ones(3), ZnElement.zeros(3))
    out = left_multiply_form(ZnElement.delta(3, 0), xi)
    np.testing.assert_allclose(out.c1.samples, ZnElement.delta(3, 1).samples)
    np.testing.assert_allclose(out.c2.samples, 0, atol=0)


def test_left_multiply_m2_central():
    xi = OneForm(I2, Mat2Element.zeros())
    out = left_multiply_form(E12, xi)
    np.testing.assert_allclose(out.c1.entries, E12.entries)
    np.testing.assert_allclose(out.c2.entries, 0, atol=0)


def test_apply_vf_examples():
    n = 3
    K = VectorField(ZnElement.ones(n), ZnElement.zeros(n))
    d0 = ZnElement.delta(n, 0)
    out = apply_vf(K, d(d0))
    np.testing.assert_allclose(out.samples, (d0 - ZnElement.delta(n, 1)).samples)

    zero = OneForm(ZnElement.zeros(n), ZnElement.zeros(n))
    np.testing.assert_allclose(apply_vf(K, zero).samples, 0, atol=0)

    K2 = VectorField(Mat2Element.diag(1, 2), Mat2Element([[1, 1], [1, 1]]))
    picked = apply_vf(K2, OneForm(I2, Mat2Element.zeros()))
    np.testing.assert_allclose(picked.entries, Mat2Element.diag(1, 2).entries)


@given(zn_elements(), zn_elements())
def test_zn_leibniz(a, b):
    lhs = d(a * b)
    da_b = right_multiply_form(d(a), b)
    a_db = left_multiply_form(a, d(b))
    _form_close(lhs, OneForm(da_b.c1 + a_db.c1, da_b.c2 + a_db.c2))


@given(mat2_elements(), mat2_elements())
def test_m2_leibniz(a, b):
    lhs = d(a * b)
    da_b = right_multiply_form(d(a), b)
    a_db = left_multiply_form(a, d(b))
    _form_close(lhs, OneForm(da_b.c1 + a_db.c1, da_b.c2 + a_db.c2))


@given(zn_vector_fields(), zn_elements(), zn_elements(), zn_elements())
def test_apply_vf_right_module(K, c1, c2, a):
    xi = OneForm(c1, c2)
    lhs = apply_vf(K, right_multiply_form(xi, a))
    rhs = apply_vf(K, xi) * a
    np.testing.assert_allclose(lhs.samples, rhs.samples, atol=TOL)


@given(zn_elements(), zn_elements())
def test_summation_by_parts(kp, f):
    lhs = (kp * (f - f.shift(-1))).integral()
    rhs = ((kp - kp.shift(1)) * f).integral()
    assert abs(lhs - rhs) <= TOL


def test_forms_and_fields_take_elements_of_one_algebra():
    for cls in (OneForm, VectorField):
        for a, b in ((1, 2), ("a", "b"), (None, None), (ZnElement.ones(3), 1), (1, ZnElement.ones(3))):
            with pytest.raises(TypeError):
                cls(a, b)
        with pytest.raises(AlgebraMismatchError, match="cannot combine ZnElement with Mat2Element"):
            cls(ZnElement.ones(3), I2)
        with pytest.raises(AlgebraMismatchError, match="group orders differ: 3 vs 4"):
            cls(ZnElement.ones(3), ZnElement.ones(4))
    with pytest.raises(AlgebraMismatchError):
        apply_vf(VectorField(ZnElement.ones(3), ZnElement.ones(3)), OneForm(I2, I2))
    with pytest.raises(AlgebraMismatchError, match="group orders differ: 3 vs 4"):
        apply_vf(VectorField(ZnElement.ones(3), ZnElement.ones(3)), OneForm(ZnElement.ones(4), ZnElement.ones(4)))
