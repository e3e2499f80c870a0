import cmath

import numpy as np
import pytest
from hypothesis import given

from conftest import complexes, mat2_elements, zn_elements
from ncgflow import (
    AlgebraError,
    AlgebraMismatchError,
    E11,
    E12,
    E21,
    I2,
    Mat2Element,
    ZnElement,
    inner_product,
)

TOL = 1e-12


def test_delta_projectors_idempotent():
    d0 = ZnElement.delta(3, 0)
    np.testing.assert_allclose((d0 * d0).samples, d0.samples)


def test_matrix_unit_relation():
    np.testing.assert_allclose((E12 * E21).entries, E11.entries)


def test_diag_times_unit():
    # direct matrix product: diag(1,2) @ E12 has a single 1 in slot (1,2)
    expected = np.array([[1, 0], [0, 2]], dtype=complex) @ E12.entries
    np.testing.assert_allclose((Mat2Element.diag(1, 2) * E12).entries, expected)
    np.testing.assert_allclose(expected, E12.entries)


def test_star_examples():
    z = ZnElement([cmath.exp(3j), 0, 0])
    np.testing.assert_allclose(z.star().samples, [cmath.exp(-3j), 0, 0])
    np.testing.assert_allclose(E12.star().entries, E21.entries)
    np.testing.assert_allclose((1j * I2).star().entries, (-1j * I2).entries)


def test_shift_examples():
    d0 = ZnElement.delta(3, 0)
    # evaluate (R_{-1} f)(i) = f(i - 1) directly at each site
    np.testing.assert_allclose(d0.shift(-1).samples, ZnElement.delta(3, 1).samples)
    f = ZnElement([1, 2j, 3])
    np.testing.assert_allclose(f.shift(0).samples, f.samples)
    np.testing.assert_allclose(d0.shift(3).samples, d0.samples)
    np.testing.assert_allclose(f.shift(1).samples, [2j, 3, 1])


def test_integral_examples():
    assert ZnElement.ones(3).integral() == pytest.approx(3)
    assert I2.integral() == pytest.approx(2)
    assert E12.integral() == pytest.approx(0)


def test_inner_product_examples():
    d0, d1 = ZnElement.delta(3, 0), ZnElement.delta(3, 1)
    assert inner_product(d0, d0) == pytest.approx(1)
    assert inner_product(d0, d1) == pytest.approx(0)
    assert inner_product(E12, E12) == pytest.approx(1)


@given(zn_elements(), zn_elements(), zn_elements())
def test_zn_mul_associative_unital(a, b, c):
    np.testing.assert_allclose(((a * b) * c).samples, (a * (b * c)).samples, atol=TOL)
    np.testing.assert_allclose((ZnElement.ones(3) * a).samples, a.samples, atol=TOL)


@given(mat2_elements(), mat2_elements(), mat2_elements())
def test_m2_mul_associative_unital(a, b, c):
    np.testing.assert_allclose(((a * b) * c).entries, (a * (b * c)).entries, atol=TOL)
    np.testing.assert_allclose((I2 * a).entries, (a * I2).entries, atol=TOL)
    np.testing.assert_allclose((I2 * a).entries, a.entries, atol=TOL)


@given(zn_elements(), zn_elements())
def test_zn_star_involutive_antimultiplicative(a, b):
    np.testing.assert_allclose(a.star().star().samples, a.samples, atol=TOL)
    np.testing.assert_allclose((a * b).star().samples, (b.star() * a.star()).samples, atol=TOL)


@given(mat2_elements(), mat2_elements())
def test_m2_star_involutive_antimultiplicative(a, b):
    np.testing.assert_allclose(a.star().star().entries, a.entries, atol=TOL)
    np.testing.assert_allclose((a * b).star().entries, (b.star() * a.star()).entries, atol=TOL)


@given(zn_elements(), zn_elements())
def test_zn_integral_trace_property(a, b):
    assert abs((a * b).integral() - (b * a).integral()) <= TOL


@given(mat2_elements(), mat2_elements())
def test_m2_integral_trace_property(a, b):
    assert abs((a * b).integral() - (b * a).integral()) <= TOL


@given(zn_elements())
def test_zn_integral_star_compatible(a):
    assert abs(a.star().integral() - a.integral().conjugate()) <= TOL


@given(zn_elements())
def test_zn_inner_positive(a):
    value = inner_product(a, a)
    assert value.real >= -TOL
    assert abs(value.imag) <= TOL


@given(mat2_elements())
def test_m2_inner_positive(a):
    value = inner_product(a, a)
    assert value.real >= -TOL
    assert abs(value.imag) <= TOL


def test_inner_product_zero_iff_zero():
    assert inner_product(ZnElement.zeros(4), ZnElement.zeros(4)) == 0
    a = ZnElement([1e-8, 0, 0])
    assert inner_product(a, a).real > 0


def test_mismatch_errors():
    with pytest.raises(AlgebraMismatchError):
        ZnElement.ones(3) * ZnElement.ones(4)
    with pytest.raises(AlgebraMismatchError):
        ZnElement.ones(3) * I2
    with pytest.raises(AlgebraMismatchError):
        I2 + ZnElement.ones(2)


def test_constructor_rejects_bad_data():
    with pytest.raises(AlgebraError):
        ZnElement([1.0])
    with pytest.raises(AlgebraError):
        ZnElement([np.nan, 0.0])
    with pytest.raises(AlgebraError):
        Mat2Element([[np.inf, 0], [0, 0]])
    with pytest.raises(AlgebraError):
        Mat2Element([[1, 0, 0], [0, 1, 0]])


_RNG = np.random.default_rng(20180)


def _random_complex(shape):
    return _RNG.standard_normal(shape) + 1j * _RNG.standard_normal(shape)


# (element class, data attribute, shape, algebra product on the data, an element of the other algebra)
_ALGEBRAS = {
    "zn": (ZnElement, "samples", (5,), np.multiply, I2),
    "m2": (Mat2Element, "entries", (2, 2), np.matmul, ZnElement.ones(2)),
}


@pytest.mark.parametrize("name", sorted(_ALGEBRAS))
def test_operators_match_numpy_bit_for_bit(name):
    cls, attr, shape, product, other = _ALGEBRAS[name]
    x, y = _random_complex(shape), _random_complex(shape)
    a, b = cls(x), cls(y)
    cases = [(a + b, x + y), (a - b, x - y), (-a, -x), (a * b, product(x, y))]
    for c in (3, -0.7, 0.25 - 1.5j, np.float64(2.5), np.complex128(1j)):
        cases += [(a * c, x * c), (c * a, c * x), (a / c, x / c)]
    for element, expected in cases:
        assert type(element) is cls
        assert getattr(element, attr).tobytes() == np.asarray(expected, dtype=np.complex128).tobytes()

    with pytest.raises(TypeError):
        a / b
    for operand in ("x", None, x):
        with pytest.raises(TypeError):
            a * operand
    with pytest.raises(ValueError):
        getattr(a, attr)[0] = 1.0
    assert np.array_equal(getattr(eval(repr(a), {cls.__name__: cls}), attr), x)
    with pytest.raises(AlgebraMismatchError, match=f"cannot combine {cls.__name__} with {type(other).__name__}"):
        a + other
    if cls is ZnElement:
        with pytest.raises(AlgebraMismatchError, match="group orders differ: 5 vs 4"):
            a - ZnElement.ones(4)
