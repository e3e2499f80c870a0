import ast
import math

import numpy as np
import pytest
from hypothesis import given

from conftest import m2_real_vector_fields, zn_real_vector_fields
from ncgflow import (
    I2,
    AlgebraMismatchError,
    E12,
    E21,
    E11,
    E22,
    Mat2Element,
    VectorField,
    ZnElement,
    braiding_residual,
    m2_rhs,
    m2_transport_rhs,
    reality_residual,
    solve_b,
    zn_rhs,
    zn_transport_rhs,
)
from ncgflow import connection
from ncgflow.flow import _compile_rk4, _names
from oracles import divergence_pairing, m2_flow_oracle, m2_transport_oracle, zn_system

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



@pytest.mark.parametrize("n", [2, 3, 64])
def test_zn_entry_points_are_byte_identical_to_the_reference_system(n):
    """zn_rhs, zn_transport_rhs and solve_b go through the array kernel; their bytes are the reference's."""
    rng = np.random.default_rng(20 + n)
    for _ in range(5):
        kp, km, m = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3))
        field = VectorField(ZnElement(kp), ZnElement(km))
        dkp, dkm, dm = zn_system(kp, km, m)
        flow = zn_rhs(field)
        assert flow.k1.samples.tobytes() == dkp.tobytes() and flow.k2.samples.tobytes() == dkm.tobytes()
        assert zn_transport_rhs(ZnElement(m), field).samples.tobytes() == dm.tobytes()
        assert solve_b(field).samples.tobytes() == (-zn_system(kp, km, np.ones(n, dtype=complex))[2]).tobytes()


def test_entry_points_reject_mismatched_operands():
    """K and m of two algebras, or of two group orders, raise AlgebraMismatchError."""
    z3 = VectorField(ZnElement([1, 2, 3]), ZnElement([1, 1, 1]))
    with pytest.raises(AlgebraMismatchError):
        zn_transport_rhs(ZnElement([1, 2, 3]), VectorField(I2, I2))
    with pytest.raises(AlgebraMismatchError):
        m2_transport_rhs(I2, z3)
    with pytest.raises(AlgebraMismatchError, match="group orders"):
        zn_transport_rhs(ZnElement([1, 2]), z3)



def test_transport_entry_points_reject_an_m_of_the_other_algebra():
    z3 = VectorField(ZnElement([1, 2, 3]), ZnElement([1, 1, 1]))
    with pytest.raises(TypeError, match="^zn_transport_rhs expects a ZnElement$"):
        zn_transport_rhs(I2, z3)
    with pytest.raises(TypeError, match="^m2_transport_rhs expects a Mat2Element$"):
        m2_transport_rhs(ZnElement([1, 2, 3]), VectorField(I2, I2))


def _m2_cases():
    """(K1, K2, m) entry arrays: random, with signed zeros, subnormal, and with entries near 1e154."""
    rng = np.random.default_rng(36)

    def draw(scale, size=12):
        return scale * (rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size))

    cases = [draw(1.0) for _ in range(20)]
    zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0, 1.5)]
    for _ in range(20):
        y = draw(1.0)
        picked = rng.random(12) < 0.5
        y[picked] = rng.choice(zeros, picked.sum())
        cases.append(y)
    cases += [np.concatenate([draw(1.0, 8), draw(5e-310, 4)]) for _ in range(5)]  # subnormal m
    cases += [np.concatenate([draw(2e-310, 8), draw(1.0, 4)]) for _ in range(5)]  # subnormal K
    cases += [draw(2.5e153) for _ in range(10)]  # products near 1e307, sums short of overflow
    return cases


@pytest.mark.parametrize("y", _m2_cases())
def test_the_compiled_m2_rates_agree_with_the_term_by_term_oracles(y):
    """The A-matrix form of the M2 stage against ``[K_i, B] / 2`` and ``-b m - K1 [E12, m] - K2 [E21, m]``."""
    k1, k2, m = y[:4].reshape(2, 2), y[4:8].reshape(2, 2), y[8:].reshape(2, 2)
    got = np.array(connection._m2_kernels().rhs(0.0, y.tolist()))
    want = np.concatenate([*(d.ravel() for d in m2_flow_oracle(k1, k2)), m2_transport_oracle(k1, k2, m).ravel()])
    assert np.all(np.isfinite(want)) and np.all(np.isfinite(got))
    k_abs, m_abs = np.abs(y[:8]).max(), np.abs(y[8:]).max()
    bound = 1e-14 * k_abs * max(k_abs, m_abs) + 1e-321  # a few ulps of the products, and of the subnormals
    assert np.abs(got - want).max() <= bound
    field = VectorField(Mat2Element(k1), Mat2Element(k2))
    flow = m2_rhs(field)
    assert np.concatenate([flow.k1.entries.ravel(), flow.k2.entries.ravel()]).tobytes() == got[:8].tobytes()
    assert m2_transport_rhs(Mat2Element(m), field).entries.ravel().tobytes() == got[8:].tobytes()


def _arithmetic(tree) -> list:
    """The binary and negation operations of parsed source, but not those of constants alone, which compile folds."""

    def constant(node) -> bool:
        return (isinstance(node, ast.Constant) or isinstance(node, ast.BinOp) and constant(node.left)
                and constant(node.right) or isinstance(node, ast.UnaryOp) and constant(node.operand))

    return [node for node in ast.walk(tree) if (isinstance(node, ast.BinOp) or isinstance(node, ast.UnaryOp)
                                                 and isinstance(node.op, ast.USub)) and not constant(node)]


def test_the_m2_stage_and_step_stay_in_their_operation_counts(monkeypatch):
    """50 operations a stage in the A-matrix form (77 term by term), 359 a fused rk4 step (467).

    The operations are counted in the source text of the stage and of the
    compiled run; the step's are those in the body of its loop over the
    steps, but not the row index of a sampled write.
    """
    stage = ast.parse("\n".join(connection._m2_stage("t", _names("s", 12), _names("ka", 12))))
    assert len(_arithmetic(stage)) <= 50
    sources = []
    monkeypatch.setattr("ncgflow.flow._compile", lambda source, name, **names: sources.append(source))
    _compile_rk4(12, connection._m2_stage, (), complex)
    loop = next(node for node in ast.walk(ast.parse(sources[0])) if isinstance(node, ast.For))
    step = [op for line in loop.body for op in _arithmetic(line) if not isinstance(op.op, ast.FloorDiv)]
    assert len(step) <= 360
