"""Geodesic-velocity flows and state transport on finite *-algebras.

The package integrates coupled vector-field / transport equations on
C(Z_n) and M2(C), monitors the algebraic invariants the theory predicts
are conserved (reality, braiding, state normalisation), follows the
induced flow on the Riemann sphere of pure states for the row module,
and cross-checks the classical limit (geodesics, velocity-field
transport on a line).
"""

from .algebra import (
    AlgebraElement,
    AlgebraError,
    AlgebraMismatchError,
    E11,
    E12,
    E21,
    E22,
    I2,
    Mat2Element,
    ZnElement,
    commutator,
    inner_product,
)
from .calculus import OneForm, VectorField, apply_vf, d, left_multiply_form, right_multiply_form
from .connection import (
    braiding_residual,
    divergence_pairing,
    m2_rhs,
    m2_transport_rhs,
    reality_residual,
    solve_b,
    zn_rhs,
    zn_transport_rhs,
)
from .flow import BlowupError, Trajectory, integrate, pack_complex, rk4_step, split_complex
from .mobius import (
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
from .classical import (
    BurgersRun,
    ChristoffelProvider,
    GeodesicRun,
    GridField,
    burgers_rhs,
    flat_space,
    geodesic_rhs,
    integrate_burgers,
    integrate_geodesic,
    pullback_geodesic_check,
    round_sphere,
    sine_field,
    spatial_derivative,
    speed_squared,
)
from .transport import (
    BlochPoint,
    M2Run,
    ZnRun,
    bloch,
    m2_coupled_rhs,
    pack_m2_state,
    pack_zn_state,
    run_m2,
    run_zn,
    state_eval,
    velocity_functional,
    zn_coupled_rhs,
)

__version__ = "0.1.0"
