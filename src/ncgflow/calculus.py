"""First-order differential calculi on the two algebras.

Both calculi are generated by a pair of 1-forms, and everything here is
stored in the normal form "generators on the left, coefficients on the
right":

* C(Z_n): ``xi = e_plus . c1 + e_minus . c2`` with the bimodule relation
  ``e_a . f = R_a(f) . e_a``, so pushing an algebra element from the left
  of a generator to the right shifts it.  The derivative is
  ``d f = e_plus (f - R_{-1} f) + e_minus (f - R_{+1} f)``.
* M2(C): ``xi = s1 . c1 + s2 . c2`` with central generators and
  ``d a = s1 [E12, a] + s2 [E21, a]``.

A :class:`VectorField` is a right-module map from 1-forms to the algebra
and is determined by its values on the generators; applying it to a form
in normal form is the coefficient contraction ``k1*c1 + k2*c2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraElement,
    E12,
    E21,
    Mat2Element,
    ZnElement,
    commutator,
)

__all__ = [
    "OneForm",
    "VectorField",
    "d",
    "left_multiply_form",
    "apply_vf",
]


def _operands(a, b) -> None:
    """The element layer's operand check on a coefficient pair.

    TypeError unless both are algebra elements; ``AlgebraMismatchError``
    (from ``_coerce``) for two algebras or two group orders.
    """
    if not isinstance(a, AlgebraElement):
        raise TypeError(f"expected an algebra element, got {type(a).__name__}")
    a._coerce(b)


@dataclass(frozen=True)
class OneForm:
    """Coefficient pair of a 1-form in normal (generator-left) form.

    ``c1`` sits on ``e_plus`` / ``s1`` and ``c2`` on ``e_minus`` / ``s2``.
    """

    c1: AlgebraElement
    c2: AlgebraElement

    def __post_init__(self):
        _operands(self.c1, self.c2)


@dataclass(frozen=True)
class VectorField:
    """Values of a vector field on the generators: k1 = K(e_plus | s1), k2 = K(e_minus | s2)."""

    k1: AlgebraElement
    k2: AlgebraElement

    def __post_init__(self):
        _operands(self.k1, self.k2)


def d(a: AlgebraElement) -> OneForm:
    """Exterior derivative of an algebra element, in normal form."""
    if isinstance(a, ZnElement):
        return OneForm(a - a.shift(-1), a - a.shift(+1))
    if isinstance(a, Mat2Element):
        return OneForm(commutator(E12, a), commutator(E21, a))
    raise TypeError(f"not an algebra element: {type(a).__name__}")


def left_multiply_form(f: AlgebraElement, xi: OneForm) -> OneForm:
    """Normal form of ``f . xi``, pushing f through the generators."""
    if isinstance(f, ZnElement):
        return OneForm(f.shift(-1) * xi.c1, f.shift(+1) * xi.c2)
    if isinstance(f, Mat2Element):
        # s1, s2 are central
        return OneForm(f * xi.c1, f * xi.c2)
    raise TypeError(f"not an algebra element: {type(f).__name__}")


def apply_vf(field: VectorField, xi: OneForm) -> AlgebraElement:
    """Evaluate a vector field on a 1-form: ``k1*c1 + k2*c2``."""
    return field.k1 * xi.c1 + field.k2 * xi.c2
