"""Arithmetic in the two finite *-algebras used by the flow solvers.

Elements are thin immutable wrappers around numpy arrays:

* ``ZnElement`` -- a complex function on the cyclic group Z_n, stored as n
  samples.  The product is pointwise, star is complex conjugation, the
  integral is the sum over the group, and ``shift`` is the group
  translation ``(R_a f)(i) = f(i + a mod n)``.
* ``Mat2Element`` -- a 2x2 complex matrix.  The product is the matrix
  product, star is the conjugate transpose and the integral is the trace.

``*`` is the algebra product in both cases (or scalar multiplication when
one operand is a plain number).  ``inner_product(a, c)`` pairs elements as
``integral(a * star(c))``, which is positive definite for both algebras.

Both classes take their operators (``+``, ``-``, ``*``, ``/`` by a scalar)
and their constructor's check from one private base class: the entries
are finite and locked, and mixing algebras (or different group orders)
raises :class:`AlgebraMismatchError`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "AlgebraError",
    "AlgebraMismatchError",
    "ZnElement",
    "Mat2Element",
    "AlgebraElement",
    "inner_product",
    "commutator",
    "E11",
    "E12",
    "E21",
    "E22",
    "I2",
]

_SCALAR = (int, float, complex, np.integer, np.floating, np.complexfloating)


class AlgebraError(ValueError):
    """Invalid element data (wrong shape or non-finite entries)."""


class AlgebraMismatchError(AlgebraError):
    """Operands belong to different algebras or different group orders."""


def _locked(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _shift_indices(n: int, steps: int) -> np.ndarray:
    """Index array realising R_a: ``f[_shift_indices(n, a)][i] == f[(i + a) % n]``.

    Much cheaper than np.roll on small arrays.  Besides ``ZnElement.shift`` and
    the reference ``connection._zn_system``, the burgers stencil and the run
    series gather through it.
    """
    return _locked((np.arange(n) + steps) % n)


class _Element:
    """The operators both algebras share, on the locked complex array ``_data``.

    A subclass names its data (``samples`` / ``entries``), checks its shape
    before calling this constructor and sets ``_product``, the algebra
    product of two data arrays.  ``*`` is that product, or scalar
    multiplication when the other operand is a plain number.
    """

    __slots__ = ("_data",)
    _product: np.ufunc

    def __init__(self, arr: np.ndarray):
        if not np.isfinite(arr).all():
            raise AlgebraError(f"non-finite entries in {type(self).__name__}")
        self._data = _locked(arr)

    def _coerce(self, other) -> np.ndarray:
        """The data of an operand of the same algebra and group order."""
        if not isinstance(other, _Element):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if type(other) is not type(self):
            raise AlgebraMismatchError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other._data.shape != self._data.shape:
            raise AlgebraMismatchError(f"group orders differ: {len(self._data)} vs {len(other._data)}")
        return other._data

    def __add__(self, other):
        return type(self)(self._data + self._coerce(other))

    def __sub__(self, other):
        return type(self)(self._data - self._coerce(other))

    def __neg__(self):
        return type(self)(-self._data)

    def __mul__(self, other):
        if isinstance(other, _SCALAR):
            return type(self)(self._data * other)
        return type(self)(self._product(self._data, self._coerce(other)))

    def __rmul__(self, other):
        if isinstance(other, _SCALAR):
            return type(self)(other * self._data)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _SCALAR):
            return type(self)(self._data / other)
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({self._data.tolist()!r})"


class ZnElement(_Element):
    """A complex-valued function on Z_n; ``samples[i]`` is the value at i."""

    __slots__ = ()
    _product = np.multiply

    def __init__(self, samples):
        arr = np.array(samples, dtype=np.complex128)
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise AlgebraError("ZnElement needs a 1-d array with at least 2 samples")
        super().__init__(arr)

    @property
    def samples(self) -> np.ndarray:
        return self._data

    @property
    def n(self) -> int:
        return self._data.shape[0]

    @classmethod
    def zeros(cls, n: int) -> "ZnElement":
        return cls(np.zeros(n, dtype=np.complex128))

    @classmethod
    def ones(cls, n: int) -> "ZnElement":
        """The algebra unit (constant function 1)."""
        return cls(np.ones(n, dtype=np.complex128))

    @classmethod
    def delta(cls, n: int, i: int) -> "ZnElement":
        """The basis projector supported at group element ``i`` (mod n)."""
        arr = np.zeros(n, dtype=np.complex128)
        arr[i % n] = 1.0
        return cls(arr)

    def shift(self, steps: int) -> "ZnElement":
        """Group translation: ``(R_a f)(i) = f(i + a mod n)`` with a = steps."""
        return ZnElement(self._data[_shift_indices(self.n, int(steps))])

    def star(self) -> "ZnElement":
        return ZnElement(np.conj(self._data))

    def integral(self) -> complex:
        """Sum over the group; linear and star-compatible."""
        return complex(self._data.sum())


class Mat2Element(_Element):
    """A 2x2 complex matrix with the matrix product and trace integral."""

    __slots__ = ()
    _product = np.matmul

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.complex128)
        if arr.shape != (2, 2):
            raise AlgebraError("Mat2Element needs a 2x2 array")
        super().__init__(arr)

    @property
    def entries(self) -> np.ndarray:
        return self._data

    @classmethod
    def zeros(cls) -> "Mat2Element":
        return cls(np.zeros((2, 2), dtype=np.complex128))

    @classmethod
    def identity(cls) -> "Mat2Element":
        return cls(np.eye(2, dtype=np.complex128))

    @classmethod
    def unit(cls, i: int, j: int) -> "Mat2Element":
        """Matrix unit E_ij (1-based indices, as in E12, E21)."""
        arr = np.zeros((2, 2), dtype=np.complex128)
        arr[i - 1, j - 1] = 1.0
        return cls(arr)

    @classmethod
    def diag(cls, a, d) -> "Mat2Element":
        return cls(np.diag([complex(a), complex(d)]))

    def star(self) -> "Mat2Element":
        return Mat2Element(self._data.conj().T)

    def integral(self) -> complex:
        """Trace functional."""
        return complex(self._data[0, 0] + self._data[1, 1])


AlgebraElement = ZnElement | Mat2Element


def inner_product(a: AlgebraElement, c: AlgebraElement) -> complex:
    """Positive-definite pairing integral(a * star(c))."""
    return (a * c.star()).integral()


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a * b - b * a


E11 = Mat2Element.unit(1, 1)
E12 = Mat2Element.unit(1, 2)
E21 = Mat2Element.unit(2, 1)
E22 = Mat2Element.unit(2, 2)
I2 = Mat2Element.identity()
