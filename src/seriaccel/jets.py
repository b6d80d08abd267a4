"""Truncated power-series (jet) arithmetic in one variable over a scalar field.

A :class:`Jet` keeps the Taylor coefficients of a series through a fixed
order ``N``; everything above ``N`` is unknown, not zero.  Arithmetic between
jets of different orders truncates to the smaller order, which is exactly the
set of coefficients both operands honestly know.  Multiplying by the series
variable shifts coefficients up one slot and drops the top one, keeping the
order fixed.

This is the engine that expands the rational transformation and remainder
terms of the acceleration schemes into Taylor coefficients: all of their
recursions reduce to jet addition, multiplication, reciprocal and the shift
by the series variable.  Every one of these runs in the field
(:meth:`~seriaccel.field.Field.series_sum` and its siblings), on the form the
field packs a jet's coefficients in.  The float modes keep the tuple of
values.  Rational mode keeps one positive common denominator over integer
numerators, reduced, so a jet sum starts from one gcd of the two
denominators rather than one ``Fraction`` per coefficient, and
:attr:`Jet.coeffs` builds the ``Fraction`` values only when something reads
them.
"""

from __future__ import annotations

from typing import Callable

from .field import BreakdownError, Field, ModeMismatchError, Scalar, _Frozen

__all__ = [
    "Jet",
    "JetBreakdownError",
    "MissingCoefficientError",
    "PowerSeries",
]


class JetBreakdownError(BreakdownError):
    """Reciprocal of a jet whose constant term is (near-)zero."""


class MissingCoefficientError(IndexError):
    """A coefficient past the stored ones of a series without a tail rule."""


class Jet(_Frozen):
    """Coefficients ``c[0] + c[1] z + ... + c[N] z**N`` of a truncated series.

    A jet keeps ``packed``, its coefficients as its field packs them
    (:meth:`~seriaccel.field.Field.series_pack`): the float modes keep the
    tuple, rational mode one common denominator over integer numerators.
    Both forms are canonical, so jets compare and hash by value.
    :attr:`coeffs` unpacks on every read.  :meth:`from_coeffs` checks
    coefficients as they enter; the constructor takes them unchecked, from
    builders that pass only values the field computed."""

    __slots__ = ("field", "packed")

    def __init__(self, field: Field, coeffs: tuple[Scalar, ...]):
        if not coeffs:
            raise ValueError("a jet needs at least its constant term")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "packed", field.series_pack(coeffs))

    @classmethod
    def _of(cls, field: Field, packed) -> "Jet":
        jet = object.__new__(cls)
        object.__setattr__(jet, "field", field)
        object.__setattr__(jet, "packed", packed)
        return jet

    @classmethod
    def from_coeffs(cls, field: Field, values, order: int | None = None) -> "Jet":
        """``values`` zero-padded or cut to ``order``; ints become field values."""
        coeffs = list(values)
        if order is not None:
            if order < 0:
                raise ValueError("jet order must be >= 0")
            coeffs = coeffs[: order + 1]
            coeffs += [field.zero] * (order + 1 - len(coeffs))
        return cls(field, field.ensure_all(coeffs))

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return self.field.series_coeffs(self.packed)

    @property
    def order(self) -> int:
        return self.field.series_order(self.packed)

    def __repr__(self):
        return f"Jet(field={self.field!r}, coeffs={self.coeffs!r})"

    def is_finite(self) -> bool:
        """Whether every coefficient is finite; always, and unread, in rational mode."""
        return self.field.series_finite(self.packed)

    def _common(self, other: "Jet") -> int:
        if self.field != other.field:
            _mode_error(self, other)
        return min(self.order, other.order)

    def __add__(self, other: "Jet") -> "Jet":
        n = self._common(other)
        return Jet._of(self.field, self.field.series_sum(self.packed, other.packed, n, False))

    def __sub__(self, other: "Jet") -> "Jet":
        n = self._common(other)
        return Jet._of(self.field, self.field.series_sum(self.packed, other.packed, n, True))

    def scale(self, factor: Scalar) -> "Jet":
        factor = self.field.ensure(factor)
        return Jet._of(self.field, self.field.series_scale(self.packed, factor))

    def __mul__(self, other: "Jet") -> "Jet":
        n = self._common(other)
        return Jet._of(self.field, self.field.series_product(self.packed, other.packed, n))

    def reciprocal(self) -> "Jet":
        """Jet ``r`` with ``self * r == 1`` through this jet's order.

        Uses the triangular recurrence ``r[k] = -(sum a[j] r[k-j]) / a[0]``;
        requires a (near-)nonzero constant term.
        """
        if not self.field.series_invertible(self.packed):
            raise JetBreakdownError("jet breakdown: reciprocal of a jet with zero constant term")
        return Jet._of(self.field, self.field.series_reciprocal(self.packed))

    def __truediv__(self, other: "Jet") -> "Jet":
        return self * other.reciprocal()

    def shift(self, places: int = 1) -> "Jet":
        """Multiply by ``z**places``: coefficients move up, the top ones drop."""
        if places < 0:
            raise ValueError("shift must be by a nonnegative power")
        if places == 0:
            return self
        return Jet._of(self.field, self.field.series_shift(self.packed, places))


def _mode_error(a: Jet, b: Jet):
    raise ModeMismatchError(f"jets from different fields: {a.field!r} vs {b.field!r}")


class PowerSeries(_Frozen):
    """Finite stretch of Taylor coefficients, with an optional tail rule.

    ``coeffs`` holds the known coefficients (constant term first).  ``tail``
    optionally supplies coefficients past the stored ones; model problems
    with a closed-form general term use it so remainder analysis can reach
    arbitrarily deep.
    """

    __slots__ = ("field", "coeffs", "tail")

    def __init__(self, field: Field, coeffs: tuple[Scalar, ...],
                 tail: Callable[[int], Scalar] | None = None):
        coeffs = field.ensure_all(coeffs)
        if not coeffs:
            raise ValueError("a power series needs at least one coefficient")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "tail", tail)

    @property
    def known_order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, index: int) -> Scalar:
        if index < 0:
            raise IndexError("coefficient index must be >= 0")
        if index <= self.known_order:
            return self.coeffs[index]
        if self.tail is None:
            raise MissingCoefficientError(
                f"coefficient {index} is past the stored order {self.known_order} "
                "and no tail rule is attached"
            )
        return self.field.ensure(self.tail(index))

    def partial_sums(self, z: Scalar, count: int) -> tuple[Scalar, ...]:
        """The partial sums ``s_0 .. s_{count-1}`` at ``z``, where ``s_n`` is
        ``c_0 + c_1 z + ... + c_n z**n``, in one pass.

        The running sum and the power ``z**n`` are carried in the field's
        guarded form (:meth:`~seriaccel.field.Field.guarded`: 10 guard digits
        in bigfloat) and each sum is rounded back once, so rational sums are
        exact.  A zero coefficient adds nothing, also where ``z**n`` has
        overflowed and the product would be NaN.  Past that overflow, or once
        ``z**n`` has underflowed to a subnormal power or zero while ``z`` is
        not zero (:meth:`~seriaccel.field.Field.is_normal`), a nonzero
        coefficient is multiplied by ``z`` one factor at a time, so a tiny
        coefficient keeps a finite term and a huge one a nonzero term with
        all its digits, as in Horner's rule.
        """
        fld = self.field
        z = fld.ensure(z)
        coeffs, stored = self.coeffs, self.known_order
        sums = []
        work = fld.guarded()
        normal = work.is_normal
        with work.arithmetic():
            acc, power = work.zero, work.one
            for i in range(count):
                c = coeffs[i] if i <= stored else self.coefficient(i)
                if c:
                    if normal(power) or not z:
                        acc = acc + c * power
                    else:
                        for _ in range(i):
                            c = c * z
                        acc = acc + c
                sums.append(acc)
                power = power * z
        return fld.from_guarded(sums)

    def partial_sum(self, n: int, z: Scalar) -> Scalar:
        """Entry ``n`` of :meth:`partial_sums`; zero, the empty sum, for ``n < 0``."""
        sums = self.partial_sums(z, n + 1)
        return sums[n] if n >= 0 else self.field.zero
