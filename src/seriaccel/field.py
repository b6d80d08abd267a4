"""Scalar arithmetic over the three supported numeric field modes.

Every quantity in this package (sequence elements, series coefficients,
table entries, jet coefficients) lives in one of three fields:

* ``rational`` -- exact arbitrary-precision rationals, no rounding at all;
* ``bigfloat`` -- decimal floats with a configurable number of significant
  digits (at least 50), rounded half-to-even;
* ``f64`` -- native machine doubles.

A :class:`Field` instance pins the mode once.  Values themselves are plain
``fractions.Fraction``, ``decimal.Decimal`` or ``float`` objects, so the
recursions can use ordinary Python operators.  Mode discipline is enforced
where values enter the system (parsing, constructors, :meth:`Field.ensure`);
mixing modes is an error there, never a silent coercion.

Division inside the nonlinear recursions must go through :meth:`Field.div`,
the relative guard: it raises :meth:`Field.breakdown`, a
:class:`BreakdownError` that carries only its message, on an exactly-zero
denominator in rational mode and on a near-zero denominator in the float
modes.  A denominator ``d`` counts as near zero when
``|d| <= eps * max(1, |numerator|)`` with ``eps = 2**-40`` for machine
doubles and ``eps = 10**(10 - digits)`` for bigfloats, so the guard scales
with the working precision instead of strangling deep high-precision tables.
It stops overflow cascades without flagging legitimately small values.  The
guard compares ``|numerator|`` with the mode's own one (``Decimal(1)``,
``1.0``), never with the int ``1``, which a ``Decimal`` comparison would
first convert.  In bigfloat most calls never run it: when the adjusted
exponent of a nonzero ``d`` exceeds ``10 - digits + max(0, b + 1)``, ``b``
that of a finite numerator, ``|d|`` is certainly above the bound, and the
quotient is returned at once; the rest run the guard in the field's context.
:meth:`BigFloatField.arithmetic` makes the field's own context object current
(not a copy), so there the quotient is a plain ``/``; under any other ambient
context it is the field context's ``divide``, and no decision or digit of
:meth:`Field.div` reads the ambient context.  In the float modes
:meth:`Field.is_finite` is the C-level test of the value type
(``Decimal.is_finite``, ``math.isfinite``) itself.
The one step that divides without it, the rational classic Aitken cell of
:mod:`seriaccel.transforms` (one integer quotient), raises that same error
on a zero denominator.
:meth:`Field.is_zero` is the absolute test ``|value| <= eps``, exact zero in
rational mode.

The ``series_*`` methods are the arithmetic of jets
(:class:`~seriaccel.jets.Jet`) over the form the field packs a jet's
coefficients in.  The float modes keep the tuple of values and run the plain
loops in their context.  Rational mode packs ``(den, nums)``: one positive
common denominator and a tuple of integer numerators with
``gcd(den, *nums) == 1``.  That form is unique, and every rational kernel
works on the integers and returns it, reducing by one gcd of the vector where
its operands leave a common factor possible, never one per coefficient.

:func:`scientific_string` dispatches on the exact type of its value and
reads its per-digits form from a plain dict.  A finite ``float`` is
formatted once by the ``e`` conversion, which rounds it exactly, half to
even, and the point is moved by fixed slices of that text.  A finite
``Decimal`` is rounded once in the form's context, and that value, which
then has at most ``digits`` digits, is formatted once, exactly, by the same
``e`` conversion and cut by the same slices.  Fractions, non-finite values
and subclasses take the slower exact ``Decimal`` route, which is the
reference the fast paths are tested against; no route depends on the ambient
decimal context.
"""

from __future__ import annotations

import math
import operator
import sys
from contextlib import nullcontext
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, DivisionByZero,
                     getcontext, localcontext, setcontext)
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, Decimal, float]

__all__ = [
    "Scalar",
    "ParseError",
    "ModeMismatchError",
    "BreakdownError",
    "Field",
    "RationalField",
    "BigFloatField",
    "Float64Field",
    "field_for_mode",
    "to_fraction_string",
    "decimal_string",
    "scientific_string",
]

#: Relative threshold below which float-mode denominators count as zero.
NEAR_ZERO = 2.0 ** -40


class ParseError(ValueError):
    """Text cannot be parsed as a scalar in the requested mode."""


class ModeMismatchError(TypeError):
    """A value of one field mode was fed into a computation of another."""


class BreakdownError(ArithmeticError):
    """(Near-)zero denominator in a nonlinear recursion step; carries its message."""


def _split_fraction_text(text: str) -> tuple[str, str] | None:
    if "/" not in text:
        return None
    parts = text.split("/")
    if len(parts) != 2:
        raise ParseError(f"malformed fraction literal: {text!r}")
    return parts[0].strip(), parts[1].strip()


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields in ``__slots__`` and sets them once, in
    ``__init__``, through ``object.__setattr__``; any later assignment raises
    :class:`AttributeError`.  Two instances of one class are equal, and hash
    alike, when their ``_key()`` tuples are, by default the fields in order.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"


class Field(_Frozen):
    """Shared behaviour of the three field modes.

    A mode states its value type ``kind``, its ``noun`` for messages, the
    rounded quotient of two integers (the way an exact
    :class:`~fractions.Fraction` enters it), how an exact finite
    :class:`~decimal.Decimal` enters it, its context, its zero test, its
    finiteness test and the packed form of its jets; every entry path below
    is written once on top of those.  Fields are immutable and equal by mode
    and precision.
    """

    __slots__ = ()
    mode: str = "?"
    kind: type = object
    noun: str = "a scalar"

    # -- values -----------------------------------------------------------

    @property
    def zero(self) -> Scalar:
        return self.from_int(0)

    @property
    def one(self) -> Scalar:
        return self.from_int(1)

    def from_int(self, value: int) -> Scalar:
        return self.kind(value)

    def quotient(self, p: int, q: int) -> Scalar:
        """``p / q`` for integers ``p`` and ``q > 0``, correctly rounded in this field."""
        raise NotImplementedError

    def from_fraction(self, value: Fraction) -> Scalar:
        return self.quotient(value.numerator, value.denominator)

    def _from_decimal(self, value: Decimal) -> Scalar:
        """The exact finite decimal ``value`` in this field; an ``ArithmeticError``
        or a non-finite result when the field cannot hold it."""
        raise NotImplementedError

    def ensure(self, value: Scalar) -> Scalar:
        """Return ``value`` if it belongs to this field, else raise."""
        if isinstance(value, self.kind):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return self.from_int(value)
        raise ModeMismatchError(f"expected {self.noun}, got {type(value).__name__}")

    def ensure_all(self, values) -> tuple:
        return tuple(self.ensure(v) for v in values)

    def parse(self, text: str) -> Scalar:
        """Parse an integer, a ``p/q`` fraction, or a decimal literal.

        Literals that are not finite numbers (``inf``, ``nan``, or a value
        past what the mode can hold) raise :class:`ParseError`; a zero
        denominator raises :class:`ZeroDivisionError`.
        """
        text = text.strip()
        parts = _split_fraction_text(text)
        try:
            if parts is not None:
                value = self.from_fraction(Fraction(int(parts[0]), int(parts[1])))
            else:
                exact = Decimal(text)
                value = self._from_decimal(exact) if exact.is_finite() else None
        except ZeroDivisionError:
            raise ZeroDivisionError(f"zero denominator in {text!r}") from None
        except (ValueError, ArithmeticError):
            value = None
        if value is None or not self.is_finite(value):
            raise ParseError(f"not {self.noun}: {text!r}")
        return value

    # -- arithmetic helpers -------------------------------------------------

    def arithmetic(self):
        """Context manager establishing this field's working precision."""
        return nullcontext()

    def guarded(self) -> "Field":
        """The field a long sum or recurrence runs in, with 10 guard digits in
        bigfloat; this field itself in the other modes.  :meth:`from_guarded`
        rounds its results back, once each."""
        return self

    def from_guarded(self, values) -> tuple:
        """``values`` of :meth:`guarded`, each rounded once to this field."""
        return tuple(values)

    # The zero bound and the quotient, set once per mode: ``near_zero`` is
    # ``None`` where zero is exact (rational mode), else the bound ``eps``;
    # ``_divide`` is the rounded quotient.  ``_reach`` is ``None`` outside
    # bigfloat, where it is the ``(floor, ceiling)`` of the exponent decision
    # of :meth:`div`.
    near_zero = None
    _reach = None
    _divide = operator.truediv

    def is_zero(self, value: Scalar) -> bool:
        """The absolute zero test: ``|value| <= eps``, exact zero in rational mode."""
        bound = self.near_zero
        return value == 0 if bound is None else abs(value) <= bound

    def div(self, numerator: Scalar, denominator: Scalar) -> Scalar:
        """Checked division, the relative guard: raises :class:`BreakdownError`
        when ``|denominator| <= eps * max(1, |numerator|)``.  This runs once per
        division of every nonlinear recursion.  In rational mode it is the
        bare zero test and reads nothing of the numerator.

        In bigfloat, adjusted exponents decide most calls without the guard.
        Let ``b`` be the adjusted exponent of a finite numerator and ``a``
        that of a nonzero denominator.  However it rounds, the bound is at
        most ``10**(floor + max(0, b + 1))``, with ``floor = 10 - digits``
        (or the context's ``Emin``, if that is higher), while ``|d| >=
        10**a``.  So when ``floor + max(0, b + 1) < a < ceiling`` the call
        divides at once: with ``/`` under :meth:`arithmetic`, where the
        field's own context is current, and with that context's ``divide``
        under any other.  ``ceiling`` keeps
        ``|n|``, ``|d|`` and the bound clear of overflow.  Every other call,
        at a zero, non-finite or boundary operand, runs the guard inside
        :meth:`arithmetic`, so no decision and no digit reads the ambient
        context."""
        bound = self.near_zero
        reach = self._reach
        if reach is not None:
            if denominator and numerator.is_finite():
                # A non-finite denominator reads as exponent 0, so it comes
                # through only where the bound is below 1; the guard passes it
                # there too (|Infinity| exceeds the bound, NaN compares false).
                floor, ceiling = reach
                b = numerator.adjusted()
                if (floor if b < 0 else floor + 1 + b) < denominator.adjusted() < ceiling:
                    if getcontext() is self._context:
                        return numerator / denominator
                    return self._divide(numerator, denominator)
            with self.arithmetic():
                mag = abs(numerator)
                zero = abs(denominator) <= (bound * mag if mag > _DECIMAL_ONE else bound)
        elif bound is None:
            zero = denominator == 0
        else:
            mag = abs(numerator)
            zero = abs(denominator) <= (bound * mag if mag > 1.0 else bound)
        if zero:
            raise self.breakdown()
        return self._divide(numerator, denominator)

    def breakdown(self) -> BreakdownError:
        """The error :meth:`div` raises on a (near-)zero denominator."""
        return BreakdownError(f"{self.mode}: division by (near-)zero denominator")

    # -- truncated power series: the coefficient work of jets ----------------
    # The float modes keep a jet's tuple of values, and these kernels are the
    # plain loops over it in the field's context.  ``n`` is the order of a
    # result: a kernel reads coefficients ``0..n`` of operands that may run
    # longer.

    def series_pack(self, coeffs: tuple):
        """The packed form of the field values ``coeffs``."""
        return coeffs

    def series_coeffs(self, a) -> tuple:
        """The coefficients of the packed series ``a``, as field values."""
        return a

    def series_order(self, a) -> int:
        return len(a) - 1

    def series_finite(self, a) -> bool:
        return all(map(self.is_finite, a))

    def series_invertible(self, a) -> bool:
        """Whether the constant term of ``a`` passes the zero test."""
        return not self.is_zero(a[0])

    def series_sum(self, a, b, n: int, negate: bool):
        """``a + b``, or ``a - b`` with ``negate``."""
        with self.arithmetic():
            return tuple(map(operator.sub if negate else operator.add, a[: n + 1], b[: n + 1]))

    def series_scale(self, a, factor: Scalar):
        with self.arithmetic():
            return tuple(factor * c for c in a)

    def series_shift(self, a, places: int):
        """``a`` times ``z**places``, ``places >= 1``, at the order of ``a``."""
        size = len(a)
        return (self.zero,) * min(places, size) + a[: max(0, size - places)]

    def series_product(self, a, b, n: int) -> tuple:
        """Coefficients ``0..n`` of the product of the series ``a`` and ``b``."""
        zero = self.zero
        out = [zero] * (n + 1)
        with self.arithmetic():
            for i in range(n + 1):
                x = a[i]
                if x == zero:
                    continue
                for j in range(n + 1 - i):
                    out[i + j] += x * b[j]
        return tuple(out)

    def series_reciprocal(self, a) -> tuple:
        """Coefficients of ``1 / a`` through the order of ``a``, by the triangular
        recurrence ``r[k] = -(sum a[j] r[k-j]) / a[0]``; ``a[0]`` must be nonzero.
        Each coefficient is added to zero, as in a product with the jet 1, so
        ``1 / a`` is ``1 * (1 / a)`` value for value: no ``-0``, and a
        ``Decimal`` keeps the exponent that product gives it."""
        a0 = a[0]
        zero = self.zero
        out = [zero] * len(a)
        with self.arithmetic():
            out[0] = self.one / a0
            for k in range(1, len(a)):
                acc = zero
                for j in range(1, k + 1):
                    acc += a[j] * out[k - j]
                out[k] = -acc / a0
            return tuple([zero + c for c in out])

    def is_finite(self, value: Scalar) -> bool:
        return True

    #: Whether a value is finite, nonzero and not subnormal, so that it carries
    #: the field's full precision (bigfloat asks the current context).
    is_normal = staticmethod(bool)


#: Largest decimal exponent a rational literal may carry: the digit limit
#: that ``int()`` puts on the numerator and denominator of a ``p/q`` literal.
_EXPONENT_LIMIT = 4300


class RationalField(Field):
    """Exact rationals; all field axioms hold exactly."""

    __slots__ = ()
    mode = "rational"
    kind = Fraction
    noun = "a rational scalar"

    def quotient(self, p: int, q: int) -> Fraction:
        return Fraction(p, q)

    def _from_decimal(self, value: Decimal) -> Fraction:
        # Decimal literals become exact powers-of-ten rationals, of bounded size.
        if abs(value.as_tuple().exponent) > _EXPONENT_LIMIT:
            raise OverflowError(f"decimal exponent past {_EXPONENT_LIMIT}")
        return Fraction(value)

    # Jets are packed as ``(den, nums)`` (see the module docstring).  Each
    # kernel reduces only where its operands leave a common factor possible:
    # a sum by a divisor of ``gcd(da, db)``, as ``Fraction`` does for scalars;
    # a scaled jet by the two cross gcds; a shift, a cut or a product by one
    # gcd of the whole vector, read from the top coefficient down, since the
    # top coefficient carries the tallest denominator of its own and so
    # usually ends the gcd at 1; a reciprocal once per coefficient, as it is
    # built.

    def series_pack(self, coeffs):
        den = math.lcm(*[c.denominator for c in coeffs])
        return den, tuple(c.numerator * (den // c.denominator) for c in coeffs)

    def series_coeffs(self, a):
        den, nums = a
        return tuple(Fraction(x, den) for x in nums)

    def series_order(self, a):
        return len(a[1]) - 1

    def series_finite(self, a):
        return True

    def series_invertible(self, a):
        return a[1][0] != 0

    def series_height(self, a) -> int:
        """Bits of the tallest integer of ``a``: its denominator or a numerator."""
        den, nums = a
        return max(den.bit_length(), *[x.bit_length() for x in nums])

    def series_sum(self, a, b, n, negate):
        # Over lcm(da, db) = da * (db / g), g = gcd(da, db), a prime of da / g
        # or of db / g leaves a numerator it does not divide, so only a
        # divisor of g can be left to cancel.
        (da, xa), (db, xb) = _cut(a, n), _cut(b, n)
        g = math.gcd(da, db)
        s, t = da // g, db // g
        if negate:
            nums = [x * t - y * s for x, y in zip(xa, xb)]
        else:
            nums = [x * t + y * s for x, y in zip(xa, xb)]
        return _reduced(s * db, nums, g)

    def series_scale(self, a, factor):
        # No prime of den / g1 divides p / g1, and gcd(q / g2, *nums / g2) is 1.
        den, nums = a
        p, q = factor.numerator, factor.denominator
        if not p:
            return 1, (0,) * len(nums)
        g1, g2 = math.gcd(p, den), math.gcd(q, *nums)
        p, q = p // g1, q // g2
        return den // g1 * q, tuple(x // g2 * p for x in nums)

    def series_shift(self, a, places):
        den, nums = a
        kept = nums[: max(0, len(nums) - places)]
        return _reduced(den, (0,) * min(places, len(nums)) + kept)

    def series_product(self, a, b, n):
        (da, xa), (db, xb) = a, b
        acc = [0] * (n + 1)
        for i in range(n + 1):
            x = xa[i]
            if x:
                for j in range(n + 1 - i):
                    acc[i + j] += x * xb[j]
        return _reduced(da * db, acc)

    def series_reciprocal(self, a):
        # With a[j] = A[j] / da and r[i] = R[i] / den over the least common
        # denominator den of r[0..k-1]: r[k] = -(sum A[j] R[k-j]) / (A[0] den).
        # Each r[k] is reduced once, and den grows by the lcm with its
        # denominator, so the result is packed as it is built.
        da, xa = a
        a0 = xa[0]
        den, nums = 1, []
        s, d = da, a0
        for k in range(len(xa)):
            if k:
                s = -sum([xa[j] * nums[k - j] for j in range(1, k + 1)])
                d = a0 * den
            g = math.gcd(s, d)
            if d < 0:
                g = -g
            s, d = s // g, d // g
            grow = d // math.gcd(den, d)
            if grow != 1:
                nums = [x * grow for x in nums]
                den *= grow
            nums.append(s * (den // d))
        return den, tuple(nums)


def _cut(a, n: int):
    """The packed series ``a`` through order ``n``, reduced."""
    den, nums = a
    if len(nums) <= n + 1:
        return a
    return _reduced(den, nums[: n + 1])


def _reduced(den: int, nums, g: int | None = None) -> tuple:
    """``(den, nums)`` divided by ``gcd(den, *nums)``, or by ``gcd(g, *nums)``
    when no factor of ``den`` outside its divisor ``g`` can be common.  The gcd
    runs from the top coefficient down and stops at 1."""
    g = math.gcd(den if g is None else g, *reversed(nums))
    if g == 1:
        return den, tuple(nums)
    return den // g, tuple([x // g for x in nums])


#: The bigfloat one that :meth:`Field.div` compares ``|numerator|`` with.
_DECIMAL_ONE = Decimal(1)


class _Current:
    """Context manager that makes ``context`` itself the current decimal
    context (:func:`~decimal.localcontext` would enter a copy), yields it, and
    restores the previous one on exit."""

    __slots__ = ("context", "saved")

    def __init__(self, context: Context):
        self.context = context

    def __enter__(self) -> Context:
        self.saved = getcontext()
        setcontext(self.context)
        return self.context

    def __exit__(self, *exc_info):
        setcontext(self.saved)


class BigFloatField(Field):
    """Decimal floats with ``digits`` significant digits (>= 50), half-even."""

    # ``_context``, ``near_zero``, the context's ``divide`` (the ``_divide``
    # of :meth:`Field.div`) and the exponent ``_reach`` of its decision derive
    # from ``digits`` once; they are kept out of equality, hashing and repr.
    __slots__ = ("digits", "_context", "near_zero", "_divide", "_reach")
    mode = "bigfloat"
    kind = Decimal
    noun = "a bigfloat scalar"

    def __init__(self, digits: int = 50):
        if digits < 50:
            raise ValueError("bigfloat mode is defined for >= 50 significant digits")
        object.__setattr__(self, "digits", digits)
        # Overflow and invalid operations give infinities and NaNs, which the
        # builders flag as ``overflow``, as f64 arithmetic does.
        context = Context(prec=digits, rounding=ROUND_HALF_EVEN, traps=[DivisionByZero])
        object.__setattr__(self, "_context", context)
        # 10 guard digits of slack below the working precision.
        object.__setattr__(self, "near_zero", Decimal(1).scaleb(10 - digits))
        object.__setattr__(self, "_divide", context.divide)
        # Denominators above ``floor`` are normal; below ``ceiling`` neither
        # they nor a numerator that the decision passes can overflow.
        object.__setattr__(self, "_reach", (max(10 - digits, context.Emin),
                                            context.Emax - digits + 1))

    def _key(self) -> tuple:
        return (self.digits,)

    def __repr__(self):
        return f"{type(self).__name__}(digits={self.digits})"

    def arithmetic(self):
        """Context manager that makes the field's own context current, and
        yields it: operators then round as the field does, and :meth:`div`
        divides with ``/``.  It restores the previous context on exit, and
        nests.  Code under it that changes a context opens a
        :func:`~decimal.localcontext`, a copy, and leaves the field's intact."""
        return _Current(self._context)

    def guarded(self) -> "BigFloatField":
        return BigFloatField(self.digits + 10)

    def from_guarded(self, values) -> tuple:
        return tuple(map(self._context.plus, values))

    def quotient(self, p: int, q: int) -> Decimal:
        return self._divide(Decimal(p), Decimal(q))

    def _from_decimal(self, value: Decimal) -> Decimal:
        with self.arithmetic():  # infinite past the context's exponent range
            return +value

    is_finite = staticmethod(Decimal.is_finite)
    is_normal = staticmethod(Decimal.is_normal)


class Float64Field(Field):
    """Native double precision."""

    __slots__ = ()
    mode = "f64"
    kind = float
    noun = "an f64 scalar"
    near_zero = NEAR_ZERO

    def quotient(self, p: int, q: int) -> float:
        return p / q  # int / int rounds once

    def _from_decimal(self, value: Decimal) -> float:
        return float(value)

    is_finite = staticmethod(math.isfinite)

    @staticmethod
    def is_normal(value: float) -> bool:
        return sys.float_info.min <= abs(value) <= sys.float_info.max


_MODES = {
    "rational": lambda digits: RationalField(),
    "bigfloat": lambda digits: BigFloatField(digits=digits),
    "f64": lambda digits: Float64Field(),
}


def field_for_mode(mode: str, digits: int = 50) -> Field:
    try:
        return _MODES[mode](digits)
    except KeyError:
        raise ValueError(f"unknown field mode {mode!r} (expected rational|bigfloat|f64)") from None


# ---------------------------------------------------------------------------
# rendering


def to_fraction_string(value: Fraction) -> str:
    """``p/q`` text for an exact rational (plain integer when q == 1)."""
    if not isinstance(value, Fraction):
        raise ModeMismatchError("fraction rendering needs an exact rational")
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _as_rounded_decimal(value: Scalar, digits: int) -> Decimal:
    """Convert exactly, then round half-to-even to ``digits`` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        if isinstance(value, Fraction):
            return Decimal(value.numerator) / Decimal(value.denominator)
        if isinstance(value, float):
            return +Decimal(value)
        if isinstance(value, Decimal):
            return +value
    raise ModeMismatchError(f"cannot render {type(value).__name__} as decimal text")


def decimal_string(value: Scalar, digits: int) -> str:
    """Positional decimal rendering with ``digits`` significant digits."""
    d = _as_rounded_decimal(value, digits)
    if not d.is_finite():
        return str(d)
    return format(d, "f")


class _Exponents(dict):
    """Exponent text of an ``e`` format with its ``e`` (``e+05`` of a float,
    ``e+5`` of a ``Decimal``), mapped to the exponent of the mantissa in
    [0.1, 1), one more (``e6``).  Filled as exponents are rendered, with only
    the exponents a float can have, -324 to 308; any other is formed on each
    call, so the exponents of a ``Decimal``, which reach past 10**6, leave it
    no larger than the float range."""

    def __missing__(self, text: str) -> str:
        exponent = int(text[1:])
        shifted = f"e{exponent + 1}"
        if -324 <= exponent <= 308:
            self[text] = shifted
        return shifted


_EXPONENTS = _Exponents()

#: ``digits -> (spec, decimal_spec, context, cut)``, filled by :func:`_scientific_form`.
_SCIENTIFIC: dict[int, tuple] = {}


def _scientific_form(digits: int) -> tuple:
    """``(spec, decimal_spec, context, cut)`` for ``digits`` significant digits:
    the ``%`` format of the ``e`` conversion with a space for the sign of a
    positive value (faster than ``format`` with the same spec), the same spec
    for ``format``, which renders a ``Decimal`` exactly (``%`` would convert it
    to a float), a half-even context of ``digits`` digits with the widest
    exponent range, and the index of the ``e`` in a value formatted by either
    spec."""
    form = _SCIENTIFIC[digits] = (
        f"% .{digits - 1}e",
        f" .{digits - 1}e",
        Context(prec=digits, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX),
        digits + 2 if digits > 1 else 2)
    return form


def scientific_string(value: Scalar, digits: int) -> str:
    """Render as ``0.DDDDDDe[-]E`` with the mantissa in [0.1, 1).

    Matches the table typography used throughout this package, e.g.
    ``0.620539e-2`` for 6 significant digits of 0.00620539.  Exact zero
    renders as ``"0"``.
    """
    kind = type(value)
    if kind is float and value - value == 0:  # finite
        if not value:
            return "0"
        spec, _, _, cut = _SCIENTIFIC.get(digits) or _scientific_form(digits)
        text = spec % value  # [ -]d.ddde+XX
    elif kind is Decimal and value.is_finite():
        if not value:
            return "0"
        _, spec, context, cut = _SCIENTIFIC.get(digits) or _scientific_form(digits)
        # Rounded to ``digits`` digits first, the value formats exactly, so
        # ``format`` reads nothing of the ambient context.
        text = format(context.plus(value), spec)  # [ -]d.ddde+X
    else:
        return _scientific_reference(value, digits)
    # [ -]d.ddde+X -> [-]0.dddde(X+1)
    if value < 0:
        return f"-0.{text[1]}{text[3:cut]}{_EXPONENTS[text[cut:]]}"
    return f"0.{text[1]}{text[3:cut]}{_EXPONENTS[text[cut:]]}"


def _scientific_reference(value: Scalar, digits: int) -> str:
    """:func:`scientific_string` by exact ``Decimal`` steps, for any scalar.
    It rounds and quantizes with the widest exponent range, as the fast path
    does, so no value underflows to ``0`` or overflows to ``Infinity``."""
    with localcontext() as ctx:
        ctx.Emin, ctx.Emax = MIN_EMIN, MAX_EMAX
        d = _as_rounded_decimal(value, digits)
        if not d.is_finite():
            return str(d)
        if d == 0:
            return "0"
        sign = "-" if d < 0 else ""
        magnitude = d.copy_abs()
        exponent = magnitude.adjusted() + 1
        ctx.prec = digits + 5
        mantissa = magnitude.scaleb(-exponent)
        quantum = Decimal(1).scaleb(-digits)
        mantissa = mantissa.quantize(quantum, rounding=ROUND_HALF_EVEN)
    return f"{sign}{format(mantissa, 'f')}e{exponent}"
