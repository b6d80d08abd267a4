from contextlib import contextmanager
from decimal import (ROUND_CEILING, ROUND_HALF_EVEN, ROUND_HALF_UP, Context, Decimal, DivisionByZero,
                     Inexact, getcontext, localcontext)
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from seriaccel.field import (
    BigFloatField,
    BreakdownError,
    Field,
    Float64Field,
    ModeMismatchError,
    ParseError,
    RationalField,
    decimal_string,
    field_for_mode,
    scientific_string,
    _EXPONENTS,
    _scientific_reference,
    to_fraction_string,
)

RAT = RationalField()
BF = BigFloatField(50)
F64 = Float64Field()

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=999
)


def test_parse_fraction_literal():
    assert RAT.parse("-1/2") == Fraction(-1, 2)


def test_parse_decimal_is_exact_power_of_ten_rational():
    assert RAT.parse("0.95") == Fraction(19, 20)


def test_parse_machine_float():
    assert F64.parse("5.0") == 5.0


def test_parse_malformed():
    for text in ("1/2/3", "abc", "1..2", ""):
        with pytest.raises(ParseError):
            RAT.parse(text)


def test_parse_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RAT.parse("1/0")
    with pytest.raises(ZeroDivisionError):
        BF.parse("1/0")


def test_exact_sum():
    assert Fraction(1, 3) + Fraction(-1, 2) == Fraction(-1, 6)


def test_is_zero_identity():
    assert RAT.is_zero(Fraction(0, 1))
    assert not RAT.is_zero(Fraction(1, 10 ** 50))


def _long_division_digits(num, den, count):
    # independent long-division oracle for leading decimal digits
    digits = []
    shift = 0
    while num < den:
        num *= 10
        shift += 1
    for _ in range(count):
        q, num = divmod(num, den)
        digits.append(q)
        num *= 10
    return digits, shift


def test_decimal_rendering_against_long_division():
    value = Fraction(421, 16537500)
    digits, shift = _long_division_digits(421, 16537500, 7)
    assert digits == [2, 5, 4, 5, 7, 2, 9]  # 0.2545729...e-4 rounds to 0.254573e-4
    assert shift == 5
    assert decimal_string(value, 6) == "0.0000254573"
    assert scientific_string(value, 6) == "0.254573e-4"


def test_scientific_rendering_matches_table_typography():
    assert scientific_string(Fraction(620539, 100000000), 6) == "0.620539e-2"
    assert scientific_string(Fraction(-620539, 100000000), 6) == "-0.620539e-2"
    assert scientific_string(Fraction(0), 6) == "0"
    assert scientific_string(Decimal("24.67105263157"), 10) == "0.2467105263e2"


def test_scientific_rendering_past_28_digits():
    # Every digit is significant past the default context's 28 digits.
    assert scientific_string(Fraction(5, 6), 35) == "0.8" + "3" * 34 + "e0"
    assert scientific_string(BF.from_fraction(Fraction(-2, 3)), 35) == "-0." + "6" * 34 + "7e0"
    assert scientific_string(Decimal("1" * 40), 35) == "0." + "1" * 35 + "e40"


def _hostile_context():
    """An ambient context that a render reading it would show: every trap on,
    2 digits, a narrow clamped exponent range and ``ROUND_CEILING``."""
    return localcontext(Context(prec=2, rounding=ROUND_CEILING, Emin=-5, Emax=5, clamp=1,
                                traps=list(Context().traps)))


finite_decimals = st.builds(
    lambda sign, coefficient, exponent: Decimal((sign, tuple(map(int, str(coefficient))), exponent)),
    st.integers(0, 1), st.integers(0, 10 ** 60), st.integers(-400, 400))


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), finite_decimals),
       st.integers(1, 40))
@example(Decimal("1.234565"), 6)  # a tie, which ROUND_HALF_UP would round up
@example(0.125, 2)
@example(9.5, 1)  # rounds up to the next power of ten
@example(-0.0, 6)
@example(5e-324, 17)
@example(Decimal("-9.99999999999999999999999999999999999999995"), 40)
# three-digit exponents, one rounded up past the exponents of every float
@example(1e-300, 6)
@example(-1.5e300, 6)
@example(Decimal("9.99999E+399"), 6)
@example(Decimal("9.99999E+399"), 1)
@example(Decimal("9.99999E+399"), 2)
@example(Decimal("-1.5E+12345"), 3)  # an exponent past the cached ones
# a Decimal's mantissa padded with zeros, and rounded up to the next power of ten
@example(Decimal("0.5"), 10)
@example(Decimal("9.99999999995"), 10)
# negative values with three-digit exponents
@example(-2.5e-123, 10)
@example(-9.87654321e234, 10)
@example(Decimal("-2.5E-123"), 10)
@example(Decimal("-9.87654321E+234"), 10)
def test_fast_rendering_equals_the_exact_route(value, digits):
    # Floats and Decimals take the fast path; a Fraction takes the exact
    # Decimal route, which is the reference.
    text = scientific_string(value, digits)
    assert text == scientific_string(Fraction(value), digits)
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 3, ROUND_HALF_UP
        assert scientific_string(value, digits) == text
        assert scientific_string(Fraction(value), digits) == text
    # The fast path reads nothing of the ambient context; the exact route
    # rounds in a copy of it, whose traps would fire.
    with _hostile_context():
        assert scientific_string(value, digits) == text


@pytest.mark.parametrize("value, text", [
    (Decimal("1E-1000040"), "0.1000000000e-1000039"),
    (Decimal("-1E+1000040"), "-0.1000000000e1000041"),
    (Decimal("0.5"), "0.5000000000e0"),
    (Decimal("9.99999999995"), "0.1000000000e2"),
    (-2.5e-123, "-0.2500000000e-122"),
    (Decimal("-9.87654321E+234"), "-0.9876543210e235"),
])
def test_rendering_at_ten_digits(value, text):
    assert scientific_string(value, 10) == text
    assert _scientific_reference(value, 10) == text
    with _hostile_context():
        assert scientific_string(value, 10) == text


def test_decimal_exponents_leave_the_exponent_cache_within_the_float_range():
    for exponent in range(-5000, 5000):
        assert scientific_string(Decimal(f"-1.5E{exponent}"), 3) == f"-0.150e{exponent + 1}"
    # The exponent texts of a float (``e+05``) and of a Decimal (``e+5``) over
    # the exponents a float can have.
    float_range = ({f"e{exponent:+03d}" for exponent in range(-324, 309)}
                   | {f"e{exponent:+d}" for exponent in range(-324, 309)})
    assert len(float_range) == 633 + 19
    assert set(_EXPONENTS) <= float_range


def test_rendering_at_one_digit_count_does_not_leak_into_another():
    # The last two lie outside the default context's exponent range.
    values = [0.125, -1.5e300, 5e-324, 9.5, Decimal("-24.67105263157"), Decimal("9.99999E+399"),
              Decimal("1.234565"), BF.from_fraction(Fraction(-2, 3)), Decimal("1E-1000040"),
              Decimal("1E+1000040")]
    for digits in (6, 10, 6):
        assert [scientific_string(v, digits) for v in values] == [
            _scientific_reference(v, digits) for v in values]


@pytest.mark.parametrize("value, text", [
    (float("inf"), "Infinity"), (float("-inf"), "-Infinity"), (float("nan"), "NaN"),
    (Decimal("Infinity"), "Infinity"), (Decimal("NaN"), "NaN"),
])
def test_values_that_are_not_finite_render_by_name(value, text):
    assert scientific_string(value, 6) == text
    assert decimal_string(value, 6) == text


def test_rendering_rounds_half_to_even():
    assert decimal_string(Fraction(25, 1000), 1) == "0.02"
    assert decimal_string(Fraction(35, 1000), 1) == "0.04"


@given(rationals)
def test_fraction_string_round_trip(a):
    assert RAT.parse(to_fraction_string(a)) == a


@given(rationals, rationals, rationals)
def test_field_axioms_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if b != 0:
        assert (a / b) * b == a


def test_checked_division_rational():
    with pytest.raises(BreakdownError):
        RAT.div(Fraction(1), Fraction(0))
    assert RAT.div(Fraction(1), Fraction(3)) == Fraction(1, 3)


def test_every_mode_divides_through_the_one_checked_division():
    # The benchmark's tracer counts divisions by wrapping Field.div.
    for fld in (RAT, BF, F64):
        assert [cls for cls in type(fld).__mro__ if "div" in vars(cls)] == [Field]


def test_near_zero_threshold_is_relative_f64():
    with pytest.raises(BreakdownError):
        F64.div(1.0, 1e-300)
    # scaled by the numerator: a large numerator widens the zero band
    with pytest.raises(BreakdownError):
        F64.div(1e20, 1e4)
    assert F64.div(1.0, 1e-3) == 1000.0


def test_near_zero_threshold_scales_with_bigfloat_precision():
    assert BF.is_zero(Decimal("1e-45"))
    assert not BF.is_zero(Decimal("1e-30"))
    wide = BigFloatField(80)
    assert not wide.is_zero(Decimal("1e-45"))


# Long mantissas over a wide exponent range, so results must round at 50/64 digits.
# Built from text, which is exact: ``scaleb`` would round to 28 digits.
long_decimals = st.builds(
    lambda mantissa, exponent: Decimal(f"{mantissa}E{exponent}"),
    st.integers(-(10**90), 10**90),
    st.integers(-120, 120),
)


@contextmanager
def _per_call_context(digits):
    """The bigfloat context as the field used to build it on every call."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        yield ctx


def _reference_is_zero(digits, value, scale):
    bound = Decimal(1).scaleb(10 - digits)
    mag = abs(scale)
    if mag > 1:
        with _per_call_context(digits):
            bound = bound * mag
    return abs(value) <= bound


@pytest.mark.parametrize("digits", [50, 64])
@given(a=long_decimals, b=long_decimals)
def test_bigfloat_cached_context_changes_no_digit(digits, a, b):
    fld = BigFloatField(digits)
    with _per_call_context(digits):
        plus = +a
        quotient = None if _reference_is_zero(digits, b, a) else a / b
    with fld.arithmetic():
        assert str(+a) == str(plus)
    if quotient is None:
        with pytest.raises(BreakdownError):
            fld.div(a, b)
    else:
        assert str(fld.div(a, b)) == str(quotient)


def _reference_division(digits, a, b):
    """``str`` of the quotient ``a / b``, or ``None`` where the guard breaks
    down, by the reference steps in a copy of the field's context."""
    with localcontext(Context(prec=digits, rounding=ROUND_HALF_EVEN, traps=[DivisionByZero])):
        return None if _reference_is_zero(digits, b, a) else str(a / b)


def _divisions_three_ways(fld, a, b):
    """``fld.div(a, b)`` as :func:`_reference_division` gives it, under the
    field's own context (the ``/`` path), under an equal field's context, a
    distinct object (the context's ``divide``), and under the hostile ambient
    context."""
    outcomes = []
    for entered in (fld.arithmetic, BigFloatField(fld.digits).arithmetic, _hostile_context):
        with entered():
            try:
                outcomes.append(str(fld.div(a, b)))
            except BreakdownError:
                outcomes.append(None)
    return outcomes


def _bound_pairs(digits):
    """Numerators below, at and above 1 (one of them longer than ``digits``),
    each with denominators at the bound ``eps * max(1, |n|)`` as the field
    rounds it and one unit in the last place either side, of either sign."""
    ctx = Context(prec=digits)
    eps = Decimal(1).scaleb(10 - digits)
    for n in (Decimal("0.3"), Decimal(1), Decimal("-123.456"), Decimal("9" * 70)):
        bound = ctx.multiply(eps, abs(n)) if abs(n) > 1 else eps
        for d in (ctx.next_minus(bound), bound, ctx.next_plus(bound)):
            yield digits, n, d
            yield digits, n, -d


_NINES = "9." + "9" * 60
_SPECIAL_PAIRS = [
    (Decimal(1), Decimal("0E-100")),
    (Decimal("-2.5"), Decimal("-0E+7")),
    (Decimal("0E-100"), Decimal("-0E+7")),
    (Decimal(0), Decimal("3.7")),
    (Decimal("Infinity"), Decimal(3)),
    (Decimal("-Infinity"), Decimal("1E-30")),
    (Decimal("Infinity"), Decimal("-Infinity")),
    (Decimal(3), Decimal("Infinity")),
    (Decimal("-2.5E+30"), Decimal("-Infinity")),
    (Decimal("1E+60"), Decimal("Infinity")),
    (Decimal("NaN"), Decimal(3)),
    (Decimal("-NaN"), Decimal("1E-45")),
    (Decimal(3), Decimal("NaN")),
    (Decimal("1E+60"), Decimal("NaN")),
    (Decimal("Infinity"), Decimal("NaN")),
    # quotients past the context's exponent range
    (Decimal("1E+999990"), Decimal("1E-20")),
    (Decimal("5E-20"), Decimal("1E+999990")),
    # operands at the edge of the exponent range, where |n|, |d| or the
    # bound overflows as the field rounds it
    (Decimal("5E+1000007"), Decimal(_NINES + "E+999999")),
    (Decimal(_NINES + "E+999999"), Decimal("2E+999990")),
    (Decimal("3E+999900"), Decimal(_NINES + "E+999999")),
    (Decimal("1.5"), Decimal("1E+999960")),
    (Decimal("-1.5"), Decimal("1E-999999")),
]


def _division_examples(test):
    """``test`` with an ``@example`` at 50 and at 64 digits for each pair of
    :func:`_bound_pairs` and ``_SPECIAL_PAIRS``."""
    for digits in (50, 64):
        cases = [*_bound_pairs(digits), *((digits, a, b) for a, b in _SPECIAL_PAIRS)]
        for digits, a, b in cases:
            test = example(digits=digits, a=a, b=b)(test)
    return test


division_operands = st.one_of(
    long_decimals, finite_decimals,
    st.sampled_from([Decimal(text) for text in ("Infinity", "-Infinity", "NaN", "0E-100", "-0E+7")]))


@given(digits=st.sampled_from([50, 64]), a=division_operands, b=division_operands)
@_division_examples
def test_bigfloat_division_decides_and_rounds_as_the_reference(digits, a, b):
    fld = BigFloatField(digits)
    assert _divisions_three_ways(fld, a, b) == [_reference_division(digits, a, b)] * 3


@given(digits=st.sampled_from([50, 64]), a=long_decimals, shift=st.integers(-1, 3),
       ulps=st.integers(-2, 2), negate=st.booleans())
def test_bigfloat_division_near_the_bound(digits, a, shift, ulps, negate):
    # Denominators from below the bound to past the first exponent that the
    # exponent decision lets through, a few units in the last place apart.
    ctx = Context(prec=digits)
    bound = Decimal(1).scaleb(10 - digits + shift)
    if abs(a) > 1:
        bound = ctx.multiply(bound, abs(a))
    b = bound
    for _ in range(abs(ulps)):
        b = ctx.next_plus(b) if ulps > 0 else ctx.next_minus(b)
    b = -b if negate else b
    fld = BigFloatField(digits)
    assert _divisions_three_ways(fld, a, b) == [_reference_division(digits, a, b)] * 3


def test_bigfloat_arithmetic_enters_the_fields_own_context_and_restores_the_last():
    fld, other = BigFloatField(50), BigFloatField(64)
    outer = getcontext()
    with fld.arithmetic() as ctx:
        assert getcontext() is ctx
        with other.arithmetic() as inner:
            assert getcontext() is inner and inner is not ctx
            with fld.arithmetic() as again:
                assert again is ctx and getcontext() is ctx
            assert getcontext() is inner
        assert getcontext() is ctx
    assert getcontext() is outer
    # An exception, the field's own trap among them, leaves by the same way.
    with pytest.raises(KeyError):
        with fld.arithmetic():
            with other.arithmetic():
                raise KeyError("x")
    assert getcontext() is outer
    with pytest.raises(DivisionByZero):
        with fld.arithmetic():
            Decimal(1) / Decimal(0)
    assert getcontext() is outer
    # So do the guard's own entries, from any ambient context.
    with _hostile_context() as hostile:
        with pytest.raises(BreakdownError):
            fld.div(Decimal(1), Decimal(0))
        assert getcontext() is hostile
    # A local context opened inside is a copy: the field's stays as it was.
    with fld.arithmetic() as ctx:
        traps = dict(ctx.traps)
        with localcontext() as local:
            local.prec, local.rounding = 3, ROUND_CEILING
            local.traps[Inexact] = True
            assert local is not ctx and Decimal(1) / Decimal(4) == Decimal("0.25")
        assert getcontext() is ctx
        assert (ctx.prec, ctx.rounding, dict(ctx.traps)) == (50, ROUND_HALF_EVEN, traps)
        assert traps[DivisionByZero] and not any(
            on for signal, on in traps.items() if signal is not DivisionByZero)
    assert str(fld.div(Decimal(1), Decimal(3))) == "0." + "3" * 50


@pytest.mark.parametrize("digits", [50, 64])
def test_bigfloat_context_identity_and_value_semantics(digits):
    fld = BigFloatField(digits)
    with fld.arithmetic() as ctx:
        assert ctx.prec == digits
        assert ctx.rounding == ROUND_HALF_EVEN
    assert fld == BigFloatField(digits)
    assert hash(fld) == hash(BigFloatField(digits))
    assert fld != BigFloatField(digits + 1)
    assert len({fld, BigFloatField(digits)}) == 1
    assert fld.near_zero == Decimal(1).scaleb(10 - digits)


def test_bigfloat_requires_at_least_50_digits():
    with pytest.raises(ValueError):
        BigFloatField(30)


def test_bigfloat_precision_honored():
    a = BF.parse("2")
    with BF.arithmetic():
        root = a.sqrt()
    assert len(str(root).replace(".", "").lstrip("0")) >= 50


def test_mode_mixing_is_an_error():
    with pytest.raises(ModeMismatchError):
        RAT.ensure(0.5)
    with pytest.raises(ModeMismatchError):
        BF.ensure(Fraction(1, 2))
    with pytest.raises(ModeMismatchError):
        F64.ensure(Decimal("1"))
    with pytest.raises(ModeMismatchError):
        to_fraction_string(0.5)
    with pytest.raises(ModeMismatchError):
        decimal_string("x", 5)


def test_field_for_mode():
    assert field_for_mode("rational").mode == "rational"
    assert field_for_mode("bigfloat", 60).digits == 60
    assert field_for_mode("f64").mode == "f64"
    with pytest.raises(ValueError):
        field_for_mode("quad")


NOUNS = {"rational": "a rational scalar", "bigfloat": "a bigfloat scalar", "f64": "an f64 scalar"}
# Per mode: literals that are not finite numbers there.  The rational ones past
# the 4,300-digit exponent limit would otherwise build a billion-digit integer.
NOT_FINITE = {
    "rational": ("1e999999999", "-1e-999999999", "1e4301"),
    "bigfloat": ("1e999999999", "-1e999999999"),
    "f64": ("1e500", "-1e500", "1" + "0" * 400 + "/3"),
}


@pytest.mark.parametrize("fld", [RAT, BF, F64], ids=lambda f: f.mode)
def test_parse_rejects_literals_that_are_not_finite_numbers(fld):
    for text in ("inf", "-inf", "Infinity", "nan", "NaN", "sNaN") + NOT_FINITE[fld.mode]:
        with pytest.raises(ParseError) as info:
            fld.parse(text)
        assert str(info.value) == f"not {NOUNS[fld.mode]}: {text!r}"


def test_parse_keeps_finite_values_at_the_edges_of_each_mode():
    assert RAT.parse("1e4300") == 10 ** 4300
    assert RAT.parse("-1e-4300") == Fraction(-1, 10 ** 4300)
    assert BF.parse("1e500") == Decimal("1e500")
    assert F64.parse("1.7976931348623157e308") == 1.7976931348623157e308
    assert F64.parse("1e-400") == 0.0


def _direct_parse(fld, text):
    """Each mode's own conversion of a finite literal, written out per mode."""
    if "/" in text:
        num, den = (int(part) for part in text.split("/"))
        if fld.mode == "rational":
            return Fraction(num, den)
        if fld.mode == "bigfloat":
            with fld.arithmetic():
                return Decimal(num) / Decimal(den)
        return num / den
    if fld.mode == "rational":
        return Fraction(Decimal(text))
    if fld.mode == "bigfloat":
        with fld.arithmetic():
            return +Decimal(text)
    return float(text)


finite_literals = st.one_of(
    st.builds(lambda m, e: f"{m}e{e}", st.integers(-(10 ** 80), 10 ** 80), st.integers(-330, 330)),
    st.builds(lambda m, d: f"{m}.{d}", st.integers(-(10 ** 30), 10 ** 30), st.integers(0, 10 ** 40)),
    # a nonzero numerator: "0/-q" is a signed zero in the float modes only when
    # divided directly, while the exact fraction 0/-q has no sign
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-(10 ** 60), 10 ** 60).filter(bool),
              st.integers(-(10 ** 60), 10 ** 60).filter(bool)),
)


@pytest.mark.parametrize("fld", [RAT, BF, F64], ids=lambda f: f.mode)
@given(text=finite_literals)
def test_parse_matches_each_modes_direct_conversion(fld, text):
    expected = _direct_parse(fld, text)
    assume(fld.is_finite(expected))
    assert repr(fld.parse(text)) == repr(expected)
