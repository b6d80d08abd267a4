import math
from decimal import Context, Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from _reference import partial_sum_jet
from seriaccel import cli
from seriaccel._recursions import JetOps
from seriaccel.field import BigFloatField, Float64Field, ModeMismatchError, RationalField
from seriaccel.jets import Jet, JetBreakdownError, PowerSeries
from seriaccel.series_library import ResolvedInput, builtin_series

RAT = RationalField()


def jet(*coeffs, order=None):
    return Jet.from_coeffs(RAT, [F(c) for c in coeffs], order=order)


small_fracs = st.fractions(min_value=F(-50), max_value=F(50), max_denominator=20)
jet_coeffs = st.lists(small_fracs, min_size=1, max_size=8)


def test_add_and_sub():
    assert (jet(1, 1) + jet(1, -1)).coeffs == (F(2), F(0))
    assert (jet(1, 1) - jet(1, -1)).coeffs == (F(0), F(2))


def test_scale():
    assert jet(1, 1, 1).scale(F(-1)).coeffs == (F(-1), F(-1), F(-1))


def test_mixed_order_truncates_to_minimum():
    assert (jet(1, 2) + jet(1, 1, 1)).coeffs == (F(2), F(3))


def test_mul_simple():
    assert (jet(1, 1, 0) * jet(1, -1, 0)).coeffs == (F(1), F(0), F(-1))


def _convolve(a, b):
    n = min(len(a), len(b))
    return [sum(a[i] * b[j - i] for i in range(j + 1) if j - i < n and i < n) for j in range(n)]


def test_mul_squares_against_convolution_oracle():
    a = jet(1, 1, 1)
    assert (a * a).coeffs == tuple(_convolve([F(1)] * 3, [F(1)] * 3))
    assert (a * a).coeffs == (F(1), F(2), F(3))


@given(jet_coeffs, jet_coeffs)
def test_mul_matches_convolution_oracle(a, b):
    got = (Jet.from_coeffs(RAT, a) * Jet.from_coeffs(RAT, b)).coeffs
    assert list(got) == _convolve(a, b)


def test_mul_by_zero():
    a = jet(3, -2, 5)
    assert (a * jet(0, 0, 0)).coeffs == (F(0), F(0), F(0))


def test_reciprocal_geometric():
    assert jet(1, -1, order=3).reciprocal().coeffs == (F(1), F(1), F(1), F(1))


def test_reciprocal_linear_denominator():
    # 1 / (-1/2 - z/3); the product must come back to 1 through the order
    den = jet(F(-1, 2), F(-1, 3))
    rec = den.reciprocal()
    assert rec.coeffs == (F(-2), F(4, 3))
    assert (den * rec).coeffs == (F(1), F(0))


def test_reciprocal_zero_constant_term_breaks_down():
    with pytest.raises(JetBreakdownError):
        jet(0, 1, 1).reciprocal()
    ops = JetOps(RAT, 2)
    with pytest.raises(JetBreakdownError):
        ops.div(ops.one, jet(0, 1, 1))


@pytest.mark.parametrize("fld", [RAT, BigFloatField(50), Float64Field()], ids=lambda f: f.mode)
@pytest.mark.parametrize("coeffs", [(1, 0, 2, 0, 0), (-2, 0, 0, 1, 0), (F(1, 10**5), 0, 1, 0, 0)],
                         ids=["unit", "negative", "small"])
def test_jet_carrier_divides_one_by_the_bare_reciprocal(fld, coeffs):
    # The reciprocal loop of the float modes gives -0 where the product with
    # the jet 1 gave +0 (case "unit"), and a Decimal 1E+5 where the product
    # gave 100000 (case "small"): ``1 / d`` must keep the product's reprs.
    ops = JetOps(fld, 4)
    values = [fld.from_fraction(F(c)) for c in coeffs]
    d = Jet.from_coeffs(fld, values)
    with fld.arithmetic():
        through_one = ops.one * Jet(fld, _generic_reciprocal(values, fld.zero, fld.one))
    assert repr(ops.div(ops.one, d)) == repr(through_one) == repr(d.reciprocal())


@given(st.lists(small_fracs, min_size=1, max_size=7))
@settings(max_examples=200)
def test_reciprocal_identity(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = F(1, 3)
    a = Jet.from_coeffs(RAT, coeffs)
    product = a * a.reciprocal()
    assert product.coeffs[0] == 1
    assert all(c == 0 for c in product.coeffs[1:])


# -- the rational series kernels against today's generic loops over Fractions.
# Rationals are canonical, so exact equality of the coefficient tuples is
# byte identity of every printed value.


def _generic_product(a, b, zero=F(0)):
    n = min(len(a), len(b)) - 1
    out = [zero] * (n + 1)
    for i in range(n + 1):
        if a[i] == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def _generic_reciprocal(a, zero=F(0), one=F(1)):
    out = [zero] * len(a)
    out[0] = one / a[0]
    for k in range(1, len(a)):
        acc = zero
        for j in range(1, k + 1):
            acc += a[j] * out[k - j]
        out[k] = -acc / a[0]
    return tuple(out)


# Heights up to about 10**30 in numerator and denominator, negative values and
# plenty of exact zeros.
tall_fracs = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
    small_fracs,
)
tall_coeffs = st.lists(tall_fracs, min_size=1, max_size=9)


@given(tall_coeffs, tall_coeffs)
@settings(max_examples=200)
def test_rational_product_matches_the_generic_loop(a, b):
    got = (Jet.from_coeffs(RAT, a) * Jet.from_coeffs(RAT, b)).coeffs
    assert got == _generic_product(a, b)
    assert all(type(c) is F for c in got)


@pytest.mark.parametrize("a, b", [
    ([0], [F(-3, 7)]),                                    # order 0, zero on the left
    ([F(5, 2)], [0, 1]),                                  # order 0 against order 1
    ([0, F(1, 3), 0, F(-2, 9)], [F(7, 4), 0, F(-1, 6)]),  # zero constant term, mixed orders
    ([F(-1, 10**30), 10**30], [0, 0, F(10**29, 3)]),      # zero constant term on the right
    ([0, 0], [0, 0, 0]),                                  # all zero
])
def test_rational_product_edge_cases(a, b):
    a, b = [F(c) for c in a], [F(c) for c in b]
    assert (Jet.from_coeffs(RAT, a) * Jet.from_coeffs(RAT, b)).coeffs == _generic_product(a, b)


@given(tall_coeffs, tall_fracs.filter(lambda c: c != 0))
@settings(max_examples=200)
def test_rational_reciprocal_matches_the_generic_recurrence(coeffs, a0):
    coeffs[0] = a0
    got = Jet.from_coeffs(RAT, coeffs).reciprocal().coeffs
    assert got == _generic_reciprocal(coeffs)
    assert all(type(c) is F for c in got)


@pytest.mark.parametrize("coeffs", [[F(-7, 3)], [F(1, 10**30), 0, 0, F(-1, 3)], [-1, 1, -1]])
def test_rational_reciprocal_edge_cases(coeffs):
    coeffs = [F(c) for c in coeffs]
    assert Jet.from_coeffs(RAT, coeffs).reciprocal().coeffs == _generic_reciprocal(coeffs)


# -- the packed rational kernels against per-coefficient Fractions.  A
# rational jet is one positive common denominator over integer numerators,
# reduced: the form is unique, so a jet built by arithmetic must equal, and
# hash like, the jet built from its coefficients.


@st.composite
def packed_coeffs(draw, max_size=8):
    """Zero, small, pairwise-different-denominator or tall (>= 10**4-bit
    numerator) coefficients."""
    size = draw(st.integers(1, max_size))
    style = draw(st.sampled_from(("zero", "small", "distinct", "tall")))
    if style == "zero":
        return [F(0)] * size
    if style == "small":
        return draw(st.lists(small_fracs, min_size=size, max_size=size))
    dens = draw(st.lists(st.integers(1, 10**40), min_size=size, max_size=size, unique=True))
    if style == "distinct":
        nums = st.integers(-10**20, 10**20)
    else:
        nums = st.builds(lambda sign, low: sign * (2**10_000 + low),
                         st.sampled_from((-1, 1)), st.integers(0, 2**64))
    return [F(draw(nums), d) for d in dens]


def _assert_packed(result, expected):
    """``result`` holds exactly ``expected``, in the reduced packed form."""
    assert result.coeffs == tuple(expected)
    den, nums = result.packed
    assert den > 0 and math.gcd(den, *nums) == 1
    rebuilt = Jet.from_coeffs(RAT, expected)
    assert result == rebuilt and hash(result) == hash(rebuilt)


@given(packed_coeffs(), packed_coeffs())
@settings(max_examples=150, deadline=None)
def test_packed_sum_and_difference_match_per_coefficient(a, b):
    n = min(len(a), len(b))
    ja, jb = Jet.from_coeffs(RAT, a), Jet.from_coeffs(RAT, b)
    _assert_packed(ja + jb, [x + y for x, y in zip(a[:n], b[:n])])
    _assert_packed(ja - jb, [x - y for x, y in zip(a[:n], b[:n])])
    _assert_packed(ja - ja, [F(0)] * len(a))


@given(packed_coeffs(), st.one_of(st.just(F(0)), small_fracs, packed_coeffs(1).map(lambda c: c[0])),
       st.integers(0, 9))
@settings(max_examples=150, deadline=None)
def test_packed_scale_and_shift_match_per_coefficient(a, factor, places):
    ja = Jet.from_coeffs(RAT, a)
    _assert_packed(ja.scale(factor), [factor * c for c in a])
    _assert_packed(ja.shift(places), ([F(0)] * places + a)[: len(a)])


@given(packed_coeffs(), packed_coeffs())
@settings(max_examples=150, deadline=None)
def test_packed_product_matches_per_coefficient(a, b):
    got = Jet.from_coeffs(RAT, a) * Jet.from_coeffs(RAT, b)
    _assert_packed(got, _convolve(a, b))
    assert got.coeffs == _generic_product(a, b)


@given(packed_coeffs(max_size=6), st.one_of(small_fracs, packed_coeffs(1).map(lambda c: c[0])))
@settings(max_examples=150, deadline=None)
def test_packed_reciprocal_matches_per_coefficient(a, a0):
    a[0] = a0 or F(1, 3)
    _assert_packed(Jet.from_coeffs(RAT, a).reciprocal(), _generic_reciprocal(a))


def test_packed_results_built_by_arithmetic_equal_their_coefficient_jets():
    # The shift drops the only coefficient with denominator 4, the difference
    # cancels the top one, and the product leaves a common factor: each must
    # come back reduced to the jet of its coefficients.
    a, b = jet(F(1, 2), F(1, 3), F(3, 4)), jet(F(1, 2), F(1, 6), F(3, 4))
    for got, coeffs in [(a.shift(), (0, F(1, 2), F(1, 3))), (a - b, (0, F(1, 6), 0)),
                        (jet(F(1, 2), 1) * jet(2, 4), (1, 4)), (jet(2, 0).reciprocal(), (F(1, 2), 0)),
                        (jet(0, 0, 1) - jet(0, 0, 1), (0, 0, 0))]:
        _assert_packed(got, [F(c) for c in coeffs])
    assert (a - b).packed == (6, (0, 1, 0)) and jet(0, 0).packed == (1, (0, 0))


@pytest.mark.parametrize("fld", [BigFloatField(50), Float64Field()], ids=lambda f: f.mode)
@given(a=jet_coeffs, b=jet_coeffs)
@settings(max_examples=50)
def test_float_jets_keep_the_generic_loops(fld, a, b):
    # Rounded arithmetic depends on the order of the operations: the float
    # modes must run exactly the generic loops.
    a, b = [fld.from_fraction(c) for c in a], [fld.from_fraction(c) for c in b]
    with fld.arithmetic():
        expected = _generic_product(a, b, fld.zero)
    assert (Jet.from_coeffs(fld, a) * Jet.from_coeffs(fld, b)).coeffs == expected
    if not fld.is_zero(a[0]):
        with fld.arithmetic():
            expected = _generic_reciprocal(a, fld.zero, fld.one)
        assert Jet.from_coeffs(fld, a).reciprocal().coeffs == expected


def test_shift_drops_top_coefficient():
    assert jet(1, 2, 3).shift().coeffs == (F(0), F(1), F(2))
    assert jet(1, 2, 3).shift(2).coeffs == (F(0), F(0), F(1))


def test_shift_keeps_the_order_past_it():
    for order in range(4):
        a = jet(*range(1, order + 2))
        for places in range(order + 4):
            shifted = a.shift(places)
            assert shifted.order == order
            assert shifted.coeffs[places:] == a.coeffs[: max(0, order + 1 - places)]
            assert all(c == 0 for c in shifted.coeffs[:places])


def test_from_coeffs_checks_what_enters():
    with pytest.raises(ModeMismatchError):
        Jet.from_coeffs(RAT, [F(1), 0.5])
    ints = Jet.from_coeffs(RAT, [1, -2], order=3)
    assert ints.coeffs == (F(1), F(-2), F(0), F(0))
    assert all(type(c) is F for c in ints.coeffs)
    assert all(type(c) is F for c in Jet.from_coeffs(RAT, [5], 2).coeffs)


def test_mixing_bigfloat_precisions_names_both_in_the_error():
    a = Jet.from_coeffs(BigFloatField(50), [1, 2])
    b = Jet.from_coeffs(BigFloatField(digits=60), [1, 2])
    for combine in (lambda: a * b, lambda: a + b, lambda: b - a):
        with pytest.raises(ModeMismatchError) as err:
            combine()
        assert "BigFloatField(digits=50)" in str(err.value)
        assert "BigFloatField(digits=60)" in str(err.value)


def test_a_negative_order_is_rejected():
    for build in (lambda: Jet.from_coeffs(RAT, [1, 2, 3, 4], order=-2),
                  lambda: Jet.from_coeffs(RAT, [5], -1)):
        with pytest.raises(ValueError, match="jet order must be >= 0"):
            build()


@pytest.mark.parametrize("call, error, message", [
    (lambda: Jet(RAT, ()), ValueError, "a jet needs at least its constant term"),
    (lambda: jet(1, 2).shift(-1), ValueError, "shift must be by a nonnegative power"),
    (lambda: PowerSeries(RAT, (F(1),)).coefficient(-1), IndexError,
     "coefficient index must be >= 0"),
], ids=["empty-jet", "negative-shift", "negative-index"])
def test_jet_and_series_guards_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("fld", [RAT, BigFloatField(50), Float64Field()], ids=lambda f: f.mode)
@given(a=jet_coeffs, b=jet_coeffs, factor=small_fracs, places=st.integers(0, 9))
@settings(max_examples=50)
def test_jet_operations_stay_in_the_field(fld, a, b, factor, places):
    ja = Jet.from_coeffs(fld, [fld.from_fraction(c) for c in a])
    jb = Jet.from_coeffs(fld, [fld.from_fraction(c) for c in b])
    results = [ja + jb, ja - jb, ja * jb, ja.scale(fld.from_fraction(factor)), ja.shift(places)]
    if not fld.is_zero(jb.coeffs[0]):
        results.append(ja / jb)
    for result in results:
        assert all(type(c) is fld.kind for c in result.coeffs)


@given(jet_coeffs, jet_coeffs, st.integers(min_value=0, max_value=6))
def test_truncation_consistency(a, b, order):
    ja, jb = Jet.from_coeffs(RAT, a), Jet.from_coeffs(RAT, b)
    full = ja * jb
    order = min(order, full.order)

    def truncate(j):
        return Jet(RAT, j.coeffs[: order + 1])

    assert truncate(full) == truncate(ja) * truncate(jb)
    assert truncate(ja + jb) == truncate(ja) + truncate(jb)


def test_power_series_tail_and_partial_sums():
    series = PowerSeries(RAT, (F(1), F(-1, 2)), tail=lambda i: F((-1) ** i, i + 1))
    assert series.coefficient(1) == F(-1, 2)
    assert series.coefficient(4) == F(1, 5)
    assert partial_sum_jet(series, 1, 3).coeffs == (F(1), F(-1, 2), F(0), F(0))
    assert series.partial_sum(2, F(1, 2)) == F(1) - F(1, 4) + F(1, 12)


def _horner(series, n, z):
    """The degree-``n`` partial sum at ``z`` by Horner's rule, in the series' field."""
    fld = series.field
    with fld.arithmetic():
        acc = fld.zero
        for i in range(n, -1, -1):
            acc = acc * z + series.coefficient(i)
    return acc


@pytest.mark.parametrize("fld", [RAT, BigFloatField(50), Float64Field()], ids=lambda f: f.mode)
def test_partial_sums_past_the_stored_order_read_the_tail_rule(fld):
    rule = lambda i: fld.from_fraction(F((-1) ** i, i + 1))
    series = PowerSeries(fld, tuple(rule(i) for i in range(3)), tail=rule)
    z = fld.from_fraction(F(-9, 10))
    horner = _horner(series, 6, z)
    assert series.partial_sum(6, z) == horner
    if fld is RAT:
        assert horner == sum(F((-1) ** i, i + 1) * z ** i for i in range(7))
    sums = series.partial_sums(z, 9)
    assert tuple(series.partial_sum(n, z) for n in range(9)) == sums
    assert all(type(s) is fld.kind for s in sums)
    assert series.partial_sum(-1, z) == fld.zero and series.partial_sums(z, 0) == ()


rational_values = st.one_of(st.integers(-50, 50).map(F), small_fracs)


@given(coeffs=st.lists(rational_values, min_size=1, max_size=10), z=rational_values,
       extra=st.integers(0, 4))
@settings(max_examples=100)
def test_rational_partial_sums_are_the_horner_sums(coeffs, z, extra):
    series = PowerSeries(RAT, tuple(coeffs), tail=lambda i: F(i % 3 - 1, i))
    count = len(coeffs) + extra
    assert series.partial_sums(z, count) == tuple(_horner(series, n, z) for n in range(count))


@pytest.mark.parametrize("name, params", [("log1p-over-z", ()), ("zeta", (2,))],
                         ids=["log1p-over-z", "zeta(2)"])
@pytest.mark.parametrize("z", [F(1, 2), F(-9, 10), F(3, 2)], ids=str)
def test_bigfloat_partial_sums_are_correctly_rounded(name, params, z):
    # Within half a unit in the last place of the exact sum of the same
    # 50-digit coefficients, at every one of 221 entries.
    fld = BigFloatField(50)
    series = builtin_series(name, params, 221, fld).series
    zf = fld.from_fraction(z)
    wide = Context(prec=120)
    exact, power, worst = F(0), F(1), F(0)
    for n, value in enumerate(series.partial_sums(zf, 221)):
        exact += F(series.coefficient(n)) * power
        power *= F(zf)
        magnitude = wide.divide(Decimal(exact.numerator), Decimal(exact.denominator))
        ulp = F(10) ** (magnitude.adjusted() - 49)
        worst = max(worst, abs(F(value) - exact) / ulp)
    assert worst <= F(1, 2)


def test_f64_partial_sums_stay_finite_where_horner_does():
    # z**2 overflows at z = 1e300; a zero coefficient times it would be NaN.
    fld = Float64Field()
    series = PowerSeries(fld, (1.0, 0.0, 0.0, 2.0, 0.0))
    sums = series.partial_sums(1e300, 5)
    assert sums[:3] == (1.0, 1.0, 1.0)
    assert [math.isfinite(s) for s in sums] == [math.isfinite(_horner(series, n, 1e300))
                                                 for n in range(5)]


@pytest.mark.parametrize("fld, coeffs, z, bound", [
    (Float64Field(), (1.0, 1e-300, 1e-300), 1e300, F(1, 10 ** 15)),
    (BigFloatField(50), tuple(map(Decimal, ("1", "1e-400000", "1e-400000", "1e-800000"))),
     Decimal("1e400000"), F(1, 10 ** 45)),
], ids=["f64", "bigfloat"])
def test_partial_sums_keep_a_tiny_coefficient_finite_past_an_overflowed_power(fld, coeffs, z,
                                                                              bound):
    # z**2 (f64) and z**3 (bigfloat) overflow, while each term c_n * z**n
    # and Horner's sums stay finite.
    series = PowerSeries(fld, coeffs)
    sums = series.partial_sums(z, len(coeffs))
    for n, value in enumerate(sums):
        horner = _horner(series, n, z)
        assert fld.is_finite(value) and fld.is_finite(horner), (n, value, horner)
        assert abs(F(value) - F(horner)) <= bound * abs(F(horner)), (n, value, horner)


def test_f64_partial_sums_keep_a_huge_coefficient_past_an_underflowed_power():
    # z**2 underflows to 0 at z = 1e-300, while the term 1e300 * z**2 and
    # Horner's sum are 1e-300.
    fld = Float64Field()
    series = PowerSeries(fld, (0.0, 0.0, 1e300))
    z = 1e-300
    sums = series.partial_sums(z, 3)
    assert sums[:2] == (0.0, 0.0)
    for value in (sums[2], series.partial_sum(2, z)):
        horner = _horner(series, 2, z)
        assert horner != 0.0
        assert abs(F(value) - F(horner)) <= F(1, 10 ** 15) * abs(F(horner)), (value, horner)


@pytest.mark.parametrize("fld, c, z, bound", [
    (Float64Field(), 1e300, 1e-160, F(1, 10 ** 15)),
    (BigFloatField(50), Decimal("1e999990"),
     Decimal("1.2345678901234567890123456789012345678901234567891e-500025"), F(1, 10 ** 45)),
], ids=["f64", "bigfloat"])
def test_partial_sums_keep_every_digit_past_a_subnormal_power(fld, c, z, bound):
    # z**2 is subnormal: 1e-320 carries 3 digits in f64, and 1.52415788E-1000050
    # 9 digits in the guarded bigfloat context, while the term c * z**2 and
    # Horner's sum are normal numbers.
    series = PowerSeries(fld, (fld.zero, fld.zero, c))
    work = fld.guarded()
    with work.arithmetic():
        power = z * z
    assert power and not work.is_normal(power)
    sums = series.partial_sums(z, 3)
    assert sums[:2] == (fld.zero, fld.zero)
    horner = _horner(series, 2, z)
    assert abs(F(sums[2]) - F(horner)) <= bound * abs(F(horner)), (sums[2], horner)


def test_accelerate_reads_each_coefficient_once_for_its_partial_sums(monkeypatch, capsys):
    # One pass: the 40 partial sums ask the tail rule for coefficients 1..39
    # once each, where a Horner pass per sum asked 780 times.
    fld, asked = Float64Field(), []

    def rule(i):
        asked.append(i)
        return fld.from_fraction(F((-1) ** i, i + 1))

    series = PowerSeries(fld, (fld.one,), tail=rule)
    monkeypatch.setattr(cli, "resolve_series_spec",
                        lambda spec, field, count: ResolvedInput("counted", series=series))
    argv = ["accelerate", "--series", "counted", "--mode", "f64", "--family", "aitken",
            "--z", "1/2", "--terms", "40"]
    assert cli.main(argv) == 0
    assert asked == list(range(1, 40))


def test_an_empty_iterator_is_not_a_power_series():
    for coeffs in ((), iter([]), (c for c in ())):
        with pytest.raises(ValueError, match="a power series needs at least one coefficient"):
            PowerSeries(RAT, coeffs)
    assert PowerSeries(RAT, iter([1, 2])).known_order == 1


def test_power_series_without_tail_stops():
    series = PowerSeries(RAT, (F(1), F(2)))
    with pytest.raises(IndexError):
        series.coefficient(5)
