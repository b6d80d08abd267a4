import re
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from seriaccel import remainders
from seriaccel.cli import main
from seriaccel.field import BigFloatField, Float64Field, RationalField, scientific_string
from seriaccel.jets import PowerSeries
from seriaccel.prediction import leading_predictions, transformation_terms
from seriaccel.remainders import (
    _remainder_bases,
    evaluate_error_terms,
    evaluate_transformation_terms,
    leading_remainders,
    remainder_jets,
    remainder_value,
    series_value,
)
from seriaccel.series_library import builtin_series
from seriaccel.transforms import FAMILIES, SelectionError, select_approximant

RAT = RationalField()
BF = BigFloatField(50)
F64 = Float64Field()


def row(table, m):
    """The value in row ``m`` of a term table."""
    return select_approximant(table, m)[2]


def log_series_rational(count=13):
    tail = lambda i: F((-1) ** i, i + 1)
    return PowerSeries(RAT, tuple(tail(m) for m in range(count)), tail=tail)


def log_series_bigfloat(count=13):
    def tail(i):
        with BF.arithmetic():
            return Decimal((-1) ** i) / (i + 1)

    return PowerSeries(BF, tuple(tail(m) for m in range(count)), tail=tail)


def test_base_remainder_jet_sign_pattern():
    table = remainder_jets(log_series_rational(), "aitken", 0, order=2, n_max=0)
    assert table.entry(0, 0).coeffs == (F(1, 2), F(-1, 3), F(1, 4))


def test_exact_error_expansions_level3_level3_level2():
    series = log_series_rational()
    aitken = remainder_jets(series, "aitken", 3, order=4, n_max=0).entry(3, 0)
    assert aitken.coeffs[:3] == (
        F(421, 16537500),
        F(-796321, 8682187500),
        F(810757427, 4051687500000),
    )
    epsilon = remainder_jets(series, "epsilon", 3, order=4, n_max=0).entry(3, 0)
    assert epsilon.coeffs[:3] == (F(1, 9800), F(-31, 77175), F(113, 120050))
    theta = remainder_jets(series, "theta", 2, order=4, n_max=0).entry(2, 0)
    assert theta.coeffs[:3] == (F(1, 37800), F(-19, 198450), F(1, 4725))


def test_leading_remainder_base_case():
    table = leading_remainders(log_series_rational(), "aitken", 0)
    for n in range(8):
        assert table.entry(0, n) == -F((-1) ** (n + 1), n + 2)


def test_epsilon_leading_remainder_first_step_formula():
    series = log_series_rational()
    table = leading_remainders(series, "epsilon", 1)
    c0 = lambda n: -series.coefficient(n + 1)
    for n in range(6):
        assert table.entry(1, n) == c0(n + 2) - c0(n + 1) ** 2 / c0(n)
    assert table.entry(1, 0) == F(1, 36)


@pytest.mark.parametrize("family,step", [("aitken", 2), ("epsilon", 2), ("theta-iterated", 3)])
def test_connection_identity_leading_parts(family, step):
    series = log_series_rational()
    max_level = (12 - 1) // step  # the z-independent parts need one extra coefficient
    predictions = leading_predictions(series, family, max_level)
    remainders_table = leading_remainders(series, family, max_level)
    checked = 0
    for k, n in sorted(remainders_table.entries):
        index = n + step * k + 1
        if index > 12 or not predictions.is_valid(k, n):
            continue
        assert predictions.entry(k, n) == remainders_table.entry(k, n) + series.coefficient(index)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("family,level", [("aitken", 3), ("epsilon", 3), ("theta-iterated", 2)])
def test_remainder_jet_constant_part_matches_scalar_recursion(family, level):
    series = log_series_rational()
    jets = remainder_jets(series, family, level, order=2, n_max=1)
    scalars = leading_remainders(series, family, level)
    for (k, n), jet in jets.entries.items():
        assert jet.coeffs[0] == scalars.entry(k, n)


def test_zero_leading_part_is_flagged_and_contained():
    # gamma(3) = gamma(2)**2 / gamma(1) makes the level-1 part at n = 0 vanish
    # exactly; the level-2 entry above it must break down, nothing else.
    series = PowerSeries(RAT, (F(1), F(1, 2), F(1, 2), F(1, 2), F(1, 5), F(1, 7), F(1, 11)))
    table = leading_remainders(series, "aitken", 2)
    assert table.is_valid(0, 0) and not RAT.is_zero(table.entry(0, 0))
    assert table.is_valid(1, 0) and RAT.is_zero(table.entry(1, 0))
    assert table.entry(1, 0) == 0
    assert not table.is_valid(2, 0)
    with pytest.raises(SelectionError):
        table.entry(2, 0)
    assert table.is_valid(1, 1)  # the breakdown stays local to that column


def test_remainder_value_matches_reference_inputs():
    series = log_series_bigfloat()
    z = BF.parse("0.95")
    assert scientific_string(remainder_value(series, 0, z), 6) == "0.312654e0"
    assert scientific_string(remainder_value(series, 1, z), 6) == "-0.197206e0"
    assert scientific_string(remainder_value(series, 12, z), 6) == "0.378992e-1"


def test_remainder_value_needs_float_mode_and_small_z():
    with pytest.raises(ValueError):
        remainder_value(log_series_rational(), 0, F(1, 2))
    with pytest.raises(ValueError):
        remainder_value(log_series_bigfloat(), 0, BF.parse("1.05"))
    # constant coefficients: the terms near |z| = 1 shrink too slowly to settle
    ones = PowerSeries(F64, (1.0,), tail=lambda i: 1.0)
    with pytest.raises(ValueError, match="did not settle"):
        remainder_value(ones, 0, 0.999999)


def builtin(name, fld):
    params = (fld.from_int(2),) if name == "zeta" else ()
    return builtin_series(name, params, 1, fld).series


def assert_bases_match_per_n_route(series, z, m_max, rel):
    bases = _remainder_bases(series, z, m_max)
    assert sorted(bases) == list(range(m_max + 1))
    fld = series.field
    with fld.arithmetic():
        for n in range(m_max + 1):
            expected = remainder_value(series, n, z)
            assert abs(bases[n] - expected) <= rel * abs(expected), (n, bases[n], expected)


@pytest.mark.parametrize("fld,rel", [(BF, Decimal("1e-46")), (F64, 1e-13)], ids=["bigfloat", "f64"])
@pytest.mark.parametrize("name", ["log1p-over-z", "zeta"])
@pytest.mark.parametrize("z_text,m_max", [("0.95", 47), ("0.8", 47), ("-0.8", 47), ("0.5", 117), ("-0.5", 117)])
def test_recurrence_bases_match_per_n_tail_sums(fld, rel, name, z_text, m_max):
    assert_bases_match_per_n_route(builtin(name, fld), fld.parse(z_text), m_max, rel)


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(["log1p-over-z", "zeta"]),
    z=st.fractions(min_value=F(-9, 10), max_value=F(9, 10), max_denominator=1000)
    .filter(lambda z: abs(z) < F(9, 10)),
    m_max=st.integers(0, 30),
)
def test_recurrence_bases_match_per_n_tail_sums_anywhere_inside(name, z, m_max):
    assert_bases_match_per_n_route(builtin(name, BF), BF.from_fraction(z), m_max, Decimal("1e-46"))


def test_error_terms_make_one_tail_sum_per_table(monkeypatch):
    calls = []

    def counting(series, n, z):
        calls.append(n)
        return remainder_value(series, n, z)

    monkeypatch.setattr(remainders, "remainder_value", counting)
    evaluate_error_terms(log_series_bigfloat(), BF.parse("0.8"), 40)
    assert calls == [40]


def test_series_value_is_the_logarithm_quotient():
    series = log_series_bigfloat()
    z = BF.parse("0.95")
    with BF.arithmetic():
        expected = (1 + z).ln() / z
    assert abs(series_value(series, z) - expected) < Decimal("1e-45")


@pytest.mark.parametrize("fld, rel", [(BF, Decimal("1e-48")), (F64, 1e-14)],
                         ids=["bigfloat", "f64"])
def test_zero_coefficients_do_not_settle_a_tail_sum(fld, rel):
    # Three zero coefficients in a row once ended the sum: 1 + z**4 + z**8 + ...
    # at z = 1/2 gave 1 instead of 16/15, and its degree-0 remainder 0.  The
    # all-zero tail of 1 + z still settles.
    every_fourth = PowerSeries(fld, (fld.one,), tail=lambda i: fld.one if i % 4 == 0 else fld.zero)
    line = PowerSeries(fld, (fld.one, fld.one), tail=lambda i: fld.zero)
    cases = [(every_fourth, "1/2", F(16, 15), F(-2, 15)),
             (line, "1/2", F(3, 2), F(-1)),
             (line, "-19/20", F(1, 20), F(-1))]
    for series, z_text, value, remainder in cases:
        z = fld.parse(z_text)
        got = [series_value(series, z), remainder_value(series, 0, z)]
        with fld.arithmetic():
            for x, want in zip(got, map(fld.from_fraction, (value, remainder))):
                assert abs(x - want) <= rel * abs(want), (z_text, x, want)


def test_error_term_table_zero_pattern_and_spot_cells():
    series = log_series_bigfloat()
    tables = evaluate_error_terms(series, BF.parse("0.95"), 12)
    for family, zero_rows in (("aitken", 2), ("epsilon", 2), ("theta-iterated", 3)):
        for m in range(zero_rows):
            assert row(tables[family], m) == 0
    render = lambda fam, m: scientific_string(row(tables[fam], m), 6)
    assert render("aitken", 2) == "0.620539e-2"
    assert render("epsilon", 2) == "0.620539e-2"
    assert render("theta-iterated", 3) == "0.113587e-2"
    assert render("aitken", 6) == "0.131240e-5"
    assert render("epsilon", 6) == "0.413753e-5"
    assert render("theta-iterated", 6) == "0.137543e-5"
    assert render("epsilon", 12) == "0.808737e-10"
    assert render("theta-iterated", 12) == "-0.316716e-12"
    # Exact-arithmetic recomputation fixes the last digit of these two cells
    # (the tabulated reference prints ...0 and ...8; see the golden module).
    assert render("aitken", 10) == "0.689221e-10"
    assert render("aitken", 12) == "0.282139e-12"


def test_error_and_transformation_decompositions_are_consistent():
    # function + z**(m+1) * remainder == partial sum + z**(m+1) * term
    series = log_series_bigfloat()
    z = BF.parse("0.95")
    errors = evaluate_error_terms(series, z, 10)
    terms = evaluate_transformation_terms(series, z, 10)
    f = series_value(series, z)
    for family, first_m in (("aitken", 2), ("epsilon", 2), ("theta-iterated", 3)):
        for m in range(first_m, 11):
            with BF.arithmetic():
                left = f + row(errors[family], m)
                right = series.partial_sum(m, z) + row(terms[family], m)
            assert abs(left - right) < Decimal("1e-40"), (family, m)


def test_transformation_term_table_divergent_point():
    series = log_series_bigfloat(11)
    tables = evaluate_transformation_terms(series, BF.parse("5.0"), 10)
    render = lambda fam, m: scientific_string(row(tables[fam], m), 10)
    assert row(tables["aitken"], 0) == 0
    assert render("aitken", 3) == "0.2467105263e2"
    assert render("epsilon", 4) == "-0.1002155172e3"
    assert render("theta-iterated", 3) == "0.2480158730e2"
    assert render("theta-iterated", 10) == "-0.7279202782e6"
    # at a divergent point the terms shadow the negated partial sums
    partial = series.partial_sum(10, BF.parse("5.0"))
    with BF.arithmetic():
        ratio = abs(row(tables["aitken"], 10) + partial) / abs(partial)
    assert ratio < Decimal("1e-5")


INHERITED = {(3, 0): "depends on invalid entry (2, 0)", (3, 1): "depends on invalid entry (2, 1)",
             (4, 0): "depends on invalid entry (3, 0)"}


@pytest.mark.parametrize("fld, name, z, overflow", [
    (BF, "geometric", "1e400000", [(1, 0), (1, 1)]),
    (F64, "log1p-over-z", "1e100", [(1, 1)]),
], ids=["bigfloat", "f64"])
def test_transformation_terms_past_the_float_range_are_marked_overflow(fld, name, z, overflow,
                                                                       capsys):
    # z**(m + 1) leaves the field's range: a bigfloat power and an f64 power
    # both end in an ``overflow`` cell instead of an exception.  The next
    # level divides by a zero denominator and the levels above inherit that
    # failure; each failed row keeps its own reason in the table's notes.
    tables = evaluate_transformation_terms(builtin(name, fld), fld.parse(z), 8)
    breakdown = f"{fld.mode}: division by (near-)zero denominator"
    assert tables["aitken"].notes == tables["epsilon"].notes == {
        **dict.fromkeys(overflow, "overflow"), (2, 0): breakdown, (2, 1): breakdown, **INHERITED}
    assert tables["theta-iterated"].notes == {
        **{(1, n): "overflow" for n in range(3)}, **{(2, n): breakdown for n in range(3)}}
    for table in tables.values():  # one cell per row, valid or failed
        rows = [divmod(m, table.step) for m in range(table.size)]
        assert sorted([*table.entries, *table.notes]) == rows
    # The CLI prints exactly these rows with an empty value, as before.
    assert main(["transform-terms", "--series", f"builtin:{name}", "--mode", fld.mode,
                 "--z", z, "--max-m", "8"]) == 0
    printed = capsys.readouterr().out.splitlines()[1:]
    failed = [(family, int(m)) for m, family, *_ in (line.split(",") for line in printed
                                                      if line.endswith(",,false"))]
    assert sorted(failed) == sorted(
        (family, table.step * k + n) for family, table in tables.items() for k, n in table.notes)


@pytest.mark.parametrize("mode", [RAT, BF, F64], ids=["rational", "bigfloat", "f64"])
@pytest.mark.parametrize("z", [F(1, 2), F(5)], ids=["z=1/2", "z=5"])
@pytest.mark.parametrize("name", ["log1p-over-z", "zeta", "geometric"])
def test_row_m_of_a_term_table_is_its_selected_approximant(name, z, mode):
    series, point = builtin(name, mode), mode.from_fraction(z)
    tables = [*evaluate_transformation_terms(series, point, 10).values()]
    if mode is not RAT and z < 1:  # error terms need a float mode and |z| < 1
        tables += evaluate_error_terms(series, point, 10).values()
    for table in tables:
        for m in range(table.size):
            key = divmod(m, table.step)
            if key in table.entries:
                assert select_approximant(table, m) == (*key, table.entries[key])
            else:
                with pytest.raises(SelectionError, match=re.escape(table.notes[key])):
                    select_approximant(table, m)
    # Failed rows occur where the geometric series breaks down past its first
    # level, in every mode, and in the f64 theta table at z = 5.
    assert any(table.notes for table in tables) == (name == "geometric" or (
        mode is F64 and name == "log1p-over-z" and z == 5))


def test_remainder_jets_need_tail_coefficients():
    series = PowerSeries(RAT, tuple(F(1, m + 1) for m in range(5)))
    with pytest.raises(IndexError):
        remainder_jets(series, "aitken", 1, order=6, n_max=0)


def tail_less_nine():
    return PowerSeries(RAT, tuple(F(1, m + 1) for m in range(9)))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: leading_remainders(log_series_rational(), "aitken", -1),
                 id="leading_remainders-max_level"),
    pytest.param(lambda: remainder_jets(log_series_rational(), "aitken", -1, order=2),
                 id="remainder_jets-max_level"),
    pytest.param(lambda: remainder_jets(log_series_rational(), "epsilon", 1, order=2, n_max=-1),
                 id="remainder_jets-n_max"),
    pytest.param(lambda: remainder_jets(log_series_rational(), "aitken", 1, order=-1),
                 id="remainder_jets-order"),
    pytest.param(lambda: transformation_terms(log_series_rational(), "aitken", 1, order=-1),
                 id="transformation_terms-order"),
    pytest.param(lambda: transformation_terms(log_series_rational(), "theta", 5, order=2),
                 id="transformation_terms-max_level"),
    pytest.param(lambda: leading_predictions(log_series_rational(), "aitken", 1, last_index=-1),
                 id="leading_predictions-last_index"),
    pytest.param(lambda: leading_remainders(tail_less_nine(), "aitken", 1, last_index=20),
                 id="leading_remainders-past-stored"),
    pytest.param(lambda: leading_predictions(tail_less_nine(), "aitken", 1, last_index=20),
                 id="leading_predictions-past-stored"),
    pytest.param(lambda: transformation_terms(log_series_rational(), "aitken", -1, order=2),
                 id="transformation_terms-negative-max_level"),
    pytest.param(lambda: leading_predictions(log_series_rational(), "epsilon", -1),
                 id="leading_predictions-negative-max_level"),
    pytest.param(lambda: leading_predictions(log_series_rational(), "theta", 2, last_index=5),
                 id="leading_predictions-last_index"),
    pytest.param(lambda: leading_remainders(log_series_rational(), "aitken", 2, last_index=4),
                 id="leading_remainders-last_index"),
    pytest.param(lambda: remainder_jets(log_series_rational(), "theta", -1, order=2, n_max=5),
                 id="remainder_jets-negative-max_level-wide-n_max"),
    pytest.param(lambda: evaluate_error_terms(log_series_bigfloat(), BF.parse("0.5"), -1),
                 id="evaluate_error_terms-m_max"),
    pytest.param(lambda: evaluate_transformation_terms(log_series_bigfloat(), BF.parse("0.5"), -1),
                 id="evaluate_transformation_terms-m_max"),
])
def test_table_entry_points_reject_out_of_range_arguments(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("family", ["aitken", "epsilon", "theta-iterated"])
def test_table_entry_points_build_the_deepest_level_their_inputs_reach(family):
    # 13 coefficients: a term level consumes ``step`` of them; a leading
    # remainder reads one more, so its table ends one index earlier.
    series = log_series_rational()
    step = FAMILIES[family].step
    for build, top in (
        (lambda k: transformation_terms(series, family, k, order=1), 12),
        (lambda k: leading_predictions(series, family, k), 12),
        (lambda k: leading_remainders(series, family, k), 11),
    ):
        deepest = top // step
        table = build(deepest)
        assert (deepest, top - step * deepest) in {**table.entries, **table.notes}
        with pytest.raises(ValueError, match=f"{family} level {deepest + 1} "):
            build(deepest + 1)
    assert remainder_jets(series, family, 3, order=1, n_max=0).entry(3, 0) is not None


@pytest.mark.parametrize("fld", [RAT, BF, F64], ids=["rational", "bigfloat", "f64"])
def test_epsilon_first_level_keeps_separate_term_and_remainder_forms(fld):
    # gamma_2 = 0: the term form gamma_hi**2 / (gamma_lo - z*gamma_hi) is a
    # valid zero at (1, 0), while the remainder form (d1/d0) / (1/d1 - z/d0)
    # inverts d1, whose constant part is gamma_2, and breaks down there.
    coeff = lambda i: fld.from_fraction(F(0) if i == 2 else F(1, i + 1))
    series = PowerSeries(fld, tuple(coeff(i) for i in range(10)), tail=coeff)
    epsilon = transformation_terms(series, "epsilon", 1, order=3)
    aitken = transformation_terms(series, "aitken", 1, order=3)
    assert epsilon.is_valid(1, 0)
    assert epsilon.entry(1, 0) == aitken.entry(1, 0)
    assert set(remainder_jets(series, "epsilon", 1, order=3, n_max=1).notes) == {(1, 0), (1, 1)}
    assert set(remainder_jets(series, "aitken", 1, order=3, n_max=1).notes) == {(1, 1)}


def test_corrected_cells_cross_checked_by_exact_rational_route():
    # Fully independent route to the two cells whose stored reference digits
    # disagree with recomputation: run the plain one-line delta-squared
    # iteration on exact rational partial sums at z = 19/20, then subtract a
    # 100-digit logarithm.  No remainder recursion, no shared code path.
    import decimal

    z = F(19, 20)
    sums, acc = [], F(0)
    for m in range(13):
        acc += F((-1) ** m, m + 1) * z ** m
        sums.append(acc)
    rendered = {}
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        f = (decimal.Decimal(195) / 100).ln() / decimal.Decimal("0.95")
        for m, level in ((10, 5), (12, 6)):
            row = list(sums[: m + 1])
            for _ in range(level):
                row = [
                    row[j] - (row[j + 1] - row[j]) ** 2 / (row[j + 2] - 2 * row[j + 1] + row[j])
                    for j in range(len(row) - 2)
                ]
            error = decimal.Decimal(row[0].numerator) / decimal.Decimal(row[0].denominator) - f
            rendered[m] = scientific_string(error, 6)
    assert rendered[10] == "0.689221e-10"
    assert rendered[12] == "0.282139e-12"


def test_epsilon_table_error_matches_remainder_route():
    # the deepest even epsilon entry minus the function value reproduces the
    # error-term cell computed through the remainder recursion
    from seriaccel.transforms import ScalarSequence, epsilon_table

    series = log_series_bigfloat()
    z = BF.parse("0.95")
    sums = series.partial_sums(z, 13)
    table = epsilon_table(ScalarSequence(BF, sums))
    f = series_value(series, z)
    with BF.arithmetic():
        error = table.entry(12, 0) - f
    assert scientific_string(error, 6) == "0.808737e-10"
