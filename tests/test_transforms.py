import random
import re
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from _reference import pade_taylor_jet, pade_value, solve_linear
from seriaccel import transforms
from seriaccel.field import BigFloatField, Float64Field, RationalField
from seriaccel.jets import PowerSeries
from seriaccel.prediction import leading_predictions, transformation_terms
from seriaccel.remainders import leading_remainders, remainder_jets
from seriaccel.series_library import builtin_series
from seriaccel.transforms import (
    FAMILIES,
    SCHEMES,
    DegeneratePadeError,
    ModelSequence,
    ScalarSequence,
    SelectionError,
    aitken_table,
    classify_convergence,
    epsilon_cross_table,
    epsilon_table,
    iterated_theta_table,
    pade_linear_system,
    select_approximant,
    theta_table,
)

RAT = RationalField()
F64 = Float64Field()


def seq(*values, limit=None):
    return ScalarSequence(RAT, tuple(F(v) for v in values), limit=limit)


def log_partial_sums(count, z=F(19, 20)):
    entries, acc = [], F(0)
    for m in range(count):
        acc += F((-1) ** m, m + 1) * z ** m
        entries.append(acc)
    return ScalarSequence(RAT, tuple(entries))


def random_sequence(rng, count=10):
    return ScalarSequence(
        RAT,
        tuple(F(rng.randint(-60, 60) or 7, rng.randint(1, 12)) for _ in range(count)),
    )


def test_an_empty_iterator_is_not_a_sequence():
    for entries in ((), iter([]), (v for v in ())):
        with pytest.raises(ValueError, match="a sequence needs at least one entry"):
            ScalarSequence(RAT, entries)
    assert aitken_table(ScalarSequence(RAT, iter([2, F(3, 2), F(5, 4)]))).entry(1, 0) == 1


# -- Aitken ------------------------------------------------------------------


def test_one_step_is_exact_on_geometric_model():
    table = aitken_table(seq(2, F(3, 2), F(5, 4)))
    assert table.entry(1, 0) == 1


def test_one_step_is_exact_on_divergent_model():
    table = aitken_table(seq(2, 6, 26))
    assert table.entry(1, 0) == 1


def test_constant_sequence_breaks_down_flagged():
    table = aitken_table(seq(7, 7, 7, 7, 7))
    assert not table.is_valid(1, 0)
    with pytest.raises(SelectionError):
        table.entry(1, 0)


def test_classic_and_rearranged_schemes_agree():
    rng = random.Random(7)
    for _ in range(20):
        s = random_sequence(rng)
        classic = aitken_table(s, "classic")
        rearranged = aitken_table(s, "rearranged")
        assert classic.entries == rearranged.entries


# -- epsilon -----------------------------------------------------------------


def test_epsilon_on_geometric_partial_sums():
    table = epsilon_table(seq(1, F(3, 2), F(7, 4)))
    assert table.entry(2, 0) == 2


def test_epsilon_column_two_equals_one_aitken_step():
    rng = random.Random(11)
    s = random_sequence(rng, 9)
    eps = epsilon_table(s)
    ait = aitken_table(s)
    for n in range(7):
        assert eps.entry(2, n) == ait.entry(1, n)


@pytest.mark.parametrize("spec, params, z, count, cells", [
    ("log1p-over-z", (), F(1, 2), 13, 78),
    ("zeta", (F(2),), F(1), 12, 55),
], ids=["log1p-over-z", "zeta2"])
def test_every_epsilon_column_matches_mpmath_shanks(spec, params, z, count, cells):
    """Wynn's rule, odd columns included, against mpmath's own epsilon table
    at 60 digits: its row ``n + k - 1``, column ``k - 1`` is our ``(k, n)``.
    ``shanks`` stops one input short of an even count, so for 12 inputs it
    lacks our last anti-diagonal; ``cells`` counts its entries."""
    import mpmath

    series = builtin_series(spec, params, count, RAT).series
    sums = series.partial_sums(z, count)
    table = epsilon_table(ScalarSequence(RAT, sums))
    with mpmath.workdps(60):
        oracle = mpmath.shanks([mpmath.mpf(s.numerator) / s.denominator for s in sums])
        for i, row in enumerate(oracle):
            for j, want in enumerate(row):
                value = table.entry(j + 1, i - j)
                got = mpmath.mpf(value.numerator) / value.denominator
                assert abs(got - want) <= mpmath.mpf(10) ** -45 * max(1, abs(want)), (j + 1, i - j)
    assert sum(map(len, oracle)) == cells


@pytest.mark.parametrize("form", ["plain", "rearranged"])
def test_cross_rule_matches_epsilon_even_columns(form):
    rng = random.Random(13)
    for _ in range(10):
        s = random_sequence(rng, 7)
        eps = epsilon_table(s)
        cross = epsilon_cross_table(s, form)
        for (k, n), value in cross.entries.items():
            if k % 2 == 0:
                assert value == eps.entry(k, n)


def test_cross_rule_three_terms_yields_single_entry():
    cross = epsilon_cross_table(seq(1, F(3, 2), F(7, 4)))
    produced = [key for key in cross.entries if key[0] == 2]
    assert produced == [(2, 0)]
    assert cross.entry(2, 0) == 2


# -- theta -------------------------------------------------------------------


def theta2_closed_form(s0, s1, s2, s3):
    d0, d1, d2 = s1 - s0, s2 - s1, s3 - s2
    return s1 - d0 * d1 * (d2 - d1) / (d2 * (d1 - d0) - d0 * (d2 - d1))


def test_theta_first_even_column_matches_closed_form():
    s = log_partial_sums(4)
    table = theta_table(s)
    expected = theta2_closed_form(*s.entries)
    assert table.entry(2, 0) == expected
    assert iterated_theta_table(s).entry(1, 0) == expected


def test_second_closed_form_agrees():
    # anchored at the last element instead of the second
    s = log_partial_sums(4).entries
    d0, d1, d2 = s[1] - s[0], s[2] - s[1], s[3] - s[2]
    dd0, dd1 = d1 - d0, d2 - d1
    anchored = s[3] - d2 * (d2 * dd0 + d1 * d1 - d0 * d2) / (d2 * dd0 - d0 * dd1)
    assert anchored == theta2_closed_form(*s)


def test_modified_theta_equals_iterated_theta():
    s = log_partial_sums(11)
    modified = theta_table(s, modified=True)
    iterated = iterated_theta_table(s)
    for k in (1, 2, 3):
        for n in range(11 - 3 * k):
            assert modified.entry(2 * k, n) == iterated.entry(k, n)


def test_plain_theta_differs_from_iterated_at_depth():
    s = log_partial_sums(11)
    plain = theta_table(s)
    iterated = iterated_theta_table(s)
    assert plain.entry(2, 0) == iterated.entry(1, 0)
    assert plain.entry(4, 0) != iterated.entry(2, 0)


def test_iterated_theta_schemes_agree():
    rng = random.Random(17)
    for _ in range(20):
        s = random_sequence(rng)
        classic = iterated_theta_table(s, "classic")
        rearranged = iterated_theta_table(s, "rearranged")
        assert classic.entries == rearranged.entries


def test_theta_constant_sequence_flagged():
    table = theta_table(seq(3, 3, 3, 3, 3))
    assert not table.is_valid(1, 0)


# -- selection ---------------------------------------------------------------


def test_selection_rules():
    s = log_partial_sums(13)
    k, n, _ = select_approximant(aitken_table(s), 12)
    assert (k, n) == (6, 0)
    k, n, _ = select_approximant(epsilon_table(log_partial_sums(6)), 5)
    assert (k, n) == (4, 1)
    k, n, _ = select_approximant(iterated_theta_table(log_partial_sums(8)), 7)
    assert (k, n) == (2, 1)


def _selection_cases(s=None, series=None):
    """(name, table, step, scale) of every kind of table, with the selection
    geometry written out here rather than read from the table.  By default
    the tables are built from the logarithm's partial sums and series."""
    if s is None:
        s = log_partial_sums(13)
        series = PowerSeries(RAT, tuple(F((-1) ** m, m + 1) for m in range(13)),
                             tail=lambda i: F((-1) ** i, i + 1))
    yield "aitken-classic", aitken_table(s), 2, 1
    yield "aitken-rearranged", aitken_table(s, "rearranged"), 2, 1
    yield "epsilon", epsilon_table(s), 2, 2
    yield "epsilon-cross-plain", epsilon_cross_table(s), 2, 2
    yield "epsilon-cross-rearranged", epsilon_cross_table(s, "rearranged"), 2, 2
    yield "theta", theta_table(s), 3, 2
    yield "theta-modified", theta_table(s, modified=True), 3, 2
    yield "theta-iterated-classic", iterated_theta_table(s), 3, 1
    yield "theta-iterated-rearranged", iterated_theta_table(s, "rearranged"), 3, 1
    for family, step in (("aitken", 2), ("epsilon", 2), ("theta-iterated", 3)):
        top = 12 // step
        yield f"terms-{family}", transformation_terms(series, family, top, order=1), step, 1
        yield f"leading-{family}", leading_predictions(series, family, top), step, 1
        yield (f"remainders-{family}", remainder_jets(series, family, top - 1, order=1, n_max=2),
               step, 1)
        yield (f"leading-remainders-{family}", leading_remainders(series, family, 11 // step),
               step, 1)


@pytest.mark.parametrize("table, step, scale",
                         [pytest.param(*case, id=name) for name, *case in _selection_cases()])
def test_every_table_selects_by_its_own_geometry(table, step, scale):
    # Inputs 0..m select level m // step at start m % step, keyed scale * level.
    for m in range(table.size):
        key = (scale * (m // step), m % step)
        try:
            k, n, value = select_approximant(table, m)
        except SelectionError:
            assert not table.is_valid(*key), (m, key)
        else:
            assert (k, n) == key and value == table.entry(*key), m
    assert any(table.is_valid(scale * (m // step), m % step) for m in range(step, table.size))
    with pytest.raises(SelectionError):
        select_approximant(table, table.size)


def _breaking_cases():
    # An arithmetic run, repeated elements and zero coefficients make cells
    # break down, and cells above them inherit the failure.
    s = seq(1, 2, 3, 5, 8, 8, 13, 21, 21, 34, 55, 89, 144)
    coeffs = (1, 0, F(1, 3), 0, F(1, 5), F(-1, 6), 0, F(-1, 8), F(1, 9), 0, F(1, 11), 1, 1)
    series = PowerSeries(RAT, tuple(F(c) for c in coeffs), tail=lambda i: F(1, i + 1))
    for name, table, _, _ in _selection_cases(s, series):
        yield pytest.param(table, id=name)


@pytest.mark.parametrize("table", _breaking_cases())
def test_every_cell_is_an_entry_or_a_note(table):
    entries, notes = set(table.entries), set(table.notes)
    assert entries | notes == set(table.valid)
    assert not entries & notes
    assert all(ok == (key in entries) for key, ok in table.valid.items())
    assert list(table.valid) == sorted(table.entries.keys() | table.notes.keys())
    assert all(table.is_valid(*key) == (key in entries) for key in entries | notes)
    assert notes  # the inputs break some cell of every kind of table


def test_entry_returns_a_value_raises_a_note_or_a_missing_key():
    table = aitken_table(seq(1, 1, 1))
    assert table.entry(0, 2) == 1
    assert table.notes[(1, 0)]
    with pytest.raises(SelectionError, match=re.escape(table.notes[(1, 0)])) as err:
        table.entry(1, 0)
    assert (err.value.k, err.value.n) == (1, 0)
    with pytest.raises(KeyError):
        table.entry(1, 1)


def test_selection_of_invalid_entry_raises_with_location():
    table = aitken_table(seq(1, 1, 1))
    with pytest.raises(SelectionError) as err:
        select_approximant(table, 2)
    assert (err.value.k, err.value.n) == (1, 0)


@pytest.mark.parametrize("build, scheme, message", [
    pytest.param(aitken_table, "plain", "scheme must be 'classic' or 'rearranged'", id="aitken"),
    pytest.param(iterated_theta_table, "plain", "scheme must be 'classic' or 'rearranged'",
                 id="theta-iterated"),
    pytest.param(epsilon_cross_table, "classic", "scheme must be 'plain' or 'rearranged'",
                 id="epsilon-cross"),
])
def test_unknown_scheme_is_rejected_with_its_message(build, scheme, message):
    with pytest.raises(ValueError) as err:
        build(log_partial_sums(7), scheme)
    assert str(err.value) == message


SCHEME_BUILDERS = {"aitken": aitken_table, "epsilon-cross": epsilon_cross_table,
                   "theta-iterated": iterated_theta_table}
REGISTRY_TABLES = {name: scale for family in FAMILIES.values()
                   for name, scale in family.tables.items()}


def test_every_scheme_and_the_default_build_a_registry_table():
    assert set(SCHEMES) == set(SCHEME_BUILDERS)
    sequence = log_partial_sums(9)
    for name, schemes in SCHEMES.items():
        build = SCHEME_BUILDERS[name]
        for scheme in schemes:
            table = build(sequence, scheme)
            assert table.family in (name, f"{name}-{scheme}")
            assert table.scale == REGISTRY_TABLES[table.family]
        default, first = build(sequence), build(sequence, next(iter(schemes)))
        assert (default.family, default.entries) == (first.family, first.entries)


def test_the_builder_variants_reach_exactly_the_registry_tables():
    variants = [lambda s, b=build, x=scheme: b(s, x)
                for name, build in SCHEME_BUILDERS.items() for scheme in SCHEMES[name]]
    variants += [epsilon_table, theta_table, lambda s: theta_table(s, modified=True)]
    names = [variant(log_partial_sums(9)).family for variant in variants]
    assert len(names) == 9
    assert set(names) == set(REGISTRY_TABLES) and len(REGISTRY_TABLES) == 7


# -- Pade oracle -------------------------------------------------------------


def test_pade_geometric_1_1():
    series = PowerSeries(RAT, (F(1), F(1), F(1)))
    pade = pade_linear_system(series, 1, 1)
    assert pade.numerator == (F(1), F(0))
    assert pade.denominator == (F(1), F(-1))


def test_pade_log_1_1_reproduces_coefficients():
    series = PowerSeries(RAT, (F(1), F(-1, 2), F(1, 3)))
    pade = pade_linear_system(series, 1, 1)
    assert pade_taylor_jet(pade, 2).coeffs == (F(1), F(-1, 2), F(1, 3))


def test_epsilon_produces_pade_values_on_log_series():
    z = F(19, 20)
    series = PowerSeries(RAT, tuple(F((-1) ** m, m + 1) for m in range(13)))
    table = epsilon_table(log_partial_sums(13, z))
    for k in range(1, 4):
        for n in range(13 - 2 * k):
            pade = pade_linear_system(series, n + k, k)
            assert table.entry(2 * k, n) == pade_value(pade, z)


def test_bigfloat_pade_denominator_keeps_the_working_precision():
    # The right-hand side of the system is negated inside the field's context:
    # Python's default 28-digit context would round it.
    exact, wide = (pade_linear_system(builtin_series("log1p-over-z", (), 9, fld).series, 4, 4)
                   for fld in (RAT, BigFloatField(50)))
    for got, want in zip(wide.denominator, exact.denominator, strict=True):
        assert abs(F(got) - want) <= F(1, 10 ** 44) * abs(want)


def test_pade_singular_system():
    series = PowerSeries(RAT, (F(1), F(0), F(1)))
    with pytest.raises(DegeneratePadeError):
        pade_linear_system(series, 1, 1)


def _pade_both_ways(series, l, m):
    """``pade_linear_system(series, l, m)``, by the fraction-free solve and by
    the pivoting ``Fraction`` solve, each a :class:`PadeRational` or the
    message of its :class:`DegeneratePadeError`."""
    def attempt():
        try:
            return pade_linear_system(series, l, m)
        except DegeneratePadeError as exc:
            return str(exc)

    got = attempt()
    with mock.patch.object(transforms, "_solve_linear", solve_linear):
        return got, attempt()


@pytest.mark.parametrize("spec", ["log1p-over-z", "zeta(2)"])
def test_fraction_free_pade_solve_equals_the_pivoting_solve_on_the_builtins(spec):
    name, _, arg = spec.partition("(")
    params = (F(arg.rstrip(")")),) if arg else ()
    series = builtin_series(name, params, 61, RAT).series
    for m in range(1, 21):
        for l in (m, m + 3, 2 * m):
            got, want = _pade_both_ways(series, l, m)
            assert got == want, (l, m)


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(st.integers(-3, 3), min_size=1, max_size=12), data=st.data())
def test_fraction_free_pade_solve_equals_the_pivoting_solve_on_integer_series(coeffs, data):
    # Small integers repeat and vanish, so many of these systems are singular.
    series = PowerSeries(RAT, tuple(F(c) for c in coeffs))
    m = data.draw(st.integers(0, len(coeffs) - 1))
    l = data.draw(st.integers(0, len(coeffs) - 1 - m))
    got, want = _pade_both_ways(series, l, m)
    assert got == want


@pytest.mark.parametrize("l, m", [(-1, 1), (1, -1)])
def test_pade_negative_degree_is_rejected(l, m):
    series = PowerSeries(RAT, (F(1), F(1), F(1)))
    with pytest.raises(ValueError, match="numerator and denominator degrees must be >= 0"):
        pade_linear_system(series, l, m)


# -- classification ----------------------------------------------------------


def test_classify_linear_geometric():
    model = ModelSequence(RAT, F(1), F(1), F(1, 2))
    report = classify_convergence(model.sequence(8))
    assert report.kind == "linear"
    assert report.rho == F(1, 2)


def test_classify_divergent():
    model = ModelSequence(RAT, F(1), F(1), F(5))
    report = classify_convergence(model.sequence(8))
    assert report.kind == "divergent"
    assert report.rho == F(5)


@pytest.mark.parametrize("ratio", [F(99, 100), F(-199, 200)])
def test_classify_between_the_bands_is_inconclusive_with_its_rho(ratio):
    # |rho| = 1 - tol is neither linear nor logarithmic; 0.995 is in no band
    report = classify_convergence(ModelSequence(RAT, F(1), F(1), ratio).sequence(8))
    assert report == ("inconclusive", ratio)


def test_classify_exact_limit_hit_is_inconclusive():
    s = ScalarSequence(RAT, (F(1), F(2), F(2), F(3), F(4)), limit=F(2))
    assert classify_convergence(s).kind == "inconclusive"


@pytest.mark.parametrize("seq, message", [
    (ScalarSequence(RAT, (F(1), F(1, 2), F(1, 4), F(1, 8)), limit=F(0)),
     "classification needs at least 5 sequence entries"),
    (ScalarSequence(RAT, (F(1), F(1, 2), F(1, 4), F(1, 8), F(1, 16))),
     "classification needs a known or estimated limit"),
])
def test_classify_needs_five_entries_and_a_limit(seq, message):
    with pytest.raises(ValueError, match=message):
        classify_convergence(seq)


def _zeta_em(s, terms=200):
    # Euler-Maclaurin estimate, comfortably better than the classifier tolerance
    head = sum((n + 1) ** (-s) for n in range(terms))
    n = float(terms)
    return head + n ** (1 - s) / (s - 1) - n ** (-s) / 2 + s * n ** (-s - 1) / 12


def test_classify_zeta_partial_sums_logarithmic():
    s = 1.1
    entries, acc = [], 0.0
    for m in range(50):
        acc += (m + 1) ** (-s)
        entries.append(acc)
    report = classify_convergence(ScalarSequence(F64, tuple(entries), limit=_zeta_em(s)))
    assert report.kind == "logarithmic"


def test_invalidity_propagates_and_valid_entries_never_read_invalid_ones():
    # equal consecutive elements break one first-column difference; everything
    # built on top of it must be flagged, everything else must stay usable
    table = epsilon_table(seq(1, 2, 2, 3, 5, 8))
    assert not table.is_valid(1, 1)
    assert not table.is_valid(2, 0) and not table.is_valid(2, 1)
    assert table.is_valid(1, 0) and table.is_valid(1, 2)
    for key, ok in table.valid.items():
        if ok and key[0] > 0:
            k, n = key
            deps = [(k - 1, n), (k - 1, n + 1)] + ([(k - 2, n + 1)] if k >= 2 else [])
            assert all(table.valid.get(d, False) for d in deps), key


def test_model_sequence_rejects_unit_ratio():
    with pytest.raises(ValueError):
        ModelSequence(RAT, F(0), F(1), F(-1))
    with pytest.raises(ValueError):
        ModelSequence(RAT, F(0), F(0), F(1, 2))
    with pytest.raises(ValueError, match="count must be >= 1"):
        ModelSequence(RAT, F(1), F(1), F(1, 2)).sequence(0)
