"""Exact relations between the routes of the paper, checked in rational mode.

Each relation is written once here and holds with no tolerance, so it guards
every later change of a step, a route or a representation.

(a) Prediction minus remainder is the true coefficient: the term jet ``T`` of
:func:`transformation_terms` and the remainder jet ``R`` of
:func:`remainder_jets` at one position ``(k, n)``, with ``m = n + step*k``,
satisfy ``T_j - R_j == gamma_{m+1+j}`` for every coefficient ``j``.

Relations (b) to (e) run on the partial sums ``s_0 .. s_top`` of a series at
the points of :data:`POINTS`, in the three textbook tables that have two
forms (:data:`~seriaccel.transforms.SCHEMES`), and compare only the cells
that are valid in both routes where validity is not itself the claim.

(b) Partial sum plus transformation term: the rearranged table's entry at
``(scale*k, n)`` is ``s_j + z**(j+1) * T(k, n)``, ``j = n + step*k``, where
``T`` is the family recursion run at the numeric ``z`` on zero seeds with the
coefficients injected.
(c) Every even entry ``(2k, n)`` of the full epsilon table is the
``[n+k/k]`` Pade approximant at ``z``.
(d) Quasi-linearity: each form of each table of ``a*s + b``, ``a != 0``, is
``a*T(s) + b``, with the same valid and failed cells.
(e) The classic (or plain) and the rearranged form of each table agree in
value and in validity.

(f) Homogeneity of the routes on a series: scaling every coefficient by
``c != 0`` scales every entry of the term, leading-part and remainder tables
of each family, and every predicted coefficient, by ``c``, with the same
valid and failed cells.
(g) The rational classic Aitken table, whose cells are each one integer
quotient, is the table of the classic ``Fraction`` step
(:func:`~seriaccel.transforms._aitken_classic`), notes included.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from _reference import pade_value
from seriaccel._recursions import NumericOps, UnitOps, run_recursion
from seriaccel.field import BreakdownError, RationalField
from seriaccel.jets import Jet, PowerSeries
from seriaccel.prediction import (
    PredictionBreakdownError,
    leading_predictions,
    predict_coefficients,
    transformation_terms,
)
from seriaccel.remainders import remainder_jets
from seriaccel.series_library import builtin_series
from seriaccel.transforms import (
    FAMILIES,
    SCHEMES,
    DegeneratePadeError,
    ModelSequence,
    ScalarSequence,
    _aitken_classic,
    aitken_table,
    epsilon_cross_table,
    epsilon_table,
    get_family,
    iterated_theta_table,
    pade_linear_system,
)

RAT = RationalField()
ORDER = 3


def _term_and_remainder_tables(series, family, top, order):
    """The term table and the remainder table of ``family`` whose deepest
    positions read coefficients ``0..top``."""
    step = get_family(family).step
    level = top // step
    terms = transformation_terms(series, family, level, order=order, last_index=top)
    remainders = remainder_jets(series, family, level, order=order, n_max=top - step * level)
    return terms, remainders


def _relation_a_mismatches(series, family, terms, remainders, keys):
    """The ``(k, n, j)`` where ``T_j - R_j`` is not ``gamma_{m+1+j}``."""
    step = get_family(family).step
    bad = []
    for k, n in keys:
        m = n + step * k
        t, r = terms.entries[k, n].coeffs, remainders.entries[k, n].coeffs
        bad += [(k, n, j) for j in range(len(t))
                if t[j] - r[j] != series.coefficient(m + 1 + j)]
    return bad


@pytest.mark.parametrize("name, params, cells", [
    ("log1p-over-z", (), 146),
    ("zeta", (2,), 146),
    ("geometric", (), 71),  # in the kernel of every family: its deeper cells break down
])
def test_prediction_minus_remainder_is_the_true_coefficient_on_the_builtins(name, params, cells):
    # For each top index m = 2..13, the positions that the top adds (n + step*k == m).
    series = builtin_series(name, tuple(map(RAT.from_int, params)), 14, RAT).series
    checked = 0
    for family in FAMILIES:
        step = get_family(family).step
        for top in range(2, 14):
            terms, remainders = _term_and_remainder_tables(series, family, top, ORDER)
            diagonal = [(k, top - step * k) for k in range(top // step + 1)]
            keys = [key for key in diagonal if key in terms.entries and key in remainders.entries]
            assert _relation_a_mismatches(series, family, terms, remainders, keys) == []
            checked += len(keys)
    assert checked == cells


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.integers(-3, 3), min_size=5, max_size=10),
       order=st.integers(0, ORDER),
       family=st.sampled_from(sorted(FAMILIES)))
def test_prediction_minus_remainder_is_the_true_coefficient_on_integer_series(coeffs, order, family):
    # Only the cells valid in both tables; the remainder jets read the
    # coefficients through top + order + 1, the last one stored.
    series = PowerSeries(RAT, tuple(F(c) for c in coeffs))
    top = len(coeffs) - 2 - order
    terms, remainders = _term_and_remainder_tables(series, family, top, order)
    keys = sorted(terms.entries.keys() & remainders.entries.keys())
    assert _relation_a_mismatches(series, family, terms, remainders, keys) == []


# -- relations (b) to (e), on partial sums

POINTS = (F(1, 2), F(-9, 10), F(3), F(5))

#: Each textbook table with two forms: its builder and the family whose term
#: recursion its rearranged form is at z = 1.
SCHEME_TABLES = {
    "aitken": (aitken_table, "aitken"),
    "epsilon-cross": (epsilon_cross_table, "epsilon"),
    "theta-iterated": (iterated_theta_table, "theta-iterated"),
}
assert SCHEME_TABLES.keys() == SCHEMES.keys()


def _partial_sums(series, z, top):
    return ScalarSequence(RAT, series.partial_sums(z, top + 1))


def _relation_b(series, z, top):
    """(mismatched cells, cells compared) of relation (b)."""
    seq = _partial_sums(series, z, top)
    zeros = [RAT.zero] * (top + 1)
    bad, checked = [], 0
    for name, (build, family) in SCHEME_TABLES.items():
        fam = FAMILIES[family]
        table = build(seq, "rearranged")
        terms = run_recursion(fam, NumericOps(RAT, z), top // fam.step, top, zeros,
                              series.coefficient)
        for (k, n), term in terms.entries.items():
            key = (table.scale * k, n)
            if key in table.entries:
                j = n + fam.step * k
                checked += 1
                if table.entries[key] != seq.entries[j] + z ** (j + 1) * term:
                    bad.append((name, k, n))
    return bad, checked


def _relation_c(series, z, top):
    """(mismatched cells, cells compared) of relation (c); a singular Pade
    system or a zero ``Q(z)`` leaves the cell out."""
    table = epsilon_table(_partial_sums(series, z, top))
    bad, checked = [], 0
    for (column, n), value in table.entries.items():
        if column % 2:
            continue
        k = column // 2
        try:
            expected = pade_value(pade_linear_system(series, n + k, k), z)
        except (DegeneratePadeError, BreakdownError):
            continue
        checked += 1
        if value != expected:
            bad.append((column, n))
    return bad, checked


def _relation_d(seq, a, b):
    """(mismatched cells, cells compared) of relation (d), every form of every table."""
    moved = ScalarSequence(RAT, tuple(a * s + b for s in seq.entries))
    bad, checked = [], 0
    for name, (build, _) in SCHEME_TABLES.items():
        for form in SCHEMES[name]:
            plain, image = build(seq, form), build(moved, form)
            if (plain.entries.keys(), plain.notes.keys()) != (image.entries.keys(),
                                                              image.notes.keys()):
                bad.append((name, form, "validity"))
            for key, value in plain.entries.items():
                checked += 1
                if image.entries.get(key) != a * value + b:
                    bad.append((name, form, key))
    return bad, checked


def _relation_e(seq):
    """(mismatched tables, cells compared) of relation (e)."""
    bad, checked = [], 0
    for name, (build, _) in SCHEME_TABLES.items():
        first, rearranged = (build(seq, form) for form in SCHEMES[name])
        if (first.entries, first.notes.keys()) != (rearranged.entries, rearranged.notes.keys()):
            bad.append(name)
        checked += len(first.entries)
    return bad, checked


def _relations(series, top, a, b):
    """Mismatches and compared cells of (b) to (e) at every point of :data:`POINTS`."""
    bad = {relation: [] for relation in "bcde"}
    checked = dict.fromkeys("bcde", 0)
    for z in POINTS:
        seq = _partial_sums(series, z, top)
        for relation, (found, count) in (("b", _relation_b(series, z, top)),
                                          ("c", _relation_c(series, z, top)),
                                          ("d", _relation_d(seq, a, b)),
                                          ("e", _relation_e(seq))):
            bad[relation] += [(z, cell) for cell in found]
            checked[relation] += count
    return bad, checked


@pytest.mark.parametrize("name, params, cells", [
    ("log1p-over-z", (), {"b": 456, "c": 168, "d": 912, "e": 456}),
    ("zeta", (2,), {"b": 456, "c": 168, "d": 912, "e": 456}),
    ("geometric", (), {"b": 260, "c": 88, "d": 520, "e": 260}),  # breaks down past the kernel
])
def test_partial_sum_pade_linearity_and_scheme_relations_on_the_builtins(name, params, cells):
    series = builtin_series(name, tuple(map(RAT.from_int, params)), 12, RAT).series
    bad, checked = _relations(series, 11, F(-3, 2), F(7))
    assert bad == {relation: [] for relation in "bcde"}
    assert checked == cells


@settings(max_examples=20, deadline=None)
@given(coeffs=st.lists(st.integers(-3, 3), min_size=3, max_size=12),
       a=st.fractions(-4, 4, max_denominator=5).filter(bool),
       b=st.fractions(-4, 4, max_denominator=5))
def test_partial_sum_pade_linearity_and_scheme_relations_on_integer_series(coeffs, a, b):
    series = PowerSeries(RAT, tuple(F(c) for c in coeffs))
    bad, _ = _relations(series, len(coeffs) - 1, a, b)
    assert bad == {relation: [] for relation in "bcde"}


# -- relation (f), homogeneity on a series


def _scaled(series, c):
    """``series`` with every coefficient, its tail rule's included, times ``c``."""
    tail = None if series.tail is None else (lambda i: c * series.tail(i))
    return PowerSeries(RAT, tuple(c * x for x in series.coeffs), tail=tail)


def _values(value):
    """The coefficients of a jet, or a scalar as a 1-tuple."""
    return value.coeffs if isinstance(value, Jet) else (value,)


def _predictions(series, family, last_index):
    """The predicted coefficients, or the breakdown message."""
    try:
        return [value for _, value in predict_coefficients(series, family, last_index, ORDER + 1)]
    except PredictionBreakdownError as exc:
        return str(exc)


def _relation_f(series, c, top):
    """(mismatches, values compared) of relation (f) over the tables whose
    deepest positions read coefficients ``0..top``, and the predictions from
    every ``0..last_index``, ``last_index <= top``."""
    scaled = _scaled(series, c)
    bad, checked = [], 0
    for family, fam in FAMILIES.items():
        level = top // fam.step
        builds = {
            "terms": lambda s: transformation_terms(s, family, level, ORDER, last_index=top),
            "leading": lambda s: leading_predictions(s, family, level, last_index=top),
            "remainders": lambda s: remainder_jets(s, family, level, ORDER,
                                                   n_max=top - fam.step * level),
        }
        for name, build in builds.items():
            plain, image = build(series), build(scaled)
            if (plain.entries.keys(), plain.notes) != (image.entries.keys(), image.notes):
                bad.append((family, name, "validity"))
            for key, value in plain.entries.items():
                checked += 1
                if image.entries.get(key) is None or (
                        tuple(c * x for x in _values(value)) != _values(image.entries[key])):
                    bad.append((family, name, key))
        for last_index in range(top + 1):
            plain, image = _predictions(series, family, last_index), _predictions(scaled, family,
                                                                                 last_index)
            if isinstance(plain, str):
                if plain != image:
                    bad.append((family, "predict", last_index))
                continue
            checked += len(plain)
            if image != [c * x for x in plain]:
                bad.append((family, "predict", last_index))
    return bad, checked


@pytest.mark.parametrize("name, params, cells", [
    ("log1p-over-z", (), 366),
    ("zeta", (2,), 366),
    ("geometric", (), 215),  # in the kernel of every family: its deeper cells break down
])
def test_terms_remainders_and_predictions_scale_with_the_coefficients_on_the_builtins(
        name, params, cells):
    series = builtin_series(name, tuple(map(RAT.from_int, params)), 12, RAT).series
    for c in (F(-3, 2), F(7)):
        bad, checked = _relation_f(series, c, 9)
        assert bad == []
        assert checked == cells


@settings(max_examples=20, deadline=None)
@given(coeffs=st.lists(st.integers(-3, 3), min_size=6, max_size=11),
       c=st.fractions(-4, 4, max_denominator=5).filter(bool))
def test_terms_remainders_and_predictions_scale_with_the_coefficients_on_integer_series(
        coeffs, c):
    # The remainder jets read the coefficients through top + ORDER + 1, the last one stored.
    series = PowerSeries(RAT, tuple(F(x) for x in coeffs))
    bad, _ = _relation_f(series, c, len(coeffs) - 2 - ORDER)
    assert bad == []


# -- relation (g), the one-quotient Aitken cells


def _relation_g(seq):
    """The rational classic Aitken table of ``seq`` and the table of the
    classic ``Fraction`` step, run by the same builder."""
    m = seq.last_index
    reference = run_recursion(FAMILIES["aitken"], UnitOps(RAT), m // 2, m, seq.entries,
                              table="aitken-classic", recursion=_aitken_classic)
    return aitken_table(seq), reference


BREAKDOWN = "rational: division by (near-)zero denominator"


@pytest.mark.parametrize("seq, bits, breakdowns", [
    # the 20-term table of the exact-predict bench, whose entries reach 115,466 bits
    pytest.param(_partial_sums(builtin_series("log1p-over-z", (), 20, RAT).series, F(1, 2), 19),
                 115466, 0, id="log1p-over-z-20"),
    # the kernel breakdowns of the baseline: a constant, the model's limit at
    # level 1, and the geometric series' limit at level 1
    pytest.param(ScalarSequence(RAT, (F(7),) * 5), 3, 3, id="constant"),
    pytest.param(ModelSequence(RAT, F(1), F(1), F(1, 2)).sequence(8), 8, 4, id="model"),
    pytest.param(_partial_sums(builtin_series("geometric", (), 8, RAT).series, F(1, 3), 7),
                 12, 4, id="geometric"),
])
def test_one_quotient_aitken_cells_are_the_classic_step_on_the_baseline_cases(seq, bits,
                                                                               breakdowns):
    table, reference = _relation_g(seq)
    assert table.entries == reference.entries
    assert table.notes == reference.notes
    assert max(max(abs(v.numerator), v.denominator).bit_length()
               for v in table.entries.values()) == bits
    assert list(table.notes.values()).count(BREAKDOWN) == breakdowns


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.integers(-3, 3), min_size=3, max_size=12),
       z=st.sampled_from((F(1),) + POINTS))
def test_one_quotient_aitken_cells_are_the_classic_step_on_integer_series(coeffs, z):
    # At z = 1 the partial sums are integers, and equal neighbours break down often.
    series = PowerSeries(RAT, tuple(F(x) for x in coeffs))
    table, reference = _relation_g(_partial_sums(series, z, len(coeffs) - 1))
    assert table.entries == reference.entries
    assert table.notes == reference.notes
