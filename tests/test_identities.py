"""Exact relations between the routes of the paper, checked in rational mode.

Each relation is written once here and holds with no tolerance, so it guards
every later change of a step, a route or a representation.

(a) Prediction minus remainder is the true coefficient: the term jet ``T`` of
:func:`transformation_terms` and the remainder jet ``R`` of
:func:`remainder_jets` at one position ``(k, n)``, with ``m = n + step*k``,
satisfy ``T_j - R_j == gamma_{m+1+j}`` for every coefficient ``j``.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from seriaccel.field import RationalField
from seriaccel.jets import PowerSeries
from seriaccel.prediction import transformation_terms
from seriaccel.remainders import remainder_jets
from seriaccel.series_library import builtin_series
from seriaccel.transforms import FAMILIES, get_family

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
