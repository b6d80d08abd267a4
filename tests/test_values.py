"""Value behaviour of the package's record types: equality and hashing,
immutability, ``repr`` and keyword construction."""

from fractions import Fraction as F

import pytest

from seriaccel._recursions import TransformTable, aitken_deps, aitken_leading, aitken_step
from seriaccel.field import BigFloatField, Float64Field, RationalField
from seriaccel.jets import Jet, PowerSeries
from seriaccel.remainders import TermCell
from seriaccel.report import term_rows
from seriaccel.series_library import ResolvedInput
from seriaccel.transforms import (
    ConvergenceReport,
    Family,
    ModelSequence,
    PadeRational,
    ScalarSequence,
)

RAT = RationalField()


def test_fields_are_equal_and_hash_alike_by_mode_and_digits():
    for make in (RationalField, Float64Field, BigFloatField, lambda: BigFloatField(digits=60)):
        assert make() == make() and hash(make()) == hash(make())
    assert BigFloatField() == BigFloatField(50)
    assert BigFloatField(50) != BigFloatField(60)
    assert RationalField() != Float64Field() and RationalField() != BigFloatField()
    assert len({RationalField(), Float64Field(), BigFloatField(), BigFloatField(60), RAT}) == 4


def test_fields_print_their_mode_and_precision():
    assert [repr(f) for f in (RAT, Float64Field(), BigFloatField(60))] == [
        "RationalField()", "Float64Field()", "BigFloatField(digits=60)"]


def test_jets_compare_and_hash_by_field_and_coefficients():
    a = Jet(RAT, (F(1), F(2)))
    assert a == Jet.from_coeffs(RAT, [1, 2]) and hash(a) == hash(Jet.from_coeffs(RAT, [1, 2]))
    assert a != Jet(RAT, (F(1), F(3)))
    assert a != Jet.from_coeffs(BigFloatField(), [1, 2])
    assert len({a, Jet.from_coeffs(RAT, [1, 2]), Jet(RAT, (F(1),))}) == 2


@pytest.mark.parametrize("value, name", [
    (RAT, "mode"),
    (Float64Field(), "kind"),
    (BigFloatField(), "digits"),
    (BigFloatField(), "near_zero"),
    (Jet(RAT, (F(1),)), "coeffs"),
    (PowerSeries(RAT, (F(1),)), "tail"),
    (ScalarSequence(RAT, (F(1),)), "limit"),
    (ModelSequence(RAT, F(1), F(1), F(1, 2)), "ratio"),
    (TermCell(0, "aitken", 0, 0, F(0), True), "value"),
    (TransformTable("aitken", 1, 2, 1, {}, {}), "notes"),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_the_value_types_are_immutable(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)


def test_term_cell_and_report_row_print_as_records():
    assert repr(TermCell(3, "aitken", 1, 1, F(1, 4), True)) == (
        "TermCell(m=3, family='aitken', level=1, n=1, value=Fraction(1, 4), valid=True, note='')")
    # A report row is a plain tuple in the order of ``report.COLUMNS``.
    cells = {"epsilon": [TermCell(0, "epsilon", 0, 0, F(1, 2), True),
                         TermCell(1, "epsilon", 0, 1, None, False, "overflow")]}
    assert repr(list(term_rows(cells, str))) == (
        "[(0, 'epsilon', 0, 0, '1/2', True), (1, 'epsilon', 0, 1, '', False)]")


def _tail(i):
    return F(1, i + 1)


KEYWORDS = [
    (RationalField, {}),
    (Float64Field, {}),
    (BigFloatField, {"digits": 60}),
    (Jet, {"field": RAT, "coeffs": (F(1), F(2))}),
    (PowerSeries, {"field": RAT, "coeffs": (F(1), F(1, 2)), "tail": _tail}),
    (ScalarSequence, {"field": RAT, "entries": (F(1), F(3, 2)), "limit": F(2)}),
    (ModelSequence, {"field": RAT, "limit": F(1), "amplitude": F(2), "ratio": F(1, 2)}),
    (TransformTable, {"family": "aitken", "size": 3, "step": 2, "scale": 1,
                      "entries": {(0, 0): F(1)}, "notes": {(1, 0): "overflow"}}),
    (Family, {"name": "aitken", "aliases": (), "step": 2, "tables": {"aitken-classic": 1},
              "deps": aitken_deps, "recursion": aitken_step, "leading": aitken_leading,
              "prediction_term": None}),
    (PadeRational, {"field": RAT, "numerator": (F(1),), "denominator": (F(1), F(-1, 2))}),
    (ConvergenceReport, {"kind": "linear", "rho": F(1, 2)}),
    (TermCell, {"m": 2, "family": "aitken", "level": 1, "n": 0, "value": F(1, 8),
                "valid": True, "note": ""}),
    (ResolvedInput, {"label": "builtin:geometric", "series": None,
                     "sequence": ScalarSequence(RAT, (F(1),)), "default_z": F(1, 2)}),
]


@pytest.mark.parametrize("cls, kwargs", KEYWORDS, ids=lambda v: getattr(v, "__name__", ""))
def test_every_record_type_takes_its_fields_by_keyword(cls, kwargs):
    value = cls(**kwargs)
    assert {name: getattr(value, name) for name in kwargs} == kwargs
    assert value == cls(**kwargs)


def test_the_optional_fields_keep_their_defaults():
    assert BigFloatField().digits == 50
    assert PowerSeries(RAT, (F(1),)).tail is None
    assert ScalarSequence(RAT, (F(1),)).limit is None
    assert TermCell(0, "aitken", 0, 0, F(0), True).note == ""
    assert ConvergenceReport("inconclusive").rho is None
    resolved = ResolvedInput("x")
    assert (resolved.series, resolved.sequence, resolved.default_z) == (None, None, None)
