"""Value behaviour of the package's record types: equality and hashing,
immutability, ``repr`` and keyword construction."""

from fractions import Fraction as F

import pytest

from seriaccel._recursions import TransformTable, aitken_deps, aitken_leading, aitken_step
from seriaccel.field import BigFloatField, Float64Field, RationalField
from seriaccel.jets import Jet, PowerSeries
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
    (TransformTable("aitken", 1, 2, 1, {}, {}), "notes"),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_the_value_types_are_immutable(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)


def test_report_rows_are_plain_tuples():
    # A report row is a plain tuple in the order of ``report.COLUMNS``, read
    # from a term table's cell for ``m`` at ``divmod(m, step)``.
    tables = {"epsilon": TransformTable("epsilon", 3, 2, 1, {(0, 0): F(1, 2), (0, 1): F(1, 3)},
                                        {(1, 0): "overflow"})}
    assert repr(list(term_rows(tables, str))) == (
        "[(0, 'epsilon', 0, 0, '1/2', True), (1, 'epsilon', 0, 1, '1/3', True), "
        "(2, 'epsilon', 1, 0, '', False)]")


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
    assert ConvergenceReport("inconclusive").rho is None
    resolved = ResolvedInput("x")
    assert (resolved.series, resolved.sequence, resolved.default_z) == (None, None, None)
