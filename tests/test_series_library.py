from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction as F
from functools import partial

import _reference
import pytest

from seriaccel.field import BigFloatField, Float64Field, ParseError, RationalField
from seriaccel.series_library import builtin_series, load_coefficient_file, resolve_series_spec

RAT = RationalField()


def test_log_series_coefficients_and_tail():
    resolved = builtin_series("log1p-over-z", (), 4, RAT)
    series = resolved.series
    assert series.coeffs == (F(1), F(-1, 2), F(1, 3), F(-1, 4))
    assert series.coefficient(9) == F(-1, 10)
    # first tail coefficient past n = 0 gives the base remainder constant +1/2
    assert -series.coefficient(1) == F(1, 2)


def test_model_sequence_entries():
    resolved = builtin_series("model", (F(1), F(1), F(1, 2)), 3, RAT)
    assert resolved.sequence.entries == (F(2), F(3, 2), F(5, 4))
    assert resolved.sequence.limit == F(1)
    with pytest.raises(ValueError):
        resolved.require_series()


def test_zeta_exact_mode_integer_exponent():
    resolved = builtin_series("zeta", (F(2),), 3, RAT)
    assert resolved.series.coeffs == (F(1), F(1, 4), F(1, 9))
    assert resolved.default_z == F(1)
    with pytest.raises(ValueError):
        builtin_series("zeta", (F(11, 10),), 3, RAT)
    with pytest.raises(ValueError):
        builtin_series("zeta", (F(1, 2),), 3, RAT)


def test_zeta_float_modes():
    f64 = Float64Field()
    resolved = builtin_series("zeta", (1.1,), 2, f64)
    assert resolved.series.coeffs[1] == pytest.approx(2.0 ** -1.1)
    bf = BigFloatField(50)
    resolved = builtin_series("zeta", (bf.parse("1.1"),), 2, bf)
    assert str(resolved.series.coeffs[1]).startswith("0.46651")


@pytest.mark.parametrize("digits", [50, 64])
def test_bigfloat_zeta_coefficients_are_those_of_a_local_context(digits):
    # The last exponent carries more digits than the ambient default context
    # keeps, so a negation outside the field's context would round it.  A
    # power to a non-integer exponent costs about 100 times more, hence the
    # shorter runs.
    fld = BigFloatField(digits)
    for text, count in (("2", 3000), ("1.1", 200),
                        ("3.14159265358979323846264338327950288419716939937510582", 200)):
        s = fld.parse(text)
        got = builtin_series("zeta", (s,), count, fld).series.coeffs
        with localcontext(Context(prec=digits, rounding=ROUND_HALF_EVEN)) as ctx:
            want = [ctx.power(Decimal(i + 1), -s) for i in range(count)]
        assert list(map(str, got)) == list(map(str, want)), text


@pytest.mark.parametrize("field", [RAT, Float64Field(), BigFloatField(50), BigFloatField(60),
                                   BigFloatField(120)], ids=repr)
def test_each_builtin_tail_rule_is_the_per_coefficient_rule(field):
    # Each tail rule is resolved once per series; it gives what the rule that
    # picks the mode and forms ``-s`` on every call gives, value and repr.
    rules = [("log1p-over-z", (), partial(_reference.log_coefficient, field)),
             ("geometric", (), lambda i: field.one)]
    exponents = ["2"] if field.mode == "rational" else ["2", "3/2"]
    for text in exponents:
        s = field.parse(text)
        rules.append(("zeta", (s,), partial(_reference.zeta_coefficient, field, s)))
    for name, params, reference in rules:
        tail = builtin_series(name, params, 1, field).series.tail
        for i in [*range(300), 10 ** 6 + 1, 10 ** 12 + 7]:
            got, want = tail(i), reference(i)
            assert type(got) is type(want) and got == want and repr(got) == repr(want), (name, i)


def test_geometric_builtin():
    resolved = builtin_series("geometric", (F(1, 2),), 3, RAT)
    assert resolved.series.coeffs == (F(1), F(1), F(1))
    assert resolved.default_z == F(1, 2)
    assert resolved.series.coefficient(40) == F(1)


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_series("log", (), 3, RAT)


@pytest.mark.parametrize("spec, count, message", [
    ("zeta", 3, "zeta needs exactly one parameter: the exponent"),
    ("zeta(2,3)", 3, "zeta needs exactly one parameter: the exponent"),
    ("geometric(1/2,1/3)", 3, "geometric takes at most one parameter: the evaluation point"),
    ("model(1,1)", 3, "model needs three parameters: limit, amplitude, ratio"),
    ("log1p-over-z(", 3, "malformed builtin spec 'log1p-over-z('"),
    ("log1p-over-z", 0, "count must be >= 1"),
])
def test_builtin_spec_errors_name_the_rule(spec, count, message):
    with pytest.raises(ValueError) as err:
        resolve_series_spec(f"builtin:{spec}", RAT, count)
    assert str(err.value) == message


def test_geometric_without_a_point_has_no_default_z():
    resolved = builtin_series("geometric", (), 2, BigFloatField(50))
    assert resolved.label == "builtin:geometric"
    assert resolved.default_z is None
    assert resolved.series.coefficient(7) == resolved.series.coeffs[0] == BigFloatField(50).one


def test_spec_parsing_with_params():
    resolved = resolve_series_spec("builtin:model(1,1,1/2)", RAT, 3)
    assert resolved.sequence.entries == (F(2), F(3, 2), F(5, 4))
    resolved = resolve_series_spec("builtin:log1p-over-z", RAT, 2)
    assert resolved.series.coeffs == (F(1), F(-1, 2))
    with pytest.raises(ValueError):
        resolve_series_spec("builtin:log1p-over-z(3)", RAT, 2)


def test_coefficient_file_round_trip(tmp_path):
    path = tmp_path / "coeffs.txt"
    path.write_text("# mode: rational\n# a comment\n1\n-1/2\n0.25\n\n")
    series = load_coefficient_file(path, RAT)
    assert series.field.mode == "rational"
    assert series.coeffs == (F(1), F(-1, 2), F(1, 4))


def test_coefficient_file_mode_override(tmp_path):
    # A "# mode:" line is a comment: the caller's field reads the coefficients.
    path = tmp_path / "coeffs.txt"
    path.write_text("# mode: f64\n1\n0.5\n")
    series = load_coefficient_file(path, RAT)
    assert series.field.mode == "rational"
    assert series.coeffs == (F(1), F(1, 2))
    series = load_coefficient_file(path, Float64Field())
    assert series.field.mode == "f64"
    assert series.coeffs == (1.0, 0.5)


def test_coefficient_file_empty_is_an_error(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# mode: rational\n")
    with pytest.raises(ParseError):
        load_coefficient_file(path, RAT)
