"""Output-identity guard for the library: seeded inputs, one digest per group.

Every group runs one kind of library output over the same inputs in one field
mode and is pinned to the sha256 of ``repr`` of what it returned: table
entries, validity flags, failure notes and the order of every dict.  Errors
count as outputs too (their type and message).  The inputs are the builtin
series, a series whose coefficient 2 is zero, a tail-less series and
``RANDOM_SERIES`` seeded random series; the random bigfloat inputs carry 70
digits (wider than the 50-digit working precision) and some random f64 inputs
sit near 1e300, so rounding of wide inputs and overflow are pinned too.  A
refactor that is meant to change no value must keep every digest.  The
library example of the README runs here too.
"""

import contextlib
import hashlib
import io
import random
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from seriaccel.field import BigFloatField, Float64Field, RationalField
from seriaccel.jets import PowerSeries
from seriaccel.prediction import leading_predictions, transformation_terms
from seriaccel.remainders import (
    evaluate_error_terms,
    evaluate_transformation_terms,
    leading_remainders,
    remainder_jets,
)
from seriaccel.series_library import builtin_series
from seriaccel.transforms import (
    FAMILIES,
    ScalarSequence,
    aitken_table,
    epsilon_cross_table,
    epsilon_table,
    iterated_theta_table,
    theta_table,
)

FIELDS = {"rational": RationalField(), "bigfloat": BigFloatField(50), "f64": Float64Field()}
RANDOM_SERIES = 40
STORED = 8  # coefficients 0..7 are stored; the tail rule supplies the rest

TABLES = (
    ("aitken-classic", lambda seq: aitken_table(seq, "classic")),
    ("aitken-rearranged", lambda seq: aitken_table(seq, "rearranged")),
    ("epsilon", epsilon_table),
    ("epsilon-cross-plain", lambda seq: epsilon_cross_table(seq, "plain")),
    ("epsilon-cross-rearranged", lambda seq: epsilon_cross_table(seq, "rearranged")),
    ("theta", theta_table),
    ("theta-modified", lambda seq: theta_table(seq, modified=True)),
    ("theta-iterated-classic", lambda seq: iterated_theta_table(seq, "classic")),
    ("theta-iterated-rearranged", lambda seq: iterated_theta_table(seq, "rearranged")),
)


def _random_value(fld, rng):
    if isinstance(fld, RationalField):
        return Fraction(rng.randint(-20, 20), rng.randint(1, 6))
    if isinstance(fld, BigFloatField):
        # Built from text, which is exact: ``scaleb`` would round to 28 digits.
        return Decimal(f"{rng.randint(-10 ** 70, 10 ** 70)}E{rng.randint(-72, -68)}")
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.choice((0, 0, 0, 299, 300))


def _random_series(fld, seed):
    memo = {}

    def tail(i):
        if i not in memo:
            memo[i] = _random_value(fld, random.Random(seed * 7919 + i))
        return memo[i]

    return f"random-{seed}", PowerSeries(fld, tuple(tail(i) for i in range(STORED)), tail=tail)


def _series(fld):
    """(label, series) of every input series in ``fld``."""
    def log(i):
        return fld.from_fraction(Fraction((-1) ** i, i + 1))

    out = [(name, builtin_series(name, params, STORED, fld).series)
           for name, params in (("log1p-over-z", ()), ("zeta", (fld.from_int(2),)),
                                ("geometric", ()))]
    out.append(("gamma2-zero", PowerSeries(fld, tuple(fld.zero if i == 2 else log(i)
                                                      for i in range(STORED)),
                                           tail=lambda i: fld.zero if i == 2 else log(i))))
    out.append(("tail-less", PowerSeries(fld, tuple(log(i) for i in range(STORED)))))
    out += [_random_series(fld, seed) for seed in range(RANDOM_SERIES)]
    return out


def _sequences(fld):
    """(label, sequence) of every textbook-table input in ``fld``."""
    out = []
    for label, series in _series(fld)[:8]:
        for z in (Fraction(1, 2), Fraction(-9, 10), Fraction(3)):
            z_f = fld.from_fraction(z)
            out.append((f"{label}@{z}",
                        ScalarSequence(fld, series.partial_sums(z_f, STORED))))
    model = builtin_series("model", (fld.from_int(1), fld.from_int(1), fld.from_fraction(Fraction(1, 2))),
                           STORED, fld)
    out.append(("model", model.sequence))
    for seed in range(RANDOM_SERIES):
        rng = random.Random(seed)
        values = [_random_value(fld, rng) for _ in range(STORED)]
        if seed % 5 == 0:
            values[3:6] = [values[3]] * 3  # a run of equal values
        out.append((f"random-{seed}", ScalarSequence(fld, tuple(values))))
    return out


def _call(lines, label, fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # an error is an output too
        lines.append(f"{label} {type(exc).__name__}: {exc}")
        return None
    return result


def _tables(fld):
    lines = []
    for label, seq in _sequences(fld):
        for name, build in TABLES:
            table = _call(lines, f"{label} {name}", build, seq)
            if table is not None:
                lines.append(repr((label, name, table.family, table.size, list(table.entries.items()),
                                   list(table.valid.items()), list(table.notes.items()))))
    return lines


def _jet_table(table, order):
    """The tuple the digests hash, rebuilt from a term table: per entry its
    family, level, start, first predicted order and coefficients."""
    step = FAMILIES[table.family].step
    return (table.family, order,
            [((k, n), table.family, k, n, n + step * k + 1, jet.coeffs)
             for (k, n), jet in table.entries.items()],
            list(table.notes.items()))


def _term_cells(tables):
    """The text the digests hash, rebuilt from numeric term tables: ``repr``
    of ``(family, cells)`` pairs, a cell per ``m`` printed as the record
    ``TermCell(m, family, level, n, value, valid, note)`` the evaluators
    returned before they returned tables."""
    def cell(family, table, m):
        k, n = key = divmod(m, table.step)
        return (f"TermCell(m={m}, family={family!r}, level={k}, n={n}, "
                f"value={table.entries.get(key)!r}, valid={key in table.entries}, "
                f"note={table.notes.get(key, '')!r})")

    return "[" + ", ".join(
        f"({family!r}, [{', '.join(cell(family, table, m) for m in range(table.size))}])"
        for family, table in tables.items()) + "]"


def _leading_table(table, fld):
    """The tuple the digests hash, rebuilt from a leading table: with a
    nonzero flag per entry."""
    nonzero = [(key, not fld.is_zero(value)) for key, value in table.entries.items()]
    return (table.family, list(table.entries.items()), list(table.valid.items()), nonzero,
            list(table.notes.items()))


def _transformation_terms(fld):
    lines = []
    for label, series in _series(fld):
        for family in FAMILIES:
            levels = (STORED - 1) // FAMILIES[family].step
            table = _call(lines, f"{label} {family}", transformation_terms, series, family,
                          levels, order=2)
            if table is not None:
                lines.append(repr((label, _jet_table(table, 2))))
    return lines


def _remainder_jets(fld):
    lines = []
    for label, series in _series(fld):
        for family in FAMILIES:
            table = _call(lines, f"{label} {family}", remainder_jets, series, family, 2,
                          order=2, n_max=2)
            if table is not None:
                lines.append(repr((label, _jet_table(table, 2))))
    return lines


def _leading(fld):
    lines = []
    for label, series in _series(fld):
        for family in FAMILIES:
            step = FAMILIES[family].step
            for name, fn, levels in (
                ("prediction", leading_predictions, (STORED - 1) // step),
                ("remainder", leading_remainders, (STORED - 2) // step),
            ):
                table = _call(lines, f"{label} {family} {name}", fn, series, family, levels)
                if table is not None:
                    lines.append(repr((label, name, _leading_table(table, fld))))
    return lines


def _evaluate(fld):
    lines = []
    for label, series in _series(fld):
        for name, fn, points in (
            ("error", evaluate_error_terms, (Fraction(1, 2), Fraction(-1, 2), Fraction(1))),
            ("transformation", evaluate_transformation_terms,
             (Fraction(1, 2), Fraction(-3, 4), Fraction(1), Fraction(5))),
        ):
            for z in points:
                tables = _call(lines, f"{label} {name} {z}", fn, series, fld.from_fraction(z),
                               STORED - 1)
                if tables is not None:
                    lines.append(f"({label!r}, {name!r}, {str(z)!r}, {_term_cells(tables)})")
    return lines


GROUPS = {
    "tables": _tables,
    "transformation_terms": _transformation_terms,
    "remainder_jets": _remainder_jets,
    "leading": _leading,
    "evaluate": _evaluate,
}

# sha256 of the newline-joined lines of each (group, mode)
EXPECTED = {
    ('tables', 'rational'): "ce1aed9b663b2bc1e376f8c28890e6ccc775175d3fc0a13567a2c468cdd13b4f",
    ('tables', 'bigfloat'): "23f44f7b42c69bff77a5b3be12dd1d5b5c195c9284c6b15ec557a529448fde57",
    ('tables', 'f64'): "b0c048d9be4442a56e5f0addda835aba364cae364a779227cd928e44cf3df355",
    ('transformation_terms', 'rational'): "c3428a3d42a41125364b24c924d039ef5e8f8873ddec631d60eecd6137ce0114",
    ('transformation_terms', 'bigfloat'): "db236484c506c6eee9c343b37c31f013345650ffc494ec94e6441af723462652",
    ('transformation_terms', 'f64'): "8fb93789e76caec8cfd351ddabc31c36cf58c2dd6daf704ea9c6e5ac72fc9d8a",
    ('remainder_jets', 'rational'): "47100df8a1462c0e234962530aa0b239c740b9abc143e23201aca48725347271",
    ('remainder_jets', 'bigfloat'): "58328d736c70cdf433e39f34a0f908685723b32783824fd9afd49d1927318ebd",
    ('remainder_jets', 'f64'): "73c3a31d1473d8711d957c4c57f56539e7286be836fefdaa416b377fd1f56f6d",
    ('leading', 'rational'): "3c2001a84beb313afd15bc37ed103f2087fa62af455386e173d0c8459ac5cf5d",
    ('leading', 'bigfloat'): "449ff3da8c17ef5cbd0294772d6618c6b6f071d183ff3b61eaa85cf00455ccb7",
    ('leading', 'f64'): "999f828cf47460f0409935ee429cad277d7ab35fabe5ed132560134f1487b200",
    ('evaluate', 'rational'): "15460949bf3d9532a668fe8e00c549113f00452a2936f93dfb5b90ca2ac01388",
    ('evaluate', 'bigfloat'): "57fd5d277d66c1484b54ab29e79769da22d599d22d843c78a003e93facb945f6",
    ('evaluate', 'f64'): "f854ffc322cc4c333695dc2bb1dc39a8d7dea131b69902f7755c41d7d6b7d57d",
}


def digest(group, mode):
    lines = GROUPS[group](FIELDS[mode])
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("group, mode", sorted(EXPECTED))
def test_library_output_is_unchanged(group, mode):
    assert digest(group, mode) == EXPECTED[(group, mode)]


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    prediction, selected = out.getvalue().splitlines()
    assert prediction.startswith("(13, Fraction(")
    assert selected.startswith("(8, 0, Fraction(")
