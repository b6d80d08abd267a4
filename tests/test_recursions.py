"""The triangle builder's protocol: coefficient injection, dependency checks,
and agreement with a per-cell reference copy of the builder loop."""

from decimal import Decimal
from fractions import Fraction as F
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from seriaccel import _recursions as rec, transforms
from seriaccel._recursions import JetOps, NumericOps, _Build, run_recursion
from seriaccel.field import BigFloatField, BreakdownError, Float64Field, RationalField
from seriaccel.jets import Jet
from seriaccel.transforms import (
    FAMILIES,
    ScalarSequence,
    aitken_table,
    epsilon_cross_table,
    epsilon_table,
    iterated_theta_table,
    theta_table,
)

RAT = RationalField()
BF = BigFloatField()
F64 = Float64Field()


@pytest.mark.parametrize("name", list(FAMILIES))
def test_coefficients_are_injected_only_into_cells_that_run(name):
    family = FAMILIES[name]
    step, levels = family.step, 3
    top = step * levels + 2
    broken = (0, 1)  # the step into cell (1, 1) breaks down
    requested, ran = [], []

    def coeff(i):
        requested.append(i)
        return F(i)

    def recursion(ops, g, k, n, cur, prev):
        ran.append((k, n, g))
        if (k, n) == broken:
            raise BreakdownError("chosen breakdown")
        return cur[n] + sum(g)

    table = run_recursion(family, NumericOps(RAT, RAT.zero), levels, top, [RAT.zero] * (top + 1),
                          coeff, recursion=recursion)

    for k, n, g in ran:
        assert g == [F(n + step * k + i) for i in range(1, step + 1)], (k, n)
    assert requested == [n + step * k + i for k, n, _ in ran for i in range(1, step + 1)]
    ran_cells = {(k, n) for k, n, _ in ran}
    skipped = 0
    for k in range(levels):
        for n in range(top - step * (k + 1) + 1):
            deps_hold = all(table.valid[(dep_k, n + offset)] for dep_k, offset in family.deps(k))
            assert ((k, n) in ran_cells) == deps_hold, (k, n)
            skipped += not deps_hold
    assert skipped > 0


# ---------------------------------------------------------------------------
# dependency contract


# The family reads as they were written per cell, ``deps(k, n) -> [(level, n)]``.
PER_CELL_DEPS = {
    "aitken": lambda k, n: [(k, n), (k, n + 1), (k, n + 2)],
    "epsilon": lambda k, n: ([(k, n), (k, n + 1), (k, n + 2)] if k == 0
                             else [(k, n), (k, n + 1), (k, n + 2), (k - 1, n + 2)]),
    "theta-iterated": lambda k, n: [(k, n), (k, n + 1), (k, n + 2), (k, n + 3)],
}


class _RecordingBuild(_Build):
    """A build that keeps its ``deps`` and ``levels`` in ``seen``."""

    seen = []

    def run(self, recursion, coeff=None):
        self.seen.append((self.deps, self.levels))
        return super().run(recursion, coeff)


def _textbook_deps():
    """``(name, deps, levels)`` of every textbook table builder, read from its build."""
    seq = ScalarSequence(RAT, tuple(F(1, i + 1) for i in range(10)))
    builders = {
        "aitken": lambda: aitken_table(seq),
        "epsilon": lambda: epsilon_table(seq),
        "epsilon-cross": lambda: epsilon_cross_table(seq),
        "theta": lambda: theta_table(seq),
        "theta-modified": lambda: theta_table(seq, modified=True),
        "theta-iterated": lambda: iterated_theta_table(seq),
    }
    out = []
    for name, build in builders.items():
        _RecordingBuild.seen = []
        with mock.patch.object(transforms, "_Build", _RecordingBuild), \
                mock.patch.object(rec, "_Build", _RecordingBuild):
            build()
        (deps, levels), = _RecordingBuild.seen
        out.append((name, deps, levels))
    return out


def _assert_live_reads(deps, levels):
    for k in range(levels):
        reads = deps(k)
        assert reads, k
        for dep_k, offset in reads:
            assert dep_k in (k, k - 1), (k, dep_k)
            assert offset >= 0, (k, offset)
            assert not (k == 0 and dep_k == k - 1), k


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_reads_are_live_rows_at_nonnegative_offsets(name):
    _assert_live_reads(FAMILIES[name].deps, 12)


def test_textbook_table_reads_are_live_rows_at_nonnegative_offsets():
    found = _textbook_deps()
    assert len(found) == 6
    for name, deps, levels in found:
        assert levels > 1, name
        _assert_live_reads(deps, levels)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_reads_expand_to_the_per_cell_reads(name):
    deps = FAMILIES[name].deps
    for k in range(8):
        for n in range(10):
            assert [(dep_k, n + offset) for dep_k, offset in deps(k)] == PER_CELL_DEPS[name](k, n)


# ---------------------------------------------------------------------------
# the builder against a per-cell reference


class _PerCellBuild(_Build):
    """The builder loop with a fresh dependency list for every cell and each
    inherited-failure note formatted from a ``(key, n)`` tuple."""

    def run(self, recursion, coeff=None):
        ops, step, scale = self.ops, self.step, self.scale
        entries, failures = self.entries, self.failures
        prev, cur = None, {n: value for (_, n), value in entries.items()}
        with ops.context():
            for k in range(self.levels):
                row = {}
                for n in range(self.width(k + 1) + 1):
                    cell_deps = [(dep_k, n + offset) for dep_k, offset in self.deps(k)]
                    for dep_k, dep_n in cell_deps:
                        if dep_n not in (cur if dep_k == k else prev):
                            note = f"depends on invalid entry {(scale * dep_k, dep_n)}"
                            break
                    else:
                        try:
                            g = None if coeff is None else [
                                ops.const(coeff(n + step * k + i)) for i in range(1, step + 1)]
                            value = recursion(ops, g, k, n, cur, prev)
                        except BreakdownError as exc:
                            note = str(exc)
                        else:
                            note = None if ops.finite(value) else "overflow"
                    if note is None:
                        entries[(scale * (k + 1), n)] = row[n] = value
                    else:
                        failures[(scale * (k + 1), n)] = note
                prev, cur = cur, row


def _same_as_per_cell(build):
    """``build()`` and the same call over :class:`_PerCellBuild` give the same
    entries, in the same order with the same reprs, and the same notes."""
    got = build()
    with mock.patch.object(transforms, "_Build", _PerCellBuild), \
            mock.patch.object(rec, "_Build", _PerCellBuild):
        want = build()
    assert repr(got.entries) == repr(want.entries)
    assert list(got.notes.items()) == list(want.notes.items())
    return got


# Small pools, so that draws repeat values (zero differences and breakdowns),
# hit zeros, and in the float modes overflow or start from non-finite seeds.
POOLS = {
    "rational": (RAT, [F(0), F(1), F(-1), F(2), F(1, 2), F(3)]),
    "bigfloat": (BF, [Decimal(t) for t in ("0", "1", "-1", "2", "0.5", "1e999990", "Infinity")]),
    "f64": (F64, [0.0, 1.0, -1.0, 2.0, 0.5, 1e308, -1e308, float("inf")]),
}


@st.composite
def _draws(draw):
    mode = draw(st.sampled_from(sorted(POOLS)))
    field, pool = POOLS[mode]
    values = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=10))
    z = draw(st.sampled_from(pool[:5]))
    return field, values, z


def _term_builds(field, values, z):
    """Transformation terms, remainder terms and leading parts of every family."""
    top = len(values) - 1
    zeros = [field.zero] * (top + 1)
    with field.arithmetic():
        negated = [-v for v in values]
    coeff = values.__getitem__
    numeric = NumericOps(field, z)
    jets = JetOps(field, 2)
    builds = []
    for family in FAMILIES.values():
        levels = top // family.step
        builds += [
            partial(run_recursion, family, numeric, levels, top, zeros, coeff),
            partial(run_recursion, family, numeric, levels, top, values),
            partial(run_recursion, family, numeric, levels, top, zeros, coeff,
                    recursion=family.leading),
            partial(run_recursion, family, numeric, levels, top, negated,
                    recursion=family.leading),
            partial(run_recursion, family, jets, levels, top, [jets.zero] * (top + 1), coeff),
        ]
    return builds


def _textbook_builds(field, values):
    """Every textbook table, in every scheme."""
    seq = ScalarSequence(field, tuple(values))
    return [
        *(partial(aitken_table, seq, scheme) for scheme in ("classic", "rearranged")),
        *(partial(iterated_theta_table, seq, scheme) for scheme in ("classic", "rearranged")),
        *(partial(epsilon_cross_table, seq, form) for form in ("plain", "rearranged")),
        partial(epsilon_table, seq),
        partial(theta_table, seq),
        partial(theta_table, seq, modified=True),
    ]


@settings(max_examples=60, deadline=None)
@given(_draws())
@example((F64, [1.0, 1.0, 2.0, 2.0, 1e308, 0.0, 3.0, -1e308, float("inf"), 1.0], 0.5))
@example((RAT, [F(1), F(1), F(1), F(0), F(2), F(2), F(3), F(0), F(1)], F(1)))
def test_builder_matches_the_per_cell_reference(draw):
    field, values, z = draw
    for build in _term_builds(field, values, z) + _textbook_builds(field, values):
        _same_as_per_cell(build)


@pytest.mark.parametrize("mode", sorted(POOLS))
def test_per_cell_reference_sees_inherited_failures(mode):
    field, pool = POOLS[mode]
    values = [pool[1], pool[1], pool[3], pool[3], pool[4], pool[1], pool[2], pool[1], pool[3]]
    inherited = 0
    for build in _term_builds(field, values, pool[4]) + _textbook_builds(field, values):
        notes = _same_as_per_cell(build).notes.values()
        inherited += sum(note.startswith("depends on invalid entry (") for note in notes)
    assert inherited > 0


def test_jet_constants_of_the_carrier_are_jet_constants():
    for field, pool in POOLS.values():
        ops = JetOps(field, 3)
        for value in pool:
            assert ops.const(value) == Jet.constant(field, value, 3)
        assert ops.const(2) == Jet.constant(field, 2, 3)
    assert JetOps(RAT, 0).const(F(1, 3)).coeffs == (F(1, 3),)
