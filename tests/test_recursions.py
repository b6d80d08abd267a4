"""The triangle builder's protocol: coefficient injection, dependency checks,
agreement with a per-cell reference copy of the builder loop, and the
carriers: the epsilon steps' shared reciprocals against the per-cell formula,
and the product with z."""

import tracemalloc
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction as F
from functools import partial
from unittest import mock

import _reference
import pytest
from hypothesis import example, given, settings, strategies as st

from seriaccel import _recursions as rec, transforms
from seriaccel._recursions import (
    JetOps,
    NumericOps,
    SelectionError,
    TransformTable,
    UnitOps,
    _Build,
    _DeadLevel,
    run_recursion,
)
from seriaccel.field import BigFloatField, BreakdownError, Field, Float64Field, RationalField
from seriaccel.jets import Jet
from seriaccel.remainders import _remainder_bases
from seriaccel.series_library import builtin_series, resolve_series_spec
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
    """A build that keeps itself in ``seen``."""

    seen = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen.append(self)


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
        (recorded,) = _RecordingBuild.seen
        out.append((name, recorded.deps, recorded.levels))
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
    inherited-failure note formatted from a ``(key, n)`` tuple, filing every
    cell in flat dicts of its own, keyed ``(key, n)``, from the seeds on."""

    def run(self, recursion, coeff=None):
        ops, step, scale = self.ops, self.step, self.scale
        entries = self.entries = dict(self.entries)
        failures = self.failures = dict(self.failures)
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


def _levels_after_an_empty_level(table) -> int:
    """How many levels of ``table`` come after its first level with no valid cell."""
    levels = sorted({k for k, _ in [*table.entries, *table.notes]})
    valid = {k for k, _ in table.entries}
    empty = [i for i, k in enumerate(levels) if k not in valid]
    return len(levels) - 1 - empty[0] if empty else 0


# Inputs under which, in every build of each field, a level has no valid cell
# and at least two levels follow it, so that a later level's first read is of
# an empty row and the builder writes that whole level at once: constant runs
# at z = 1, whose first differences are exactly zero, and f64 ``inf`` seeds.
# Thirteen inputs give the term tables of every family four levels or more.
WHOLE_ROW_DRAWS = [
    (RAT, [F(1)] * 13, F(1)),
    (BF, [Decimal(1)] * 13, Decimal(1)),
    (F64, [1.0] * 13, 1.0),
    (F64, [1.0, 2.0, 0.5, float("inf"), 1.0, -1.0, float("inf"), 2.0, 0.5, float("inf"), 1.0, 2.0,
           -1.0], 0.5),
]


@settings(max_examples=60, deadline=None)
@given(_draws())
@example((F64, [1.0, 1.0, 2.0, 2.0, 1e308, 0.0, 3.0, -1e308, float("inf"), 1.0], 0.5))
@example((RAT, [F(1), F(1), F(1), F(0), F(2), F(2), F(3), F(0), F(1)], F(1)))
@example(WHOLE_ROW_DRAWS[0])
@example(WHOLE_ROW_DRAWS[1])
@example(WHOLE_ROW_DRAWS[2])
@example(WHOLE_ROW_DRAWS[3])
def test_builder_matches_the_per_cell_reference(draw):
    field, values, z = draw
    for build in _term_builds(field, values, z) + _textbook_builds(field, values):
        _same_as_per_cell(build)


@pytest.mark.parametrize("draw", WHOLE_ROW_DRAWS, ids=lambda d: d[0].mode)
def test_whole_row_draws_empty_a_level_of_every_build(draw):
    field, values, z = draw
    builds = _term_builds(field, values, z) + _textbook_builds(field, values)
    assert len(builds) == 24
    for build in builds:
        assert _levels_after_an_empty_level(build()) >= 2, build


@pytest.mark.parametrize("mode", sorted(POOLS))
def test_per_cell_reference_sees_inherited_failures(mode):
    field, pool = POOLS[mode]
    values = [pool[1], pool[1], pool[3], pool[3], pool[4], pool[1], pool[2], pool[1], pool[3]]
    inherited = after_empty = 0
    for build in _term_builds(field, values, pool[4]) + _textbook_builds(field, values):
        table = _same_as_per_cell(build)
        inherited += sum(note.startswith("depends on invalid entry (") for note in table.notes.values())
        after_empty += _levels_after_an_empty_level(table)
    assert inherited > 0
    assert after_empty > 0


# ---------------------------------------------------------------------------
# full rows: the builder checks no read of a row whose cells are all valid


def _sums(field, count):
    """The partial sums of ``sum (-1/2)**i / (i + 1)`` in ``field``: distinct
    values with no zero difference, so that every build has full levels."""
    return [field.from_fraction(sum(F(-1, 2) ** i / (i + 1) for i in range(n + 1)))
            for n in range(count)]


def _full_levels(table) -> int:
    """How many levels past the seeds of ``table`` have every cell valid."""
    levels = {k for k, _ in table.entries}
    return len(levels - {k for k, _ in table.notes} - {0})


@st.composite
def _full_row_draws(draw):
    """:func:`_sums` with up to two entries replaced from the pool, so that
    full levels come before, after and between levels with failed cells."""
    mode = draw(st.sampled_from(sorted(POOLS)))
    field, pool = POOLS[mode]
    values = _sums(field, draw(st.integers(4, 12)))
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(pool))
    return field, values, draw(st.sampled_from(pool[:5]))


@settings(max_examples=60, deadline=None)
@given(_full_row_draws())
@example((F64, [*_sums(F64, 9), 1e308], 0.5))
@example((BF, [*_sums(BF, 6), Decimal("1e999990"), *_sums(BF, 4)], Decimal(2)))
@example((RAT, [F(0), *_sums(RAT, 8)], F(1)))
def test_builds_with_full_rows_match_the_per_cell_reference(draw):
    field, values, z = draw
    for build in _term_builds(field, values, z) + _textbook_builds(field, values):
        _same_as_per_cell(build)


@pytest.mark.parametrize("mode", sorted(POOLS))
def test_the_sums_give_every_build_full_levels(mode):
    field, pool = POOLS[mode]
    values = _sums(field, 12)
    for build in _term_builds(field, values, pool[4]) + _textbook_builds(field, values):
        assert _full_levels(_same_as_per_cell(build)) >= 1, build


def test_a_full_row_drops_only_its_own_reads():
    # Each level of the package's tables reads every cell of the row before
    # it, so no full row follows a row with a failed cell.  Here level k + 1
    # reads (k, n) and, as epsilon does, (k - 1, n + 2); row k reads only
    # (k - 1, n) and misses the last cell of row k - 1.  Row 1 is full while
    # row 0 holds the overflowed seed, which cell (2, 3) still reads.
    def deps(k):
        return [(k, 0), (k - 1, 2)] if k else [(k, 0)]

    def step(ops, g, k, n, cur, prev):
        return cur[n] if k == 0 else cur[n] + prev[n + 2]

    def build():  # ``rec._Build``, which ``_same_as_per_cell`` replaces
        seed = [1.0, 2.0, 3.0, 4.0, 5.0, float("inf")]
        build = rec._Build(UnitOps(F64), 3, lambda k: 5 - k, deps, seed, 1)
        return build.finish(step, None, "carry")

    table = _same_as_per_cell(build)
    assert [n for k, n in table.entries if k == 1] == [0, 1, 2, 3, 4]
    assert table.notes[(2, 3)] == "depends on invalid entry (0, 5)"
    assert table.entries[(2, 2)] == 3.0 + 5.0


# ---------------------------------------------------------------------------
# the store: each cell lives once, in its level, and a table reads through views


def _dead_heavy_table():
    """The f64 epsilon table of the ``log1p-over-z`` partial sums at z = -9/10
    over 120 terms, whose columns past 12 have no valid cell from n = 92 on.
    (Over 60 terms every cell is valid.)"""
    series = builtin_series("log1p-over-z", (), 120, F64).series
    sums = series.partial_sums(F64.from_fraction(F(-9, 10)), 120)
    return partial(epsilon_table, ScalarSequence(F64, sums))


def test_a_built_table_reads_its_levels_through_read_only_views():
    build = _dead_heavy_table()
    table = _same_as_per_cell(build)
    with mock.patch.object(transforms, "_Build", _PerCellBuild), \
            mock.patch.object(rec, "_Build", _PerCellBuild):
        flat = build()
    assert type(flat.entries) is dict and type(flat.notes) is dict
    assert _levels_after_an_empty_level(table) > 10
    for view, want in ((table.entries, flat.entries), (table.notes, flat.notes)):
        key = next(iter(want))
        with pytest.raises(TypeError):
            view[key] = want[key]
        assert list(view.items()) == list(want.items())
        assert list(view) == list(want) and len(view) == len(want)
        assert view == want and want == view and repr(view) == repr(want)
        assert all(view[key] == value and view.get(key) == value and key in view
                   for key, value in want.items())
    # ``valid``, what the benchmark counts, reads the views as it reads the flat dicts.
    valid = {key: key in flat.entries for key in sorted([*flat.entries, *flat.notes])}
    assert table.valid == valid and list(table.valid) == list(valid)


def test_a_view_rejects_a_missing_or_malformed_key():
    table = theta_table(ScalarSequence(RAT, tuple(F(1, i + 1) for i in range(9))))
    entries = table.entries
    assert (2, 0) in entries and entries.get((2, 0)) is not None
    for key in [(-2, 0), (0, -1), (0, 9), (12, 0), (2,), (2, 0, 0), "k", 2, None, (2, [0]),
                (0.5, 0)]:
        assert key not in entries and entries.get(key, "absent") == "absent", key
        with pytest.raises(KeyError) as caught:
            entries[key]
        assert caught.value.args == (key,), key
    assert entries != {} and {**entries} == dict(entries.items())


class _CountedCells(Mapping):
    """A dict of cells that counts its lookups; ``in`` is one too."""

    def __init__(self, cells):
        self.cells, self.reads = cells, 0

    def __getitem__(self, key):
        self.reads += 1
        return self.cells[key]

    def __iter__(self):
        return iter(self.cells)

    def __len__(self):
        return len(self.cells)


def test_an_entry_reads_its_cell_once():
    entries, notes = _CountedCells({(2, 0): 1.5}), _CountedCells({(2, 1): "overflow"})
    table = TransformTable("t", 5, 2, 2, entries, notes)
    assert table.entry(2, 0) == 1.5
    assert (entries.reads, notes.reads) == (1, 0)
    with pytest.raises(SelectionError) as caught:
        table.entry(2, 1)
    assert str(caught.value) == "entry (2, 1) is invalid: overflow"
    assert (caught.value.k, caught.value.n) == (2, 1)
    assert (entries.reads, notes.reads) == (2, 1)
    with pytest.raises(KeyError) as missing:
        table.entry(2, 2)
    assert missing.value.args == ("table has no entry (2, 2)",)
    assert not isinstance(missing.value, SelectionError)


# ---------------------------------------------------------------------------
# dead levels: the notes of a level whose every cell inherits one read's
# failure are one record, which reads as the dict of those notes


def _dead_level_builds():
    """A table build with dead levels in each mode: the f64 epsilon table of
    :func:`_dead_heavy_table`, the bigfloat iterated theta table of the same
    partial sums over 80 terms, and the rational classic Aitken table of
    ``model(1,1,1/2)`` over 8 terms, whose level 2 breaks down everywhere."""
    series = builtin_series("log1p-over-z", (), 80, BF).series
    sums = series.partial_sums(BF.from_fraction(F(-9, 10)), 80)
    model = resolve_series_spec("builtin:model(1,1,1/2)", RAT, count=8).sequence
    return {"f64": _dead_heavy_table(),
            "bigfloat": partial(iterated_theta_table, ScalarSequence(BF, sums)),
            "rational": partial(aitken_table, model)}


@pytest.mark.parametrize("mode", ["f64", "bigfloat", "rational"])
def test_a_dead_level_reads_as_the_per_cell_notes(mode):
    build = _dead_level_builds()[mode]
    levels = []
    table = build(sink=lambda key, width, row, notes: levels.append((key, width, notes)))
    with mock.patch.object(transforms, "_Build", _PerCellBuild), \
            mock.patch.object(rec, "_Build", _PerCellBuild):
        flat = build()
    dead = [(key, width, notes) for key, width, notes in levels if type(notes) is _DeadLevel]
    assert dead
    for key, width, record in dead:
        want = {n: note for (k, n), note in flat.notes.items() if k == key}
        assert all(note.startswith("depends on invalid entry (") for note in want.values())
        assert len(record) == len(want) == width + 1
        assert list(record) == list(want) and list(record.items()) == list(want.items())
        assert all(n in record and record.get(n) == note and record[n] == note
                   for n, note in want.items())
        assert repr(record) == repr(want)
        assert record == want and want == record
        for n in (-1, width + 1):
            assert n not in record and record.get(n) is None
            with pytest.raises(KeyError):
                record[n]
    # The table reads the records through its views as the reference reads its dict.
    assert list(table.notes.items()) == list(flat.notes.items())


def test_a_wide_dead_level_is_filed_in_constant_memory():
    width = 100_000
    build = _Build(UnitOps(F64), 3, lambda k: width - 2 * k, rec.aitken_deps,
                   [float("inf")] * (width + 1), 2)
    tracemalloc.start()
    try:
        build.run(rec.aitken_step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [type(notes) for notes in build._notes[1:]] == [_DeadLevel] * 3
    assert len(build.failures) == sum(width - 2 * k + 1 for k in range(4))
    assert build.failures[(3, width - 6)] == f"depends on invalid entry (2, {width - 6})"
    # The dict of one level's notes would take megabytes.
    assert peak < 16_384, peak


# ---------------------------------------------------------------------------
# the level contract: each level the sink receives owns its row and notes

# The five table builders, each given a sink.
TABLE_BUILDERS = {
    "aitken": aitken_table,
    "epsilon": epsilon_table,
    "epsilon-cross": epsilon_cross_table,
    "theta": theta_table,
    "theta-iterated": iterated_theta_table,
}


def _level_inputs(field, pool):
    """Inputs whose builds have full levels, levels with some failed cells,
    levels with no valid cell and, in f64, a seed that is not finite."""
    repeats = [pool[1], pool[1], pool[3], pool[3], pool[4], pool[1], pool[2], pool[1], pool[3],
               pool[4], pool[2], pool[3], pool[1]]
    inputs = [_sums(field, 13), repeats, [pool[1]] * 13]
    if field is F64:
        inputs.append([*_sums(F64, 6), float("inf"), *_sums(F64, 6)])
    return inputs


def _levels_handed_over(build):
    """``build(sink=...)`` and the ``(key, width, row, notes)`` its sink
    received, each copied as it arrived."""
    levels = []
    table = build(sink=lambda key, width, row, notes: levels.append(
        (key, width, dict(row), dict(notes))))
    return table, levels


def _assert_levels_are_the_table(table, levels):
    entries, notes = {}, {}
    for key, width, row, level_notes in levels:
        assert not row.keys() & level_notes.keys(), key
        assert sorted([*row, *level_notes]) == list(range(width + 1)), key
        assert list(row) == sorted(row) and list(level_notes) == sorted(level_notes), key
        entries.update(((key, n), value) for n, value in row.items())
        notes.update(((key, n), note) for n, note in level_notes.items())
    # No level is empty: the theta table over 3j + 1 inputs ends on column 2j.
    assert all(width >= 0 for _, width, *_ in levels)
    assert [key for key, *_ in levels] == sorted({k for k, _ in [*table.entries, *table.notes]})
    assert repr(entries) == repr(table.entries)
    assert list(notes.items()) == list(table.notes.items())


@pytest.mark.parametrize("mode", sorted(POOLS))
@pytest.mark.parametrize("name", list(TABLE_BUILDERS))
def test_each_level_the_sink_receives_is_the_tables_level(name, mode):
    field, pool = POOLS[mode]
    failed = empty = 0
    for values in _level_inputs(field, pool):
        for size in (11, 12, 13):  # m % 3 == 1, 2 and 0
            seq = ScalarSequence(field, tuple(values[:size]))
            table, levels = _levels_handed_over(partial(TABLE_BUILDERS[name], seq))
            _assert_levels_are_the_table(table, levels)
            failed += any(notes and row for _, _, row, notes in levels)
            empty += any(notes and not row for _, _, row, notes in levels)
    assert failed and empty


def test_each_level_of_a_jet_build_is_the_tables_level():
    field, pool = POOLS["rational"]
    values = _level_inputs(field, pool)[1]
    top = len(values) - 1
    jets = JetOps(field, 2)
    build = partial(run_recursion, EPSILON, jets, top // 2, top, [jets.zero] * (top + 1),
                    values.__getitem__)
    table, levels = _levels_handed_over(build)
    _assert_levels_are_the_table(table, levels)
    assert table.notes and len(levels) == top // 2 + 1


class _Stop(Exception):
    pass


@pytest.mark.parametrize("name", list(TABLE_BUILDERS))
def test_a_sink_that_raises_leaves_the_levels_up_to_its_own_stored(name):
    field, pool = POOLS["f64"]
    seq = ScalarSequence(field, tuple(_level_inputs(field, pool)[1]))
    levels = _levels_handed_over(partial(TABLE_BUILDERS[name], seq))[1]
    keys = [key for key, *_ in levels]
    assert len(keys) >= 3
    for stop, *_ in levels:
        def sink(key, width, row, notes):
            if key == stop:
                raise _Stop

        _RecordingBuild.seen = []
        with mock.patch.object(transforms, "_Build", _RecordingBuild), \
                mock.patch.object(rec, "_Build", _RecordingBuild), pytest.raises(_Stop):
            TABLE_BUILDERS[name](seq, sink=sink)
        (build,) = _RecordingBuild.seen
        stored = {k for k, _ in [*build.entries, *build.failures]}
        assert stored == {key for key in keys if key <= stop}, stop


def test_jet_constants_of_the_carrier_are_jet_constants():
    for field, pool in POOLS.values():
        ops = JetOps(field, 3)
        for value in pool:
            assert ops.const(value) == Jet.from_coeffs(field, [value], 3)
        assert ops.const(2) == Jet.from_coeffs(field, [2], 3)
    assert JetOps(RAT, 0).const(F(1, 3)).coeffs == (F(1, 3),)


# ---------------------------------------------------------------------------
# the carriers: shifted differences shared across a row, and the product with z

EPSILON = FAMILIES["epsilon"]
POINTS = ("1/2", "-9/10", "5")

# Each step that shares what neighbouring cells form across a row, with its
# family and the reference step of ``tests/_reference.py`` that forms every
# shifted difference and reciprocal in the cell reading it.
SHARED_STEPS = [(FAMILIES["aitken"], rec.aitken_step, _reference.aitken_step),
                (EPSILON, rec.epsilon_step, _reference.epsilon_step),
                (FAMILIES["theta-iterated"], rec.theta_step, _reference.theta_step),
                (EPSILON, transforms._epsilon_cross_plain, _reference.epsilon_cross_plain)]


def _shared_builds(field, values):
    """``(carrier, seed, coeff)`` for every build over ``values``: term builds
    (zero seeds, ``values`` injected) and seeded builds on :class:`NumericOps`
    at each of ``POINTS``, on :class:`UnitOps` and on jets, whose seeds are
    windows of ``values``.  Carriers are made on each call."""
    top = len(values) - 1
    coeff = values.__getitem__
    carriers = [NumericOps(field, field.parse(t)) for t in POINTS] + [UnitOps(field)]
    builds = [(ops, seed, c) for ops in carriers
              for seed, c in (([field.zero] * (top + 1), coeff), (values, None))]
    jets = JetOps(field, 2)
    windows = [Jet.from_coeffs(field, values[n:n + 3], 2) for n in range(top + 1)]
    return builds + [(jets, [jets.zero] * (top + 1), coeff), (jets, windows, None)]


def _same_table(got, want):
    assert repr(got.entries) == repr(want.entries)
    assert [*map(str, got.notes.items())] == [*map(str, want.notes.items())]


@settings(max_examples=60, deadline=None)
@given(_draws())
@example((RAT, [F(1), F(1), F(2), F(0), F(2), F(2), F(1, 2), F(1, 2), F(3)], F(1)))
@example((BF, [Decimal(t) for t in ("1", "1e999990", "0", "2", "2", "Infinity", "0.5", "1", "-1")],
          Decimal(1)))
@example((F64, [1.0, 1e308, -1e308, 0.0, 0.0, 2.0, float("inf"), 0.5, 1.0, 2.0], 1.0))
def test_shared_differences_match_the_per_cell_steps(draw):
    field, values, _ = draw
    top = len(values) - 1
    for family, step, reference in SHARED_STEPS:
        levels = top // family.step
        pairs = zip(_shared_builds(field, values), _shared_builds(field, values))
        for (ops, seed, coeff), (fresh, _, _) in pairs:
            got = run_recursion(family, ops, levels, top, seed, coeff, recursion=step)
            want = run_recursion(family, fresh, levels, top, seed, coeff, recursion=reference)
            _same_table(got, want)


@pytest.mark.parametrize("mode", sorted(POOLS))
def test_a_reused_carrier_builds_what_fresh_carriers_build(mode):
    # As in ``remainders._evaluate``, one carrier runs the three families, and
    # then the same builds again; fresh carriers run the per-cell twins.  A
    # memo entry is read stale only where the cell before failed to write it,
    # so the seeds repeat values (zero differences at z = 1), consecutive
    # epsilon builds break down at other cells, and the one-level builds end
    # on a row as long as the next one starts on.
    field, pool = POOLS[mode]
    values = [pool[i] for i in (1, 1, 3, 4, 4, 2, 3, 1, 1, 0, 4, 3, 2)]
    top = len(values) - 1
    zeros = [field.zero] * (top + 1)
    builds = [(family, levels, seed, coeff, step, reference)
              for family, step, reference in SHARED_STEPS
              for levels in (1, top // family.step)
              for seed, coeff in ((values, None), (zeros, values.__getitem__),
                                  (values[3:] + values[:3], None))]
    for make in (lambda: NumericOps(field, field.parse("-9/10")), lambda: UnitOps(field)):
        shared = make()
        for _ in range(2):
            for family, levels, seed, coeff, step, reference in builds:
                got = run_recursion(family, shared, levels, top, seed, coeff, recursion=step)
                want = run_recursion(family, make(), levels, top, seed, coeff, recursion=reference)
                _same_table(got, want)


def _log_partial_sums(count):
    coeffs = builtin_series("log1p-over-z", (), count, BF).series.coeffs
    with BF.arithmetic():
        return [sum(coeffs[:i + 1], start=BF.zero) for i in range(count)]


def _division_count(ops, seed, recursion):
    """Calls of :meth:`Field.div` in one epsilon build over ``seed``, which must
    not break down; the carrier is made inside the count, as it binds ``div``."""
    count = 0
    real = Field.div

    def counting(self, numerator, denominator):
        nonlocal count
        count += 1
        return real(self, numerator, denominator)

    top = len(seed) - 1
    with mock.patch.object(Field, "div", counting):
        table = run_recursion(EPSILON, ops(), top // 2, top, seed, recursion=recursion)
    assert not table.notes
    return count


@pytest.mark.parametrize("case, shared, per_cell", [
    # Remainder build, log1p-over-z at z = -1/2, m_max = 20: 19 first-level
    # cells at 3 divisions and 81 deeper cells at 5, plus, once per row of
    # the 10, the first cell's own 1/d0; per cell, 4 and 6.
    ("epsilon", 19 * 3 + 81 * 5 + 10, 19 * 4 + 81 * 6),
    # Plain cross rule on 21 partial sums: 19 first-level cells at 2 and 81
    # deeper cells at 3, plus one per row; per cell, 3 and 4.
    ("plain", 19 * 2 + 81 * 3 + 10, 19 * 3 + 81 * 4),
])
def test_a_row_forms_each_reciprocal_difference_once(case, shared, per_cell):
    if case == "epsilon":
        series = builtin_series("log1p-over-z", (), 21, BF).series
        z = Decimal("-0.5")
        seed, ops = _remainder_bases(series, z, 20), partial(NumericOps, BF, z)
    else:
        seed, ops = _log_partial_sums(21), partial(UnitOps, BF)
    _, step, reference = SHARED_STEPS[3 if case == "plain" else 1]
    assert _division_count(ops, seed, step) == shared
    assert _division_count(ops, seed, reference) == per_cell
    assert shared < per_cell


def _zmul_count(family, seed, z, recursion):
    """Products by z in one remainder build over ``seed`` on :class:`NumericOps`
    at ``z``, which must not break down."""
    ops = NumericOps(BF, z)
    count = 0
    real = ops.zmul

    def counting(x):
        nonlocal count
        count += 1
        return real(x)

    ops.zmul = counting
    top = len(seed) - 1
    table = run_recursion(family, ops, top // family.step, top, seed, recursion=recursion)
    assert not table.notes
    return count


@pytest.mark.parametrize("steps, shared, per_cell", [
    # log1p-over-z at z = -1/2, m_max = 20.  Aitken: 100 cells in 10 rows, at
    # 2 products per cell plus the first cell's z*x1 per row; per cell, 3.
    (SHARED_STEPS[0], 100 * 2 + 10, 100 * 3),
    # Epsilon: 19 first-level cells at 2 and 81 deeper cells at 3, plus one
    # per row; per cell, 3 and 5.
    (SHARED_STEPS[1], 19 * 2 + 81 * 3 + 10, 19 * 3 + 81 * 5),
    # Theta: 63 cells in 6 rows at 3, plus the first cell's z*x1, z*x2 and
    # z*u1 per row; per cell, 6.
    (SHARED_STEPS[2], 63 * 3 + 6 * 3, 63 * 6),
], ids=["aitken", "epsilon", "theta"])
def test_a_row_forms_each_shifted_difference_once(steps, shared, per_cell):
    series = builtin_series("log1p-over-z", (), 21, BF).series
    z = Decimal("-0.5")
    seed = _remainder_bases(series, z, 20)
    family, step, reference = steps
    assert _zmul_count(family, seed, z, step) == shared
    assert _zmul_count(family, seed, z, reference) == per_cell


def test_the_unit_carrier_never_multiplies():
    x = Decimal("0." + "1234567" * 10)  # 70 digits, past the working precision
    assert UnitOps(BF).zmul(x) is x


@pytest.mark.parametrize("mode", sorted(POOLS))
def test_the_numeric_carrier_multiplies_as_the_point_does(mode):
    field, pool = POOLS[mode]
    extra = [Decimal("-0." + "9876543" * 10)] if mode == "bigfloat" else []
    for text in (*POINTS, "1/3", "-1", "0"):
        z = field.parse(text)
        ops = NumericOps(field, z)
        with field.arithmetic():
            for x in pool + extra:
                got, want = ops.zmul(x), z * x
                assert type(got) is type(want) and repr(got) == repr(want), (z, x)
