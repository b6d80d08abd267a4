"""``accelerate`` writes each level as the build finishes it.

The streamed command is compared with the command that builds its whole
table first and then writes it from the stored table
(``_reference.accelerate``): stdout, stderr and the exit code must be
equal for every table, form and mode, on the builtins and on generated
coefficient files, and also when the renderer fails at the first value of
a level.  A value that cannot be rendered stops the build at its level, so
the tables whose deep levels pass the 4,300-digit limit of ``str(int)``
exit 1 within seconds.
"""

import contextlib
import hashlib
import io
import os
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import _reference
from seriaccel import cli
from seriaccel.cli import build_parser, main

# Every table builder of ``accelerate``, in each form it takes, the default
# form included.
FORMS = [
    ("aitken",), ("aitken", "--scheme", "classic"), ("aitken", "--scheme", "rearranged"),
    ("epsilon",),
    ("epsilon-cross",), ("epsilon-cross", "--scheme", "plain"),
    ("epsilon-cross", "--scheme", "rearranged"),
    ("theta",), ("theta", "--modified"),
    ("theta-iterated",), ("theta-iterated", "--scheme", "classic"),
    ("theta-iterated", "--scheme", "rearranged"),
]
MODES = ("rational", "bigfloat", "f64")
INPUTS = {
    "log-half": ("builtin:log1p-over-z", "--z=1/2"),
    "log-1e300": ("builtin:log1p-over-z", "--z=1e300"),
    "model": ("builtin:model(1,1,1/2)",),
    "geometric": ("builtin:geometric(1/3)",),
    "zeta": ("builtin:zeta(2)",),
}
# The float modes run up to 21 terms, rational mode up to 12: at 21 terms
# the stored-table command takes 11 s on the rearranged Aitken table of
# zeta(2) (Python 3.11 on a 2-CPU x86-64 Linux host), most of it on levels
# that cannot be rendered.
TERMS = {"rational": (1, 2, 3, 5, 9, 12), "bigfloat": (1, 2, 3, 5, 9, 21),
         "f64": (1, 2, 3, 5, 9, 21)}


class _StoredTableParser:
    """The parser of ``accelerate`` that runs the stored-table command."""

    def parse_args(self, argv):
        args = build_parser().parse_args(argv)
        args.func = _reference.accelerate
        return args


def _run(argv, stored=False):
    """``(exit code, stdout, stderr)`` of ``main(argv)``, streamed or, with
    ``stored``, through the command that writes from the stored table."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if stored:
            stack.enter_context(mock.patch.object(cli, "build_parser", _StoredTableParser))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _argv(mode, spec, form, terms):
    return ["accelerate", "--series", *spec, "--family", *form,
            "--mode", mode, "--terms", str(terms)]


def _assert_same(argv):
    streamed = _run(argv)
    assert streamed == _run(argv, stored=True), argv
    return streamed


@pytest.mark.parametrize("form", FORMS, ids=" ".join)
@pytest.mark.parametrize("spec", sorted(INPUTS))
@pytest.mark.parametrize("mode", MODES)
def test_streamed_output_equals_the_stored_table_writer(mode, spec, form):
    for terms in TERMS[mode]:
        _assert_same(_argv(mode, INPUTS[spec], form, terms))


def _first_value_of_each_level(out):
    """The render call of the first value of each table level in ``out``,
    counted from 1, as the table lines are made in key order."""
    calls, seen, firsts = 0, set(), []
    for line in out.splitlines()[2:]:
        if line.startswith("selected approximant"):
            break
        key, _, value = line.split(" ", 2)
        if value.startswith("invalid ("):
            continue
        calls += 1
        if key not in seen:
            seen.add(key)
            firsts.append(calls)
    return firsts


def _failing_at(renderer, i):
    render, calls = getattr(cli, renderer), []

    def failing(value, *args, **kwargs):
        calls.append(value)
        if len(calls) == i:
            raise ValueError(f"cannot render value {i}")
        return render(value, *args, **kwargs)

    return failing


@pytest.mark.parametrize("form", FORMS, ids=" ".join)
@pytest.mark.parametrize("mode", MODES)
def test_a_renderer_failing_at_the_first_value_of_a_level_writes_the_stored_prefix(mode, form):
    renderer = "to_fraction_string" if mode == "rational" else "scientific_string"
    levels = 0
    for spec in ("log-half", "zeta", "geometric"):
        argv = _argv(mode, INPUTS[spec], form, 9)
        code, out, err = _run(argv)
        assert (code, err) == (0, "")
        for i in _first_value_of_each_level(out):
            with mock.patch.object(cli, renderer, _failing_at(renderer, i)):
                streamed = _run(argv)
            with mock.patch.object(cli, renderer, _failing_at(renderer, i)):
                stored = _run(argv, stored=True)
            assert streamed == stored, (argv, i)
            assert streamed[0] == 1 and streamed[2] == f"error: cannot render value {i}\n"
            levels += 1
    assert levels >= 3


def _complete_levels(out):
    """``{key: (first line, render calls)}`` of each level of ``out`` whose
    cells are all valid, two or more: its first line's index and the render
    call of each value, counted from 1."""
    lines, calls, levels, broken = out.splitlines(), 0, {}, set()
    for index, line in enumerate(lines[2:], 2):
        if line.startswith("selected approximant"):
            break
        key, _, value = line.split(" ", 2)
        if value.startswith("invalid ("):
            broken.add(key)
            continue
        calls += 1
        levels.setdefault(key, (index, []))[1].append(calls)
    return {key: level for key, level in levels.items()
            if key not in broken and len(level[1]) > 1}


@pytest.mark.parametrize("mode", MODES)
def test_a_renderer_failing_inside_a_complete_level_writes_the_lines_before_it(mode):
    renderer = "to_fraction_string" if mode == "rational" else "scientific_string"
    argv = _argv(mode, INPUTS["log-half"], ("epsilon",), 9)
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    lines = out.splitlines(keepends=True)
    levels = _complete_levels(out)
    assert len(levels) >= 3
    for first, calls in levels.values():
        for j in {1, len(calls) - 1}:  # the second and the last value of the level
            with mock.patch.object(cli, renderer, _failing_at(renderer, calls[j])):
                failed = _run(argv)
            assert failed == (1, "".join(lines[:first + j]),
                              f"error: cannot render value {calls[j]}\n"), (first, j)


class _Writes(io.StringIO):
    """A stdout that keeps each ``write`` apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("family", ["epsilon", "aitken"])
def test_table_blocks_end_at_level_boundaries(family):
    out = _Writes()
    with contextlib.redirect_stdout(out):
        assert main(["accelerate", "--series", "builtin:log1p-over-z", "--family", family,
                     "--z=1/2", "--mode", "f64", "--terms", "221"]) == 0
    *blocks, last = out.writes
    assert len(blocks) > 10
    for block, after in zip(blocks, out.writes[1:]):
        lines = block.splitlines()
        assert block.endswith("\n") and len(lines) >= cli._BLOCK_LINES
        # the next block starts a level, or the selected approximants
        assert after.split(" ", 1)[0] != lines[-1].split(" ", 1)[0]


_POOL = ("0", "1", "-1", "2", "1/2", "3", "-1/3")


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.sampled_from(_POOL), min_size=1, max_size=12),
       z=st.sampled_from(("1", "1/2", "-1", "2")),
       form=st.sampled_from(FORMS), mode=st.sampled_from(MODES))
def test_streamed_output_equals_the_stored_table_writer_on_generated_series(coeffs, z, form,
                                                                            mode):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "coefficients.txt")
        with open(path, "w") as out:
            out.write("\n".join(coeffs) + "\n")
        argv = _argv(mode, (f"file:{path}", f"--z={z}"), form, len(coeffs))
        _assert_same(argv)


# ---------------------------------------------------------------------------
# an unprintable level stops the build

LOG = "builtin:log1p-over-z"


def test_an_unprintable_seed_stops_the_build_at_level_zero():
    # The 16th partial sum at z = 1e300 has more than 4,300 digits.  The
    # whole table takes the stored-table command about 90 s on the host
    # named at TERMS.
    start = time.perf_counter()
    code, out, err = _run(["accelerate", "--series", LOG, "--family", "aitken", "--z=1e300",
                           "--terms", "17"])
    assert time.perf_counter() - start < 2
    assert (code, len(out.splitlines())) == (1, 17)
    assert hashlib.sha256((out + err).encode()).hexdigest() == (
        "52accfb7412c65b998460ec8c8229919254be365a5d91957bcfc8210218a4b9c")


@pytest.mark.parametrize("family, lines", [("aitken", 138), ("theta", 187)])
def test_a_table_past_the_digit_limit_exits_after_its_last_printable_level(family, lines):
    # Their whole tables take the stored-table command 13 s and 3.4 s on
    # the host named at TERMS.
    code, out, err = _run(["accelerate", "--series", LOG, "--family", family, "--z=1/2",
                           "--terms", "24"])
    assert (code, len(out.splitlines())) == (1, lines)
    assert err.startswith("error: Exceeds the limit (4300 digits)")


def test_the_build_stops_at_the_level_that_cannot_be_rendered(monkeypatch):
    build, levels = cli.aitken_table, []

    def counting(seq, scheme, *, sink):
        def counted(key, width, row, notes):
            levels.append(key)
            sink(key, width, row, notes)

        return build(seq, scheme, sink=counted)

    monkeypatch.setattr(cli, "aitken_table", counting)
    code, out, err = _run(["accelerate", "--series", LOG, "--family", "aitken", "--z=1/2",
                           "--terms", "20"])
    assert (code, levels) == (1, list(range(9)))
    assert out.splitlines()[-1].startswith("7 ")
