"""Command-line interface.

Subcommands::

    accelerate       build a transformation table and show selected approximants
    predict          predict unseen series coefficients
    error-terms      numeric error-term table (approximant minus function)
    transform-terms  numeric transformation-term table (approximant minus partial sum)
    reproduce        run an embedded reference experiment and diff the output

Exit codes: 0 success, 1 usage or breakdown error, 2 reference-value mismatch.
The ``SERIACCEL_PRECISION`` environment variable overrides the bigfloat
working precision (default 50 significant digits).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import golden
from ._recursions import _DeadLevel
from .field import (
    BreakdownError,
    Field,
    ModeMismatchError,
    RationalField,
    decimal_string,
    field_for_mode,
    scientific_string,
    to_fraction_string,
)
from .jets import MissingCoefficientError
from .prediction import predict_coefficients
from .remainders import evaluate_error_terms, evaluate_transformation_terms, remainder_jets
from .report import rows_to_csv, rows_to_json, term_rows
from .series_library import builtin_series, resolve_series_spec
from .transforms import (
    FAMILIES,
    SCHEMES,
    ScalarSequence,
    SelectionError,
    aitken_table,
    classify_convergence,
    epsilon_cross_table,
    epsilon_table,
    iterated_theta_table,
    select_approximant,
    table_name,
    theta_table,
)

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for golden diffs only
        raise _UsageError(f"{self.prog}: {message}")


def _int_at_least(low: int):
    """argparse type: an integer ``>= low``, so a bad value stops before any output."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_POSITIVE = _int_at_least(1)
_NONNEGATIVE = _int_at_least(0)


def _env_digits() -> int:
    raw = os.environ.get("SERIACCEL_PRECISION", "50")
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"SERIACCEL_PRECISION must be an integer, got {raw!r}") from None


def _field(mode: str) -> Field:
    """The field of ``mode``; only bigfloat reads ``SERIACCEL_PRECISION``."""
    if mode != "bigfloat":
        return field_for_mode(mode)
    return field_for_mode(mode, digits=_env_digits())


def _renderer(field: Field, digits: int):
    """The renderer of the values of one table or command: the ``cli`` global
    ``to_fraction_string`` in rational mode, else a closure that calls the
    ``cli`` global ``scientific_string`` at ``digits``.  Either global is
    looked up once, when picked, and each value is one call of it."""
    if isinstance(field, RationalField):
        return to_fraction_string
    scientific = scientific_string
    return lambda value: scientific(value, digits)


# ---------------------------------------------------------------------------
# accelerate

_TABLE_BUILDERS = {
    "aitken": lambda seq, scheme, modified, sink: aitken_table(seq, scheme, sink=sink),
    "epsilon": lambda seq, scheme, modified, sink: epsilon_table(seq, sink=sink),
    "epsilon-cross": lambda seq, scheme, modified, sink: epsilon_cross_table(seq, scheme,
                                                                             sink=sink),
    "theta": lambda seq, scheme, modified, sink: theta_table(seq, modified, sink=sink),
    "theta-iterated": lambda seq, scheme, modified, sink: iterated_theta_table(seq, scheme,
                                                                               sink=sink),
}


def _sequence_from_input(resolved, args, field):
    if resolved.sequence is not None:
        if args.z is not None:
            raise _UsageError(f"--z applies to a power series; {resolved.label} is a plain sequence")
        return resolved.sequence
    series = resolved.series
    z = None
    if args.z is not None:
        z = field.parse(args.z)
    elif resolved.default_z is not None:
        z = resolved.default_z
    if z is None:
        raise _UsageError("this input is a power series: pass --z to form partial sums")
    return ScalarSequence(field, series.partial_sums(z, args.terms))


def cmd_accelerate(args) -> int:
    schemes = SCHEMES.get(args.family, ())
    if args.scheme is not None and args.scheme not in schemes:
        if not schemes:
            raise _UsageError(f"--family {args.family} has no --scheme")
        raise _UsageError(f"--family {args.family} takes --scheme "
                          f"{' or '.join(schemes)}, not {args.scheme}")
    if args.modified and args.family != "theta":
        raise _UsageError("--modified applies to --family theta only")
    field = _field(args.mode)
    resolved = resolve_series_spec(args.series, field, count=args.terms)
    seq = _sequence_from_input(resolved, args, field)
    header = (f"# {resolved.label} -> family={table_name(args.family, args.scheme)} "
              f"entries={len(seq.entries)}\n")
    build = functools.partial(_TABLE_BUILDERS[args.family], seq, args.scheme, args.modified)
    _write_accelerate(header, seq, build, field, args.digits)
    return 0


#: Table lines per ``write`` of ``accelerate``, at least: a block ends at the
#: first level boundary past it, so a block and one level are held, never a
#: whole table.
_BLOCK_LINES = 256


def _write_accelerate(header, seq, build, field, digits) -> None:
    """Write the lines of ``accelerate`` to ``sys.stdout`` as it is at the
    call.  ``build(sink=...)`` builds the table and hands each level, with
    its own row and notes keyed by ``n``, to the sink, which makes the
    level's lines, the ``header`` line first, then its cells in ``n`` order,
    and writes the lines gathered once a level ends with
    :data:`_BLOCK_LINES` or more.  A dead level, whose notes are one
    :class:`_DeadLevel` record, is one line, ``k 0..w invalid (depends on
    invalid entries (K, o..o+w))``: cell ``n`` depends on ``(K, n + o)``.
    The selected approximants follow once the build returns.  The renderer
    of the values is picked once per table.  When a line cannot be made, a
    value that cannot be rendered included, the build stops at that level,
    and the lines before it are written before the error propagates."""
    write = sys.stdout.write
    render = _renderer(field, digits)
    index = [str(n) for n in range(len(seq.entries))]  # the text of each ``n``, formed once
    lines = []
    add = lines.append

    def sink(key, width, row, notes):
        if key == 0:
            lines.extend((header, "k n value\n"))
        prefix = f"{key} "
        # One expression per level; a generator where values render, so the
        # lines before a value that cannot be rendered are kept.
        if type(notes) is _DeadLevel:  # cell ``n`` inherits the failure of ``n + offset``
            add(f"{prefix}0..{width} invalid ({notes.prefix.replace('entry', 'entries')}"
                f"{notes.offset}..{notes.offset + width}))\n")
        elif len(row) > width:  # every cell valid, in ``n`` order
            lines.extend(f"{prefix}{n} {render(value)}\n" for n, value in zip(index, row.values()))
        else:
            lines.extend(f"{prefix}{index[n]} {render(row[n])}\n" if n in row
                         else f"{prefix}{index[n]} invalid ({notes[n]})\n"
                         for n in range(width + 1))
        if len(lines) >= _BLOCK_LINES:
            text = "".join(lines)
            lines.clear()
            write(text)

    try:
        table = build(sink=sink)
        add("selected approximant per m:\n")
        for m in range(table.size):
            try:
                k, n, value = select_approximant(table, m)
                add(f"m={m} k={k} n={n} {render(value)}\n")
            except SelectionError as exc:
                add(f"m={m} unavailable ({exc})\n")
        if seq.limit is not None and len(seq.entries) >= 5:
            report = classify_convergence(seq)
            rho = "" if report.rho is None else f" rho~{_renderer(field, 6)(report.rho)}"
            add(f"classification: {report.kind}{rho}\n")
    finally:  # the last lines, or the lines made before an error
        if lines:
            write("".join(lines))


# ---------------------------------------------------------------------------
# predict


def cmd_predict(args) -> int:
    field = _field(args.mode)
    count_needed = args.use + 1 if args.use is not None else args.count + 16
    resolved = resolve_series_spec(args.series, field, count=count_needed)
    series = resolved.require_series()
    use = args.use if args.use is not None else series.known_order
    predictions = predict_coefficients(series, args.family, use, args.count)
    print(f"# {resolved.label} family={args.family} using coefficients 0..{use}")
    print("index prediction decimal")
    render = _renderer(field, args.digits)
    for index, value in predictions:
        print(f"{index} {render(value)} {decimal_string(value, args.digits)}")
    return 0


# ---------------------------------------------------------------------------
# error-terms / transform-terms


def cmd_terms(args) -> int:
    """``error-terms`` and ``transform-terms``: ``args.evaluate`` is the table kind."""
    field = _field(args.mode)
    resolved = resolve_series_spec(args.series, field, count=args.max_m + 1)
    series = resolved.require_series()
    tables = args.evaluate(series, field.parse(args.z), args.max_m)
    rows = term_rows(tables, _renderer(field, args.digits))
    if args.format == "json":
        print(rows_to_json(rows))
    else:
        print(rows_to_csv(rows), end="")
    return 0


# ---------------------------------------------------------------------------
# reproduce


def _diff_report(name, rows, checks) -> int:
    for line in rows:
        print(line)
    diffs = [(where, got, want) for where, got, want in checks if got != want]
    if diffs:
        print(f"{name}: {len(diffs)} cell(s) differ from the reference:")
        for where, got, want in diffs:
            print(f"MISMATCH {where}: computed {got}, reference {want}")
        return 2
    print(f"{name}: all cells match the reference")
    return 0


def _log_series(field, count):
    return builtin_series("log1p-over-z", (), count, field).series


def _reproduce_table(which) -> int:
    if which == "table1":
        z_text, m_max, digits, reference = (
            golden.TABLE1_Z, golden.TABLE1_M_MAX, golden.TABLE1_DIGITS, golden.TABLE1,
        )
        evaluate = evaluate_error_terms
    else:
        z_text, m_max, digits, reference = (
            golden.TABLE2_Z, golden.TABLE2_M_MAX, golden.TABLE2_DIGITS, golden.TABLE2,
        )
        evaluate = evaluate_transformation_terms
    field = field_for_mode("bigfloat", digits=max(50, _env_digits()))
    series = _log_series(field, m_max + 1)
    tables = evaluate(series, field.parse(z_text), m_max)
    got = {(m, family): value if valid else "invalid"
           for m, family, _, _, value, valid in term_rows(tables, _renderer(field, digits))}
    rows = [f"# z = {z_text}, m = 0..{m_max}", "m " + " ".join(FAMILIES)]
    rows += [f"{m} " + " ".join(got[m, family] for family in FAMILIES) for m in range(m_max + 1)]
    return _diff_report(which, rows, [(f"(m={m}, {family})", value, reference[family][m])
                                       for (m, family), value in got.items()])


def _reproduce_expansion7() -> int:
    field = RationalField()
    series = _log_series(field, 13)
    rows = ["# exact error expansions, coefficients of z^7..z^9"]
    checks = []
    for family in FAMILIES:
        level = golden.EXPANSION7_LEVEL[family]
        jet = remainder_jets(series, family, level, order=4, n_max=0).entry(level, 0)
        got = tuple(to_fraction_string(c) for c in jet.coeffs[:3])
        rows.append(f"{family} (level {level}): " + " ".join(got))
        checks += [(f"({family}, z^{power})", g, w)
                   for g, w, power in zip(got, golden.EXPANSION7[family], (7, 8, 9))]
    return _diff_report("expansion7", rows, checks)


def _reproduce_predict13() -> int:
    field = RationalField()
    series = _log_series(field, 13)
    rows = ["# predictions for coefficients 13..16 from coefficients 0..12"]
    checks = []
    for family in FAMILIES:
        predictions = predict_coefficients(series, family, 12, golden.PREDICT13_COUNT)
        got = tuple(decimal_string(v, golden.PREDICT13_DIGITS) for _, v in predictions)
        rows.append(f"{family}: " + " ".join(got))
        checks += [(f"({family}, coefficient {index})", g, w)
                   for (index, _), g, w in zip(predictions, got, golden.PREDICT13[family])]
    rows.append("true: " + " ".join(golden.PREDICT13_TRUE_DECIMAL))
    return _diff_report("predict13", rows, checks)


def cmd_reproduce(args) -> int:
    if args.experiment in ("table1", "table2"):
        return _reproduce_table(args.experiment)
    if args.experiment == "expansion7":
        return _reproduce_expansion7()
    return _reproduce_predict13()


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    :func:`main` call in the process.  It holds no state between parses, and
    ``SERIACCEL_PRECISION`` is read by each command, not here."""
    parser = _Parser(prog="seriaccel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_mode):
        p.add_argument("--series", required=True, help="builtin:NAME(args) | file:PATH | PATH")
        p.add_argument("--mode", default=default_mode, choices=["rational", "bigfloat", "f64"])

    p = sub.add_parser("accelerate", help="transformation table + selected approximants")
    add_common(p, "rational")
    p.add_argument("--family", required=True, choices=sorted(_TABLE_BUILDERS))
    p.add_argument("--scheme", default=None,
                   choices=list(dict.fromkeys(form for forms in SCHEMES.values() for form in forms)))
    p.add_argument("--modified", action="store_true", help="theta only: drop the odd-column carry")
    p.add_argument("--z", default=None, help="evaluation point for partial sums")
    p.add_argument("--terms", type=_POSITIVE, default=13)
    p.add_argument("--digits", type=_POSITIVE, default=10)
    p.set_defaults(func=cmd_accelerate)

    p = sub.add_parser("predict", help="predict unseen series coefficients")
    add_common(p, "rational")
    p.add_argument("--family", required=True, choices=sorted(
        name for family in FAMILIES.values() for name in (family.name, *family.aliases)))
    p.add_argument("--use", type=_NONNEGATIVE, default=None,
                   help="last coefficient index to use (default: the last resolved coefficient, "
                        "count + 15 for a builtin, the last line of a file)")
    p.add_argument("--count", type=_POSITIVE, default=4)
    p.add_argument("--digits", type=_POSITIVE, default=10)
    p.set_defaults(func=cmd_predict)

    for name, help_text, evaluate, digits in (
        ("error-terms", "numeric error-term table (needs series tail)", evaluate_error_terms, 6),
        ("transform-terms", "numeric transformation-term table", evaluate_transformation_terms, 10),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p, "bigfloat")
        p.add_argument("--z", required=True)
        p.add_argument("--max-m", type=_NONNEGATIVE, required=True)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--digits", type=_POSITIVE, default=digits)
        p.set_defaults(func=cmd_terms, evaluate=evaluate)

    p = sub.add_parser("reproduce", help="run an embedded reference experiment")
    p.add_argument("--experiment", required=True,
                   choices=["table1", "table2", "expansion7", "predict13"])
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        raise  # the reader of stdout went away; console_main exits quietly
    except (_UsageError, ModeMismatchError, BreakdownError, SelectionError,
            MissingCoefficientError, ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    """Entry point of the ``seriaccel`` script.  When the reader of stdout
    closes it early (``seriaccel ... | head``), exit 1 with nothing on
    stderr; stdout is pointed at ``os.devnull`` so that the interpreter's
    final flush does not fail again (the Python docs' note on SIGPIPE)."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
