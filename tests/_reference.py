"""Reference values that only the tests need: Pade values and expansions,
partial-sum jets, computed from the public pieces of the library, the
family steps and the plain epsilon cross rule as written per cell, each
shifted difference and reciprocal formed in the cell that reads it, the
builtin tail rules as written per coefficient, the pivoting ``Fraction``
solve of a Pade system, the ``accelerate`` command that builds its whole
table before it writes a line, and the per-cell lines that one dead-level
line of ``accelerate`` stands for."""

import itertools
import re
import sys
from fractions import Fraction

from seriaccel import cli
from seriaccel.field import BigFloatField, RationalField
from seriaccel.jets import Jet


def pade_value(pade, z):
    """P(z) / Q(z) of a :class:`~seriaccel.transforms.PadeRational`, by Horner."""
    fld = pade.field
    z = fld.ensure(z)
    with fld.arithmetic():
        p = fld.zero
        for c in reversed(pade.numerator):
            p = p * z + c
        q = fld.zero
        for c in reversed(pade.denominator):
            q = q * z + c
    return fld.div(p, q)


def pade_taylor_jet(pade, order):
    """Taylor jet of P/Q through ``order``, by jet division."""
    num = Jet.from_coeffs(pade.field, pade.numerator, order=order)
    den = Jet.from_coeffs(pade.field, pade.denominator, order=order)
    return num / den


def partial_sum_jet(series, n, order):
    """Jet of the degree-``n`` partial sum of ``series``, padded or cut to ``order``."""
    coeffs = [series.coefficient(i) for i in range(min(n, order) + 1)]
    return Jet.from_coeffs(series.field, coeffs, order=order)


def aitken_step(ops, g, k, n, cur, prev):
    """The Aitken family step with both shifted differences formed per cell."""
    zmul = ops.zmul
    x1, x2 = cur[n + 1], cur[n + 2]
    lo = zmul(x1) - cur[n]
    hi = zmul(x2) - x1
    if g is not None:
        lo = g[0] + lo
        hi = g[1] + hi
    return x2 - ops.div(hi * hi, zmul(hi) - lo)


def theta_step(ops, g, k, n, cur, prev):
    """The theta family step with all five shifted differences formed per cell."""
    zmul = ops.zmul
    x1, x2, x3 = cur[n + 1], cur[n + 2], cur[n + 3]
    u0 = zmul(x1) - cur[n]
    u1 = zmul(x2) - x1
    u2 = zmul(x3) - x2
    if g is not None:
        u0 = g[0] + u0
        u1 = g[1] + u1
        u2 = g[2] + u2
    v0 = zmul(u1) - u0
    v1 = zmul(u2) - u1
    u2v0 = u2 * v0
    num = u2 * (u2v0 + u1 * u1 - u0 * u2)
    den = zmul(u2v0) - u0 * v1
    return x3 - ops.div(num, den)


def epsilon_step(ops, g, k, n, cur, prev):
    """The epsilon family step with its six divisions per cell of level k >= 1."""
    if k == 0 and g is not None:
        lo, hi = g
        return ops.div(hi * hi, lo - ops.zmul(hi))
    diffs = [ops.zmul(cur[n + i + 1]) - cur[n + i] for i in range(2)]
    d0, d1 = diffs if g is None else [gi + d for gi, d in zip(g, diffs)]
    if k == 0:
        num = ops.div(d1, d0)
        den = ops.div(ops.one, d1) - ops.zmul(ops.div(ops.one, d0))
    else:
        e = ops.zmul(cur[n + 1])
        if g is not None:
            e = g[0] + e
        e = e - prev[n + 2]
        num = ops.div(d1, d0) - ops.div(d1, e)
        den = (ops.div(ops.one, d1) - ops.zmul(ops.div(ops.one, d0))
               + ops.zmul(ops.div(ops.one, e)))
    return cur[n + 2] + ops.div(num, den)


def epsilon_cross_plain(ops, g, k, n, cur, prev):
    """The plain cross rule with its four divisions per cell of level k >= 1."""
    d0 = cur[n + 1] - cur[n]
    d1 = cur[n + 2] - cur[n + 1]
    denom = ops.div(ops.one, d1) - ops.div(ops.one, d0)
    if k >= 1:
        gap = cur[n + 1] - prev[n + 2]
        denom = denom + ops.div(ops.one, gap)
    return cur[n + 1] + ops.div(ops.one, denom)


def log_coefficient(field, i):
    """Coefficient ``i`` of ``log1p-over-z``, with the field's own quotient."""
    return field.quotient(-1 if i & 1 else 1, i + 1)


def zeta_coefficient(field, s, i):
    """Coefficient ``i`` of ``zeta(s)``, the mode picked and ``-s`` formed per call."""
    base = i + 1
    if isinstance(field, RationalField):
        return Fraction(1, base ** int(s))
    if isinstance(field, BigFloatField):
        ctx = field._context
        return ctx.power(field.from_int(base), ctx.minus(s))
    return float(base) ** (-s)


def solve_linear(fld, matrix, rhs):
    """Gaussian elimination in the field's own arithmetic, pivoting on the
    largest nonzero magnitude; None when singular."""
    n = len(rhs)
    a = [list(row) + [value] for row, value in zip(matrix, rhs)]
    with fld.arithmetic():
        for col in range(n):
            pivot_row = None
            best = None
            for r in range(col, n):
                mag = abs(a[r][col])
                if not fld.is_zero(a[r][col]) and (best is None or mag > best):
                    best, pivot_row = mag, r
            if pivot_row is None:
                return None
            a[col], a[pivot_row] = a[pivot_row], a[col]
            pivot = a[col][col]
            for r in range(col + 1, n):
                if a[r][col] == fld.zero:
                    continue
                factor = a[r][col] / pivot
                for c in range(col, n + 1):
                    a[r][c] = a[r][c] - factor * a[col][c]
        solution = [fld.zero] * n
        for row in range(n - 1, -1, -1):
            acc = a[row][n]
            for c in range(row + 1, n):
                acc = acc - a[row][c] * solution[c]
            solution[row] = acc / a[row][row]
    return solution


def accelerate(args, collapse=True) -> int:
    """``accelerate`` with its table built in full before the first line is
    made; it takes only the flags the table accepts, and ``collapse`` as
    :func:`write_accelerate` does."""
    field = cli._field(args.mode)
    resolved = cli.resolve_series_spec(args.series, field, count=args.terms)
    seq = cli._sequence_from_input(resolved, args, field)
    table = cli._TABLE_BUILDERS[args.family](seq, args.scheme, args.modified, None)
    write_accelerate(resolved, seq, table, field, args.digits, collapse)
    return 0


def write_accelerate(resolved, seq, table, field, digits, collapse=True) -> None:
    """The lines of ``accelerate`` from a stored table: its levels in key
    order, each cell in ``n`` order, written in blocks of at least
    ``cli._BLOCK_LINES`` lines, then the selected approximants; the lines
    made before an error are written.  With ``collapse``, a level is one
    range line when its content says it is dead (:func:`dead_line`);
    without it, every cell is its own line."""
    write = sys.stdout.write
    render = cli._renderer(field, digits)
    entries, notes = table.entries, table.notes
    widths, live = {}, {k for k, _ in entries}
    for k, n in itertools.chain(entries, notes):
        widths[k] = max(widths.get(k, 0), n)
    lines = [f"# {resolved.label} -> family={table.family} entries={table.size}\n", "k n value\n"]
    add = lines.append
    try:
        for k in sorted(widths):
            level = [notes.get((k, n)) for n in range(widths[k] + 1)]
            dead = dead_line(k, level, live) if collapse else None
            if dead is not None:
                add(dead)
            else:
                for n, note in enumerate(level):
                    if note is None:
                        add(f"{k} {n} {render(entries[k, n])}\n")
                    else:
                        add(f"{k} {n} invalid ({note})\n")
            if len(lines) >= cli._BLOCK_LINES:
                text = "".join(lines)
                lines.clear()
                write(text)
        add("selected approximant per m:\n")
        for m in range(table.size):
            try:
                k, n, value = cli.select_approximant(table, m)
                add(f"m={m} k={k} n={n} {render(value)}\n")
            except cli.SelectionError as exc:
                add(f"m={m} unavailable ({exc})\n")
        if seq.limit is not None and len(seq.entries) >= 5:
            report = cli.classify_convergence(seq)
            rho = "" if report.rho is None else f" rho~{cli._renderer(field, 6)(report.rho)}"
            add(f"classification: {report.kind}{rho}\n")
    finally:
        if lines:
            write("".join(lines))


_INHERITED = re.compile(r"depends on invalid entry \((-?\d+), (-?\d+)\)")


def dead_line(k, level_notes, live):
    """The one line of level ``k``, whose cell ``n`` has the note
    ``level_notes[n]`` (None where it is valid), when every cell ``n`` is
    noted ``depends on invalid entry (K, n + o)`` for one ``K`` and one
    ``o`` and level ``K`` is not in ``live``, the levels with a valid cell;
    else None."""
    reads = set()
    for n, note in enumerate(level_notes):
        match = note is not None and _INHERITED.fullmatch(note)
        if not match:
            return None
        reads.add((int(match[1]), int(match[2]) - n))
    if len(reads) != 1:
        return None
    (dep, offset), = reads
    if dep in live:
        return None
    width = len(level_notes) - 1
    return (f"{k} 0..{width} invalid (depends on invalid entries ({dep}, "
            f"{offset}..{offset + width}))\n")


_DEAD_LEVEL = re.compile(r"(\d+) 0\.\.(\d+) invalid "
                         r"\(depends on invalid entries \((\d+), (\d+)\.\.(\d+)\)\)")


def per_cell_lines(line):
    """The per-cell lines, with no newline, that the dead-level line ``line``
    of ``accelerate`` stands for, or ``[line]`` for any other line."""
    match = _DEAD_LEVEL.fullmatch(line)
    if match is None:
        return [line]
    k, width, dep, first, last = map(int, match.groups())
    assert last - first == width, line
    return [f"{k} {n} invalid (depends on invalid entry ({dep}, {first + n}))"
            for n in range(width + 1)]
