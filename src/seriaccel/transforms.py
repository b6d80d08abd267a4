"""Classical scalar sequence transformations and their support machinery.

Implemented here:

* Aitken's iterated delta-squared process, in the textbook form and in the
  rearranged form whose update reads three entries ahead;
* Wynn's epsilon algorithm with its auxiliary odd columns, plus both
  cross-rule forms that skip the odd columns entirely;
* Brezinski's theta algorithm (with the modified odd-column variant) and the
  iterated theta transformation, again in textbook and rearranged forms;
* the family registry :data:`FAMILIES` (names, aliases, steps, selection
  rules, recursion steps and prediction strategies), a Pade solver, and a
  convergence-type classifier.

:data:`SCHEMES` maps the forms of each table that has two to their steps,
the default first.  The rearranged forms are the family steps of
:mod:`seriaccel._recursions` at z = 1, where the shifted difference
``z * X(n+1) - X(n)`` is the forward difference; the classic and plain forms
stay as independent references.
Every step here takes the same arguments as the family and leading steps.
The tables of the Aitken, epsilon-cross and iterated theta schemes run theirs
by :func:`~seriaccel._recursions.run_recursion` on the family's registry
record, which fixes their levels, widths, dependencies and key scale.  Only
the full epsilon and theta tables, whose columns are not a family's levels,
set out their own geometry.

Every transformation is a step run by the shared triangle builder of
:mod:`seriaccel._recursions` and returns its :class:`TransformTable`: a
(near-)zero denominator makes the entry a note instead of raising, and the
failure propagates to every entry that would read it.

In rational mode each cell of the classic Aitken table is one integer
quotient over the numerators and denominators of its three reads, reduced
once (:func:`_aitken_quotient`, selected by the sequence's field).  It is
the one step that divides without :meth:`~seriaccel.field.Field.div`.
The rational Pade system is solved the same way, over integers, with one
reduction per unknown (:func:`_solve_fraction_free`).

Each table builder takes a keyword-only ``sink``, which the triangle
builder hands every finished level with the level's own row and notes, keyed
by ``n`` (:meth:`~seriaccel._recursions._Build.run`); :func:`table_name`
gives the name of the table a builder returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from . import _recursions as rec
from ._recursions import SelectionError, TransformTable, UnitOps, _Build, run_recursion
from .field import Field, Scalar, _Frozen
from .jets import Jet, PowerSeries

__all__ = [
    "ScalarSequence",
    "ModelSequence",
    "TransformTable",
    "PadeRational",
    "ConvergenceReport",
    "SelectionError",
    "DegeneratePadeError",
    "Family",
    "FAMILIES",
    "get_family",
    "SCHEMES",
    "table_name",
    "aitken_table",
    "epsilon_table",
    "epsilon_cross_table",
    "theta_table",
    "iterated_theta_table",
    "select_approximant",
    "pade_linear_system",
    "classify_convergence",
]

class DegeneratePadeError(ArithmeticError):
    """The Pade linear system is singular."""


class ScalarSequence(_Frozen):
    """Elements ``s0 ... sm`` to be transformed, with an optional known limit."""

    __slots__ = ("field", "entries", "limit")

    def __init__(self, field: Field, entries: tuple[Scalar, ...], limit: Scalar | None = None):
        entries = field.ensure_all(entries)
        if not entries:
            raise ValueError("a sequence needs at least one entry")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "limit", None if limit is None else field.ensure(limit))

    @property
    def last_index(self) -> int:
        return len(self.entries) - 1


class ModelSequence(_Frozen):
    """Geometric-remainder model ``s_n = limit + amplitude * ratio**n``.

    One delta-squared step recovers ``limit`` exactly from any three
    consecutive elements, whether the sequence converges (|ratio| < 1) or
    diverges (|ratio| > 1).
    """

    __slots__ = ("field", "limit", "amplitude", "ratio")

    def __init__(self, field: Field, limit: Scalar, amplitude: Scalar, ratio: Scalar):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "limit", field.ensure(limit))
        object.__setattr__(self, "amplitude", field.ensure(amplitude))
        object.__setattr__(self, "ratio", field.ensure(ratio))
        if self.amplitude == field.zero:
            raise ValueError("model amplitude must be nonzero")
        if abs(self.ratio) == field.one:
            raise ValueError("model ratio must have |ratio| != 1")

    def sequence(self, count: int) -> ScalarSequence:
        if count < 1:
            raise ValueError("count must be >= 1")
        out = []
        with self.field.arithmetic():
            power = self.field.one
            for _ in range(count):
                out.append(self.limit + self.amplitude * power)
                power = power * self.ratio
        return ScalarSequence(self.field, tuple(out), limit=self.limit)


class Family(NamedTuple):
    """Registry record of one acceleration family.

    A level consumes ``step`` inputs, so the selection rule takes level
    ``k`` at start ``n``, ``k, n = divmod(m, step)``, from inputs ``0..m``.
    ``tables`` maps the names of the family's textbook tables to their key
    scale: 2 where keys are literal epsilon or theta column subscripts, so
    that level ``k`` sits at key ``2k``.
    ``recursion`` is the rearranged step shared by transformation terms,
    remainder terms and, at z = 1, the rearranged table, and ``deps(k)`` its
    reads into level ``k + 1`` as ``(level, offset)`` pairs: cell
    ``(k + 1, n)`` reads ``(level, n + offset)``.  ``leading`` is the scalar
    recursion for the z-independent parts of both kinds of term.  The same
    record is the geometry of the family's textbook tables.
    ``prediction_term`` is the family's prediction strategy when its
    transformation term has a closed form:
    ``(series, k, n, order) -> Jet`` gives the term at ``(k, n)`` through
    ``order``.  Without one, predictions expand ``recursion`` over jets.
    """

    name: str
    aliases: tuple[str, ...]
    step: int
    tables: dict[str, int]
    deps: Callable[[int], list]
    recursion: Callable
    leading: Callable
    prediction_term: Callable[[PowerSeries, int, int, int], Jet] | None = None


def _epsilon_pade_term(series: PowerSeries, k: int, n: int, order: int) -> Jet:
    """Transformation term of the epsilon entry at level ``k``, start ``n``.

    That entry is the [n+k/k] Pade approximant P/Q of the coefficients
    ``0..m``, ``m = n + 2k``.  Since ``P - Q*S_m = O(z**(m+1))`` and
    ``deg P <= m``, the term is ``-[Q*S_m]_{>m} / (z**(m+1) * Q)``, exactly;
    coefficient ``j`` of its numerator is ``-(Q*A)[k + j]``, where ``A`` holds
    the top ``k`` coefficients of ``S_m``.  A singular system for Q raises
    :class:`DegeneratePadeError`.
    """
    fld = series.field
    m = n + 2 * k
    q = pade_linear_system(series, n + k, k).denominator
    top = Jet.from_coeffs(fld, [series.coefficient(i) for i in range(m - k + 1, m + 1)],
                          order=k + order)
    high = Jet.from_coeffs(fld, q, order=k + order) * top  # Q left: its zero padding is skipped
    return Jet(fld, high.coeffs[k:]).scale(-1) / Jet.from_coeffs(fld, q, order=order)


FAMILIES = {
    family.name: family
    for family in (
        Family("aitken", (), 2, {"aitken-classic": 1, "aitken-rearranged": 1},
               rec.aitken_deps, rec.aitken_step, rec.aitken_leading),
        Family("epsilon", (), 2, {"epsilon": 2, "epsilon-cross": 2},
               rec.epsilon_deps, rec.epsilon_step, rec.epsilon_leading, _epsilon_pade_term),
        Family("theta-iterated", ("theta",), 3,
               {"theta": 2, "theta-iterated-classic": 1, "theta-iterated-rearranged": 1},
               rec.theta_deps, rec.theta_step, rec.theta_leading),
    )
}

def get_family(name: str) -> Family:
    """Registry record for a family name or alias; ``ValueError`` if unknown."""
    for family in FAMILIES.values():
        if name == family.name or name in family.aliases:
            return family
    raise ValueError(f"unknown family {name!r}; expected one of {tuple(FAMILIES)}")


def _table(table: str, fam: Family, seq: ScalarSequence, levels: int, width, deps,
           step, *, sink=None) -> TransformTable:
    """A column-wise textbook table of ``fam``, whose columns are not the
    family's levels: level ``k`` sits at column ``fam.tables[table] * k``."""
    build = _Build(UnitOps(seq.field), levels, width, deps, seq.entries, fam.step)
    return build.finish(step, None, table, fam.tables[table], sink=sink)


def _aitken_classic(ops, g, k, n, cur, prev):
    d0 = cur[n + 1] - cur[n]
    d1 = cur[n + 2] - cur[n + 1]
    dd = d1 - d0
    return cur[n] - ops.div(d0 * d0, dd)


def _aitken_quotient(ops, g, k, n, cur, prev):
    """:func:`_aitken_classic` over exact rationals ``x_i = p_i / q_i``: the
    cell ``x0 - d0**2 / dd = (x0*x2 - x1**2) / dd`` as one quotient of
    integers, reduced by one gcd (Knuth, TAOCP vol. 2, 4.5.1), where each
    ``Fraction`` operation would reduce by gcds of full-height integers.  It
    breaks down where the classic step does, on ``dd == 0``, with the error
    of :meth:`~seriaccel.field.Field.div`."""
    p0, q0 = cur[n].as_integer_ratio()
    p1, q1 = cur[n + 1].as_integer_ratio()
    p2, q2 = cur[n + 2].as_integer_ratio()
    a, b, c = p0 * q1, p2 * q1, p1 * q0
    dd = q0 * b + q2 * (a - 2 * c)  # q0*q1*q2 * dd
    if not dd:
        raise ops.field.breakdown()
    return Fraction(a * b - c * p1 * q2, q1 * dd)


def _epsilon_cross_plain(ops, g, k, n, cur, prev):
    """The cross rule anchored at ``(2k, n + 1)``; like the family step, it
    forms each reciprocal difference of a row once, in the row's memo."""
    div, one = ops.div, ops.one
    x1 = cur[n + 1]
    memo = ops.memo(cur)
    r0 = memo.pop(n, None)
    if r0 is None:
        r0 = div(one, x1 - cur[n])
    r1 = memo[n + 1] = div(one, cur[n + 2] - x1)
    denom = r1 - r0
    if k >= 1:
        denom = denom + div(one, x1 - prev[n + 2])
    return x1 + div(one, denom)


def _theta_classic(ops, g, k, n, cur, prev):
    d0 = cur[n + 1] - cur[n]
    d1 = cur[n + 2] - cur[n + 1]
    d2 = cur[n + 3] - cur[n + 2]
    dd0 = d1 - d0
    dd1 = d2 - d1
    den = d2 * dd0 - d0 * dd1
    return cur[n + 1] - ops.div(d0 * d1 * dd1, den)


#: The forms of each table builder with two, by table name, each mapped to
#: its step: the textbook update first, the default, then ``None``, the
#: family step at z = 1.
SCHEMES = {
    "aitken": {"classic": _aitken_classic, "rearranged": None},
    "epsilon-cross": {"plain": _epsilon_cross_plain, "rearranged": None},
    "theta-iterated": {"classic": _theta_classic, "rearranged": None},
}


def _form(table: str, scheme: str | None) -> str:
    """The form ``scheme`` of ``table`` in :data:`SCHEMES`, by default its
    first; ``ValueError`` for a form the table does not have."""
    forms = SCHEMES[table]
    if scheme is None:
        return next(iter(forms))
    if scheme not in forms:
        raise ValueError(f"scheme must be {' or '.join(map(repr, forms))}")
    return scheme


def table_name(table: str, scheme: str | None = None) -> str:
    """The name of the table the builder of ``table`` returns in the form
    ``scheme``: named after its form where a family registers one name per
    form, else ``table``.  ``table`` is a builder's table name (``aitken``,
    ``epsilon``, ``epsilon-cross``, ``theta``, ``theta-iterated``)."""
    if table in SCHEMES:
        name = f"{table}-{_form(table, scheme)}"
        if any(name in fam.tables for fam in FAMILIES.values()):
            return name
    return table


def _family_table(table: str, fam: Family, seq: ScalarSequence, scheme: str | None, *,
                  sink=None) -> TransformTable:
    """Textbook table ``table`` of ``fam`` in the form ``scheme`` of
    :data:`SCHEMES` (by default its first), over the levels the sequence
    reaches, at z = 1, named by :func:`table_name`; ``ValueError`` for a
    form the table does not have.  A rational classic Aitken table runs
    :func:`_aitken_quotient`."""
    scheme = _form(table, scheme)
    recursion = SCHEMES[table][scheme]
    if recursion is _aitken_classic and seq.field.mode == "rational":
        recursion = _aitken_quotient
    m = seq.last_index
    return run_recursion(fam, UnitOps(seq.field), m // fam.step, m, seq.entries,
                         table=table_name(table, scheme), recursion=recursion, sink=sink)


def aitken_table(seq: ScalarSequence, scheme: str | None = None, *, sink=None) -> TransformTable:
    """Iterated delta-squared table, ``classic`` by default; the two schemes agree."""
    return _family_table("aitken", FAMILIES["aitken"], seq, scheme, sink=sink)


def _epsilon_column(ops, g, j, n, cur, prev):
    """Wynn's rule into column ``j + 1``; ``prev``, column ``j - 1``, is
    ``None`` at the first column, where the carry is zero."""
    base = ops.zero if prev is None else prev[n + 1]
    return base + ops.div(ops.one, cur[n + 1] - cur[n])


def _epsilon_deps(j):
    """The reads of :func:`_epsilon_column`: the difference, then the carry."""
    return [(j, 0), (j, 1), (j - 1, 1)] if j else [(j, 0), (j, 1)]


def epsilon_table(seq: ScalarSequence, *, sink=None) -> TransformTable:
    """Full epsilon table; even columns approximate, odd columns are auxiliary."""
    m = seq.last_index
    return _table("epsilon", FAMILIES["epsilon"], seq, m, lambda j: m - j, _epsilon_deps,
                  _epsilon_column, sink=sink)


def epsilon_cross_table(seq: ScalarSequence, scheme: str | None = None, *,
                        sink=None) -> TransformTable:
    """Even epsilon columns via the five-point cross rule (no odd columns).

    ``plain``, the default, keeps the rule as a direct rearrangement anchored
    at entry ``(2k, n + 1)``; ``rearranged`` is the variant anchored at ``(2k, n + 2)``.
    The undefined column below the table is handled by a dedicated k = 0
    branch instead of a stored infinity.  Keys are the literal column
    subscripts ``2k``.
    """
    return _family_table("epsilon-cross", FAMILIES["epsilon"], seq, scheme, sink=sink)


def theta_table(seq: ScalarSequence, modified: bool = False, *, sink=None) -> TransformTable:
    """Theta algorithm table.

    The odd columns are Wynn's epsilon rule.  With ``modified=True`` they drop
    its carry-over term, which makes the even columns reproduce the iterated
    theta transformation.  Column ``j`` has ``m + 1 - 3j // 2`` entries.
    """
    m = seq.last_index

    def step(ops, g, j, n, cur, prev):
        if j % 2 == 0:  # odd column j + 1
            return _epsilon_column(ops, g, j, n, cur, None if modified else prev)
        d_even = prev[n + 2] - prev[n + 1]
        d_odd = cur[n + 2] - cur[n + 1]
        dd_odd = d_odd - (cur[n + 1] - cur[n])
        return prev[n + 1] + ops.div(d_even * d_odd, dd_odd)

    def deps(j):
        if j % 2 == 0:
            return _epsilon_deps(j)[:2] if modified else _epsilon_deps(j)
        return [(j - 1, 1), (j - 1, 2), (j, 0), (j, 1), (j, 2)]

    # Column j has cells while 3j // 2 <= m: columns 1 .. 2 * (m // 3), and
    # the odd column after them where m % 3 > 0.
    return _table("theta", FAMILIES["theta-iterated"], seq, 2 * (m // 3) + (m % 3 > 0),
                  lambda j: m - 3 * j // 2, deps, step, sink=sink)


def iterated_theta_table(seq: ScalarSequence, scheme: str | None = None, *,
                         sink=None) -> TransformTable:
    """Iterated theta transformation, ``classic`` by default; the two schemes agree."""
    return _family_table("theta-iterated", FAMILIES["theta-iterated"], seq, scheme, sink=sink)


def select_approximant(table: TransformTable, m: int | None = None) -> tuple[int, int, Scalar]:
    """Entry used as the approximation to the limit after ``m+1`` inputs.

    The table's own ``step`` and ``scale`` give the entry: level
    ``m // step`` at start ``m % step``, keyed ``scale * level``.  Returns
    ``(k, n, value)`` in the table's own indexing (so the epsilon and theta
    tables report their literal column subscript).  Raises
    :class:`SelectionError` when the entry is out of range or invalid.
    """
    if m is None:
        m = table.last_index
    if m < 0 or m > table.last_index:
        raise SelectionError(f"selection index {m} outside table built from 0..{table.last_index}")
    level, n = divmod(m, table.step)
    k = table.scale * level
    try:
        return k, n, table.entry(k, n)  # raises SelectionError when invalid
    except KeyError:
        raise SelectionError(f"table has no entry ({k}, {n})", k=k, n=n) from None


# ---------------------------------------------------------------------------
# Pade approximants: the epsilon prediction strategy and an independent oracle


class PadeRational(NamedTuple):
    """Rational function P/Q with Q normalized to unit constant term."""

    field: Field
    numerator: tuple[Scalar, ...]
    denominator: tuple[Scalar, ...]


def _solve_fraction_free(matrix, rhs):
    """The exact solution of a rational system, or None when singular.

    Each row of ``[matrix | rhs]`` is scaled to integers by the lcm of its
    denominators, which leaves the solution as it is.  Bareiss's elimination
    (Math. Comp. 22, 1968) then divides exactly at every step, with no gcd:
    after step ``col`` every entry is a minor of the scaled system, and the
    last pivot ``d`` is its determinant up to sign.  Back substitution gives
    each unknown times ``d``, an integer by Cramer's rule, so its division is
    exact too, and each unknown is one ``Fraction``, reduced once."""
    n = len(rhs)
    a = []
    for row, value in zip(matrix, rhs):
        row = [*row, value]
        lcm = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (lcm // x.denominator) for x in row])
    last = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            return None
        a[col], a[pivot_row] = a[pivot_row], a[col]
        top = a[col]
        pivot = top[col]
        for r in range(col + 1, n):
            row = a[r]
            factor = row[col]
            for c in range(col + 1, n + 1):
                row[c] = (row[c] * pivot - factor * top[c]) // last
        last = pivot
    scaled = [0] * n  # each unknown times ``last``
    for r in range(n - 1, -1, -1):
        row = a[r]
        acc = row[n] * last - sum(row[c] * scaled[c] for c in range(r + 1, n))
        scaled[r] = acc // row[r]
    return [Fraction(x, last) for x in scaled]


def _solve_linear(fld: Field, matrix, rhs):
    """The solution of ``matrix · x = rhs``, or None when singular: exact and
    fraction-free in rational mode (:func:`_solve_fraction_free`), else
    Gaussian elimination pivoting on the largest magnitude that
    :meth:`~seriaccel.field.Field.is_zero` does not call zero."""
    if fld.mode == "rational":
        return _solve_fraction_free(matrix, rhs)
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


def pade_linear_system(series: PowerSeries, l: int, m: int) -> PadeRational:
    """Solve the accuracy-through-order linear system for the [l/m] approximant.

    The Taylor expansion of the returned P/Q reproduces the input
    coefficients through order ``l + m`` whenever the system is nonsingular;
    a singular system raises :class:`DegeneratePadeError`.
    """
    if l < 0 or m < 0:
        raise ValueError("numerator and denominator degrees must be >= 0")
    fld = series.field

    def gamma(i: int) -> Scalar:
        return series.coefficient(i) if i >= 0 else fld.zero

    if m == 0:
        q = [fld.one]
    else:
        matrix = [[gamma(l + j - i) for i in range(1, m + 1)] for j in range(1, m + 1)]
        with fld.arithmetic():  # a bigfloat negation rounds to the current context
            rhs = [-gamma(l + j) for j in range(1, m + 1)]
        solution = _solve_linear(fld, matrix, rhs)
        if solution is None:
            raise DegeneratePadeError(f"[{l}/{m}] linear system is singular")
        q = [fld.one] + list(solution)
    with fld.arithmetic():
        p = [
            sum((q[i] * gamma(j - i) for i in range(min(j, m) + 1)), start=fld.zero)
            for j in range(l + 1)
        ]
    return PadeRational(fld, tuple(p), tuple(q))


# ---------------------------------------------------------------------------
# convergence classification


class ConvergenceReport(NamedTuple):
    kind: str  # "linear" | "logarithmic" | "divergent" | "inconclusive"
    rho: Scalar | None = None


def classify_convergence(seq: ScalarSequence) -> ConvergenceReport:
    """Classify by the limiting ratio of consecutive distances to ``seq.limit``.

    The ratio is estimated as the average over the last three available
    index pairs; with ``tol = 1/100`` the classification bands are
    ``|rho| < 1 - tol`` (linear), ``|rho - 1| < tol`` (logarithmic) and
    ``|rho| > 1 + tol`` (divergent).
    """
    fld = seq.field
    if len(seq.entries) < 5:
        raise ValueError("classification needs at least 5 sequence entries")
    s = seq.limit
    if s is None:
        raise ValueError("classification needs a known or estimated limit")
    m = seq.last_index
    ratios = []
    with fld.arithmetic():
        for i in range(m - 3, m):
            den = seq.entries[i] - s
            if fld.is_zero(den):
                return ConvergenceReport("inconclusive")
            ratios.append((seq.entries[i + 1] - s) / den)
        rho = sum(ratios, start=fld.zero) / fld.from_int(len(ratios))
        tol = fld.from_fraction(Fraction(1, 100))
        one = fld.one
        if abs(rho) < one - tol:
            return ConvergenceReport("linear", rho)
        if abs(rho - one) < tol:
            return ConvergenceReport("logarithmic", rho)
        if abs(rho) > one + tol:
            return ConvergenceReport("divergent", rho)
    return ConvergenceReport("inconclusive", rho)
