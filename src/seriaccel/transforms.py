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

:data:`SCHEMES` lists the forms of each table that has two, the default
first.  The rearranged forms are the family steps of :mod:`seriaccel._recursions`
at z = 1, where the shifted difference ``z * X(n+1) - X(n)`` is the forward
difference; the classic and plain forms stay as independent references.
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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import _recursions as rec
from ._recursions import SelectionError, TransformTable, UnitOps, _Build, run_recursion
from .field import Field, Scalar
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
    "aitken_table",
    "epsilon_table",
    "epsilon_cross_table",
    "theta_table",
    "iterated_theta_table",
    "select_approximant",
    "selection_indices",
    "pade_linear_system",
    "classify_convergence",
]

class DegeneratePadeError(ArithmeticError):
    """The Pade linear system is singular."""


@dataclass(frozen=True)
class ScalarSequence:
    """Elements ``s0 ... sm`` to be transformed, with an optional known limit."""

    field: Field
    entries: tuple[Scalar, ...]
    limit: Scalar | None = None

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a sequence needs at least one entry")
        object.__setattr__(self, "entries", self.field.ensure_all(self.entries))
        if self.limit is not None:
            object.__setattr__(self, "limit", self.field.ensure(self.limit))

    @property
    def last_index(self) -> int:
        return len(self.entries) - 1


@dataclass(frozen=True)
class ModelSequence:
    """Geometric-remainder model ``s_n = limit + amplitude * ratio**n``.

    One delta-squared step recovers ``limit`` exactly from any three
    consecutive elements, whether the sequence converges (|ratio| < 1) or
    diverges (|ratio| > 1).
    """

    field: Field
    limit: Scalar
    amplitude: Scalar
    ratio: Scalar

    def __post_init__(self):
        object.__setattr__(self, "limit", self.field.ensure(self.limit))
        object.__setattr__(self, "amplitude", self.field.ensure(self.amplitude))
        object.__setattr__(self, "ratio", self.field.ensure(self.ratio))
        if self.amplitude == self.field.zero:
            raise ValueError("model amplitude must be nonzero")
        if abs(self.ratio) == self.field.one:
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


@dataclass(frozen=True)
class Family:
    """Registry record of one acceleration family.

    A level consumes ``step`` inputs, so the selection rule takes level
    ``m // step`` at start ``m % step`` from inputs ``0..m``
    (:func:`selection_indices`).  ``tables`` maps the names of the family's
    textbook tables to their key scale: 2 where keys are literal epsilon or
    theta column subscripts, so that level ``k`` sits at key ``2k``.
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

#: The forms of each table builder with two, by table name, the default (the
#: textbook update) first, then the family step at z = 1.
SCHEMES = {
    "aitken": ("classic", "rearranged"),
    "epsilon-cross": ("plain", "rearranged"),
    "theta-iterated": ("classic", "rearranged"),
}


def _scheme(table: str, scheme: str | None, noun: str = "scheme") -> str:
    """``scheme`` of :data:`SCHEMES` ``[table]``, by default its first; else ``ValueError``."""
    schemes = SCHEMES[table]
    if scheme is None:
        return schemes[0]
    if scheme not in schemes:
        raise ValueError(f"{noun} must be {' or '.join(map(repr, schemes))}")
    return scheme


def get_family(name: str) -> Family:
    """Registry record for a family name or alias; ``ValueError`` if unknown."""
    for family in FAMILIES.values():
        if name == family.name or name in family.aliases:
            return family
    raise ValueError(f"unknown family {name!r}; expected one of {tuple(FAMILIES)}")


def _table(table: str, fam: Family, seq: ScalarSequence, levels: int, width, deps,
           step) -> TransformTable:
    """A column-wise textbook table of ``fam``, whose columns are not the
    family's levels: level ``k`` sits at column ``fam.tables[table] * k``."""
    build = _Build(UnitOps(seq.field), levels, width, deps, seq.entries, fam.step)
    build.run(step)
    return build.table(table, scale=fam.tables[table])


def _family_table(table: str, fam: Family, seq: ScalarSequence, recursion=None) -> TransformTable:
    """Textbook table ``table`` in its family's geometry: ``recursion``, by
    default the family's rearranged step, over the levels the sequence
    reaches, at z = 1."""
    m = seq.last_index
    return run_recursion(fam, UnitOps(seq.field), m // fam.step, m, seq.entries, table=table,
                         recursion=recursion)


def _aitken_classic(ops, g, k, n, cur, prev):
    d0 = cur[n + 1] - cur[n]
    d1 = cur[n + 2] - cur[n + 1]
    dd = d1 - d0
    return cur[n] - ops.div(d0 * d0, dd)


def aitken_table(seq: ScalarSequence, scheme: str | None = None) -> TransformTable:
    """Iterated delta-squared table, ``classic`` by default; the two schemes agree."""
    scheme = _scheme("aitken", scheme)
    return _family_table(f"aitken-{scheme}", FAMILIES["aitken"], seq,
                         _aitken_classic if scheme == "classic" else None)


def _epsilon_column(ops, g, j, n, cur, prev):
    base = prev[n + 1] if j >= 1 else ops.zero
    return base + ops.div(ops.one, cur[n + 1] - cur[n])


def epsilon_table(seq: ScalarSequence) -> TransformTable:
    """Full epsilon table; even columns approximate, odd columns are auxiliary."""
    m = seq.last_index
    deps = lambda j: [(j, 0), (j, 1), (j - 1, 1)] if j else [(j, 0), (j, 1)]
    return _table("epsilon", FAMILIES["epsilon"], seq, m, lambda j: m - j, deps, _epsilon_column)


def _epsilon_cross_plain(ops, g, k, n, cur, prev):
    d0 = cur[n + 1] - cur[n]
    d1 = cur[n + 2] - cur[n + 1]
    denom = ops.div(ops.one, d1) - ops.div(ops.one, d0)
    if k >= 1:
        gap = cur[n + 1] - prev[n + 2]
        denom = denom + ops.div(ops.one, gap)
    return cur[n + 1] + ops.div(ops.one, denom)


def epsilon_cross_table(seq: ScalarSequence, form: str | None = None) -> TransformTable:
    """Even epsilon columns via the five-point cross rule (no odd columns).

    ``plain``, the default, keeps the rule as a direct rearrangement anchored
    at entry ``(2k, n + 1)``; ``rearranged`` is the variant anchored at ``(2k, n + 2)``.
    The undefined column below the table is handled by a dedicated k = 0
    branch instead of a stored infinity.  Keys are the literal column
    subscripts ``2k``.
    """
    form = _scheme("epsilon-cross", form, "form")
    return _family_table("epsilon-cross", FAMILIES["epsilon"], seq,
                         _epsilon_cross_plain if form == "plain" else None)


def theta_table(seq: ScalarSequence, modified: bool = False) -> TransformTable:
    """Theta algorithm table.

    With ``modified=True`` the odd-column update drops its carry-over term,
    which makes the even columns reproduce the iterated theta transformation.
    Column ``j`` has ``m + 1 - 3j // 2`` entries.
    """
    m = seq.last_index

    def step(ops, g, j, n, cur, prev):
        if j % 2 == 0:  # odd column j + 1
            base = ops.zero if modified or j == 0 else prev[n + 1]
            return base + ops.div(ops.one, cur[n + 1] - cur[n])
        d_even = prev[n + 2] - prev[n + 1]
        d_odd = cur[n + 2] - cur[n + 1]
        dd_odd = d_odd - (cur[n + 1] - cur[n])
        return prev[n + 1] + ops.div(d_even * d_odd, dd_odd)

    def deps(j):
        if j % 2 == 0:
            carry = [(j - 1, 1)] if j and not modified else []
            return [(j, 0), (j, 1)] + carry
        return [(j - 1, 1), (j - 1, 2), (j, 0), (j, 1), (j, 2)]

    return _table("theta", FAMILIES["theta-iterated"], seq, 2 * (m // 3) + 1,
                  lambda j: m - 3 * j // 2, deps, step)


def _theta_classic(ops, g, k, n, cur, prev):
    d0 = cur[n + 1] - cur[n]
    d1 = cur[n + 2] - cur[n + 1]
    d2 = cur[n + 3] - cur[n + 2]
    dd0 = d1 - d0
    dd1 = d2 - d1
    den = d2 * dd0 - d0 * dd1
    return cur[n + 1] - ops.div(d0 * d1 * dd1, den)


def iterated_theta_table(seq: ScalarSequence, scheme: str | None = None) -> TransformTable:
    """Iterated theta transformation, ``classic`` by default; the two schemes agree."""
    scheme = _scheme("theta-iterated", scheme)
    return _family_table(f"theta-iterated-{scheme}", FAMILIES["theta-iterated"], seq,
                         _theta_classic if scheme == "classic" else None)


def selection_indices(step: int, m: int) -> tuple[int, int]:
    """Deepest (level, start) reachable from inputs ``s0 ... sm``."""
    k = m // step
    return k, m - step * k


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
    level, n = selection_indices(table.step, m)
    k = table.scale * level
    try:
        return k, n, table.entry(k, n)  # raises SelectionError when invalid
    except KeyError:
        raise SelectionError(f"table has no entry ({k}, {n})", k=k, n=n) from None


# ---------------------------------------------------------------------------
# Pade approximants: the epsilon prediction strategy and an independent oracle


@dataclass(frozen=True)
class PadeRational:
    """Rational function P/Q with Q normalized to unit constant term."""

    field: Field
    numerator: tuple[Scalar, ...]
    denominator: tuple[Scalar, ...]

    def evaluate(self, z: Scalar) -> Scalar:
        fld = self.field
        z = fld.ensure(z)
        with fld.arithmetic():
            p = fld.zero
            for c in reversed(self.numerator):
                p = p * z + c
            q = fld.zero
            for c in reversed(self.denominator):
                q = q * z + c
        return fld.div(p, q)

    def taylor_jet(self, order: int) -> Jet:
        num = Jet.from_coeffs(self.field, self.numerator, order=order)
        den = Jet.from_coeffs(self.field, self.denominator, order=order)
        return num / den


def _solve_linear(fld: Field, matrix, rhs):
    """Gaussian elimination, pivoting on the largest nonzero magnitude; None
    when singular.  A nonsingular system has one solution, so in rational
    mode the pivot order changes only the cost, never the result."""
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


@dataclass(frozen=True)
class ConvergenceReport:
    kind: str  # "linear" | "logarithmic" | "divergent" | "inconclusive"
    rho: Scalar | None = None


def classify_convergence(seq: ScalarSequence, limit: Scalar | None = None) -> ConvergenceReport:
    """Classify by the limiting ratio of consecutive distances to the limit.

    The ratio is estimated as the average over the last three available
    index pairs; with ``tol = 1/100`` the classification bands are
    ``|rho| < 1 - tol`` (linear), ``|rho - 1| < tol`` (logarithmic) and
    ``|rho| > 1 + tol`` (divergent).
    """
    fld = seq.field
    if len(seq.entries) < 5:
        raise ValueError("classification needs at least 5 sequence entries")
    s = seq.limit if limit is None else fld.ensure(limit)
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
