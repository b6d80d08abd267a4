"""Remainder-term analysis driven by known series tails.

Where the prediction module describes how an approximant differs from the
partial sum it was built from, this module describes how it differs from the
function itself: approximant = function + z**offset * remainder term.  The
remainder recursions start from the scaled truncation errors of the partial
sums, so they need the series tail -- either a closed-form tail rule or
enough stored coefficients.  They are model-problem tools by design.

At a numeric point the scaled truncation errors of a whole table come from a
single tail sum at the deepest index, followed by the backward recurrence
``base[n] = z * base[n+1] - gamma(n+1)``.  For ``|z| < 1`` each downward step
multiplies the error carried from above by ``z``, so errors shrink instead of
growing (the classical backward-recurrence argument; Gautschi, SIAM Review 9,
1967); bigfloat runs add 10 guard digits for the recurrence itself.

Three views are provided:

* :func:`remainder_jets` -- Taylor expansions of the remainder terms, exact
  in rational mode;
* :func:`leading_remainders` -- the z-independent parts via dedicated scalar
  recursions, whose nonzeroness is the applicability diagnostic for the
  accuracy-through-order form of each scheme;
* :func:`evaluate_error_terms` / :func:`evaluate_transformation_terms` --
  numeric tables at a fixed point, row ``m`` showing the scheme's error term
  (resp. transformation term) for the approximant selected from inputs
  ``0..m``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from ._recursions import (
    REMAINDER_RECURSIONS,
    TERM_RECURSIONS,
    JetOps,
    NumericOps,
    _Build,
    _window,
)
from fractions import Fraction

from .field import BigFloatField, RationalField, Scalar
from .jets import Jet, PowerSeries
from .prediction import PredictionBreakdownError, canonical_family, family_step
from .transforms import selection_indices

__all__ = [
    "RemainderJet",
    "RemainderJetTable",
    "LeadingRemainderTable",
    "TermCell",
    "remainder_jets",
    "leading_remainders",
    "remainder_value",
    "series_value",
    "evaluate_error_terms",
    "evaluate_transformation_terms",
]


@dataclass(frozen=True)
class RemainderJet:
    """Expansion of one remainder term: approximant = f + z**offset * term."""

    family: str
    k: int
    n: int
    offset: int
    term: Jet


@dataclass
class RemainderJetTable:
    family: str
    order: int
    terms: dict = dataclass_field(default_factory=dict)
    failures: dict = dataclass_field(default_factory=dict)

    def term(self, k: int, n: int) -> RemainderJet:
        if (k, n) in self.terms:
            return self.terms[(k, n)]
        if (k, n) in self.failures:
            raise PredictionBreakdownError(self.family, k, n, self.failures[(k, n)])
        raise KeyError(f"no remainder term at ({k}, {n})")

    def __iter__(self):
        return iter(sorted(self.terms.values(), key=lambda t: (t.k, t.n)))


@dataclass
class LeadingRemainderTable:
    """z-independent parts of the remainder terms, with nonzero flags.

    ``entry(k, n)`` must be nonzero for the scheme's accuracy-through-order
    order estimate to hold at that position; a zero value is stored but
    flagged, and deeper entries that would divide by it break down.
    """

    family: str
    entries: dict = dataclass_field(default_factory=dict)
    valid: dict = dataclass_field(default_factory=dict)
    nonzero: dict = dataclass_field(default_factory=dict)
    notes: dict = dataclass_field(default_factory=dict)

    def is_valid(self, k: int, n: int) -> bool:
        return self.valid.get((k, n), False)

    def is_nonzero(self, k: int, n: int) -> bool:
        return self.nonzero.get((k, n), False)

    def entry(self, k: int, n: int) -> Scalar:
        if not self.valid.get((k, n), False):
            raise PredictionBreakdownError(
                self.family, k, n, self.notes.get((k, n), "entry not computed")
            )
        return self.entries[(k, n)]

    def positions(self):
        return sorted(self.entries)


def _base_remainder_row(series: PowerSeries, order: int, top_n: int) -> dict:
    """Rows ``n -> -(gamma(n+1) + gamma(n+2) z + ...)`` truncated at ``order``."""
    fld = series.field
    rows = {}
    with fld.arithmetic():
        for n in range(top_n + 1):
            coeffs = tuple(-series.coefficient(n + v + 1) for v in range(order + 1))
            rows[n] = Jet(fld, coeffs)
    return rows


def remainder_jets(
    series: PowerSeries,
    family: str,
    max_level: int,
    order: int,
    n_max: int | None = None,
) -> RemainderJetTable:
    """Expand remainder terms as jets for positions up to ``(max_level, n_max)``.

    Needs tail coefficients through ``n_max + step*max_level + order + 1``;
    raises ``IndexError`` if the series cannot supply them.
    """
    family = canonical_family(family)
    step = family_step(family)
    if n_max is None:
        n_max = step - 1
    top = n_max + step * max_level
    base = _base_remainder_row(series, order, top)
    recursion, _ = REMAINDER_RECURSIONS[family]
    ops = JetOps(series.field, order)
    entries, failures = recursion(ops, base, max_level, lambda k: top - step * k)
    table = RemainderJetTable(family, order)
    for (k, n), jet in entries.items():
        table.terms[(k, n)] = RemainderJet(family, k, n, n + step * k + 1, jet)
    table.failures.update(failures)
    return table


def leading_remainders(
    series: PowerSeries,
    family: str,
    max_level: int,
    last_index: int | None = None,
) -> LeadingRemainderTable:
    """Scalar recursion for the z-independent remainder parts.

    Base entries are the negated coefficients one past each position; the
    recursion per family mirrors its remainder recursion at the series
    origin.  Positions use coefficients through ``last_index`` (default: all
    stored ones).
    """
    family = canonical_family(family)
    step = family_step(family)
    fld = series.field
    if last_index is None:
        last_index = series.known_order
    m = last_index
    if m < 1:
        raise ValueError("leading remainders need at least coefficients 0 and 1")
    gamma = series.coefficient
    width = lambda k: m - step * k - 1
    if width(max_level) < 0:
        raise ValueError(f"{family} level {max_level} needs coefficients through {step * max_level + 1}")
    with fld.arithmetic():
        seed = {n: -gamma(n + 1) for n in range(width(0) + 1)}

    if family == "aitken":
        def step_fn(k, n, cur, prev):
            return cur[n + 2] - fld.div(cur[n + 1] * cur[n + 1], cur[n])

        deps = lambda k, n: _window(k, n, 3)

    elif family == "epsilon":
        def step_fn(k, n, cur, prev):
            sq = cur[n + 1] * cur[n + 1]
            value = cur[n + 2] - fld.div(sq, cur[n])
            if k >= 1:
                value = value + fld.div(sq, prev[n + 2])
            return value

        deps = lambda k, n: _window(k, n, 3, prev_at=2)

    else:  # theta-iterated
        def step_fn(k, n, cur, prev):
            two = fld.from_int(2)
            num = cur[n + 2] * (two * cur[n] * cur[n + 2] - cur[n + 1] * cur[n + 1])
            return cur[n + 3] - fld.div(num, cur[n] * cur[n + 1])

        deps = lambda k, n: _window(k, n, 4)

    ops = NumericOps(fld, fld.zero)
    build = _Build(ops, max_level, width, deps)
    build.seed(seed)
    build.run(step_fn)
    entries, failures = build.result()

    table = LeadingRemainderTable(family)
    for key, value in entries.items():
        table.entries[key] = value
        table.valid[key] = True
        table.nonzero[key] = not fld.is_zero(value)
    for key, reason in failures.items():
        table.valid[key] = False
        table.notes[key] = reason
    return table


# ---------------------------------------------------------------------------
# numeric evaluation at a fixed point


def remainder_value(series: PowerSeries, n: int, z: Scalar) -> Scalar:
    """Scaled truncation error ``(f_n(z) - f(z)) / z**(n+1)`` by tail summation.

    Sums ``-(gamma(n+1) + gamma(n+2) z + ...)`` numerically until the terms
    fall below the working precision, so it needs a float mode and
    ``|z| < 1``.  :func:`evaluate_error_terms` calls it once per table, at the
    deepest index, and reaches the shallower ones by backward recurrence.
    """
    fld = series.field
    if isinstance(fld, RationalField):
        raise ValueError("numeric remainder evaluation needs a bigfloat or f64 mode")
    z = fld.ensure(z)
    one = fld.one
    if abs(z) >= one:
        raise ValueError("remainder tail summation converges only for |z| < 1")
    if isinstance(fld, BigFloatField):
        tol = fld.from_fraction(Fraction(1, 10 ** (fld.digits + 5)))
    else:
        tol = 1e-18
    with fld.arithmetic():
        acc = fld.zero
        zpow = one
        quiet = 0
        for v in range(500_000):
            term = series.coefficient(n + v + 1) * zpow
            acc = acc - term
            scale = abs(acc)
            if scale < one:
                scale = one
            if abs(term) <= tol * scale:
                quiet += 1
                if quiet >= 3:
                    return acc
            else:
                quiet = 0
            zpow = zpow * z
    raise ValueError("remainder tail summation did not settle within 500000 terms")


def _remainder_bases(series: PowerSeries, z: Scalar, m_max: int) -> dict:
    """``n -> remainder_value(series, n, z)`` for ``n = 0..m_max``, from one tail
    sum at ``m_max`` and the backward recurrence of the module docstring.

    Bigfloat runs the recurrence with 10 guard digits, then rounds each base
    back to the working precision.
    """
    if m_max < 0:
        return {}
    fld = series.field
    work = BigFloatField(fld.digits + 10) if isinstance(fld, BigFloatField) else fld
    bases = [remainder_value(series, m_max, z)]
    with work.arithmetic():
        for n in range(m_max - 1, -1, -1):
            bases.append(z * bases[-1] - series.coefficient(n + 1))
    with fld.arithmetic():
        return {n: +value for n, value in enumerate(reversed(bases))}


def series_value(series: PowerSeries, z: Scalar) -> Scalar:
    """Value of the full series at ``z`` (|z| < 1), from the degree-0 remainder."""
    fld = series.field
    z = fld.ensure(z)
    with fld.arithmetic():
        return series.coefficient(0) - z * remainder_value(series, 0, z)


@dataclass(frozen=True)
class TermCell:
    """One table cell: the selected term for inputs ``0..m``, times z**(m+1)."""

    m: int
    family: str
    level: int
    n: int
    value: Scalar | None
    valid: bool
    note: str = ""


def _selected_cells(family, step, entries, failures, fld, z, m_max):
    cells = []
    with fld.arithmetic():
        for m in range(m_max + 1):
            k, n = selection_indices(step, m)
            if k == 0:
                # Not enough inputs for a genuine transform yet: zero by convention.
                cells.append(TermCell(m, family, k, n, fld.zero, True))
            elif (k, n) in entries:
                value = z ** (m + 1) * entries[(k, n)]
                if fld.is_finite(value):
                    cells.append(TermCell(m, family, k, n, value, True))
                else:
                    cells.append(TermCell(m, family, k, n, None, False, "overflow"))
            else:
                note = failures.get((k, n), "not computed")
                cells.append(TermCell(m, family, k, n, None, False, note))
    return cells


def _family_list(families):
    if families is None:
        return ["aitken", "epsilon", "theta-iterated"]
    return [canonical_family(f) for f in families]


def evaluate_error_terms(
    series: PowerSeries,
    z: Scalar,
    m_max: int,
    families=None,
) -> dict[str, list[TermCell]]:
    """Numeric error terms (approximant minus function) per family and m.

    The remainder recursions run directly on the numeric scaled truncation
    errors; row ``m`` holds ``z**(m+1)`` times the remainder term of the
    approximant the selection rule picks from inputs ``0..m``.  Rows where a
    family cannot form a transform yet are exact zeros.

    The truncation errors cost one tail sum (at ``n = m_max``) plus a
    guarded backward recurrence down to ``n = 0``, which is stable because
    it damps inherited errors by ``|z| < 1`` per step.  A series without a
    tail rule raises :class:`~seriaccel.jets.MissingCoefficientError`.
    """
    fld = series.field
    z = fld.ensure(z)
    out = {}
    base = _remainder_bases(series, z, m_max)
    for family in _family_list(families):
        step = family_step(family)
        recursion, _ = REMAINDER_RECURSIONS[family]
        entries, failures = recursion(
            NumericOps(fld, z), base, m_max // step, lambda k: m_max - step * k
        )
        out[family] = _selected_cells(family, step, entries, failures, fld, z, m_max)
    return out


def evaluate_transformation_terms(
    series: PowerSeries,
    z: Scalar,
    m_max: int,
    families=None,
) -> dict[str, list[TermCell]]:
    """Numeric transformation terms (approximant minus its partial sum).

    Runs on the series coefficients and a numeric point, which may lie far
    outside the circle of convergence: for a summable divergent series these
    cells converge to the negatives of the partial sums.
    """
    fld = series.field
    z = fld.ensure(z)
    out = {}
    for family in _family_list(families):
        step = family_step(family)
        recursion, _ = TERM_RECURSIONS[family]
        entries, failures = recursion(
            NumericOps(fld, z), series.coefficient, m_max // step, lambda k: m_max - step * k
        )
        out[family] = _selected_cells(family, step, entries, failures, fld, z, m_max)
    return out
