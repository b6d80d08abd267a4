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
  numeric tables at a fixed point, one :class:`TransformTable` per family
  with one cell per ``m``: the cell at ``(k, n) = divmod(m, step)`` is
  ``z**(m+1)`` times the scheme's error term (resp. transformation term) for
  the approximant selected from inputs ``0..m``, so
  :func:`~seriaccel.transforms.select_approximant` reads row ``m``.  A failed
  row keeps its reason in ``notes``: ``overflow`` or the build's note.
"""

from __future__ import annotations

from fractions import Fraction

from ._recursions import JetOps, NumericOps, TransformTable, _last_index, run_recursion
from .field import BigFloatField, RationalField, Scalar
from .jets import Jet, PowerSeries
from .transforms import FAMILIES, get_family

__all__ = [
    "remainder_jets",
    "leading_remainders",
    "remainder_value",
    "series_value",
    "evaluate_error_terms",
    "evaluate_transformation_terms",
]


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
) -> TransformTable:
    """Expand remainder terms as jets for positions up to ``(max_level, n_max)``.

    ``n_max`` defaults to ``step - 1``.  Raises ``ValueError`` on an argument
    out of range, and ``IndexError`` if the series cannot supply the tail
    coefficients through ``n_max + step*max_level + order + 1``.
    """
    fam = get_family(family)
    n_max = fam.step - 1 if n_max is None else n_max
    top = n_max + fam.step * max_level
    ops = JetOps(series.field, order)
    return run_recursion(fam, ops, max_level, top, _base_remainder_row(series, order, top))


def leading_remainders(
    series: PowerSeries,
    family: str,
    max_level: int,
    last_index: int | None = None,
) -> TransformTable:
    """Scalar recursion for the z-independent remainder parts.

    Base entries are the negated coefficients one past each position; the
    recursion per family mirrors its remainder recursion at the series
    origin.  Positions use coefficients through ``last_index`` (default: all
    stored ones), so level ``k`` needs ``last_index >= step*k + 1``.  The
    scheme's accuracy-through-order estimate holds at ``(k, n)`` only where
    the entry is nonzero (``not field.is_zero(entry)``); a zero entry is
    kept, and the deeper entries that divide by it break down.
    """
    m = _last_index(series, last_index)
    fam = get_family(family)
    fld = series.field
    with fld.arithmetic():
        seed = [-series.coefficient(n + 1) for n in range(m)]
    return run_recursion(fam, NumericOps(fld, fld.zero), max_level, m - 1, seed,
                         recursion=fam.leading)


# ---------------------------------------------------------------------------
# numeric evaluation at a fixed point


def remainder_value(series: PowerSeries, n: int, z: Scalar) -> Scalar:
    """Scaled truncation error ``(f_n(z) - f(z)) / z**(n+1)`` by tail summation.

    Sums ``-(gamma(n+1) + gamma(n+2) z + ...)`` numerically until three terms
    in a row fall below the working precision, so it needs a float mode and
    ``|z| < 1``.  A zero term counts only once ``|z**v|`` has fallen too: a
    zero coefficient says nothing of the coefficients after it.
    :func:`evaluate_error_terms` calls it once per table, at the deepest
    index, and reaches the shallower ones by backward recurrence.
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
            if (abs(term) <= (tol if scale < one else tol * scale)
                    and (term or abs(zpow) <= tol)):
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

    The recurrence runs in the field's guarded form (10 guard digits in
    bigfloat), and each base is rounded back to the working precision once.
    """
    if m_max < 0:
        return {}
    fld = series.field
    bases = [remainder_value(series, m_max, z)]
    with fld.guarded().arithmetic():
        for n in range(m_max - 1, -1, -1):
            bases.append(z * bases[-1] - series.coefficient(n + 1))
    return dict(enumerate(fld.from_guarded(reversed(bases))))


def series_value(series: PowerSeries, z: Scalar) -> Scalar:
    """Value of the full series at ``z`` (|z| < 1), from the degree-0 remainder."""
    fld = series.field
    z = fld.ensure(z)
    with fld.arithmetic():
        return series.coefficient(0) - z * remainder_value(series, 0, z)


def _selected(table: TransformTable, fld, powers: list) -> TransformTable:
    """``table`` cut to one cell per ``m``, at ``(k, n) = divmod(m, step)``:
    ``powers[m]``, which is ``z**(m+1)``, times the entry, ``overflow`` where
    that product leaves the field's range or the power is ``None``, or the
    build's note.  Level 0 is zero by convention: not enough inputs for a
    genuine transform yet."""
    entries, notes = {}, {}
    with fld.arithmetic():
        for m in range(table.size):
            key = divmod(m, table.step)
            if key[0] == 0:
                entries[key] = fld.zero
            elif key not in table.entries:
                notes[key] = table.notes[key]
            else:
                power = powers[m]
                value = None if power is None else power * table.entries[key]
                if value is not None and fld.is_finite(value):
                    entries[key] = value
                else:
                    notes[key] = "overflow"
    return table._replace(entries=entries, notes=notes)


def _powers(fld, z: Scalar, count: int) -> list:
    """``z**(m+1)`` for ``m < count``, in the field's arithmetic; ``None`` where
    an f64 power raises ``OverflowError`` (a product would give inf there)."""
    powers = []
    with fld.arithmetic():
        for m in range(count):
            try:
                powers.append(z ** (m + 1))
            except OverflowError:
                powers.append(None)
    return powers


def _evaluate(series, z, m_max, seed, coeff=None) -> dict[str, TransformTable]:
    """Selected cells per family of the rearranged recursion at ``z``; the
    powers of ``z`` are formed once for the three families."""
    fld = series.field
    ops = NumericOps(fld, z)
    powers = _powers(fld, ops.z, m_max + 1)
    return {fam.name: _selected(run_recursion(fam, ops, m_max // fam.step, m_max, seed, coeff),
                                fld, powers)
            for fam in FAMILIES.values()}


def evaluate_error_terms(series: PowerSeries, z: Scalar, m_max: int) -> dict[str, TransformTable]:
    """Numeric error terms (approximant minus function) per family and m.

    The remainder recursions run directly on the numeric scaled truncation
    errors; the family's table holds, for row ``m``, ``z**(m+1)`` times the
    remainder term of the approximant the selection rule picks from inputs
    ``0..m``, at ``(k, n) = divmod(m, step)``.  Rows where a family cannot
    form a transform yet are exact zeros.

    The truncation errors cost one tail sum (at ``n = m_max``) plus a
    guarded backward recurrence down to ``n = 0``, which is stable because
    it damps inherited errors by ``|z| < 1`` per step.  A series without a
    tail rule raises :class:`~seriaccel.jets.MissingCoefficientError`.
    """
    z = series.field.ensure(z)
    return _evaluate(series, z, m_max, _remainder_bases(series, z, m_max))


def evaluate_transformation_terms(series: PowerSeries, z: Scalar,
                                  m_max: int) -> dict[str, TransformTable]:
    """Numeric transformation terms (approximant minus its partial sum).

    Runs on the series coefficients and a numeric point, which may lie far
    outside the circle of convergence: for a summable divergent series these
    cells converge to the negatives of the partial sums.
    """
    z = series.field.ensure(z)
    zeros = [series.field.zero] * (m_max + 1)
    return _evaluate(series, z, m_max, zeros, series.coefficient)
