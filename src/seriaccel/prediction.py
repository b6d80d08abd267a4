"""Coefficient prediction from accelerated partial sums.

Each acceleration scheme turns the partial sums of a power series into a
rational approximant that can be written as the partial sum it consumed plus
a power of the series variable times a *transformation term*.  The Taylor
coefficients of that term are predictions for the series coefficients the
approximant never saw.

Three routes are implemented and cross-check each other:

* :func:`transformation_terms` expands the terms as jets via the rearranged
  recursions, giving as many predicted coefficients as the jet order allows;
* for epsilon, whose entry at level ``k``, start ``n`` is the [n+k/k] Pade
  approximant, the family's prediction strategy writes the term in closed
  form from the Pade denominator (one linear solve instead of the triangle);
* :func:`leading_predictions` runs the dedicated scalar recursions for just
  the first prediction (the term's constant part), with no jets involved.

:func:`predict_coefficients` takes the closed form where the family has one
and the jet expansion otherwise, and both expand exactly through the last
coefficient it returns: coefficient ``j`` of a truncated jet sum, product,
reciprocal or shift depends only on operand coefficients up to ``j``, so a
longer expansion would give the same predictions.

The family names are ``"aitken"`` (iterated delta-squared), ``"epsilon"``
(Wynn's algorithm / Pade approximants) and ``"theta-iterated"`` (alias
``"theta"``); their records live in :data:`seriaccel.transforms.FAMILIES`.
:func:`transformation_terms` and :func:`leading_predictions` return a
:class:`~seriaccel.transforms.TransformTable` named after the family, whose
entry at ``(k, n)`` is the term jet or its leading part; the first
coefficient it predicts has order ``n + step*k + 1``.  Their bounds are
checked by :func:`~seriaccel._recursions.run_recursion`, like every table's.

In rational mode the term is exact, and the tallest integer of a level
(common denominator or numerator) roughly triples per level, while Python
refuses to write an int of more than ``sys.get_int_max_str_digits()`` digits
as text.  So the jet route of :func:`predict_coefficients` keeps a *height
budget*: after each finished level ``k >= 2`` it forecasts the next level's
height as ``h_k**2 / h_(k-1)`` bits and raises :class:`HeightBudgetError`
before building a level forecast past :data:`HEIGHT_MARGIN` times that
limit, instead of spending most of its time on coefficients it cannot print.
"""

from __future__ import annotations

import math
import sys

from ._recursions import JetOps, NumericOps, TransformTable, _last_index, run_recursion
from .field import BreakdownError, Scalar
from .jets import PowerSeries
from .transforms import DegeneratePadeError, get_family

__all__ = [
    "HEIGHT_MARGIN",
    "HeightBudgetError",
    "PredictionBreakdownError",
    "transformation_terms",
    "leading_predictions",
    "predict_coefficients",
]

class PredictionBreakdownError(BreakdownError):
    """A prediction denominator broke down at a specific table position."""

    def __init__(self, family: str, k: int, n: int, reason: str):
        super().__init__(f"{family} prediction breakdown at (k={k}, n={n}): {reason}")
        self.family = family
        self.k = k
        self.n = n


#: How far a level's forecast height may pass the bits of the int-to-text
#: limit before rational :func:`predict_coefficients` refuses to build it.
#: The forecast ``h_k**2 / h_(k-1)`` ran up to 1.11 times the real height on
#: levels above 9,000 bits (``log1p-over-z`` and ``zeta(2, 3, 4)``, counts
#: 1-8), and the tallest printable prediction of that sweep was forecast at
#: 1.038 times the limit, so 1.15 refuses no prediction that prints.
HEIGHT_MARGIN = 1.15


class HeightBudgetError(ValueError):
    """A rational prediction refused before a level whose forecast height
    passes the budget: its coefficients could not be written as text."""

    def __init__(self, family: str, level: int, forecast: int, budget: int, limit: int):
        super().__init__(
            f"{family} prediction refused before level {level}: its forecast height of "
            f"{forecast} bits passes the budget of {budget} bits ({HEIGHT_MARGIN} times the "
            f"{limit}-digit limit of integer text); --mode bigfloat is the bounded route")
        self.family = family
        self.level = level
        self.forecast = forecast
        self.budget = budget


def _height_budget(series: PowerSeries, family: str, levels: int):
    """The sink that keeps the height budget of a rational jet build of
    ``levels`` levels, or ``None`` outside rational mode or when the
    interpreter has no int-to-text limit (read now, 0 meaning none)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # absent before 3.10.7
    fld = series.field
    if fld.mode != "rational" or not limit:
        return None
    budget = int(limit * math.log2(10) * HEIGHT_MARGIN)
    height = fld.series_height
    heights = []

    def sink(level, width, row, notes):
        heights.append(max([height(jet.packed) for jet in row.values()], default=0))
        if 2 <= level < levels and heights[-2]:
            forecast = heights[-1] ** 2 // heights[-2]
            if forecast > budget:
                raise HeightBudgetError(family, level + 1, forecast, budget, limit)

    return sink


def transformation_terms(
    series: PowerSeries,
    family: str,
    max_level: int,
    order: int,
    last_index: int | None = None,
    *,
    sink=None,
) -> TransformTable:
    """Expand the transformation terms of ``family`` as jets of ``order``.

    Produces every position ``(k, n)`` with ``k <= max_level`` and
    ``n + step*k <= last_index`` (default: all stored coefficients).  A
    position whose recursion hits a (near-)zero denominator is marked
    invalid, with the reason in ``notes``, instead of aborting the rest of
    the table.  ``sink`` receives each finished level, as in
    :func:`~seriaccel._recursions.run_recursion`; an error it raises ends
    the build.
    """
    m = _last_index(series, last_index)
    ops = JetOps(series.field, order)
    return run_recursion(get_family(family), ops, max_level, m, [ops.zero] * (m + 1),
                         series.coefficient, sink=sink)


def leading_predictions(
    series: PowerSeries,
    family: str,
    max_level: int,
    last_index: int | None = None,
) -> TransformTable:
    """First predicted coefficient for every reachable table position.

    Pure scalar recursions on the series coefficients; entry ``(k, n)``
    predicts the coefficient of order ``n + step*k + 1``.
    """
    m = _last_index(series, last_index)
    fam = get_family(family)
    fld = series.field
    return run_recursion(fam, NumericOps(fld, fld.zero), max_level, m, [fld.zero] * (m + 1),
                         series.coefficient, recursion=fam.leading)


def predict_coefficients(
    series: PowerSeries,
    family: str,
    last_index: int,
    count: int,
) -> tuple[tuple[int, Scalar], ...]:
    """Predict the ``count`` coefficients after ``last_index``.

    Uses the family's selection rule to pick the deepest transformation term
    reachable from coefficients ``0..last_index`` and reads the predictions
    off its Taylor coefficients through order ``count - 1``.  A family with
    a closed-form term (``Family.prediction_term``: epsilon, from its Pade
    denominator) expands that; the others expand their recursion over jets.
    The first prediction equals the corresponding :func:`leading_predictions`
    entry exactly where that entry is valid.  A prediction that is not finite
    raises :class:`PredictionBreakdownError` with the note ``overflow``, by
    either route.  In rational mode the jet route keeps the height budget of
    the module docstring and raises :class:`HeightBudgetError` before a
    level forecast past it; ``sys.set_int_max_str_digits(0)`` lifts it.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    fam = get_family(family)
    k, n = divmod(_last_index(series, last_index), fam.step)
    order = count - 1
    if fam.prediction_term is None:
        table = transformation_terms(series, family, max_level=k, order=order,
                                     last_index=last_index,
                                     sink=_height_budget(series, fam.name, k))
        if (k, n) not in table.entries:
            raise PredictionBreakdownError(fam.name, k, n, table.notes[(k, n)])
        term = table.entries[(k, n)]
    else:
        try:
            term = fam.prediction_term(series, k, n, order)
        except DegeneratePadeError as exc:
            raise PredictionBreakdownError(fam.name, k, n, str(exc)) from None
    if not term.is_finite():
        raise PredictionBreakdownError(fam.name, k, n, "overflow")
    return tuple(enumerate(term.coeffs, last_index + 1))
