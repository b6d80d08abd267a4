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
"""

from __future__ import annotations

from ._recursions import JetOps, NumericOps, TransformTable, _last_index, run_recursion
from .field import BreakdownError, Scalar
from .jets import PowerSeries
from .transforms import DegeneratePadeError, get_family

__all__ = [
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


def transformation_terms(
    series: PowerSeries,
    family: str,
    max_level: int,
    order: int,
    last_index: int | None = None,
) -> TransformTable:
    """Expand the transformation terms of ``family`` as jets of ``order``.

    Produces every position ``(k, n)`` with ``k <= max_level`` and
    ``n + step*k <= last_index`` (default: all stored coefficients).  A
    position whose recursion hits a (near-)zero denominator is marked
    invalid, with the reason in ``notes``, instead of aborting the rest of
    the table.
    """
    m = _last_index(series, last_index)
    ops = JetOps(series.field, order)
    return run_recursion(get_family(family), ops, max_level, m, [ops.zero] * (m + 1),
                         series.coefficient)


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
    either route.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    fam = get_family(family)
    k, n = divmod(_last_index(series, last_index), fam.step)
    order = count - 1
    if fam.prediction_term is None:
        table = transformation_terms(series, family, max_level=k, order=order,
                                     last_index=last_index)
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
