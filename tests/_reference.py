"""Reference values that only the tests need: Pade values and expansions,
partial-sum jets, computed from the public pieces of the library, and the
epsilon steps as written per cell, each reciprocal formed in the cell that
reads it."""

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
