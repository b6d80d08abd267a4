"""Reference values that only the tests need: Pade values and expansions, and
partial-sum jets, computed from the public pieces of the library."""

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
