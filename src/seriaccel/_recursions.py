"""Recursion engines shared by the prediction and remainder-analysis modules.

Each acceleration scheme, rewritten so its update never hides low-order
Taylor information, gives rise to two sibling recursions:

* a *transformation-term* recursion that starts from zero and injects the
  series coefficients explicitly, and
* a *remainder-term* recursion that starts from the scaled truncation
  errors of the partial sums.

Both run over any carrier that supports ring operations, a checked division
and multiplication by the series variable.  :class:`JetOps` runs them over
truncated power series (producing Taylor expansions), :class:`NumericOps`
over plain scalars at a fixed numeric point (producing table values).

Engines return ``(entries, failures)`` where ``entries[(k, n)]`` is a carrier
element and ``failures[(k, n)]`` is a human-readable reason.  A breakdown in
one cell never aborts the build; dependents inherit the failure.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .field import BreakdownError, Field, Scalar
from .jets import Jet

Width = Callable[[int], int]


class JetOps:
    """Carrier: jets of a fixed order over the series field."""

    def __init__(self, field: Field, order: int):
        self.field = field
        self.order = order
        self.zero = Jet.constant(field, field.zero, order)
        self.one = Jet.constant(field, field.one, order)

    def context(self):
        return self.field.arithmetic()

    def const(self, value: Scalar) -> Jet:
        return Jet.constant(self.field, value, self.order)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return a / b  # jet reciprocal raises JetBreakdownError on zero constant term

    @staticmethod
    def zmul(a):
        return a.shift()


class NumericOps:
    """Carrier: scalars at a fixed numeric value of the series variable."""

    def __init__(self, field: Field, z: Scalar):
        self.field = field
        self.z = field.ensure(z)
        self.zero = field.zero
        self.one = field.one

    def context(self):
        return self.field.arithmetic()

    def const(self, value: Scalar) -> Scalar:
        return self.field.ensure(value)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    def div(self, a, b):
        return self.field.div(a, b)

    def zmul(self, a):
        return self.z * a


def _dl(ops, row: Mapping[int, object], n: int):
    """Shifted difference ``z * X(n+1) - X(n)`` on one recursion row."""
    return ops.sub(ops.zmul(row[n + 1]), row[n])


class _Build:
    """Bookkeeping for one triangular recursion build.

    ``deps(k, n)`` names the table entries the step from level ``k`` into
    ``(k + 1, n)`` reads; a step whose dependency previously broke inherits
    the failure instead of running.
    """

    def __init__(self, ops, levels: int, width: Width, deps: Callable[[int, int], list]):
        self.ops = ops
        self.levels = levels
        self.width = width
        self.deps = deps
        self.entries: dict[tuple[int, int], object] = {}
        self.failures: dict[tuple[int, int], str] = {}

    def seed(self, row: Mapping[int, object]):
        for n in range(self.width(0) + 1):
            self.entries[(0, n)] = row[n]

    def run(self, step: Callable[[int, int, Mapping[int, object], Mapping[int, object] | None], object]):
        # ``cur`` and ``prev`` hold the entries of levels k and k - 1; the row of
        # level k + 1 fills while it is built.
        prev, cur = None, {n: self.entries[(0, n)] for n in range(self.width(0) + 1)}
        with self.ops.context():
            for k in range(self.levels):
                row = {}
                for n in range(self.width(k + 1) + 1):
                    key = (k + 1, n)
                    bad = next((d for d in self.deps(k, n) if d not in self.entries), None)
                    if bad is not None:
                        self.failures[key] = f"depends on broken entry {bad}"
                        continue
                    try:
                        value = step(k, n, cur, prev)
                    except BreakdownError as exc:
                        self.failures[key] = str(exc)
                        continue
                    if not self._finite(value):
                        self.failures[key] = "overflow"
                        continue
                    self.entries[key] = row[n] = value
                prev, cur = cur, row

    def _finite(self, value) -> bool:
        fld = self.ops.field
        if isinstance(value, Jet):
            return all(fld.is_finite(c) for c in value.coeffs)
        return fld.is_finite(value)

    def result(self):
        return self.entries, self.failures


def _window(k: int, n: int, span: int, prev_at: int | None = None) -> list:
    deps = [(k, n + i) for i in range(span)]
    if prev_at is not None and k >= 1:
        deps.append((k - 1, n + prev_at))
    return deps


# ---------------------------------------------------------------------------
# transformation-term recursions (start at zero, coefficients injected)


def aitken_term_recursion(ops, coeff, levels: int, width: Width):
    """Delta-squared transformation terms; level step consumes two coefficients."""
    build = _Build(ops, levels, width, lambda k, n: _window(k, n, 3))
    build.seed({n: ops.zero for n in range(width(0) + 1)})

    def step(k, n, cur, prev):
        g_lo = coeff(n + 2 * k + 1)
        g_hi = coeff(n + 2 * k + 2)
        d1 = ops.add(ops.const(g_hi), _dl(ops, cur, n + 1))
        d2 = ops.sub(ops.zmul(d1), ops.add(ops.const(g_lo), _dl(ops, cur, n)))
        return ops.sub(cur[n + 2], ops.div(ops.mul(d1, d1), d2))

    build.run(step)
    return build.result()


def epsilon_term_recursion(ops, coeff, levels: int, width: Width):
    """Cross-rule transformation terms with the explicit first-level branch."""
    build = _Build(ops, levels, width, lambda k, n: [] if k == 0 else _window(k, n, 3, prev_at=2))
    build.seed({n: ops.zero for n in range(width(0) + 1)})

    def step(k, n, cur, prev):
        g_lo = coeff(n + 2 * k + 1)
        g_hi = coeff(n + 2 * k + 2)
        if k == 0:
            num = ops.mul(ops.const(g_hi), ops.const(g_hi))
            den = ops.sub(ops.const(g_lo), ops.zmul(ops.const(g_hi)))
            return ops.div(num, den)
        w0 = ops.add(ops.const(g_lo), _dl(ops, cur, n))
        w1 = ops.add(ops.const(g_hi), _dl(ops, cur, n + 1))
        e = ops.sub(ops.add(ops.const(g_lo), ops.zmul(cur[n + 1])), prev[n + 2])
        alpha = ops.sub(ops.div(w1, w0), ops.div(w1, e))
        beta = ops.add(
            ops.sub(ops.div(ops.one, w1), ops.zmul(ops.div(ops.one, w0))),
            ops.zmul(ops.div(ops.one, e)),
        )
        return ops.add(cur[n + 2], ops.div(alpha, beta))

    build.run(step)
    return build.result()


def theta_term_recursion(ops, coeff, levels: int, width: Width):
    """Iterated-theta transformation terms; level step consumes three coefficients."""
    build = _Build(ops, levels, width, lambda k, n: _window(k, n, 4))
    build.seed({n: ops.zero for n in range(width(0) + 1)})

    def step(k, n, cur, prev):
        u0 = ops.add(ops.const(coeff(n + 3 * k + 1)), _dl(ops, cur, n))
        u1 = ops.add(ops.const(coeff(n + 3 * k + 2)), _dl(ops, cur, n + 1))
        u2 = ops.add(ops.const(coeff(n + 3 * k + 3)), _dl(ops, cur, n + 2))
        v0 = ops.sub(ops.zmul(u1), u0)
        v1 = ops.sub(ops.zmul(u2), u1)
        num = ops.mul(u2, ops.sub(ops.add(ops.mul(u2, v0), ops.mul(u1, u1)), ops.mul(u0, u2)))
        den = ops.sub(ops.zmul(ops.mul(u2, v0)), ops.mul(u0, v1))
        return ops.sub(cur[n + 3], ops.div(num, den))

    build.run(step)
    return build.result()


# ---------------------------------------------------------------------------
# remainder-term recursions (start from scaled truncation errors)


def aitken_remainder_recursion(ops, base: Mapping[int, object], levels: int, width: Width):
    build = _Build(ops, levels, width, lambda k, n: _window(k, n, 3))
    build.seed(base)

    def step(k, n, cur, prev):
        d1 = _dl(ops, cur, n + 1)
        d2 = ops.sub(ops.zmul(d1), _dl(ops, cur, n))
        return ops.sub(cur[n + 2], ops.div(ops.mul(d1, d1), d2))

    build.run(step)
    return build.result()


def epsilon_remainder_recursion(ops, base: Mapping[int, object], levels: int, width: Width):
    build = _Build(ops, levels, width, lambda k, n: _window(k, n, 3, prev_at=2))
    build.seed(base)

    def step(k, n, cur, prev):
        d0 = _dl(ops, cur, n)
        d1 = _dl(ops, cur, n + 1)
        if k == 0:
            num = ops.div(d1, d0)
            den = ops.sub(ops.div(ops.one, d1), ops.zmul(ops.div(ops.one, d0)))
            return ops.add(cur[n + 2], ops.div(num, den))
        e = ops.sub(ops.zmul(cur[n + 1]), prev[n + 2])
        num = ops.sub(ops.div(d1, d0), ops.div(d1, e))
        den = ops.add(
            ops.sub(ops.div(ops.one, d1), ops.zmul(ops.div(ops.one, d0))),
            ops.zmul(ops.div(ops.one, e)),
        )
        return ops.add(cur[n + 2], ops.div(num, den))

    build.run(step)
    return build.result()


def theta_remainder_recursion(ops, base: Mapping[int, object], levels: int, width: Width):
    build = _Build(ops, levels, width, lambda k, n: _window(k, n, 4))
    build.seed(base)

    def step(k, n, cur, prev):
        a0 = _dl(ops, cur, n)
        a1 = _dl(ops, cur, n + 1)
        a2 = _dl(ops, cur, n + 2)
        b0 = ops.sub(ops.zmul(a1), a0)
        b1 = ops.sub(ops.zmul(a2), a1)
        num = ops.mul(a2, ops.sub(ops.add(ops.mul(a2, b0), ops.mul(a1, a1)), ops.mul(a0, a2)))
        den = ops.sub(ops.zmul(ops.mul(a2, b0)), ops.mul(a0, b1))
        return ops.sub(cur[n + 3], ops.div(num, den))

    build.run(step)
    return build.result()


TERM_RECURSIONS = {
    "aitken": (aitken_term_recursion, 2),
    "epsilon": (epsilon_term_recursion, 2),
    "theta-iterated": (theta_term_recursion, 3),
}

REMAINDER_RECURSIONS = {
    "aitken": (aitken_remainder_recursion, 2),
    "epsilon": (epsilon_remainder_recursion, 2),
    "theta-iterated": (theta_remainder_recursion, 3),
}
