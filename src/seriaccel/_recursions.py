"""Triangle builder and the per-family recursion steps.

Each acceleration scheme is rearranged so that its approximant is a partial
sum plus a power of the series variable times a term, and the term obeys one
recursion per family, written here once as a *step* from level ``k`` into
``(k + 1, n)``.  The step is the textbook rearranged scheme with each forward
difference replaced by the shifted difference ``z * X(n+1) - X(n)``, so at
z = 1 it *is* that scheme, and the rearranged tables of
:mod:`seriaccel.transforms` run it there.  For power series it runs two ways:

* for *transformation terms* the caller seeds zeros and injects the series
  coefficients: ``gamma`` is added to each shifted difference;
* for *remainder terms* the caller seeds the scaled truncation errors of the
  partial sums and injects nothing.  The addition is skipped rather than
  made with a zero, which would cost one carrier addition per use and could
  turn a float ``-0`` into ``+0``.

Only the first epsilon level has two expressions: the term form
``gamma_hi**2 / (gamma_lo - z*gamma_hi)`` and the remainder form
``(d1/d0) / (1/d1 - z/d0)`` agree in exact arithmetic where both are
defined, but they round differently in the float modes and only the
remainder form breaks down when ``d1`` has a zero constant part, so the step
keeps both.  The Aitken form ``X(n+2) - d1**2 / (z*d1 - d0)`` cannot replace
the remainder form: at z = 1 that must break down wherever the textbook
``eps_1 = 1/Delta`` does.  The ``*_leading`` functions are the scalar
recursions for the z-independent parts of both kinds of term, one per
family; they take the same arguments as the family steps and run through
:func:`run_recursion` too.  Their differences are the shifted differences
at z = 0: ``g[i] - X(n+i)`` for a transformation term and ``-X(n+i)`` for a
remainder term.

Steps run over any carrier with ring operators, a checked division and
multiplication by the series variable: :class:`JetOps` over truncated power
series (Taylor expansions), :class:`NumericOps` over plain scalars at a
fixed point, :class:`UnitOps` at z = 1.  Every step, in these recursions and
the textbook tables of :mod:`seriaccel.transforms` alike, has the signature
``step(ops, g, k, n, cur, prev)``, and every step's reads have the form
``deps(k) -> [(level, offset)]``: each cell ``(k + 1, n)`` of a level reads
the same levels at the same offsets from ``n``.  :class:`_Build` runs a step
over a triangle, injects ``g`` and is the one place where failures
propagate: a breakdown or a non-finite value in one cell, seeds included,
never aborts the build, and every cell that reads it inherits the failure.
Every build comes back as a :class:`TransformTable`, the one result type of
the package: ``entries`` holds its valid cells (jets in term tables, scalars
elsewhere), ``notes`` its failed ones; ``valid`` is a read-only view of both.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

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
        self.context = field.arithmetic
        self._zeros = self.zero.coeffs[1:]

    def const(self, value: Scalar) -> Jet:
        """``Jet.constant(field, value, order)``, with one check of ``value``."""
        return Jet(self.field, (self.field.ensure(value), *self._zeros))

    def finite(self, value: Jet) -> bool:
        return all(self.field.is_finite(c) for c in value.coeffs)

    @staticmethod
    def div(a, b):
        return a / b  # jet reciprocal raises JetBreakdownError on zero constant term

    @staticmethod
    def zmul(a):
        return a.shift()


class NumericOps:
    """Carrier: scalars at a fixed numeric value of the series variable."""

    def __init__(self, field: Field, z: Scalar):
        self.z = field.ensure(z)
        self.zero = field.zero
        self.one = field.one
        self.const = field.ensure
        self.finite = field.is_finite
        self.context = field.arithmetic
        self.div = field.div

    def zmul(self, a):
        return self.z * a


class UnitOps(NumericOps):
    """Carrier: scalars at z = 1.  The product with z is skipped: in bigfloat
    mode it would round an input wider than the working precision."""

    def __init__(self, field: Field):
        super().__init__(field, field.one)

    @staticmethod
    def zmul(a):
        return a


class SelectionError(LookupError):
    """The selected table entry does not exist or was invalidated."""

    def __init__(self, message, k=None, n=None):
        super().__init__(message)
        self.k = k
        self.n = n


@dataclass
class TransformTable:
    """Triangular table as one build left it: its ``entries`` and ``notes``.

    Keys are ``(k, n)``.  For the epsilon and theta algorithms ``k`` is the
    literal column subscript (odd columns are auxiliary); for the Aitken and
    iterated-theta schemes, and for every term table, ``k`` is the iteration
    level.  Each cell is a key of ``entries`` (valid, with its value) or of
    ``notes`` (failed, with the reason).  In a term table built from the
    series coefficients, the entry at ``(k, n)`` is the term of order
    ``n + step*k + 1``.

    ``step`` and ``scale`` are the table's selection geometry: a level
    consumes ``step`` inputs, and level ``k`` sits at key ``scale * k``.
    """

    family: str
    size: int
    step: int
    scale: int
    entries: dict = dataclass_field(default_factory=dict)
    notes: dict = dataclass_field(default_factory=dict)

    @property
    def last_index(self) -> int:
        return self.size - 1

    @property
    def valid(self) -> dict:
        """``{key: key in entries}`` over every cell, in key order; rebuilt on each access."""
        return {key: key in self.entries for key in sorted([*self.entries, *self.notes])}

    def is_valid(self, k: int, n: int) -> bool:
        return (k, n) in self.entries

    def entry(self, k: int, n: int):
        if (k, n) in self.entries:
            return self.entries[(k, n)]
        if (k, n) in self.notes:
            raise SelectionError(f"entry ({k}, {n}) is invalid: {self.notes[(k, n)]}", k=k, n=n)
        raise KeyError(f"table has no entry ({k}, {n})")


class _Build:
    """One triangular build: level 0 is ``seed``, and :meth:`run` fills the
    cells ``(k + 1, n)`` with ``n <= width(k + 1)``, level by level.

    ``deps(k)`` lists, as ``(level, offset)``, the reads of every step into
    level ``k + 1``: cell ``(k + 1, n)`` reads ``(level, n + offset)``.  Every
    dependency in the package is on level ``k`` or ``k - 1``, the two live
    rows :meth:`run` checks, and :meth:`run` asks for the reads once per
    level.  A cell whose dependency failed records ``depends on invalid
    entry (key, n)`` for the first failed read, in the listed order, without
    running the step; a step that breaks down, or a cell (seeds included)
    that is not finite, records why in ``failures``, the table's notes.
    Keys are ``(scale * level, n)``, the scale applied where a key or a note
    is written, so a table that holds only the even columns keeps their
    literal subscripts.  ``step`` is the number of inputs a level consumes.
    """

    def __init__(self, ops, levels: int, width: Width, deps: Callable[[int], list],
                 seed, step: int, scale: int = 1):
        self.ops = ops
        self.step = step
        self.levels = levels
        self.width = width
        self.deps = deps
        self.scale = scale
        self.entries: dict[tuple[int, int], object] = {}
        self.failures: dict[tuple[int, int], str] = {}
        for n in range(width(0) + 1):
            if ops.finite(seed[n]):
                self.entries[(0, n)] = seed[n]
            else:
                self.failures[(0, n)] = "overflow"

    def table(self, name: str, scale: int | None = None) -> TransformTable:
        """The build as a table whose selected level ``k`` sits at key ``scale * k``
        (by default the key scale of the build)."""
        return TransformTable(name, self.width(0) + 1, self.step, scale or self.scale,
                              self.entries, self.failures)

    def run(self, recursion: Callable, coeff: Callable[[int], Scalar] | None = None):
        """Fill the levels with ``recursion(ops, g, k, n, cur, prev)``: ``cur``
        and ``prev`` map ``n`` to the valid cells of levels ``k`` and ``k - 1``,
        and ``g`` is ``coeff(n + step*k + 1 .. n + step*k + step)`` as carrier
        constants, asked for once the dependencies hold (``None`` without ``coeff``)."""
        ops, step, scale = self.ops, self.step, self.scale
        entries, failures = self.entries, self.failures
        finite, const = ops.finite, ops.const
        prev, cur = None, {n: value for (_, n), value in entries.items()}
        with ops.context():
            for k in range(self.levels):
                row = {}
                level = scale * (k + 1)
                reads = [(cur if dep_k == k else prev, offset,
                          f"depends on invalid entry ({scale * dep_k}, ")
                         for dep_k, offset in self.deps(k)]
                for n in range(self.width(k + 1) + 1):
                    for live, offset, prefix in reads:
                        if n + offset not in live:
                            note = f"{prefix}{n + offset})"
                            break
                    else:
                        try:
                            g = None if coeff is None else [
                                const(coeff(n + step * k + i)) for i in range(1, step + 1)]
                            value = recursion(ops, g, k, n, cur, prev)
                        except BreakdownError as exc:
                            note = str(exc)
                        else:
                            note = None if finite(value) else "overflow"
                    key = (level, n)
                    if note is None:
                        entries[key] = row[n] = value
                    else:
                        failures[key] = note
                prev, cur = cur, row


def run_recursion(family, ops, levels: int, top: int, seed, coeff=None, table: str | None = None,
                  recursion: Callable | None = None) -> TransformTable:
    """The table of ``recursion`` (default ``family.recursion``) over cells
    ``(k, n)`` with ``n + step*k <= top``.

    With ``coeff`` (transformation terms, ``seed`` all zeros) each step gets
    the carrier constants ``coeff(n + step*k + 1 .. n + step*k + step)`` to
    inject; without it (remainder terms, ``seed`` the scaled truncation
    errors, or a textbook table of the family, ``seed`` the sequence at
    z = 1) it gets ``None`` and injects nothing.  The table is named
    ``table``, a textbook table of the family, with its key scale from
    ``family.tables``; by default it is named after the family, with scale 1.
    """
    step = family.step
    scale = family.tables[table] if table else 1
    build = _Build(ops, levels, lambda k: top - step * k, family.deps, seed, step, scale)
    build.run(recursion or family.recursion, coeff)
    return build.table(table or family.name)


def _shifted(ops, g, cur, n: int, count: int) -> list:
    """``z * X(n+i+1) - X(n+i)`` for ``i < count``, with ``g[i]`` added in front when given."""
    diffs = [ops.zmul(cur[n + i + 1]) - cur[n + i] for i in range(count)]
    if g is None:
        return diffs
    return [gi + d for gi, d in zip(g, diffs)]


# ---------------------------------------------------------------------------
# rearranged recursion steps, shared by transformation and remainder terms,
# and the ``(level, offset)`` reads of each step into (k + 1, n)


def aitken_deps(k):
    return [(k, 0), (k, 1), (k, 2)]


def epsilon_deps(k):
    if k == 0:
        return [(k, 0), (k, 1), (k, 2)]
    return [(k, 0), (k, 1), (k, 2), (k - 1, 2)]


def theta_deps(k):
    return [(k, 0), (k, 1), (k, 2), (k, 3)]


def aitken_step(ops, g, k, n, cur, prev):
    """Delta-squared; a level consumes two coefficients."""
    lo, hi = _shifted(ops, g, cur, n, 2)
    den = ops.zmul(hi) - lo
    return cur[n + 2] - ops.div(hi * hi, den)


def epsilon_step(ops, g, k, n, cur, prev):
    """Five-point cross rule; the first term level keeps its closed form."""
    if k == 0 and g is not None:
        lo, hi = g
        return ops.div(hi * hi, lo - ops.zmul(hi))
    d0, d1 = _shifted(ops, g, cur, n, 2)
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


def theta_step(ops, g, k, n, cur, prev):
    """Iterated theta; a level consumes three coefficients."""
    u0, u1, u2 = _shifted(ops, g, cur, n, 3)
    v0 = ops.zmul(u1) - u0
    v1 = ops.zmul(u2) - u1
    u2v0 = u2 * v0
    num = u2 * (u2v0 + u1 * u1 - u0 * u2)
    den = ops.zmul(u2v0) - u0 * v1
    return cur[n + 3] - ops.div(num, den)


# ---------------------------------------------------------------------------
# scalar steps for the leading (z-independent) parts, run by :func:`run_recursion`
# like the family steps.  Predictions start from zeros and read the injected
# coefficients ``g``; remainders start from ``-gamma(n + 1)`` and get ``g = None``.


def _less(g, i: int, x):
    """``g[i] - x``, or ``-x`` without ``g``."""
    return -x if g is None else g[i] - x


def aitken_leading(ops, g, k, n, cur, prev):
    lo, hi = (_less(g, i, cur[n + i]) for i in range(2))
    return cur[n + 2] + ops.div(hi * hi, lo)


def epsilon_leading(ops, g, k, n, cur, prev):
    if k == 0 and g is not None:
        return ops.div(g[1] * g[1], g[0])  # the seeds are zero: subtracting them could round g
    lo, hi = (_less(g, i, cur[n + i]) for i in range(2))
    sq = hi * hi
    value = cur[n + 2] + ops.div(sq, lo)
    if k >= 1:
        value = value - ops.div(sq, _less(g, 0, prev[n + 2]))
    return value


def theta_leading(ops, g, k, n, cur, prev):
    u0, u1, u2 = (_less(g, i, cur[n + i]) for i in range(3))
    num = u2 * (u1 * u1 - ops.const(2) * u0 * u2)
    return cur[n + 3] - ops.div(num, u0 * u1)
