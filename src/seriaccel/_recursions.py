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
fixed point, whose product with z is the point's own multiplication, bound
once, and :class:`UnitOps` at z = 1, which never multiplies.  Every carrier
also keeps one per-row memo (:meth:`_Carrier.memo`) of the shifted
differences that neighbouring cells share: cell ``n`` stores under ``n + 1``
what cell ``n + 1`` would form again (Aitken's ``hi``; epsilon's ``z*x2``,
``d1`` and the reciprocal difference ``1/d1`` of Wynn, Numer. Math. 8, 1966;
theta's ``u1``, ``u2`` and ``v1``).  With coefficients injected, ``g[1]`` of
cell ``n`` is ``g[0]`` of cell ``n + 1``, so a stored value is the one the
next cell's own expression gives, bit for bit, on every carrier.  The memo
is keyed on the identity of the row and holds only what a cell finished
forming, never a breakdown: after a cell that failed or did not run, the
next cell forms its differences again, and fails alike.  It stays correct
when one carrier runs several builds.

Every step, in these recursions and the textbook tables of
:mod:`seriaccel.transforms` alike, has the signature
``step(ops, g, k, n, cur, prev)``, and every step's reads have the form
``deps(k) -> [(level, offset)]``: each cell ``(k + 1, n)`` of a level reads
the same levels at the same offsets from ``n``.  :class:`_Build` runs a step
over a triangle, injects ``g`` and is the one place where failures
propagate: a breakdown or a non-finite value in one cell, seeds included,
never aborts the build, and every cell that reads it inherits the failure.
Every build comes back as a :class:`TransformTable`, the one result type of
the package: ``entries`` holds its valid cells (jets in term tables, scalars
elsewhere), ``notes`` its failed ones.  Each cell lives once, in its level:
a level keeps its own row of valid cells and its own notes, both keyed by
``n``, and a built table's ``entries`` and ``notes`` are read-only views
over those levels, keyed by ``(k, n)``.  A *dead* level, where every cell
inherits the failure of one read, keeps its notes as one record
(:class:`_DeadLevel`) that forms a note only when it is read.  As soon as a
level is finished, a build files it and hands it with that row and notes,
which the sink must not change, to an optional *sink*: ``accelerate`` writes
the level's lines there, a dead level as one line, so a value it cannot
print stops the build at its level.  The table still keeps every cell.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, NamedTuple

from .field import BreakdownError, Field, Scalar
from .jets import Jet, PowerSeries

Width = Callable[[int], int]


def _last_index(series: PowerSeries, last_index: int | None) -> int:
    """``last_index``, by default the last stored coefficient; ``ValueError`` past
    the stored ones of a series without a tail rule, worded as the series'
    own :class:`~seriaccel.jets.MissingCoefficientError`."""
    if last_index is None:
        return series.known_order
    if last_index < 0:
        raise ValueError(f"last_index must be >= 0, got {last_index}")
    if last_index > series.known_order and series.tail is None:
        raise ValueError(f"coefficient {last_index} is past the stored order "
                         f"{series.known_order} and no tail rule is attached")
    return last_index


class _Carrier:
    """What every carrier shares: the per-row memo of shifted differences."""

    _row = None

    def memo(self, row: dict) -> dict:
        """The memo of the row ``row``, ``n ->`` what cell ``n - 1`` formed for
        cell ``n``; a fresh one for a row other than the last one asked for.
        The memo holds the row itself, so its identity cannot pass to a later
        row.  A step pops its own entry as it reads it."""
        if row is not self._row:
            self._row, self._memo = row, {}
        return self._memo


class JetOps(_Carrier):
    """Carrier: jets of a fixed order over the series field."""

    def __init__(self, field: Field, order: int):
        self.field = field
        self.zero = Jet.from_coeffs(field, (), order)  # the one check of ``order``
        self._zeros = self.zero.coeffs[1:]
        self.one = self.const(field.one)
        self.context = field.arithmetic

    def const(self, value: Scalar) -> Jet:
        """The constant jet ``value`` of this order, with one check of ``value``."""
        return Jet(self.field, (self.field.ensure(value), *self._zeros))

    finite = staticmethod(Jet.is_finite)

    def div(self, a, b):
        """``a / b``, and ``1 / b`` as the bare reciprocal, with no product by the
        jet 1; a reciprocal raises JetBreakdownError on a zero constant term."""
        return b.reciprocal() if a is self.one else a / b

    @staticmethod
    def zmul(a):
        return a.shift()


class NumericOps(_Carrier):
    """Carrier: scalars at a fixed numeric value of the series variable."""

    def __init__(self, field: Field, z: Scalar):
        self.field = field
        self.z = field.ensure(z)
        self.zero = field.zero
        self.one = field.one
        self.const = field.ensure
        self.finite = field.is_finite
        self.context = field.arithmetic
        self.div = field.div
        self.zmul = self.z.__mul__


def _unchanged(a):
    return a


class UnitOps(NumericOps):
    """Carrier: scalars at z = 1.  The product with z is skipped: in bigfloat
    mode it would round an input wider than the working precision."""

    def __init__(self, field: Field):
        super().__init__(field, field.one)
        self.zmul = _unchanged  # here: NumericOps' own would shadow a class attribute


class SelectionError(LookupError):
    """The selected table entry does not exist or was invalidated."""

    def __init__(self, message, k=None, n=None):
        super().__init__(message)
        self.k = k
        self.n = n


class _Cells(Mapping):
    """Read-only view of one kind of cell of a build, the valid values or the
    failure notes, over the build's levels: ``levels[q]`` maps ``n`` to the
    cell at key ``(scale * q, n)``.  It iterates level by level, each level
    in ``n`` order.  For keys ``(k, n)`` of two ints it reads as the dict of
    those items would; any other key raises ``KeyError``, and it equals a dict
    of the same items."""

    __slots__ = ("_levels", "_scale")

    def __init__(self, levels: list[dict], scale: int):
        self._levels = levels
        self._scale = scale

    def __getitem__(self, key):
        try:
            k, n = key
            q, r = divmod(k, self._scale)
            if not r and q >= 0:
                return self._levels[q][n]
        except (LookupError, TypeError, ValueError):
            pass
        raise KeyError(key)

    def __iter__(self):
        scale = self._scale
        for q, cells in enumerate(self._levels):
            k = scale * q
            for n in cells:
                yield k, n

    def __len__(self) -> int:
        return sum(map(len, self._levels))

    def __repr__(self) -> str:
        return repr(dict(self))


class _DeadLevel(Mapping):
    """The notes of a *dead* level, one where every cell ``n = 0 .. width``
    inherits the failure of its first checked read, ``(key, n + offset)``:
    it holds ``prefix``, ``"depends on invalid entry (key, "``, ``offset`` and
    the range of its cells, and forms the note of ``n``,
    ``f"{prefix}{n + offset})"``, only when it is read.  It reads, in ``n``
    order, as the dict of those notes would, and equals it."""

    __slots__ = ("prefix", "offset", "_cells")

    def __init__(self, prefix: str, offset: int, width: int):
        self.prefix = prefix
        self.offset = offset
        self._cells = range(width + 1)

    def __getitem__(self, n):
        if n in self._cells:
            return f"{self.prefix}{int(n) + self.offset})"  # ``int``: a key equal to ``n``, as in a dict
        raise KeyError(n)

    def __iter__(self):
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __repr__(self) -> str:
        return repr(dict(self))


class TransformTable(NamedTuple):
    """Triangular table as one build left it: its ``entries`` and ``notes``.

    Keys are ``(k, n)``.  For the epsilon and theta algorithms ``k`` is the
    literal column subscript (odd columns are auxiliary); for the Aitken and
    iterated-theta schemes, and for every term table, ``k`` is the iteration
    level.  Each cell is a key of ``entries`` (valid, with its value) or of
    ``notes`` (failed, with the reason).  In a term table built from the
    series coefficients, the entry at ``(k, n)`` is the term of order
    ``n + step*k + 1``.  A numeric term table holds only the selected
    cells: one per ``m``, at ``(k, n) = divmod(m, step)``.

    A table that :class:`_Build` returns keeps each cell once, in its level,
    and its ``entries`` and ``notes`` are read-only views over those levels;
    a table made otherwise may hold plain dicts.

    ``step`` and ``scale`` are the table's selection geometry: a level
    consumes ``step`` inputs, and level ``k`` sits at key ``scale * k``.
    """

    family: str
    size: int
    step: int
    scale: int
    entries: Mapping
    notes: Mapping

    @property
    def last_index(self) -> int:
        return self.size - 1

    @property
    def valid(self) -> dict:
        """``{key: key in entries}`` over every cell, in key order; rebuilt on each access.

        The package reads ``entries`` and ``notes``; only the benchmark reads this."""
        entries, notes = self.entries, self.notes
        return {key: key in entries for key in sorted([*entries, *notes])}

    def is_valid(self, k: int, n: int) -> bool:
        """``(k, n) in entries``; like :attr:`valid`, read only by the benchmark."""
        return (k, n) in self.entries

    def entry(self, k: int, n: int):
        """The valid cell ``(k, n)``, read once; :class:`SelectionError` with
        its note when it failed, ``KeyError`` when the table has no such cell."""
        try:
            return self.entries[(k, n)]
        except KeyError:
            pass
        try:
            note = self.notes[(k, n)]
        except KeyError:
            raise KeyError(f"table has no entry ({k}, {n})") from None
        raise SelectionError(f"entry ({k}, {n}) is invalid: {note}", k=k, n=n)


class _Build:
    """One triangular build: level 0 is ``seed``, and :meth:`run` fills the
    cells ``(k + 1, n)`` with ``n <= width(k + 1)``, level by level.

    ``deps(k)`` lists, as ``(level, offset)``, the reads of every step into
    level ``k + 1``: cell ``(k + 1, n)`` reads ``(level, n + offset)``.  Every
    dependency in the package is on level ``k`` or ``k - 1``, the two live
    rows :meth:`run` checks, within that row's cells, and :meth:`run` asks
    for the reads once per level.  A read of a *full* row, one whose cells
    are all valid, cannot fail, so only the reads of the other rows are
    checked, and none where every row read is full.  A cell whose dependency
    failed records ``depends on invalid entry (key, n)`` for the first failed
    read, in the listed order, without running the step; when the first
    checked read is of a row with no valid cell, the level is dead, and its
    notes are one :class:`_DeadLevel` record, filed in O(1) with no note
    formed.  A step that breaks down, or a cell (seeds included) that is
    not finite, records why in its level's notes.  Each cell lives once, in
    its level: each level, the seeds included, keeps its own ``row`` of
    valid cells and its own ``notes``, both by ``n``, and ``entries`` and
    ``failures``, the table's entries and notes, are read-only views over
    the levels filed so far.  Their keys are ``(scale * level, n)``, so a
    table that holds only the even columns keeps their literal subscripts.
    ``step`` is the number of inputs a level consumes.
    """

    def __init__(self, ops, levels: int, width: Width, deps: Callable[[int], list],
                 seed, step: int, scale: int = 1):
        self.ops = ops
        self.step = step
        self.levels = levels
        self.width = width
        self.deps = deps
        self.scale = scale
        row, notes = {}, {}  # level 0, keyed by ``n``
        for n in range(width(0) + 1):
            if ops.finite(seed[n]):
                row[n] = seed[n]
            else:
                notes[n] = "overflow"
        self._rows, self._notes = [row], [notes]  # by level
        self.entries = _Cells(self._rows, scale)
        self.failures = _Cells(self._notes, scale)

    def table(self, name: str, scale: int | None = None) -> TransformTable:
        """The build as a table whose selected level ``k`` sits at key ``scale * k``
        (by default the key scale of the build)."""
        return TransformTable(name, self.width(0) + 1, self.step, scale or self.scale,
                              self.entries, self.failures)

    def run(self, recursion: Callable, coeff: Callable[[int], Scalar] | None = None,
            sink: Callable | None = None):
        """Fill the levels with ``recursion(ops, g, k, n, cur, prev)``: ``cur``
        and ``prev`` map ``n`` to the valid cells of levels ``k`` and ``k - 1``,
        and ``g`` is ``coeff(n + step*k + 1 .. n + step*k + step)`` as carrier
        constants, asked for once the dependencies hold (``None`` without ``coeff``).

        With a ``sink``, each level is handed over as soon as it is finished,
        level 0 (the seeds) first: ``sink(key, width, row, notes)``, where
        ``key`` is the level's key, its cells are ``n = 0 .. width``, ``row``
        maps ``n`` to its valid cells and ``notes``, the level's own, maps
        ``n`` to the reason of each failed cell, both in ``n`` order; the
        notes of a dead level are its :class:`_DeadLevel` record.  The level
        is filed in the build, once, before the sink gets it: ``row`` and
        ``notes`` are the table's own store, and the sink must not change
        them.  The sink runs outside the carrier's arithmetic context, and an
        error it raises ends the build: no later level is computed."""
        ops, step, scale = self.ops, self.step, self.scale
        rows, failed = self._rows, self._notes
        finite, const = ops.finite, ops.const
        prev, cur = None, rows[0]
        width = self.width(0)
        full = {0} if len(cur) > width else set()  # the levels with every cell valid
        if sink is not None:
            sink(0, width, cur, failed[0])
        for k in range(self.levels):
            row, notes = {}, {}
            level = scale * (k + 1)
            width = self.width(k + 1)
            cells = range(width + 1)
            # A read of a full row cannot fail, so only the others are checked.
            reads = [(cur if dep_k == k else prev, offset,
                      f"depends on invalid entry ({scale * dep_k}, ")
                     for dep_k, offset in self.deps(k) if dep_k not in full]
            if reads and not reads[0][0]:  # every cell fails on this read; the row stays empty
                _, offset, prefix = reads[0]
                notes = _DeadLevel(prefix, offset, width)
                cells = ()
            with ops.context():
                for n in cells:
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
                    if note is None:
                        row[n] = value
                    else:
                        notes[n] = note
            rows.append(row)
            failed.append(notes)
            if len(row) > width:
                full.add(k + 1)
            if sink is not None:
                sink(level, width, row, notes)
            prev, cur = cur, row

    def finish(self, recursion: Callable, coeff, name: str, scale: int | None = None,
               sink: Callable | None = None) -> TransformTable:
        """:meth:`run`, then :meth:`table`.  ``run`` gets the sink only when
        there is one, so an override of ``run`` without it still serves every
        build without a sink."""
        if sink is None:
            self.run(recursion, coeff)
        else:
            self.run(recursion, coeff, sink=sink)
        return self.table(name, scale)


def run_recursion(family, ops, levels: int, top: int, seed, coeff=None, table: str | None = None,
                  recursion: Callable | None = None, *, sink: Callable | None = None
                  ) -> TransformTable:
    """The table of ``recursion`` (default ``family.recursion``) over cells
    ``(k, n)`` with ``n + step*k <= top``.

    With ``coeff`` (transformation terms, ``seed`` all zeros) each step gets
    the carrier constants ``coeff(n + step*k + 1 .. n + step*k + step)`` to
    inject; without it (remainder terms, ``seed`` the scaled truncation
    errors, or a textbook table of the family, ``seed`` the sequence at
    z = 1) it gets ``None`` and injects nothing.  ``sink`` receives each
    finished level with its own row and notes, keyed by ``n``, as in
    :meth:`_Build.run`.  The table is named
    ``table``, a textbook table of the family, with its key scale from
    ``family.tables``; by default it is named after the family, with scale 1.
    Raises ``ValueError`` when ``levels < 0`` or ``top < step*levels``: the
    one bound check of every table build.
    """
    step = family.step
    if levels < 0 or top < step * levels:
        raise ValueError(f"{family.name} level {levels} is out of range for inputs 0..{top}")
    scale = family.tables[table] if table else 1
    build = _Build(ops, levels, lambda k: top - step * k, family.deps, seed, step, scale)
    return build.finish(recursion or family.recursion, coeff, table or family.name, sink=sink)


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
    """Delta-squared; a level consumes two coefficients.  The ``hi`` of cell
    ``n`` is the ``lo`` of cell ``n + 1``; the row's memo carries it over."""
    zmul = ops.zmul
    x1, x2 = cur[n + 1], cur[n + 2]
    memo = ops.memo(cur)
    lo = memo.pop(n, None)
    if lo is None:
        lo = zmul(x1) - cur[n]
        if g is not None:
            lo = g[0] + lo
    hi = zmul(x2) - x1
    if g is not None:
        hi = g[1] + hi
    memo[n + 1] = hi
    return x2 - ops.div(hi * hi, zmul(hi) - lo)


def epsilon_step(ops, g, k, n, cur, prev):
    """Five-point cross rule; the first term level keeps its closed form.

    The ``z*x2``, ``d1`` and ``1/d1`` of cell ``n`` are the ``z*x1``, ``d0``
    and ``1/d0`` of cell ``n + 1``; the row's memo carries them over once
    ``1/d1`` is formed."""
    zmul, div, one = ops.zmul, ops.div, ops.one
    if k == 0 and g is not None:
        lo, hi = g
        return div(hi * hi, lo - zmul(hi))
    x1, x2 = cur[n + 1], cur[n + 2]
    memo = ops.memo(cur)
    shared = memo.pop(n, None)
    if shared is None:
        zx1 = zmul(x1)
        d0 = zx1 - cur[n]
        if g is not None:
            d0 = g[0] + d0
        r0 = div(one, d0)
    else:
        zx1, d0, r0 = shared
    zx2 = zmul(x2)
    d1 = zx2 - x1
    if g is not None:
        d1 = g[1] + d1
    r1 = div(one, d1)
    memo[n + 1] = zx2, d1, r1
    if k == 0:
        num = div(d1, d0)
        den = r1 - zmul(r0)
    else:
        e = zx1 if g is None else g[0] + zx1
        e = e - prev[n + 2]
        num = div(d1, d0) - div(d1, e)
        den = r1 - zmul(r0) + zmul(div(one, e))
    return x2 + div(num, den)


def theta_step(ops, g, k, n, cur, prev):
    """Iterated theta; a level consumes three coefficients.  The ``u1``, ``u2``
    and ``v1`` of cell ``n`` are the ``u0``, ``u1`` and ``v0`` of cell ``n + 1``."""
    zmul = ops.zmul
    x2, x3 = cur[n + 2], cur[n + 3]
    memo = ops.memo(cur)
    shared = memo.pop(n, None)
    if shared is None:
        x1 = cur[n + 1]
        u0 = zmul(x1) - cur[n]
        u1 = zmul(x2) - x1
        if g is not None:
            u0 = g[0] + u0
            u1 = g[1] + u1
        v0 = zmul(u1) - u0
    else:
        u0, u1, v0 = shared
    u2 = zmul(x3) - x2
    if g is not None:
        u2 = g[2] + u2
    v1 = zmul(u2) - u1
    memo[n + 1] = u1, u2, v1
    u2v0 = u2 * v0
    num = u2 * (u2v0 + u1 * u1 - u0 * u2)
    den = zmul(u2v0) - u0 * v1
    return x3 - ops.div(num, den)


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
