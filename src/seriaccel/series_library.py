"""Built-in model series/sequences and coefficient-file loading.

Builtin names:

* ``log1p-over-z`` -- coefficients ``(-1)**m / (m+1)``, the alternating
  series of ``ln(1+z)/z``, with a closed-form tail rule.  The standard
  model problem: linearly convergent inside ``|z| < 1``, summable outside.
* ``zeta(s)`` -- terms ``(m+1)**(-s)`` of the Dirichlet series, ``s > 1``;
  partial sums at z = 1 are the classic logarithmically convergent example.
* ``geometric(z0)`` -- unit coefficients (tail included); ``z0`` is an
  optional default evaluation point.
* ``model(s, c, ratio)`` -- the sequence ``s + c * ratio**n`` directly.

A series spec on the command line is ``builtin:NAME`` or
``builtin:NAME(arg,...)`` or ``file:PATH`` (a bare path also works).
Coefficient files carry one ``p/q`` or decimal literal per line and ``#``
comments; the caller's field reads the literals.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .field import BigFloatField, Field, ParseError, RationalField, Scalar
from .jets import PowerSeries
from .transforms import ModelSequence, ScalarSequence

__all__ = [
    "BUILTIN_NAMES",
    "ResolvedInput",
    "builtin_series",
    "load_coefficient_file",
    "resolve_series_spec",
]

BUILTIN_NAMES = ("log1p-over-z", "zeta", "geometric", "model")


class ResolvedInput(NamedTuple):
    """What a series spec resolved to: a power series or a raw sequence."""

    label: str
    series: PowerSeries | None = None
    sequence: ScalarSequence | None = None
    default_z: Scalar | None = None

    def require_series(self) -> PowerSeries:
        if self.series is None:
            raise ValueError(f"{self.label} is a plain sequence; this command needs series coefficients")
        return self.series


def _log_rule(field: Field):
    """``i -> (-1)**i / (i + 1)``, correctly rounded in ``field``; like
    :func:`_zeta_rule`, resolved once per series, with the mode's branch
    taken before the first coefficient is asked for."""
    if isinstance(field, BigFloatField):
        divide = field._context.divide  # its own operations round; no context is entered
        return lambda i: divide(Decimal(-1 if i & 1 else 1), Decimal(i + 1))
    quotient = field.quotient
    return lambda i: quotient(-1 if i & 1 else 1, i + 1)


def _zeta_rule(field: Field, s: Scalar):
    """``i -> (i + 1)**(-s)`` in ``field``, with ``-s`` formed once."""
    if isinstance(field, RationalField):
        # Exactness needs an integer exponent; rejected otherwise at build time.
        exponent = int(s)
        return lambda i: Fraction(1, (i + 1) ** exponent)
    if isinstance(field, BigFloatField):
        ctx = field._context  # its own operations round; no context is entered
        power, minus_s = ctx.power, ctx.minus(s)
        return lambda i: power(Decimal(i + 1), minus_s)
    minus_s = -s
    return lambda i: float(i + 1) ** minus_s


def builtin_series(name: str, params: tuple, count: int, field: Field) -> ResolvedInput:
    """Materialize ``count`` coefficients (or sequence entries) of a builtin."""
    if count < 1:
        raise ValueError("count must be >= 1")

    default_z = None
    if name == "log1p-over-z":
        if params:
            raise ValueError("log1p-over-z takes no parameters")
        tail = _log_rule(field)
    elif name == "zeta":
        if len(params) != 1:
            raise ValueError("zeta needs exactly one parameter: the exponent")
        s = field.ensure(params[0])
        if not s > field.one:
            raise ValueError("zeta requires an exponent > 1")
        if isinstance(field, RationalField) and s.denominator != 1:
            raise ValueError("zeta in rational mode needs an integer exponent")
        tail = _zeta_rule(field, s)
        default_z = field.one
    elif name == "geometric":
        if len(params) > 1:
            raise ValueError("geometric takes at most one parameter: the evaluation point")
        one = field.one
        tail = lambda i: one
        default_z = field.ensure(params[0]) if params else None
    elif name == "model":
        if len(params) != 3:
            raise ValueError("model needs three parameters: limit, amplitude, ratio")
        model = ModelSequence(field, *params)
        return ResolvedInput("builtin:model", sequence=model.sequence(count))
    else:
        raise ValueError(f"unknown builtin series {name!r}; expected one of {BUILTIN_NAMES}")
    coeffs = tuple(tail(i) for i in range(count))
    return ResolvedInput(f"builtin:{name}", series=PowerSeries(field, coeffs, tail=tail),
                         default_z=default_z)


_SPEC_RE = re.compile(r"^([a-z0-9-]+)(?:\((.*)\))?$")


def _parse_builtin_spec(body: str, field: Field) -> tuple[str, tuple]:
    match = _SPEC_RE.match(body.strip())
    if not match:
        raise ValueError(f"malformed builtin spec {body!r}")
    name = match.group(1)
    raw = match.group(2)
    if raw is None or raw.strip() == "":
        return name, ()
    params = tuple(field.parse(piece) for piece in raw.split(","))
    return name, params


def resolve_series_spec(spec: str, field: Field, count: int) -> ResolvedInput:
    """Resolve ``builtin:...`` / ``file:...`` / bare-path specs."""
    if spec.startswith("builtin:"):
        name, params = _parse_builtin_spec(spec[len("builtin:"):], field)
        return builtin_series(name, params, count, field)
    path = spec[len("file:"):] if spec.startswith("file:") else spec
    return ResolvedInput(f"file:{path}", series=load_coefficient_file(path, field))


def load_coefficient_file(path: str | Path, field: Field) -> PowerSeries:
    """Read one coefficient per line in ``field``; blank and ``#`` lines are skipped."""
    text = Path(path).read_text()
    values: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            continue
        values.append(line)
    if not values:
        raise ParseError(f"{path}: no coefficients found")
    return PowerSeries(field, tuple(field.parse(v) for v in values))
