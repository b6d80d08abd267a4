"""Output oracles for benchmark jobs, run outside the timed region.

Each checker parses one job's captured stdout and compares every printed value
with an independent reference:

* ``predict`` (rational): the first predicted coefficient must equal the
  scalar recursion :func:`leading_predictions` exactly; for epsilon every
  coefficient must equal the Pade continuation ``c_j = -sum q_i c_(j-i)`` of
  :func:`pade_linear_system`.  Every decimal column must be the printed
  fraction rounded to its printed digits.
* ``accelerate``: rational tables are rebuilt exactly with the other
  textbook scheme where one exists; float tables are rebuilt by the textbook
  builders at ``ORACLE_DIGITS`` digits from the exact evaluation point.
* ``error-terms`` / ``transform-terms``: the selected approximant of the
  textbook tables at ``ORACLE_DIGITS`` digits, minus :func:`series_value`
  (error terms) or minus the partial sum it consumed (transformation terms).
* ``reproduce``: exit 0 and "all cells match", except ``table1``, which must
  exit 2 with exactly the two documented aitken cells (m = 10, 12).

Tolerance: a printed float is wrong when it differs from the reference by more
than half a unit in its last printed digit plus ``REL_TOL[mode]`` times the
reference.  A float reference is trusted only when two precisions agree: if
the value at ``ORACLE_DIGITS`` rejects a printed value, the comparison is
repeated 60 and 160 digits higher; a value that no level accepts is wrong when
the last two levels agree and *unverified* otherwise.

A job *fails* on an unexpected exit code, a crash, a timeout, a wrong
prediction or a ``reproduce`` mismatch.  A failure is *clean* when the job
exits 1 with an ``error:`` line, the CLI's documented refusal; the seed
commit's rational results over 4300 decimal digits fail cleanly.  Every
failure counts in ``failed_ratio``.  A run is ``correct`` when no job fails
uncleanly and no exact value (prediction, rational table entry) is wrong.
Wrong float values, which the seed commit prints in f64 and bigfloat mode
with more digits than their arithmetic kept, count in ``right_value_ratio``
instead, which has its own bound.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import asdict, dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from seriaccel.field import BigFloatField, RationalField
from seriaccel.jets import PowerSeries
from seriaccel.prediction import leading_predictions
from seriaccel.remainders import series_value
from seriaccel.transforms import (
    ScalarSequence,
    aitken_table,
    epsilon_cross_table,
    epsilon_table,
    iterated_theta_table,
    pade_linear_system,
    theta_table,
)

ORACLE_DIGITS = 90
REL_TOL = {"bigfloat": Decimal("1e-40"), "f64": Decimal(2) ** -40}
# Comparisons of printed floats with references run at this precision, far
# above the precision of any reference, so they are exact in effect.
_COMPARE = Context(prec=600)
TABLE1_DOCUMENTED = {"(m=10, aitken)", "(m=12, aitken)"}
REPRODUCE_VALUES = {"table1": 39, "table2": 33, "expansion7": 9, "predict13": 12}

# family -> (inputs consumed per level, table column per level), as in the paper.
SELECTION = {"aitken": (2, 1), "epsilon": (2, 2), "epsilon-cross": (2, 2),
             "theta": (3, 2), "theta-iterated": (3, 1)}

_PRIMARY = {"aitken": aitken_table, "epsilon": epsilon_table,
            "epsilon-cross": lambda seq: epsilon_cross_table(seq, "plain"),
            "theta": theta_table, "theta-iterated": iterated_theta_table}
# Rational tables are exact, so the other scheme of each family must agree.
_ALTERNATE = {"aitken": lambda seq: aitken_table(seq, "rearranged"),
              "epsilon": epsilon_table,
              "epsilon-cross": lambda seq: epsilon_cross_table(seq, "rearranged"),
              "theta": theta_table,
              "theta-iterated": lambda seq: iterated_theta_table(seq, "rearranged")}
_TERM_FAMILIES = ("aitken", "epsilon", "theta-iterated")


@dataclass
class Verdict:
    requested: int
    printed: int = 0
    wrong: int = 0
    unverified: int = 0
    failed: bool = False
    explained: bool = True
    note: str = ""


# --------------------------------------------------------------------------
# inputs


def _options(argv) -> dict:
    opts, i = {}, 1
    while i < len(argv):
        if "=" in argv[i]:
            key, value = argv[i].split("=", 1)
            i += 1
        else:
            key, value = argv[i], argv[i + 1]
            i += 2
        opts[key[2:]] = value
    return opts


def _coefficient(spec: str):
    if spec == "builtin:log1p-over-z":
        return lambda i: Fraction((-1) ** i, i + 1)
    if spec == "builtin:zeta(2)":
        return lambda i: Fraction(1, (i + 1) ** 2)
    raise ValueError(f"no oracle for series {spec!r}")


def _series(spec: str, fld, count: int) -> PowerSeries:
    coefficient = _coefficient(spec)
    tail = lambda i: fld.from_fraction(coefficient(i))  # noqa: E731
    return PowerSeries(fld, tuple(tail(i) for i in range(count)), tail=tail)


def _partial_sums(series: PowerSeries, z, count: int) -> list:
    fld = series.field
    sums, acc, power = [], fld.zero, fld.one
    with fld.arithmetic():
        for i in range(count):
            acc = acc + series.coefficient(i) * power
            sums.append(acc)
            power = power * z
    return sums


def _half_unit(value: Decimal) -> Decimal:
    """Half a unit in the last printed digit of ``value`` (0 for an exact zero)."""
    if value == 0:
        return Decimal(0)
    return Decimal((0, (5,), value.as_tuple().exponent - 1))


def _rounds_to(text: str, exact: Fraction) -> bool:
    value = Decimal(text)
    return abs(Fraction(value) - exact) <= Fraction(_half_unit(value))


# --------------------------------------------------------------------------
# references at rising precision


class _Levels:
    """Reference values at rising precision, each level built only on demand.

    ``compute(digits)`` returns a mapping from a cell key to its reference
    value, or to ``None`` where the reference table broke down.
    """

    def __init__(self, compute, digits: int, rel_tol: Decimal):
        self.compute = compute
        self.digits = (digits, digits + 60, digits + 160)
        self.rel_tol = rel_tol
        self._built: dict[int, dict] = {}

    def values(self, level: int = 0) -> dict:
        if level not in self._built:
            self._built[level] = self.compute(self.digits[level])
        return self._built[level]

    def judge(self, key, text: str, verdict: Verdict) -> None:
        printed = Decimal(text)
        half = _half_unit(printed)
        previous = None
        with localcontext(_COMPARE):
            for level in range(len(self.digits)):
                want = self.values(level).get(key)
                if want is not None and abs(printed - want) <= half + self.rel_tol * abs(want):
                    return
                if level and _agree(previous, want):
                    verdict.wrong += 1
                    return
                previous = want
        verdict.unverified += 1


def _agree(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= Decimal("1e-20") * max(abs(a), abs(b))


# --------------------------------------------------------------------------
# checkers


def _exit_status(verdict: Verdict, code, expected: int, err: str) -> None:
    if code == expected:
        return
    verdict.failed = True
    # Exit 1 with an ``error:`` line is the CLI's documented refusal.
    verdict.explained = code == 1 and err.startswith("error:")
    verdict.note = f"exit {code}"


def _check_predict(command, opts, code, out, err) -> Verdict:
    family = "theta-iterated" if opts["family"] == "theta" else opts["family"]
    use, count = int(opts["use"]), int(opts["count"])
    series = _series(opts["series"], RationalField(), use + 1)
    step = SELECTION[family][0]
    k, n = use // step, use % step
    expected = {use + 1: leading_predictions(series, family, k, last_index=use).entry(k, n)}
    if family == "epsilon":
        q = pade_linear_system(series, n + k, k).denominator
        known = [series.coefficient(i) for i in range(use + 1)]
        for j in range(use + 1, use + count + 1):
            known.append(-sum(q[i] * known[j - i] for i in range(1, k + 1)))
            expected[j] = known[j]
    verdict = Verdict(requested=count)
    for line in out.splitlines()[2:]:
        index, fraction, decimal = line.split()
        value = Fraction(fraction)
        verdict.printed += 1
        want = expected.get(int(index))
        if (want is not None and value != want) or not _rounds_to(decimal, value):
            verdict.wrong += 1
    _exit_status(verdict, code, 0, err)
    if verdict.wrong:
        verdict.failed, verdict.explained, verdict.note = True, False, "wrong prediction"
    return verdict


def _check_accelerate(command, opts, code, out, err) -> Verdict:
    family, mode = opts["family"], opts["mode"]
    terms = int(opts["terms"])
    z = Fraction(opts["z"])

    def compute(digits):
        fld = RationalField() if mode == "rational" else BigFloatField(digits=digits)
        series = _series(opts["series"], fld, terms)
        build = _ALTERNATE[family] if mode == "rational" else _PRIMARY[family]
        table = build(ScalarSequence(fld, tuple(_partial_sums(series, fld.from_fraction(z), terms))))
        values = {key: (table.entries[key] if ok else None) for key, ok in table.valid.items()}
        values["size"] = table.size
        return values

    levels = _Levels(compute, ORACLE_DIGITS, REL_TOL.get(mode))
    reference = levels.values()
    verdict = Verdict(requested=len(reference) - 1 + reference["size"])
    step, scale = SELECTION[family]
    lines = out.splitlines()
    selecting = False
    for line in lines[2:]:
        if line.startswith("selected approximant"):
            selecting = True
            continue
        if line.startswith("classification:"):
            break
        if selecting:
            fields = line.split(" ", 3)
            if fields[1].startswith("unavailable"):
                continue
            m, k, n = (int(f.split("=")[1]) for f in fields[:3])
            key, text = (k, n), fields[3]
            verdict.printed += 1
            if key != (scale * (m // step), m % step):
                verdict.wrong += 1
                continue
        else:
            k, n, text = line.split(" ", 2)
            if text.startswith("invalid"):
                continue
            key = (int(k), int(n))
            verdict.printed += 1
        if mode == "rational":
            if reference.get(key) is None or Fraction(text) != reference[key]:
                verdict.wrong += 1
        else:
            levels.judge(key, text, verdict)
    _exit_status(verdict, code, 0, err)
    if verdict.wrong and mode == "rational":
        verdict.explained = False
    return verdict


def _check_terms(command, opts, code, out, err) -> Verdict:
    max_m = int(opts["max-m"])
    z = Fraction(opts["z"])
    error = command == "error-terms"
    # Transformation terms at |z| > 1 subtract numbers of size |z|**m.
    digits = ORACLE_DIGITS
    if abs(z) > 1:
        digits += len(str(int(abs(z) ** max_m)))

    def compute(digits):
        fld = BigFloatField(digits=digits)
        zz = fld.from_fraction(z)
        series = _series(opts["series"], fld, max_m + 1)
        sums = _partial_sums(series, zz, max_m + 1)
        seq = ScalarSequence(fld, tuple(sums))
        limit = series_value(series, zz) if error else None
        values = {}
        with fld.arithmetic():
            for family in _TERM_FAMILIES:
                table = _PRIMARY[family](seq)
                step, scale = SELECTION[family]
                for m in range(max_m + 1):
                    k, n = m // step, m % step
                    if k == 0:
                        values[(family, m)] = fld.zero
                    elif table.is_valid(scale * k, n):
                        value = table.entries[(scale * k, n)]
                        values[(family, m)] = value - (limit if error else sums[m])
                    else:
                        values[(family, m)] = None
        return values

    levels = _Levels(compute, digits, REL_TOL["bigfloat"])
    verdict = Verdict(requested=3 * (max_m + 1))
    for row in csv.DictReader(io.StringIO(out)):
        m, family = int(row["m"]), row["family"]
        step = SELECTION[family][0]
        if row["valid"] != "true":
            continue
        verdict.printed += 1
        if (int(row["k"]), int(row["n"])) != (m // step, m % step):
            verdict.wrong += 1
            continue
        levels.judge((family, m), row["value"], verdict)
    _exit_status(verdict, code, 0, err)
    return verdict


def _check_reproduce(command, opts, code, out, err) -> Verdict:
    experiment = opts["experiment"]
    verdict = Verdict(requested=REPRODUCE_VALUES[experiment])
    mismatches = set()
    for line in out.splitlines():
        tokens = line.split()
        if line.startswith("MISMATCH"):
            mismatches.add(line.split(":")[0][len("MISMATCH "):])
        elif experiment in ("table1", "table2") and len(tokens) == 4 and tokens[0].isdigit():
            verdict.printed += sum(1 for t in tokens[1:] if t != "invalid")
        elif experiment == "expansion7" and "(level" in line:
            verdict.printed += len(tokens) - 3
        elif experiment == "predict13" and tokens and tokens[0][:-1] in _TERM_FAMILIES:
            verdict.printed += len(tokens) - 1
    documented = TABLE1_DOCUMENTED if experiment == "table1" else set()
    verdict.wrong = len(mismatches - documented)
    _exit_status(verdict, code, 2 if experiment == "table1" else 0, err)
    if verdict.wrong or mismatches != documented:
        verdict.failed, verdict.explained = True, False
        verdict.note = "reference mismatch: " + ", ".join(sorted(mismatches ^ documented))
    return verdict


def check(argv, status: str, code, out: str, err: str) -> Verdict:
    """Verdict on one job run: ``status`` is ok, timeout or crash."""
    command, opts = argv[0], _options(argv)
    checker = {"predict": _check_predict, "accelerate": _check_accelerate,
               "error-terms": _check_terms, "transform-terms": _check_terms,
               "reproduce": _check_reproduce}[command]
    try:
        verdict = checker(command, opts, code, out, err)
    except (ValueError, IndexError, KeyError) as exc:
        verdict = Verdict(requested=0, failed=True, explained=False,
                          note=f"unparseable output: {exc!r}")
    if status != "ok":
        verdict.failed, verdict.explained, verdict.note = True, False, status
    return verdict


def main(argv=None) -> None:
    """Check the tasks in one JSON file and write their verdicts to another.

    Usage: ``oracles.py TASKS.json VERDICTS.json``, where each task is
    ``[argv, status, code, stdout, stderr]``; ``bench/run.py`` runs this as a
    child process.
    """
    tasks_path, verdicts_path = argv or sys.argv[1:]
    tasks = json.loads(Path(tasks_path).read_text())
    verdicts = [asdict(check(*task)) for task in tasks]
    Path(verdicts_path).write_text(json.dumps(verdicts))


if __name__ == "__main__":
    main()
