"""Seeded job mixes for the three benchmark workloads.

A job is the argv of one ``seriaccel`` CLI call.  A workload is a *round*: a
fixed list of job slots.  Pinned slots are exact argv lists (documented
defects, ROADMAP baseline rows, ``reproduce`` experiments).  The other slots
spread a size parameter over its range at fixed anchors; the seed moves each
size a little around its anchor (or, for predictions, picks the printed
digits) and picks the job order, so every seed covers the whole range with
about the same total work.  A run repeats the round,
reshuffled, and always runs whole rounds, so the share of each job kind is the
same in every run.

The largest anchors stop below the sizes at which the seed commit's rational
results exceed Python's 4300-digit string limit; the pinned slots sit exactly
on those sizes so that the defect shows as it is.
"""

from __future__ import annotations

import random

LOG = "builtin:log1p-over-z"
ZETA = "builtin:zeta(2)"

WORKLOADS = ("exact-predict", "error-table", "float-tables")
FAMILIES = ("aitken", "epsilon", "epsilon-cross", "theta", "theta-iterated")

# Rounds a run may repeat at most; a run normally ends long before.
MAX_ROUNDS = 64


def predict(series, family, use, count, digits=10):
    return ["predict", "--series", series, "--family", family,
            "--use", str(use), "--count", str(count), "--digits", str(digits)]


def accelerate(series, mode, family, z, terms):
    return ["accelerate", "--series", series, "--mode", mode, "--family", family,
            f"--z={z}", "--terms", str(terms)]


def error_terms(series, z, max_m):
    return ["error-terms", "--series", series, f"--z={z}", "--max-m", str(max_m)]


def transform_terms(series, z, max_m):
    return ["transform-terms", "--series", series, f"--z={z}", "--max-m", str(max_m)]


def reproduce(experiment):
    return ["reproduce", "--experiment", experiment]


# --------------------------------------------------------------------------
# exact-predict: rational predictions, where jet multiply/reciprocal and the
# height of the Fractions carry the cost.

EXACT_PINNED = (
    # The seed commit exits 1 on these four: a predicted coefficient has more
    # than 4300 decimal digits and cannot be rendered.
    predict(LOG, "aitken", 16, 5),
    predict(LOG, "theta-iterated", 21, 5),
    predict(ZETA, "aitken", 14, 4),
    predict(ZETA, "theta-iterated", 15, 6),
    # ROADMAP baseline row: rational epsilon prediction from 41 coefficients.
    predict(LOG, "epsilon", 40, 4),
    # Rational tables whose entries exceed 4300 digits at n = 20.
    accelerate(LOG, "rational", "aitken", "1/2", 20),
    accelerate(LOG, "rational", "theta", "1/2", 20),
    reproduce("predict13"),
    reproduce("expansion7"),
)


def _near(rng, anchor, jitter):
    return rng.randint(anchor - jitter, anchor + jitter)


# (series, family) -> (use, count) slots spreading ``use`` over each family's
# range.  Their cost climbs steeply with ``use`` and the median job sits among
# them, so the seed does not move their size; it picks the printed digits of
# the decimal column (8 to 16), which leaves the work the same.
EXACT_PREDICT_SLOTS = {
    (LOG, "aitken"): ((6, 8), (10, 5), (14, 6)),
    (LOG, "epsilon"): ((8, 6), (18, 7), (30, 5)),
    (LOG, "theta-iterated"): ((7, 4), (12, 8), (18, 6)),
    (ZETA, "aitken"): ((6, 7), (9, 4), (12, 6)),
    (ZETA, "epsilon"): ((7, 8), (14, 5), (20, 6)),
    (ZETA, "theta-iterated"): ((6, 5), (10, 7), (13, 6)),
}

# family -> (terms, jitter) slots for small rational tables at z = 1/2; aitken
# and theta stay below n = 17, where their entries first pass 4300 digits.
EXACT_ACCELERATE_SLOTS = {
    "aitken": ((12, 1), (15, 1)),
    "epsilon": ((13, 1), (18, 2)),
    "epsilon-cross": ((13, 1), (18, 2)),
    "theta": ((12, 1), (15, 1)),
    "theta-iterated": ((13, 1), (18, 2)),
}


def _exact_predict(rng):
    jobs = [list(job) for job in EXACT_PINNED]
    for (series, family), slots in EXACT_PREDICT_SLOTS.items():
        for use, count in slots:
            jobs.append(predict(series, family, use, count, rng.randint(8, 16)))
    for family, slots in EXACT_ACCELERATE_SLOTS.items():
        for terms, jitter in slots:
            jobs.append(accelerate(LOG, "rational", family, "1/2", _near(rng, terms, jitter)))
    return jobs


# --------------------------------------------------------------------------
# error-table: bigfloat error terms at |z| < 1, where the remainder tail sums
# and coefficient generation carry the cost.

ERROR_PINNED = (
    reproduce("table1"),
    # ROADMAP baseline row: error terms at z = 0.95 through m = 40.
    error_terms(LOG, "0.95", 40),
)

# z -> ``--max-m`` anchors, each moved by up to 2 by the seed.  The tail
# length grows like 1/|log z|, so the points near 1 get the small anchors.
ERROR_ANCHORS = {
    "0.95": (16,),
    "0.8": (18, 45),
    "-0.8": (18, 45),
    "0.5": (18, 45, 80, 115),
    "-0.5": (18, 45, 80, 115),
}


def _error_table(rng):
    jobs = [list(job) for job in ERROR_PINNED]
    for series in (LOG, ZETA):
        for z, anchors in ERROR_ANCHORS.items():
            for max_m in anchors:
                jobs.append(error_terms(series, z, _near(rng, max_m, 2)))
    return jobs


# --------------------------------------------------------------------------
# float-tables: textbook tables in f64 and bigfloat, where the near-zero
# guard, O(n^2) partial sums and printing carry the cost.

FLOAT_PINNED = (
    reproduce("table2"),
    # ROADMAP baseline rows.
    accelerate(LOG, "f64", "epsilon", "1/2", 120),
    transform_terms(LOG, "5.0", 40),
)

# ``--terms`` and ``--max-m`` anchors, each moved by up to 5 by the seed.
FLOAT_TERMS_ANCHORS = (40, 130, 220)
TRANSFORM_ANCHORS = {"5.0": (30, 100), "2": (30, 100), "1.5": (30, 100)}


def _float_tables(rng):
    jobs = [list(job) for job in FLOAT_PINNED]
    for mode in ("f64", "bigfloat"):
        for family in FAMILIES:
            for z in ("1/2", "-9/10"):
                for terms in FLOAT_TERMS_ANCHORS:
                    jobs.append(accelerate(LOG, mode, family, z, _near(rng, terms, 5)))
    for z, anchors in TRANSFORM_ANCHORS.items():
        for max_m in anchors:
            jobs.append(transform_terms(LOG, z, _near(rng, max_m, 5)))
    return jobs


_BUILDERS = {
    "exact-predict": _exact_predict,
    "error-table": _error_table,
    "float-tables": _float_tables,
}


def make_round(workload: str, seed: int) -> list[list[str]]:
    """The distinct jobs of one round of ``workload``, in a seeded order."""
    try:
        build = _BUILDERS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}") from None
    rng = random.Random(f"{workload}/{seed}")
    jobs = build(rng)
    rng.shuffle(jobs)
    return jobs


def round_orders(workload: str, seed: int, size: int, rounds: int = MAX_ROUNDS) -> list[list[int]]:
    """Job order of each round: the first round as generated, then reshuffled."""
    rng = random.Random(f"{workload}/{seed}/order")
    orders = [list(range(size))]
    for _ in range(rounds - 1):
        order = list(range(size))
        rng.shuffle(order)
        orders.append(order)
    return orders
