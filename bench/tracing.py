"""Span tracing for the traced benchmark run, installed from outside ``src/``.

The tracer wraps the public entry points of each ``seriaccel`` module at the
place where their caller looks them up: ``cli`` imports most functions by
name, so those are wrapped in ``seriaccel.cli``; ``evaluate_error_terms``
reaches ``remainder_value`` as a module global of ``seriaccel.remainders``;
methods are wrapped on their class.  Untraced runs install nothing.

Two kinds of wrapper exist:

* a *span* records (name, start, end, parent span, job id);
* a *leaf* is a function that calls nothing traced and runs very often
  (coefficient lookup, checked division, jet products, rendering).  Its calls
  are kept as a count and a total time per (parent span, name), so that tens
  of thousands of calls per job do not turn into as many span records.

Everything stays in memory until :meth:`Tracer.dump` writes it out.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

from seriaccel import _recursions, cli, field, jets, prediction, remainders

CLI = "cli"

_TABLE_BUILDERS = ("aitken_table", "epsilon_table", "epsilon_cross_table",
                   "theta_table", "iterated_theta_table")
_RENDERERS = ("to_fraction_string", "decimal_string", "scientific_string")

# Per-layer metrics, in the order they are reported, with their units.
LAYER_METRICS = (
    ("jets.mul_calls", "count"), ("jets.mul_s", "s"),
    ("jets.reciprocal_calls", "count"), ("jets.reciprocal_s", "s"),
    ("jets.coefficient_calls", "count"), ("jets.coefficient_s", "s"),
    ("jets.partial_sum_calls", "count"), ("jets.partial_sum_s", "s"),
    ("prediction.terms_s", "s"),
    ("field.result_bits_max", "bits"),
    ("field.render_calls", "count"), ("field.render_s", "s"), ("field.render_errors", "count"),
    ("field.div_calls", "count"), ("field.div_s", "s"), ("field.div_breakdowns", "count"),
    ("remainders.tail_sum_calls", "count"), ("remainders.tail_sum_s", "s"),
    ("remainders.tail_terms", "count"),
    ("recursions.build_s", "s"), ("recursions.cells", "count"),
    ("recursions.cells_failed", "count"),
    ("transforms.table_s", "s"), ("transforms.entries", "count"),
    ("transforms.entries_invalid", "count"), ("transforms.select_s", "s"),
    ("series_library.resolve_s", "s"), ("report.render_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
)


def _bits(value) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def _count_cells(tracer, args, result):
    build = args[0]
    tracer.counts["recursions.cells"] += (
        len(build.entries) + len(build.failures) - (build.width(0) + 1))
    tracer.counts["recursions.cells_failed"] += len(build.failures)


def _count_entries(tracer, args, table):
    tracer.counts["transforms.entries"] += len(table.valid) - table.size
    tracer.counts["transforms.entries_invalid"] += sum(1 for ok in table.valid.values() if not ok)


def _record_bits(tracer, args):
    value = args[0]
    if hasattr(value, "denominator"):
        tracer.bits_max = max(tracer.bits_max, _bits(value))


# (owner, attribute, layer) of every wrapped name.
TARGETS = (
    (jets.Jet, "__mul__", "jets.mul"),
    (jets.Jet, "reciprocal", "jets.reciprocal"),
    (jets.PowerSeries, "coefficient", "jets.coefficient"),
    (jets.PowerSeries, "partial_sum", "jets.partial_sum"),
    (field.Field, "div", "field.div"),
    (_recursions._Build, "run", "recursions.build"),
    (prediction, "transformation_terms", "prediction.terms"),
    (remainders, "remainder_value", "remainders.tail_sum"),
    *((cli, name, "transforms.table") for name in _TABLE_BUILDERS),
    (cli, "select_approximant", "transforms.select"),
    *((cli, name, "field.render") for name in _RENDERERS),
    (cli, "resolve_series_spec", "series_library.resolve"),
    (cli, "builtin_series", "series_library.resolve"),
    (cli, "rows_to_csv", "report.render"),
    (cli, "rows_to_json", "report.render"),
)
_LEAVES = {"jets.mul", "jets.reciprocal", "jets.coefficient", "field.div",
           "transforms.select", "field.render"}
_ERROR_COUNTS = {"field.div": "field.div_breakdowns", "field.render": "field.render_errors"}
_AFTER = {"recursions.build": _count_cells, "transforms.table": _count_entries}
_BEFORE = {"to_fraction_string": _record_bits}


class Tracer:
    """In-memory span and count store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.leaf: dict[tuple[int, int], list] = {}
        self.counts: Counter = Counter()
        self.bits_max = 0
        self.job = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def job_span(self, job: int, call):
        """Run ``call()`` as the root span of job ``job``."""
        self.job = job
        index = self._open(self._id(CLI))
        try:
            return call()
        finally:
            self._close(index)

    def span(self, name: str, fn, after=None):
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def leaf_call(self, name: str, fn, before=None, error_count: str | None = None):
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if error_count is not None:
                    self.counts[error_count] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                slot = self.leaf.get((self._stack[-1], name_id))
                if slot is None:
                    self.leaf[(self._stack[-1], name_id)] = [1, elapsed]
                else:
                    slot[0] += 1
                    slot[1] += elapsed

        wrapper.__bench_wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for owner, attr, layer in TARGETS:
            fn = owner.__dict__[attr]
            if layer in _LEAVES:
                wrapper = self.leaf_call(layer, fn, before=_BEFORE.get(attr),
                                         error_count=_ERROR_COUNTS.get(layer))
            else:
                wrapper = self.span(layer, fn, after=_AFTER.get(layer))
            self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def layer_metrics(self, jobs: int, job_wall_s: float, overhead_ratio: float) -> dict:
        """Per-layer metrics as means per traced job (``field.result_bits_max``
        and the two ``trace.*`` ratios excepted).  Times are inclusive except
        ``recursions.build_s`` and ``cli.self_s``, which are self times."""
        names = self.names
        total = Counter()
        calls = Counter()
        child_time = [0.0] * len(self.span_start)
        for index in range(len(self.span_start)):
            duration = self.span_end[index] - self.span_start[index]
            name = names[self.span_name[index]]
            total[name] += duration
            calls[name] += 1
            parent = self.span_parent[index]
            if parent >= 0:
                child_time[parent] += duration
        tail_terms = 0
        coefficient_id = self._ids.get("jets.coefficient")
        for (parent, name_id), (count, seconds) in self.leaf.items():
            name = names[name_id]
            total[name] += seconds
            calls[name] += count
            if parent >= 0:
                child_time[parent] += seconds
                if name_id == coefficient_id and names[self.span_name[parent]] == "remainders.tail_sum":
                    tail_terms += count
        self_time = Counter()
        covered = 0.0
        for index in range(len(self.span_start)):
            name = names[self.span_name[index]]
            duration = self.span_end[index] - self.span_start[index]
            self_time[name] += duration - child_time[index]
            if name == CLI:
                covered += child_time[index]

        per_job = max(jobs, 1)
        values = {
            "jets.mul_calls": calls["jets.mul"], "jets.mul_s": total["jets.mul"],
            "jets.reciprocal_calls": calls["jets.reciprocal"],
            "jets.reciprocal_s": total["jets.reciprocal"],
            "jets.coefficient_calls": calls["jets.coefficient"],
            "jets.coefficient_s": total["jets.coefficient"],
            "jets.partial_sum_calls": calls["jets.partial_sum"],
            "jets.partial_sum_s": total["jets.partial_sum"],
            "prediction.terms_s": total["prediction.terms"],
            "field.render_calls": calls["field.render"], "field.render_s": total["field.render"],
            "field.render_errors": self.counts["field.render_errors"],
            "field.div_calls": calls["field.div"], "field.div_s": total["field.div"],
            "field.div_breakdowns": self.counts["field.div_breakdowns"],
            "remainders.tail_sum_calls": calls["remainders.tail_sum"],
            "remainders.tail_sum_s": total["remainders.tail_sum"],
            "remainders.tail_terms": tail_terms,
            "recursions.build_s": self_time["recursions.build"],
            "recursions.cells": self.counts["recursions.cells"],
            "recursions.cells_failed": self.counts["recursions.cells_failed"],
            "transforms.table_s": total["transforms.table"],
            "transforms.entries": self.counts["transforms.entries"],
            "transforms.entries_invalid": self.counts["transforms.entries_invalid"],
            "transforms.select_s": total["transforms.select"],
            "series_library.resolve_s": total["series_library.resolve"],
            "report.render_s": total["report.render"],
            "cli.self_s": self_time[CLI],
        }
        values = {name: value / per_job for name, value in values.items()}
        values["field.result_bits_max"] = self.bits_max
        values["trace.overhead_ratio"] = overhead_ratio
        values["trace.coverage"] = covered / job_wall_s if job_wall_s > 0 else 0.0
        return values

    def dump(self, path) -> None:
        """Write names, spans and leaf aggregates as one JSON document."""
        spans = [
            [self.span_name[i], self.span_start[i], self.span_end[i],
             self.span_parent[i], self.span_job[i]]
            for i in range(len(self.span_start))
        ]
        leaves = [[parent, name_id, count, seconds]
                  for (parent, name_id), (count, seconds) in self.leaf.items()]
        with open(path, "w") as out:
            json.dump({"names": self.names,
                       "spans": {"fields": ["name", "start", "end", "parent", "job"],
                                 "rows": spans},
                       "leaves": {"fields": ["parent", "name", "calls", "seconds"],
                                  "rows": leaves},
                       "counts": dict(self.counts), "result_bits_max": self.bits_max}, out)


def installed_wrappers() -> list[str]:
    """Names of the tracing targets that currently hold a wrapper."""
    return [f"{owner.__name__}.{attr}" for owner, attr, _ in TARGETS
            if hasattr(owner.__dict__[attr], "__bench_wrapped__")]
