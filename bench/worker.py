"""Benchmark child process: runs one workload's jobs in a closed loop.

One client, one thread, one job outstanding.  A job is one in-process call to
``seriaccel.cli.main(argv)`` with stdout and stderr captured.  The child reads
its instructions as one JSON object on stdin and writes one JSON object to
stdout when it is done; run ``bench/run.py``, not this file.

Input keys: ``jobs`` (list of argv lists), ``orders`` (job order per round),
``seconds``, ``timeout`` (per job), ``hard_limit`` (start no job after this
many seconds, even in the middle of a round), ``trace`` (bool),
``trace_path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import seriaccel.cli


class JobTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so ``cli.main`` cannot catch it."""


def _alarm(signum, frame):
    raise JobTimeout()


def reference_work() -> float:
    """Seconds taken by a fixed piece of work that does not touch ``seriaccel``.

    It mixes what the jobs spend their time on (Decimal, Fraction and float
    arithmetic, text formatting), so its speed follows the host's speed.
    """
    start = time.perf_counter()
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(1)
        for i in range(1, 150):
            d = d * Decimal(i) / Decimal(i + 1) + Decimal(1) / Decimal(i)
    f = Fraction(0)
    for i in range(1, 100):
        f += Fraction((-1) ** i, i)
    [f"{(i * 0.5) ** 0.5:.10e}" for i in range(200)]
    return time.perf_counter() - start


def run_job(main, argv, timeout):
    """Call ``main(argv)``; return (status, exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    status, code = "ok", None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        signal.setitimer(signal.ITIMER_REAL, timeout)
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except JobTimeout:
            status = "timeout"
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            status = "crash"
            err.write(f"crash: {type(exc).__name__}: {exc}\n")
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    return status, code, out.getvalue(), err.getvalue(), elapsed


def run_rounds(jobs, orders, seconds, timeout, deadline, tracer=None, main=None):
    """Run whole rounds, one per entry of ``orders``, until ``seconds`` have passed.

    No job starts after the ``deadline`` (a ``time.perf_counter`` value), even
    in the middle of a round.  After each job, :func:`reference_work` runs
    once, outside the job's time, to sample the host's speed.  Returns
    (results, outputs, wall seconds, rounds).  ``results`` holds one
    ``[job, seconds, status, code, digest, reference seconds]`` row per
    attempted job; ``outputs`` maps ``"job:digest"`` to ``[stdout, stderr]``
    for the first occurrence of each distinct output.
    """
    main = main or seriaccel.cli.main
    results, outputs = [], {}
    rounds = 0
    start = time.perf_counter()
    for order in orders:
        if time.perf_counter() - start >= seconds:
            break
        for job in order:
            if time.perf_counter() >= deadline:
                break
            if tracer is None:
                status, code, out, err, elapsed = run_job(main, jobs[job], timeout)
            else:
                status, code, out, err, elapsed = tracer.job_span(
                    job, lambda: run_job(main, jobs[job], timeout))
            digest = hashlib.sha256(f"{status}\0{code}\0{out}\0{err}".encode()).hexdigest()[:24]
            outputs.setdefault(f"{job}:{digest}", [out, err])
            results.append([job, elapsed, status, code, digest, reference_work()])
        rounds += 1
    return results, outputs, time.perf_counter() - start, rounds


def run_traced(jobs, orders, seconds, timeout, deadline, trace_path):
    """Per-layer metrics from rounds run alternately untraced and traced.

    A first untraced round warms the process up and is not counted.  Each
    later round runs once untraced and once traced with the same job order;
    the wall-time ratio of the traced to the untraced rounds is the tracing
    overhead.  Returns the untraced results and outputs and the metrics.
    """
    from tracing import Tracer

    run_rounds(jobs, orders[:1], seconds, timeout, deadline)
    tracer = Tracer()
    results, outputs, traced = [], {}, []
    untraced_wall = traced_wall = 0.0
    start = time.perf_counter()
    for order in orders[1:]:
        if traced and time.perf_counter() - start >= seconds:
            break
        rows, outs, wall, _ = run_rounds(jobs, [order], seconds, timeout, deadline)
        results += rows
        outputs.update(outs)
        untraced_wall += wall
        tracer.install()
        try:
            rows, _, wall, _ = run_rounds(jobs, [order], seconds, timeout, deadline, tracer=tracer)
        finally:
            tracer.uninstall()
        traced += rows
        traced_wall += wall
    job_wall = sum(row[1] for row in traced)
    overhead = traced_wall / untraced_wall if untraced_wall else 0.0
    layers = tracer.layer_metrics(len(traced), job_wall, overhead)
    tracer.dump(trace_path)
    return results, outputs, untraced_wall, layers


def main() -> None:
    spec = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _alarm)
    jobs, orders = spec["jobs"], spec["orders"]
    deadline = time.perf_counter() + spec["hard_limit"]
    report = {}
    if spec["trace"]:
        results, outputs, wall, report["layers"] = run_traced(
            jobs, orders, spec["seconds"], spec["timeout"], deadline, spec["trace_path"])
        rounds = len(results) // len(jobs)
    else:
        results, outputs, wall, rounds = run_rounds(
            jobs, orders, spec["seconds"], spec["timeout"], deadline)
    report.update(results=results, outputs=outputs, wall_s=wall, rounds=rounds,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    json.dump(report, sys.__stdout__)


if __name__ == "__main__":
    main()
