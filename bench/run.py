"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload exact-predict --seed 1 --seconds 30 --trace 0

The job list is generated from ``--seed`` before timing starts.  A child
process (``bench/worker.py``) imports ``seriaccel.cli`` from ``src/`` and runs
whole rounds of jobs in a closed loop until ``--seconds`` have passed; every
output is then checked by ``bench/oracles.py`` outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the rounds
untraced and then traced, prints the per-layer metrics and writes the spans
to ``.bench_cache/``.  Either way the job list and the per-job results
(job, seconds, status, exit code, output digest) are written to
``.bench_cache/jobs-<workload>-<seed>.json``.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mixes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"

JOB_TIMEOUT_S = 10.0  # longest seed-commit job is about 1 s
# Time of one ``worker.reference_work`` call at the reference host speed: the
# median on the 2-vCPU Xeon VM where the seed-commit values were measured.
REFERENCE_S = 0.001
WORKER_BUDGET_S = 150.0  # the worker is killed past this; a run must end within 180 s
RUN_BUDGET_S = 170.0  # the oracle children are killed past this
ORACLE_CHILDREN = 2
SETUP_PROBES = 11

END_TO_END = (
    ("setup_s", "s"), ("job_p50_s", "s"), ("job_p90_s", "s"), ("jobs_per_s", "1/s"),
    ("ok_job_ratio", "ratio"), ("valid_value_ratio", "ratio"),
    ("right_value_ratio", "ratio"), ("peak_rss_mb", "MB"),
)

# Prints the import time and, right after it in the same interpreter, the
# median time of 20 ``worker.reference_work`` calls.
_IMPORT_PROBE = ("import statistics, sys, time; t = time.perf_counter(); import seriaccel.cli; "
                 "i = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
                 "from worker import reference_work; "
                 "print(i, statistics.median(reference_work() for _ in range(20)))")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("SERIACCEL_PRECISION", None)
    return env


_CHILDREN: list[subprocess.Popen] = []


def _spawn(args, env, **kwargs) -> subprocess.Popen:
    """Start ``python3 args...`` in the checkout; :func:`_reap` ends it."""
    child = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT, **kwargs)
    _CHILDREN.append(child)
    return child


def _reap() -> None:
    """Kill every child still running and wait until each has ended."""
    for child in _CHILDREN:
        if child.poll() is None:
            child.kill()
    for child in _CHILDREN:
        child.wait()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _import_seconds(env) -> tuple[float, float]:
    """(import seconds, reference seconds) of one fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(BENCH)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    seconds, reference = map(float, done.stdout.split())
    return seconds, reference


def _run_worker(spec, env, budget) -> dict:
    child = _spawn([str(BENCH / "worker.py")], env,
                   stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(json.dumps(spec), timeout=budget)
    except subprocess.TimeoutExpired:
        raise SystemExit("benchmark worker exceeded the run budget")
    if child.returncode != 0:
        raise SystemExit(f"benchmark worker exited with code {child.returncode}")
    return json.loads(out)


def _code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [BENCH / "oracles.py"]:
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_in_children(tasks, env, budget) -> list:
    """Verdicts of ``oracles.check`` on ``tasks``, split over child processes."""
    parts, children = [], []
    for i in range(min(ORACLE_CHILDREN, len(tasks))):
        task_path = CACHE / f"oracle-tasks-{os.getpid()}-{i}.json"
        verdict_path = task_path.with_name(task_path.name.replace("tasks", "verdicts"))
        task_path.write_text(json.dumps(tasks[i::ORACLE_CHILDREN]))
        parts.append((task_path, verdict_path))
        children.append(_spawn([str(BENCH / "oracles.py"), str(task_path), str(verdict_path)],
                               env))
    deadline = time.perf_counter() + budget
    verdicts = [None] * len(tasks)
    for i, (child, (task_path, verdict_path)) in enumerate(zip(children, parts)):
        try:
            code = child.wait(timeout=max(deadline - time.perf_counter(), 0.0))
        except subprocess.TimeoutExpired:
            raise SystemExit("oracle check exceeded the run budget")
        if code != 0:
            raise SystemExit(f"oracle check exited with code {code}")
        verdicts[i::ORACLE_CHILDREN] = json.loads(verdict_path.read_text())
        task_path.unlink()
        verdict_path.unlink()
    return verdicts


def check_outputs(jobs, report, env, budget) -> dict:
    """Oracle verdict for each distinct job output, cached on disk by content.

    Outputs missing from the cache are checked in two child processes.
    """
    cache_path = CACHE / f"oracle-{_code_digest()}.json"
    try:
        cache = json.loads(cache_path.read_text())
    except (OSError, ValueError):
        cache = {}
    status = {f"{row[0]}:{row[4]}": (row[2], row[3]) for row in report["results"]}
    keys = {key: json.dumps([jobs[int(key.split(":")[0])], key.split(":")[1]])
            for key in report["outputs"]}
    pending = [key for key in keys if keys[key] not in cache]
    if pending:
        tasks = [(jobs[int(key.split(":")[0])], *status[key], *report["outputs"][key])
                 for key in pending]
        for key, verdict in zip(pending, _check_in_children(tasks, env, budget)):
            cache[keys[key]] = verdict
        cache_path.write_text(json.dumps(cache))
    return {key: cache[cache_key] for key, cache_key in keys.items()}


def summarize(jobs, report, verdicts, setup_samples) -> tuple[dict, dict]:
    """End-to-end metrics and the side counts printed with them.

    The host's speed drifts by tens of percent over minutes, and a fixed
    reference workload run after every job drifts with it.  So the timing
    metrics are scaled to the reference host speed: by ``REFERENCE_S`` over
    the mean reference time of this run.  Each set-up sample is scaled by the
    reference time its own interpreter measured right after the import.  The
    raw values go to the side.
    """
    results = report["results"]
    attempted = len(results)
    raw_times = sorted(row[1] for row in results)
    reference = sum(row[5] for row in results)
    host = reference / attempted / REFERENCE_S
    raw_p50 = statistics.median(raw_times)
    raw_p90 = statistics.quantiles(raw_times, n=10)[8] if attempted >= 2 else raw_times[0]
    raw_rate = attempted / (report["wall_s"] - reference)
    per_job = [verdicts[f"{row[0]}:{row[4]}"] for row in results]
    failed = sum(v["failed"] for v in per_job)
    requested = sum(v["requested"] for v in per_job)
    printed = sum(v["printed"] for v in per_job)
    wrong = sum(v["wrong"] for v in per_job)
    metrics = {
        "setup_s": statistics.median(s / ref * REFERENCE_S for s, ref in setup_samples),
        "job_p50_s": raw_p50 / host,
        "job_p90_s": raw_p90 / host,
        "jobs_per_s": raw_rate * host,
        "ok_job_ratio": 1 - failed / attempted,
        "valid_value_ratio": printed / requested,
        "right_value_ratio": 1 - wrong / printed if printed else 0.0,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }
    side = {
        "attempted": attempted, "failed": failed, "rounds": report["rounds"],
        "host_factor": host, "raw_p50_s": raw_p50, "raw_p90_s": raw_p90,
        "raw_jobs_per_s": raw_rate, "raw_setup_s": statistics.median(s for s, _ in setup_samples),
        "jobs_per_round": len(jobs), "beyond_p90": sum(t > raw_p90 for t in raw_times),
        "failed_ratio": failed / attempted, "wrong_value_ratio": wrong / printed if printed else 0.0,
        "values_requested": requested, "values_printed": printed, "values_wrong": wrong,
        "values_unverified": sum(v["unverified"] for v in per_job),
        "timeouts": sum(row[2] == "timeout" for row in results),
        "correct": all(v["explained"] for v in per_job),
        "unclean": sum(v["failed"] and not v["explained"] for v in per_job),
        "unexplained": sorted({" ".join(jobs[row[0]]) + f" [{v['note']}]"
                               for row, v in zip(results, per_job) if not v["explained"]}),
    }
    return metrics, side


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return _main(argv)
    finally:
        _reap()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=mixes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "seriaccel" / "cli.py").is_file():
        print(f"error: no seriaccel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    jobs = mixes.make_round(args.workload, args.seed)
    orders = mixes.round_orders(args.workload, args.seed, len(jobs))
    env = _env()
    setup_samples = [_import_seconds(env) for _ in range(SETUP_PROBES)]
    CACHE.mkdir(exist_ok=True)
    spec = {"jobs": jobs, "orders": orders, "seconds": args.seconds, "timeout": JOB_TIMEOUT_S,
            "hard_limit": max(args.seconds, min(3 * args.seconds, 100.0)),
            "trace": bool(args.trace),
            "trace_path": str(CACHE / f"trace-{args.workload}-{args.seed}.json")}
    report = _run_worker(spec, env, WORKER_BUDGET_S - (time.perf_counter() - started))
    (CACHE / f"jobs-{args.workload}-{args.seed}.json").write_text(
        json.dumps({"jobs": jobs, "results": report["results"]}))
    verdicts = check_outputs(jobs, report, env, RUN_BUDGET_S - (time.perf_counter() - started))
    metrics, side = summarize(jobs, report, verdicts, setup_samples)

    print(f"# workload={args.workload} seed={args.seed} rounds={side['rounds']} "
          f"jobs/round={side['jobs_per_round']} attempted={side['attempted']} "
          f"failed={side['failed']} (unclean {side['unclean']}) timeouts={side['timeouts']} "
          f"correct={side['correct']}")
    if args.trace:
        from tracing import LAYER_METRICS

        units = dict(LAYER_METRICS)
        reported = {name: {"value": report["layers"][name], "unit": units[name]}
                    for name, _ in LAYER_METRICS}
        print(f"# spans written to {spec['trace_path']}")
    else:
        units = dict(END_TO_END)
        reported = {name: {"value": metrics[name], "unit": units[name]} for name, _ in END_TO_END}
        print(f"# job_p90_s from {side['attempted']} samples, {side['beyond_p90']} beyond it")
        print(f"# host_factor={side['host_factor']:.4f} (reference time / {REFERENCE_S} s); "
              f"unscaled job_p50_s={side['raw_p50_s']:.6g} job_p90_s={side['raw_p90_s']:.6g} "
              f"jobs_per_s={side['raw_jobs_per_s']:.6g} setup_s={side['raw_setup_s']:.6g}")
        print(f"# failed_ratio={side['failed_ratio']:.6f} "
              f"wrong_value_ratio={side['wrong_value_ratio']:.6f} "
              f"values requested={side['values_requested']} printed={side['values_printed']} "
              f"wrong={side['values_wrong']} unverified={side['values_unverified']}")
    for line in side["unexplained"]:
        print(f"# unexplained: {line}")
    for name, entry in reported.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    # "failed" counts the jobs that failed uncleanly; clean refusals are
    # in failed_ratio (ok_job_ratio) only.
    print(json.dumps({"correct": side["correct"], "attempted": side["attempted"],
                      "failed": side["unclean"], "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
