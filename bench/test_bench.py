"""Self-tests of the benchmark: job generation, tracing hygiene and oracles."""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mixes  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_same_seed_gives_same_jobs(workload):
    assert mixes.make_round(workload, 7) == mixes.make_round(workload, 7)
    size = len(mixes.make_round(workload, 7))
    assert mixes.round_orders(workload, 7, size) == mixes.round_orders(workload, 7, size)


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_other_seed_gives_other_jobs(workload):
    one, two = mixes.make_round(workload, 7), mixes.make_round(workload, 8)
    assert one != two
    assert sorted(map(tuple, one)) != sorted(map(tuple, two))
    assert len(one) == len(two)


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        mixes.make_round("no-such-workload", 1)


def _run(argv):
    status, code, out, err, _ = worker.run_job(worker.seriaccel.cli.main, argv, timeout=30)
    assert status == "ok"
    return code, out, err


def test_untraced_run_installs_no_wrappers():
    seen = []

    def probe(argv):
        seen.append(tracing.installed_wrappers())
        return 0

    jobs = [mixes.reproduce("expansion7")]
    worker.run_rounds(jobs, [[0]], 60, 30, float("inf"), main=probe)
    assert seen == [[]]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        worker.run_rounds(jobs, [[0]], 60, 30, float("inf"), tracer=tracer, main=probe)
    finally:
        tracer.uninstall()
    assert seen[1]
    assert tracing.installed_wrappers() == []


def test_traced_job_records_layer_spans():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rows, _, wall, _ = worker.run_rounds(
            [mixes.predict(mixes.LOG, "epsilon", 8, 4)], [[0]], 60, 30, float("inf"), tracer=tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(len(rows), sum(row[1] for row in rows), 1.0)
    assert set(layers) == {name for name, _ in tracing.LAYER_METRICS}
    assert layers["jets.mul_calls"] > 0 and layers["jets.reciprocal_calls"] > 0
    assert layers["remainders.tail_sum_calls"] == 0
    assert 0 < layers["trace.coverage"] <= 1


def test_timeout_counts_as_failed_job():
    def slow(argv):
        while True:
            pass

    previous = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        status, *_ = worker.run_job(slow, ["predict"], timeout=0.05)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert status == "timeout"
    verdict = oracles.check(mixes.reproduce("predict13"), status, None, "", "")
    assert verdict.failed and not verdict.explained


def _corrupt_digit(out: str, line_prefix: str) -> str:
    """Change one digit of the first line that starts with ``line_prefix``."""
    lines = out.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(line_prefix):
            for j in range(len(line) - 2, 0, -1):
                if line[j].isdigit() and line[j] not in "09":
                    lines[i] = line[:j] + str(int(line[j]) + 1) + line[j + 1:]
                    return "".join(lines)
    raise AssertionError(f"no line starts with {line_prefix!r}")


def test_oracle_accepts_and_catches_corrupted_prediction():
    argv = mixes.predict(mixes.LOG, "epsilon", 10, 4)
    code, out, err = _run(argv)
    verdict = oracles.check(argv, "ok", code, out, err)
    assert (verdict.requested, verdict.printed, verdict.wrong, verdict.failed) == (4, 4, 0, False)
    bad = oracles.check(argv, "ok", code, _corrupt_digit(out, "13 "), err)
    assert bad.wrong == 1 and bad.failed and not bad.explained


def test_oracle_catches_corrupted_float_table_cell():
    argv = mixes.error_terms(mixes.ZETA, "0.5", 14)
    code, out, err = _run(argv)
    verdict = oracles.check(argv, "ok", code, out, err)
    assert verdict.requested == 45 and verdict.printed > 0 and verdict.wrong == 0
    bad = oracles.check(argv, "ok", code, _corrupt_digit(out, "8,"), err)
    assert bad.wrong == 1


def test_oracle_catches_corrupted_table_entry():
    argv = mixes.accelerate(mixes.LOG, "bigfloat", "theta-iterated", "1/2", 20)
    code, out, err = _run(argv)
    assert oracles.check(argv, "ok", code, out, err).wrong == 0
    assert oracles.check(argv, "ok", code, _corrupt_digit(out, "1 2 "), err).wrong == 1


def test_reproduce_table1_expects_exactly_the_documented_cells():
    argv = mixes.reproduce("table1")
    code, out, err = _run(argv)
    verdict = oracles.check(argv, "ok", code, out, err)
    assert code == 2 and not verdict.failed and verdict.printed == verdict.requested
    hidden = "\n".join(line for line in out.splitlines() if "m=12" not in line)
    assert oracles.check(argv, "ok", code, hidden, err).failed


def test_digit_limit_failure_is_clean():
    argv = mixes.accelerate(mixes.LOG, "rational", "theta", "1/2", 20)
    code, out, err = _run(argv)
    verdict = oracles.check(argv, "ok", code, out, err)
    assert code == 1 and "Exceeds the limit (4300 digits)" in err
    assert verdict.failed and verdict.explained and verdict.wrong == 0
    assert 0 < verdict.printed < verdict.requested


def test_unparseable_output_fails_the_job():
    argv = mixes.predict(mixes.LOG, "aitken", 6, 4)
    verdict = oracles.check(argv, "ok", 0, "# header\nindex prediction decimal\ngarbage\n", "")
    assert verdict.failed and not verdict.explained


def test_timing_metrics_scale_with_reference_speed():
    import run

    verdict = {"failed": False, "requested": 9, "printed": 9, "wrong": 0, "unverified": 0,
               "explained": True, "note": ""}
    rows = [[0, 0.2, "ok", 0, "d", 2 * run.REFERENCE_S] for _ in range(10)]
    report = {"results": rows, "wall_s": 10 * (0.2 + 2 * run.REFERENCE_S), "rounds": 10,
              "peak_rss_kb": 1024}
    setup = [(0.1, 2 * run.REFERENCE_S)]
    metrics, side = run.summarize([mixes.reproduce("expansion7")], report, {"0:d": verdict}, setup)
    assert side["host_factor"] == pytest.approx(2)
    assert metrics["job_p50_s"] == pytest.approx(0.1) and side["raw_p50_s"] == pytest.approx(0.2)
    assert metrics["jobs_per_s"] == pytest.approx(10)
    assert metrics["setup_s"] == pytest.approx(0.05) and side["raw_setup_s"] == pytest.approx(0.1)
