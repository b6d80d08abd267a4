import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import seriaccel
from seriaccel import cli, golden
from seriaccel.cli import build_parser, main
from seriaccel.transforms import FAMILIES, SCHEMES
from seriaccel.report import COLUMNS, rows_to_csv


class Row(NamedTuple):
    """One parsed row of a term table."""

    m: int
    family: str
    k: int
    n: int
    value: str
    valid: bool


def rows_from_csv(text):
    reader = csv.reader(io.StringIO(text))
    assert tuple(next(reader)) == COLUMNS == Row._fields
    return [Row(int(m), family, int(k), int(n), value, valid == "true")
            for m, family, k, n, value, valid in reader]


def rows_from_json(text):
    return [Row(obj["m"], obj["family"], obj["k"], obj["n"],
                "" if obj["value"] is None else obj["value"], obj["valid"])
            for obj in json.loads(text)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_predict_log_series_epsilon(capsys):
    code, out, _ = run(
        capsys, "predict", "--series", "builtin:log1p-over-z",
        "--family", "epsilon", "--use", "12", "--count", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "index prediction decimal"
    decimals = [line.split()[2] for line in lines[2:]]
    assert decimals == ["-0.07142854717", "0.06666649774", "-0.06249934843", "0.05882168762"]
    fractions = [line.split()[1] for line in lines[2:]]
    assert all("/" in f for f in fractions)


def test_predict_defaults_to_exact_mode_with_theta_alias(capsys):
    code, out, _ = run(
        capsys, "predict", "--series", "builtin:log1p-over-z",
        "--family", "theta", "--use", "12", "--count", "1",
    )
    assert code == 0
    assert out.strip().splitlines()[-1].split()[2] == "-0.07142857148"


def test_error_terms_csv_round_trip(capsys):
    code, out, _ = run(
        capsys, "error-terms", "--series", "builtin:log1p-over-z",
        "--z", "0.95", "--max-m", "6",
    )
    assert code == 0
    rows = rows_from_csv(out)
    assert len(rows) == 21
    assert [r.family for r in rows[:3]] == ["aitken", "epsilon", "theta-iterated"]
    by_key = {(r.m, r.family): r for r in rows}
    assert by_key[(2, "aitken")].value == "0.620539e-2"
    assert by_key[(6, "theta-iterated")].value == "0.137543e-5"
    assert by_key[(0, "epsilon")].value == "0"
    assert all(r.valid for r in rows)
    # round trip: re-parsing reproduces the rows exactly
    assert rows_from_csv(rows_to_csv(rows)) == rows


def test_transform_terms_json_schema(capsys):
    code, out, _ = run(
        capsys, "transform-terms", "--series", "builtin:log1p-over-z",
        "--z", "5.0", "--max-m", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert {"m", "family", "k", "n", "value", "valid"} == set(payload[0])
    rows = rows_from_json(out)
    by_key = {(r.m, r.family): r for r in rows}
    assert by_key[(3, "theta-iterated")].value == "0.2480158730e2"
    assert by_key[(4, "epsilon")].value == "-0.1002155172e3"


def test_accelerate_model_sequence(capsys):
    code, out, _ = run(
        capsys, "accelerate", "--series", "builtin:model(1,1,1/2)",
        "--family", "aitken", "--terms", "8",
    )
    assert code == 0
    assert "m=2 k=1 n=0 1" in out
    assert "classification: linear" in out


def test_accelerate_rejects_z_for_a_plain_sequence(capsys):
    code, out, err = run(capsys, "accelerate", "--series", "builtin:model(1,1,1/2)",
                         "--family", "aitken", "--terms", "4", "--z", "5")
    assert (code, out) == (1, "")
    assert err == "error: --z applies to a power series; builtin:model is a plain sequence\n"


def test_accelerate_prints_every_digit_past_28(capsys):
    code, out, _ = run(
        capsys, "accelerate", "--series", "builtin:log1p-over-z", "--mode", "bigfloat",
        "--family", "epsilon", "--z", "1/2", "--terms", "5", "--digits", "35",
    )
    assert code == 0
    assert "\n0 2 0.8" + "3" * 34 + "e0\n" in out  # the partial sum 5/6


def test_accelerate_series_needs_z(capsys):
    code, _, err = run(
        capsys, "accelerate", "--series", "builtin:log1p-over-z", "--family", "epsilon",
    )
    assert code == 1
    assert "--z" in err


def test_accelerate_coefficient_file(capsys, tmp_path):
    path = tmp_path / "geo.txt"
    path.write_text("# mode: rational\n1\n1\n1\n1\n1\n")
    code, out, _ = run(
        capsys, "accelerate", "--series", str(path),
        "--family", "epsilon", "--z", "1/2", "--terms", "5",
    )
    assert code == 0
    assert "m=2 k=2 n=0 2" in out


def test_mode_option_alone_picks_the_field_of_a_coefficient_file(capsys, tmp_path):
    # A "# mode:" line is a comment: the default --mode reads the file exactly.
    path = tmp_path / "geo.txt"
    path.write_text("# mode: f64\n1\n1/2\n1/4\n1/8\n1/16\n")
    argv = ("accelerate", "--series", str(path), "--family", "aitken", "--z", "1", "--terms", "5")
    exact = ["1", "3/2", "7/4", "15/8", "31/16", "2", "2", "2"]
    floats = ["0.1000000000e1", "0.1500000000e1", "0.1750000000e1", "0.1875000000e1",
              "0.1937500000e1", "0.2000000000e1", "0.2000000000e1", "0.2000000000e1"]
    for mode, values in (((), exact), (("--mode", "f64"), floats)):
        code, out, err = run(capsys, *argv, *mode)
        assert (code, err) == (0, "")
        assert [line.split()[2] for line in out.splitlines()[2:10]] == values


@pytest.mark.parametrize("spec, z", [("builtin:geometric(1/2)", "1/2"), ("builtin:zeta(2)", "1")])
def test_accelerate_takes_the_default_point_of_a_builtin(capsys, spec, z):
    argv = ("accelerate", "--series", spec, "--family", "epsilon", "--terms", "7")
    default = run(capsys, *argv)
    assert default == run(capsys, *argv, "--z", z)
    assert default[0] == 0 and "selected approximant per m:" in default[1]


def test_error_terms_on_tail_less_file_exit_one(capsys, tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("1\n1/2\n1/3\n1/4\n1/5\n")
    code, out, err = run(capsys, "error-terms", "--series", f"file:{path}",
                         "--z=0.5", "--max-m", "3")
    assert code == 1
    assert out == ""
    assert err == "error: coefficient 5 is past the stored order 4 and no tail rule is attached\n"


def test_transform_terms_past_file_end_exit_one(capsys, tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("1\n1/2\n1/3\n1/4\n1/5\n")
    code, _, _ = run(capsys, "transform-terms", "--series", f"file:{path}",
                     "--z=0.5", "--max-m", "4")
    assert code == 0
    code, out, err = run(capsys, "transform-terms", "--series", f"file:{path}",
                         "--z=0.5", "--max-m", "6")
    assert code == 1
    assert out == ""
    assert err.startswith("error: coefficient 5 is past the stored order 4")


@pytest.mark.parametrize("mode, z", [("bigfloat", "1e500000"), ("f64", "1e300")],
                         ids=["bigfloat", "f64"])
def test_bigfloat_accelerate_past_the_exponent_range_marks_cells_overflow(capsys, mode, z):
    code, out, err = run(capsys, "accelerate", "--series", "builtin:geometric", "--mode",
                         mode, "--family", "aitken", "--z", z, "--terms", "5")
    assert (code, err) == (0, "")
    assert "Infinity" not in out
    assert "0 2 invalid (overflow)" in out
    assert "1 1 invalid (depends on invalid entry (0, 2))" in out
    assert "m=3 unavailable (entry (1, 1) is invalid: depends on invalid entry (0, 2))" in out


def test_f64_accelerate_past_the_float_range_keeps_sums_after_a_zero_coefficient(capsys,
                                                                                  tmp_path):
    # z**2 overflows; the zero coefficients add nothing, so s_1 and s_2 stay 1.
    path = tmp_path / "gap.txt"
    path.write_text("1\n0\n0\n2\n")
    code, out, err = run(capsys, "accelerate", "--series", str(path), "--mode", "f64",
                         "--family", "aitken", "--z", "1e300", "--terms", "4")
    assert (code, err) == (0, "")
    assert out.splitlines()[2:6] == ["0 0 0.1000000000e1", "0 1 0.1000000000e1",
                                     "0 2 0.1000000000e1", "0 3 invalid (overflow)"]


@pytest.mark.parametrize("series, mode, z, max_m, first", [
    ("builtin:geometric", "bigfloat", "1e400000", 5, 2),
    ("builtin:log1p-over-z", "f64", "1e100", 6, 3),
])
def test_transform_terms_past_the_float_range_mark_cells_invalid(capsys, series, mode, z,
                                                                 max_m, first):
    code, out, err = run(capsys, "transform-terms", "--series", series, "--mode", mode,
                         "--z", z, "--max-m", str(max_m))
    assert (code, err) == (0, "")
    rows = rows_from_csv(out)
    assert len(rows) == 3 * (max_m + 1)
    assert all(row.valid for row in rows if row.m < first)
    assert not any(row.valid for row in rows if row.m > first)


@pytest.mark.parametrize("mode", ["rational", "bigfloat", "f64"])
def test_zero_denominator_literal_exits_one_before_any_output(capsys, tmp_path, mode):
    path = tmp_path / "c3.txt"
    path.write_text("1\n1/0\n1/3\n")
    for argv in (
        ("accelerate", "--series", "builtin:log1p-over-z", "--family", "aitken", "--z", "1/0"),
        ("accelerate", "--series", "builtin:zeta(1/0)", "--family", "aitken", "--z", "1/2"),
        ("predict", "--series", f"file:{path}", "--family", "aitken"),
    ):
        code, out, err = run(capsys, *argv, "--mode", mode)
        assert (code, out, err) == (1, "", "error: zero denominator in '1/0'\n"), argv


NOUNS = {"rational": "a rational scalar", "bigfloat": "a bigfloat scalar", "f64": "an f64 scalar"}


@pytest.mark.parametrize("mode", ["rational", "bigfloat", "f64"])
@pytest.mark.parametrize("literal", ["inf", "-Infinity", "nan", "1e999999999"])
def test_literal_that_is_not_a_finite_number_exits_one_before_any_output(capsys, tmp_path,
                                                                         mode, literal):
    path = tmp_path / "c3.txt"
    path.write_text(f"1\n{literal}\n1/3\n")
    for argv in (
        ("accelerate", "--series", "builtin:log1p-over-z", "--family", "aitken", f"--z={literal}"),
        ("accelerate", "--series", f"builtin:zeta({literal})", "--family", "aitken", "--z", "1/2"),
        ("predict", "--series", f"file:{path}", "--family", "aitken"),
    ):
        code, out, err = run(capsys, *argv, "--mode", mode)
        assert (code, out, err) == (1, "", f"error: not {NOUNS[mode]}: {literal!r}\n"), argv


@pytest.mark.parametrize("family, flags, message", [
    ("epsilon", ("--scheme", "rearranged"), "--family epsilon has no --scheme"),
    ("theta", ("--scheme", "classic"), "--family theta has no --scheme"),
    ("aitken", ("--scheme", "plain"), "--family aitken takes --scheme classic or rearranged, not plain"),
    ("epsilon-cross", ("--scheme", "classic"),
     "--family epsilon-cross takes --scheme plain or rearranged, not classic"),
    ("aitken", ("--modified",), "--modified applies to --family theta only"),
    ("theta-iterated", ("--modified",), "--modified applies to --family theta only"),
    ("theta-iterated", ("--scheme", "plain"),
     "--family theta-iterated takes --scheme classic or rearranged, not plain"),
])
def test_accelerate_rejects_flags_the_family_does_not_take(capsys, family, flags, message):
    code, out, err = run(capsys, *LOG_ACCELERATE[:4], family, "--z=1/2", *flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_accelerate_help_lists_every_scheme(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["accelerate", "--help"])
    assert exit_.value.code == 0
    assert "--scheme {classic,rearranged,plain}" in capsys.readouterr().out


SCHEME_RUNS = [
    ("aitken", None, "aitken-classic"),
    ("aitken", "classic", "aitken-classic"),
    ("aitken", "rearranged", "aitken-rearranged"),
    ("epsilon-cross", None, "epsilon-cross"),
    ("epsilon-cross", "plain", "epsilon-cross"),
    ("epsilon-cross", "rearranged", "epsilon-cross"),
    ("theta-iterated", None, "theta-iterated-classic"),
    ("theta-iterated", "classic", "theta-iterated-classic"),
    ("theta-iterated", "rearranged", "theta-iterated-rearranged"),
]


def test_scheme_runs_cover_every_scheme():
    assert {(family, scheme) for family, scheme, _ in SCHEME_RUNS if scheme} == {
        (family, scheme) for family, schemes in SCHEMES.items() for scheme in schemes}


@pytest.mark.parametrize("family, scheme, table", SCHEME_RUNS)
def test_accelerate_runs_each_scheme_as_its_table(capsys, family, scheme, table):
    flags = () if scheme is None else ("--scheme", scheme)
    code, out, err = run(capsys, *LOG_ACCELERATE[:4], family, "--z=1/2", "--terms", "7", *flags)
    assert (code, err) == (0, "")
    assert out.startswith(f"# builtin:log1p-over-z -> family={table} entries=7\n")


def test_accelerate_modified_theta_still_runs(capsys):
    code, out, _ = run(capsys, *LOG_ACCELERATE[:4], "theta", "--z=1/2", "--modified")
    assert code == 0 and out.startswith("# builtin:log1p-over-z -> family=theta ")


def test_console_script_exits_quietly_when_its_reader_closes_stdout():
    # Over 1 MB of output, far more than a pipe buffers, so the writer
    # meets the closed pipe after the reader has taken one line.
    src = str(Path(seriaccel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "seriaccel.cli", *LOG_ACCELERATE, "--mode", "f64", "--terms", "221"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": path})
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
    assert first == b"# builtin:log1p-over-z -> family=epsilon entries=221\n"


# One table per renderer, each with more valid table values than a block
# of lines and one rendered value per valid cell or selection.
RENDER_ERROR_RUNS = {
    "scientific_string": ("accelerate", "--series", "builtin:log1p-over-z", "--family", "epsilon",
                          "--z=-9/10", "--mode", "f64", "--terms", "30"),
    "to_fraction_string": ("accelerate", "--series", "builtin:geometric(1/3)", "--family", "epsilon",
                           "--terms", "100"),
}


def _value_lines(lines):
    """Indices of the ``accelerate`` output ``lines`` that hold a rendered value."""
    return [i for i, line in enumerate(lines)
            if i >= 2 and not line.startswith("selected approximant")
            and " invalid (" not in line and " unavailable (" not in line]


@pytest.mark.parametrize("renderer", sorted(RENDER_ERROR_RUNS))
@pytest.mark.parametrize("at", ["first", "block", "block+1", "first selected"])
def test_lines_before_a_rendering_error_are_written(capsys, monkeypatch, renderer, at):
    argv = RENDER_ERROR_RUNS[renderer]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines(keepends=True)
    values = _value_lines(lines)
    table_values = sum(not lines[i].startswith("m=") for i in values)
    assert table_values > cli._BLOCK_LINES + 1
    i = {"first": 1, "block": cli._BLOCK_LINES, "block+1": cli._BLOCK_LINES + 1,
         "first selected": table_values + 1}[at]
    assert lines[values[i - 1]].startswith("m=") == (at == "first selected")
    render, calls = getattr(cli, renderer), []

    def failing(value, *args, **kwargs):
        calls.append(value)
        if len(calls) == i:
            raise ValueError(f"cannot render value {i}")
        return render(value, *args, **kwargs)

    monkeypatch.setattr(cli, renderer, failing)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, f"error: cannot render value {i}\n")
    assert out == "".join(lines[:values[i - 1]])


def test_predict_use_past_a_tail_less_file_names_the_coefficient(capsys, tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("1\n1/2\n1/3\n1/4\n1/5\n")
    code, _, _ = run(capsys, "predict", "--series", f"file:{path}", "--family", "aitken",
                     "--use", "4")
    assert code == 0
    code, out, err = run(capsys, "predict", "--series", f"file:{path}", "--family", "aitken",
                         "--use", "8")
    assert (code, out) == (1, "")
    assert err == "error: coefficient 8 is past the stored order 4 and no tail rule is attached\n"


def test_predict_breakdown_exits_one_with_the_cell_and_its_reason(capsys):
    code, out, err = run(capsys, "predict", "--series", "builtin:log1p-over-z", "--mode", "f64",
                         "--family", "aitken", "--use", "24")
    assert (code, out) == (1, "")
    assert err == ("error: aitken prediction breakdown at (k=12, n=0): "
                   "depends on invalid entry (11, 0)\n")


def test_f64_pade_prediction_past_the_float_range_exits_one(capsys, tmp_path):
    # The closed-form epsilon term of these coefficients is not finite in f64.
    path = tmp_path / "wide.txt"
    path.write_text("2.0761462041773046e-199\n2.7262546200350954e-262\n4.4984453463009774e+26\n"
                    "6.296479004764533e+106\n1.113623101268919e+165\n-8.676138422503308e+254\n")
    code, out, err = run(capsys, "predict", "--series", f"file:{path}", "--mode", "f64",
                         "--family", "epsilon", "--count", "3")
    assert (code, out) == (1, "")
    assert err == "error: epsilon prediction breakdown at (k=2, n=1): overflow\n"


def test_predict_family_choices_come_from_the_registry():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    family = next(a for a in commands.choices["predict"]._actions if a.dest == "family")
    names = {name for fam in FAMILIES.values() for name in (fam.name, *fam.aliases)}
    assert family.choices == sorted(names) == ["aitken", "epsilon", "theta", "theta-iterated"]


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "accelerate", "--series", "builtin:log1p-over-z",
                       "--family", "rho")
    assert code == 1
    assert "invalid choice" in err


LOG_PREDICT = ("predict", "--series", "builtin:log1p-over-z", "--family", "aitken")
LOG_ACCELERATE = ("accelerate", "--series", "builtin:log1p-over-z", "--family", "epsilon", "--z=1/2")
LOG_ERROR_TERMS = ("error-terms", "--series", "builtin:log1p-over-z", "--z=0.5")
LOG_TRANSFORM_TERMS = ("transform-terms", "--series", "builtin:log1p-over-z", "--z=5")


@pytest.mark.parametrize("argv, flag, low", [
    pytest.param(LOG_PREDICT + ("--digits", "0"), "--digits", 1, id="predict-digits"),
    pytest.param(LOG_PREDICT + ("--count", "0"), "--count", 1, id="predict-count"),
    pytest.param(LOG_PREDICT + ("--use", "-1"), "--use", 0, id="predict-use"),
    pytest.param(LOG_ACCELERATE + ("--terms", "0"), "--terms", 1, id="accelerate-terms"),
    pytest.param(LOG_ACCELERATE + ("--digits", "-3"), "--digits", 1, id="accelerate-digits"),
    pytest.param(LOG_ERROR_TERMS + ("--max-m", "-1"), "--max-m", 0, id="error-terms-max-m"),
    pytest.param(LOG_ERROR_TERMS + ("--max-m", "4", "--digits", "0"), "--digits", 1,
                 id="error-terms-digits"),
    pytest.param(LOG_TRANSFORM_TERMS + ("--max-m", "-1"), "--max-m", 0,
                 id="transform-terms-max-m"),
])
def test_out_of_range_integer_flags_exit_one_before_any_output(capsys, argv, flag, low):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"argument {flag}: must be >= {low}" in err


def test_non_integer_flag_value_is_a_usage_error(capsys):
    code, out, err = run(capsys, *LOG_PREDICT, "--count", "two")
    assert (code, out) == (1, "")
    assert "argument --count: invalid int value: 'two'" in err


def test_error_terms_reject_rational_mode(capsys):
    code, _, err = run(
        capsys, "error-terms", "--series", "builtin:log1p-over-z",
        "--z", "0.95", "--max-m", "4", "--mode", "rational",
    )
    assert code == 1
    assert "bigfloat or f64" in err


def test_reproduce_exit_codes(capsys):
    assert run(capsys, "reproduce", "--experiment", "expansion7")[0] == 0
    assert run(capsys, "reproduce", "--experiment", "predict13")[0] == 0
    assert run(capsys, "reproduce", "--experiment", "table2")[0] == 0


def test_reproduce_table1_reports_the_two_known_reference_cells(capsys):
    # Exact recomputation disagrees with the stored reference in the final
    # printed digit of exactly two cells; the diff must name them and the
    # command must signal the mismatch.
    code, out, _ = run(capsys, "reproduce", "--experiment", "table1")
    assert code == 2
    assert "MISMATCH (m=10, aitken): computed 0.689221e-10, reference 0.689220e-10" in out
    assert "MISMATCH (m=12, aitken): computed 0.282139e-12, reference 0.282138e-12" in out
    assert out.count("MISMATCH") == 2


@pytest.mark.parametrize("experiment, table, where, got", [
    ("expansion7", "EXPANSION7", "(aitken, z^7)", "421/16537500"),
    ("predict13", "PREDICT13", "(aitken, coefficient 13)", "-0.07142857137"),
])
def test_reproduce_reports_a_changed_reference_cell(capsys, monkeypatch, experiment, table,
                                                    where, got):
    reference = getattr(golden, table)
    monkeypatch.setitem(reference, "aitken", ("0", *reference["aitken"][1:]))
    code, out, _ = run(capsys, "reproduce", "--experiment", experiment)
    assert code == 2
    assert out.endswith(f"{experiment}: 1 cell(s) differ from the reference:\n"
                        f"MISMATCH {where}: computed {got}, reference 0\n")


def test_reproduce_runs_are_deterministic(capsys):
    _, first, _ = run(capsys, "reproduce", "--experiment", "table2")
    _, second, _ = run(capsys, "reproduce", "--experiment", "table2")
    assert first == second


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SERIACCEL_PRECISION", "60")
    code, out, _ = run(
        capsys, "error-terms", "--series", "builtin:log1p-over-z",
        "--z", "0.95", "--max-m", "4",
    )
    assert code == 0
    monkeypatch.setenv("SERIACCEL_PRECISION", "not-a-number")
    code, _, err = run(
        capsys, "error-terms", "--series", "builtin:log1p-over-z",
        "--z", "0.95", "--max-m", "4",
    )
    assert code == 1 and "SERIACCEL_PRECISION" in err


@pytest.mark.parametrize("argv", [
    LOG_PREDICT + ("--use", "6", "--count", "2"),
    LOG_ACCELERATE + ("--mode", "f64", "--terms", "9"),
], ids=["rational-predict", "f64-accelerate"])
def test_exact_and_f64_commands_ignore_the_precision_variable(capsys, monkeypatch, argv):
    monkeypatch.delenv("SERIACCEL_PRECISION", raising=False)
    expected = run(capsys, *argv)
    assert expected[0] == 0 and expected[1]
    monkeypatch.setenv("SERIACCEL_PRECISION", "abc")
    assert run(capsys, *argv) == expected


# -- one parser per process: a parse leaves nothing behind for the next one


def first_run(capsys, *argv):
    """``run`` on a parser built just for this call."""
    build_parser.cache_clear()
    return run(capsys, *argv)


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


LOG_PREDICT_OK = LOG_PREDICT + ("--use", "8", "--count", "2")
LOG_ERROR_TERMS_OK = LOG_ERROR_TERMS + ("--max-m", "4")


@pytest.mark.parametrize("before, argv", [
    pytest.param(LOG_PREDICT + ("--count", "two"), LOG_PREDICT_OK, id="usage-error-then-valid"),
    pytest.param(("accelerate", "--series", "builtin:log1p-over-z", "--family", "rho"),
                 LOG_ACCELERATE + ("--terms", "6"), id="bad-choice-then-valid"),
    pytest.param(LOG_ERROR_TERMS_OK, LOG_PREDICT_OK, id="error-terms-then-predict"),
    pytest.param(LOG_PREDICT_OK, LOG_TRANSFORM_TERMS + ("--max-m", "3", "--format", "json"),
                 id="predict-then-transform-terms"),
    pytest.param(LOG_ACCELERATE + ("--terms", "6", "--scheme", "plain"),
                 LOG_ACCELERATE + ("--terms", "6"), id="rejected-scheme-then-default"),
])
def test_a_reused_parser_prints_what_a_first_call_prints(capsys, before, argv):
    expected = first_run(capsys, *argv)
    assert expected[0] in (0, 1) and expected[1] + expected[2]
    first_run(capsys, *before)
    assert run(capsys, *argv) == expected


def test_a_reused_parser_reads_the_precision_of_each_call(capsys, monkeypatch):
    # 60 printed digits show the working precision in the last places.
    argv = LOG_ERROR_TERMS_OK + ("--digits", "60")
    expected = {}
    for digits in ("70", "50", "fifty"):
        monkeypatch.setenv("SERIACCEL_PRECISION", digits)
        expected[digits] = first_run(capsys, *argv)
    assert len({out for _, out, _ in expected.values()}) == 3
    assert expected["fifty"][0] == 1
    for digits in ("50", "70", "fifty", "50"):
        monkeypatch.setenv("SERIACCEL_PRECISION", digits)
        assert run(capsys, *argv) == expected[digits]


@pytest.mark.parametrize("series, family, use, count, forecast", [
    ("builtin:zeta(2)", "aitken", "14", "4", 23001),
    ("builtin:log1p-over-z", "theta-iterated", "21", "5", 18016),
])
def test_rational_predict_refuses_past_its_height_budget_with_stdout_empty(
        capsys, series, family, use, count, forecast):
    code, out, err = run(capsys, "predict", "--series", series, "--family", family,
                         "--use", use, "--count", count)
    assert (code, out) == (1, "")
    assert err == (f"error: {family} prediction refused before level 7: its forecast height "
                   f"of {forecast} bits passes the budget of 16426 bits (1.15 times the "
                   "4300-digit limit of integer text); --mode bigfloat is the bounded route\n")


def test_f64_theta_predict_breakdown_exits_one_with_the_cell_and_its_reason(capsys):
    # ROADMAP item 4's second f64 case: a level-4 reciprocal meets a zero
    # constant term that rational mode does not have.
    code, out, err = run(capsys, "predict", "--series", "builtin:log1p-over-z", "--mode", "f64",
                         "--family", "theta-iterated", "--use", "12")
    assert (code, out) == (1, "")
    assert err == ("error: theta-iterated prediction breakdown at (k=4, n=0): "
                   "jet breakdown: reciprocal of a jet with zero constant term\n")


def _accelerate_cells(capsys, path, mode, *argv):
    code, out, err = run(capsys, "accelerate", "--series", f"file:{path}", "--mode", mode, *argv)
    assert (code, err) == (0, "")
    return {tuple(map(int, line.split()[:2])): line.split(None, 2)[2]
            for line in out.splitlines()[2:] if line[:1].isdigit()}


def test_bigfloat_prints_the_pole_where_the_exact_epsilon_table_divides_by_zero(
        capsys, monkeypatch, tmp_path):
    # Open defect, pinned as it is: the [12/1] Pade approximant has its pole
    # exactly at z = -1/3, because gamma_12 z**12 = gamma_13 z**13, so
    # eps_1^(11) = eps_1^(12) exactly.  At 50 digits the two differ by 7.1e-39,
    # which passes the absolute near-zero bound 1e-40, and bigfloat prints
    # (2, 11) and the auxiliary (3, 10) and (5, 8).  (4, 9) and (6, 7) are
    # the exact [11/2] and [10/3] Pade values.  The change that mends this
    # changes this expectation.
    monkeypatch.delenv("SERIACCEL_PRECISION", raising=False)
    path = tmp_path / "pole.txt"
    path.write_text("5/3\n-2\n1\n-3/2\n1\n5/3\n-1/2\n0\n8\n7/5\n6/5\n9/5\n-2\n6\n")
    argv = ("--family", "epsilon", "--z=-1/3", "--terms", "14")
    for mode in ("rational", "f64"):
        cells = _accelerate_cells(capsys, path, mode, *argv)
        assert cells[2, 11] == f"invalid ({mode}: division by (near-)zero denominator)"
        assert [cells[k, 13 - k] for k in (4, 6)] == [
            "invalid (depends on invalid entry (3, 10))", "invalid (depends on invalid entry (5, 8))"]
    cells = _accelerate_cells(capsys, path, "bigfloat", *argv)
    assert [cells[k, 13 - k] for k in range(2, 7)] == [
        "0.1416282146e39", "-0.2657205000e6", "0.2505936955e1", "-0.2372618246e6",
        "0.2505940167e1"]


def test_bigfloat_prints_rounding_residue_where_the_exact_aitken_cell_is_zero(
        capsys, monkeypatch, tmp_path):
    # Open defect, pinned as it is: cell (1, 5) is exactly 0, and bigfloat
    # prints the rounding residue of its 50 digits as a value, none of whose
    # ten printed digits is right.  The change that mends this changes this
    # expectation.
    monkeypatch.delenv("SERIACCEL_PRECISION", raising=False)
    path = tmp_path / "residue.txt"
    path.write_text("1/2\n4\n-1/2\n-5\n5/3\n-1\n-2/3\n-2\n5/4\n-4\n2\n2\n0\n-4/3\n")
    argv = ("--family", "aitken", "--z=1", "--terms", "14")
    assert [_accelerate_cells(capsys, path, mode, *argv)[1, 5]
            for mode in ("rational", "f64", "bigfloat")] == ["0", "0", "0.5000000000e-49"]
