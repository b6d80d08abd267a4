"""Run the console smoke: commands of the ``seriaccel`` console script, each
with its expected exit code, its output check and the reason for both.

Usage: ``python tests/_console_smoke.py PREFIX...``, where ``PREFIX`` is the
command that starts the CLI: ``seriaccel`` for the installed script, or
``python -m seriaccel.cli`` with the checkout's ``src`` on ``PYTHONPATH``.
It runs the commands in order, prints one line per command with its exit
code and verdict, and the output of each command that fails.  It exits 1
when a command exits with another code than expected, fails its output
check or outlives its time limit.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

LOG = "builtin:log1p-over-z"

#: Seconds any command may take; a command that runs longer has hung.
LIMIT = 600


class Command(NamedTuple):
    args: tuple
    reason: str
    code: int = 0
    #: ``check(stdout, stderr)`` is true when the output is as it should be.
    check: Callable[[str, str], bool] | None = None
    limit: float = LIMIT
    #: Read only this many lines of stdout, then close it, as ``head -n`` does.
    lines: int | None = None


def commands(tiny: str) -> list[Command]:
    """The commands; ``tiny`` is the path of a file holding the f64
    coefficients ``1, 1e-300, 1e-300``."""
    return [
        Command(("--help",), "the entry point starts and prints its usage"),
        Command(("reproduce", "--experiment", "table1"),
                "table1 exits 2 on its two documented reference cells", code=2),
        *(Command(("reproduce", "--experiment", name), "the reference experiment matches")
          for name in ("table2", "expansion7", "predict13")),
        Command(("accelerate", "--series", "builtin:model(1,1,1/2)", "--family", "aitken",
                 "--terms", "4", "--z", "5"),
                "--z on a plain sequence is a usage error", code=1),
        Command(("predict", "--series", LOG, "--family", "theta", "--use", "12", "--count", "4"),
                "prediction by the theta family's alias"),
        Command(("predict", "--series", "builtin:zeta(2)", "--family", "aitken", "--use", "12",
                 "--count", "6"),
                "exact prediction on one of the benchmark's slowest shapes"),
        Command(("accelerate", "--help"), "the subcommand prints its usage"),
        Command(("accelerate", "--series", LOG, "--family", "theta-iterated", "--scheme",
                 "rearranged", "--z", "1/2", "--terms", "9"),
                "the rearranged iterated theta scheme"),
        Command(("accelerate", "--series", LOG, "--mode", "f64", "--family", "theta",
                 "--modified", "--z", "1/2", "--terms", "9"),
                "the modified theta table in f64"),
        Command(("accelerate", "--series", LOG, "--family", "epsilon-cross", "--scheme",
                 "rearranged", "--z", "1/2", "--terms", "9"),
                "the rearranged epsilon cross rule"),
        Command(("accelerate", "--series", LOG, "--family", "aitken", "--z", "1/2",
                 "--terms", "16"),
                "the rational aitken table runs the one-quotient Aitken cells on entries "
                "thousands of bits tall"),
        Command(("error-terms", "--series", LOG, "--z", "0.95", "--max-m", "4", "--format",
                 "json"),
                "error terms as JSON"),
        Command(("transform-terms", "--series", LOG, "--z", "5.0", "--max-m", "4"),
                "transformation terms outside the disc of convergence"),
        Command(("transform-terms", "--series", LOG, "--mode", "f64", "--z", "1e100",
                 "--max-m", "8", "--format", "json"),
                "overflow rows, rows that break down on a zero denominator and rows that "
                "inherit a failure, each printed from its table's notes"),
        Command(("error-terms", "--series", "builtin:zeta(2)", "--z=-0.5", "--max-m", "60",
                 "--format", "json"),
                "the epsilon term step forms each reciprocal difference once per row, on "
                "one of the benchmark's slowest shapes"),
        Command(("accelerate", "--series", LOG, "--mode", "bigfloat", "--family",
                 "epsilon-cross", "--z=-9/10", "--terms", "40"),
                "the plain epsilon cross rule forms each reciprocal difference once per "
                "row, on one of the benchmark's slowest shapes"),
        Command(("accelerate", "--series", LOG, "--mode", "bigfloat", "--family", "epsilon",
                 "--z=-9/10", "--terms", "60"),
                "every level is full, so the triangle builder checks no read"),
        Command(("accelerate", "--series", LOG, "--mode", "f64", "--family", "epsilon",
                 "--z=-9/10", "--terms", "120"),
                "columns past 12 have no valid cell from n = 92 on: 3,264 of the 7,383 "
                "lines are inherited failures, read from the levels' own notes",
                check=lambda out, err: (len(out.splitlines()), out.count(
                    "depends on invalid entry")) == (7383, 3264)),
        Command(("accelerate", "--series", f"file:{tiny}", "--mode", "f64", "--family",
                 "aitken", "--z", "1e300", "--terms", "3"),
                "z**2 overflows but the partial sums do not, so level 0 prints s_2, "
                "not an invalid cell",
                check=lambda out, err: not any(line.startswith("0 2 invalid")
                                               for line in out.splitlines())),
        Command(("accelerate", "--series", LOG, "--family", "aitken", "--z=1e300",
                 "--terms", "17"),
                "the 16th partial sum has more than 4,300 digits: accelerate writes each "
                "level as it is built, so the build stops at level 0 (a build of every "
                "level before the first line took about 90 s)",
                code=1, limit=30),
        Command(("accelerate", "--series", LOG, "--mode", "f64", "--family", "epsilon",
                 "--z", "1/2", "--terms", "221"),
                "a reader that closes stdout early makes the command exit 1 with nothing "
                "on stderr",
                code=1, check=lambda out, err: err == "", lines=2),
    ]


def run(prefix: list[str], command: Command) -> tuple[int | None, str, str]:
    """``(exit code, stdout, stderr)`` of one command; the code is ``None``
    when the command outlived its limit and was killed."""
    argv = [*prefix, *command.args]
    if command.lines is None:
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=command.limit)
        except subprocess.TimeoutExpired as exc:
            return None, exc.stdout or "", exc.stderr or ""
        return proc.returncode, proc.stdout, proc.stderr
    with tempfile.TemporaryFile("w+") as err, \
            subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, text=True) as proc:
        out = "".join(proc.stdout.readline() for _ in range(command.lines))
        proc.stdout.close()
        try:
            code = proc.wait(timeout=command.limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = None
        err.seek(0)
        return code, out, err.read()


def main(prefix: list[str]) -> int:
    if not prefix:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tiny = Path(tmp, "tiny.txt")
        tiny.write_text("1\n1e-300\n1e-300\n")
        todo = commands(str(tiny))
        for command in todo:
            code, out, err = run(prefix, command)
            if code is None:
                verdict = f"FAILED: still running after {command.limit} s"
            elif code != command.code:
                verdict = f"FAILED: expected exit {command.code}"
            elif command.check is not None and not command.check(out, err):
                verdict = "FAILED: output check"
            else:
                verdict = "ok"
            status = "killed" if code is None else f"exit {code}"
            print(f"$ {' '.join(command.args)}  -> {status} {verdict}  ({command.reason})")
            if verdict != "ok":
                failed += 1
                print(f"--- stdout\n{out}--- stderr\n{err}---")
    print(f"{failed} of {len(todo)} commands failed")
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
