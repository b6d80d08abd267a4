"""Run every subcommand in one interpreter and check that it loads only the
standard library and ``seriaccel``.

Usage: ``python tests/_stdlib_only.py``.  It imports whichever ``seriaccel``
is on the path, runs each ``accelerate`` family in each mode, ``predict`` for
each family, both term commands in CSV and JSON and the four ``reproduce``
experiments, and prints the exit codes and every module outside the
standard library that the runs added.  It exits 1 when such a module was
loaded or an exit code differs from the expected one (``reproduce table1``
exits 2 on its two documented reference cells, every other run 0).
"""

import contextlib
import io
import sys

LOG = "builtin:log1p-over-z"

RUNS = [
    *(["accelerate", "--series", LOG, "--z", "1/2", "--terms", "9", "--mode", mode,
       "--family", family]
      for mode in ("rational", "bigfloat", "f64")
      for family in ("aitken", "epsilon", "epsilon-cross", "theta", "theta-iterated")),
    *(["predict", "--series", LOG, "--family", family, "--use", "8", "--count", "2"]
      for family in ("aitken", "epsilon", "theta-iterated")),
    *([command, "--series", LOG, "--z", z, "--max-m", "6", "--format", fmt]
      for command, z in (("error-terms", "0.5"), ("transform-terms", "5"))
      for fmt in ("csv", "json")),
    *(["reproduce", "--experiment", name]
      for name in ("table1", "table2", "expansion7", "predict13")),
]
EXPECTED_CODES = [2 if argv[-1] == "table1" else 0 for argv in RUNS]


def main() -> int:
    before = set(sys.modules)
    from seriaccel.cli import main as run

    codes = []
    for argv in RUNS:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(run(argv))
    added = {name.partition(".")[0] for name in set(sys.modules) - before}
    foreign = sorted(added - set(sys.stdlib_module_names) - {"seriaccel"})
    print("exit codes:", *codes)
    print("modules outside the standard library:", *foreign)
    return int(bool(foreign) or codes != EXPECTED_CODES)


if __name__ == "__main__":
    sys.exit(main())
