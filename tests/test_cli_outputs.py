"""Output-identity guard: stdout and exit code of fixed CLI runs, as digests.

Each case is pinned to the sha256 of its stdout and its exit code.  The cases
are the four ``reproduce`` experiments, every command-line example in the
README (``error-terms`` in JSON too), ``transform-terms`` in f64 at z = 1e300,
where 32 of 39 cells overflow, in CSV and JSON, and in rational mode, and
``accelerate`` on f64 and bigfloat partial sums of
``log1p-over-z`` for each of the five families and for the rearranged
schemes of aitken, epsilon-cross and iterated theta, and for the modified
theta table, whose odd columns drop their carry dependency; the last three
groups print inherited-failure notes (epsilon-cross and theta with their
literal column numbers), per cell in mixed levels and as one line per dead
level, so the wording and placement of those notes is pinned too.  A refactor that is meant to change no output must keep every
digest.
"""

import contextlib
import hashlib
import io

import pytest

from seriaccel.cli import main

LOG = "builtin:log1p-over-z"

CASES = {
    "reproduce-table1": ["reproduce", "--experiment", "table1"],
    "reproduce-table2": ["reproduce", "--experiment", "table2"],
    "reproduce-expansion7": ["reproduce", "--experiment", "expansion7"],
    "reproduce-predict13": ["reproduce", "--experiment", "predict13"],
    "readme-accelerate-model": ["accelerate", "--series", "builtin:model(1,1,1/2)",
                                "--family", "aitken", "--terms", "8"],
    "readme-accelerate-log": ["accelerate", "--series", LOG, "--family", "epsilon", "--z", "1/2"],
    "readme-predict": ["predict", "--series", LOG, "--family", "epsilon",
                       "--use", "12", "--count", "4"],
    "readme-error-terms": ["error-terms", "--series", LOG, "--z", "0.95", "--max-m", "12"],
    "readme-transform-terms": ["transform-terms", "--series", LOG, "--z", "5.0", "--max-m", "10"],
    "readme-error-terms-json": ["error-terms", "--series", LOG, "--z", "0.95", "--max-m", "12",
                                "--format", "json"],
    **{
        f"transform-terms-f64-overflow-{fmt}": ["transform-terms", "--series", LOG, "--mode", "f64",
                                                "--z", "1e300", "--max-m", "12", "--format", fmt]
        for fmt in ("csv", "json")
    },
    "transform-terms-rational": ["transform-terms", "--series", LOG, "--mode", "rational",
                                 "--z", "1/3", "--max-m", "8"],
    **{
        f"accelerate-{mode}-{family}": ["accelerate", "--series", LOG, "--z", "0.5",
                                        "--terms", "60", "--mode", mode, "--family", family]
        for mode in ("f64", "bigfloat")
        for family in ("aitken", "epsilon", "epsilon-cross", "theta", "theta-iterated")
    },
    **{
        f"accelerate-{mode}-{family}-rearranged": ["accelerate", "--series", LOG, "--z", "0.5",
                                                   "--terms", "60", "--mode", mode,
                                                   "--family", family, "--scheme", "rearranged"]
        for mode in ("f64", "bigfloat")
        for family in ("aitken", "epsilon-cross", "theta-iterated")
    },
    **{
        f"accelerate-{mode}-theta-modified": ["accelerate", "--series", LOG, "--z", "0.5",
                                              "--terms", "60", "--mode", mode,
                                              "--family", "theta", "--modified"]
        for mode in ("f64", "bigfloat")
    },
}

# (exit code, sha256 of stdout)
EXPECTED = {
    "accelerate-bigfloat-aitken": (0, "b60f2734dc73d1de3369a79ea7784debfc3dc8c1ae9235e1cc73bbc75067d725"),
    "accelerate-bigfloat-aitken-rearranged": (0, "1159e75e3b70623bd3a4dda52cf6b9eb56d751a4f0d8b32059735b8655c5f406"),
    "accelerate-bigfloat-epsilon": (0, "46bdc8be7838ad3b974ad164242f1123b8251dd3b4914901490f74ff40f90157"),
    "accelerate-bigfloat-epsilon-cross": (0, "1d9843fb07644ad31f2644ba28cac363a1e0faa801601364a105e9e8db283128"),
    "accelerate-bigfloat-epsilon-cross-rearranged": (0, "1d9843fb07644ad31f2644ba28cac363a1e0faa801601364a105e9e8db283128"),
    "accelerate-bigfloat-theta": (0, "929060e1a3bdb22174a7a9a28bb09ae1c1732efbe00a6eca0ad40cb39523bdaf"),
    "accelerate-bigfloat-theta-modified": (0, "c213923f133ad437fc1fec2cce4f1ffee12310de4f1d250dc46cf4883493de3c"),
    "accelerate-bigfloat-theta-iterated": (0, "bcedecc8a4708a6380d6cbe22f165265fb0542cc85a8d34c262cf8589a72a1f5"),
    "accelerate-bigfloat-theta-iterated-rearranged": (0, "ac91fa2852f922b375116568f40f1303aa00d054dd9bfa910b5b4a5716f70808"),
    "accelerate-f64-aitken": (0, "832e59b04bc11a95b71a136e754028d47a0e2a4f4025e2a5f0b69870480d7221"),
    "accelerate-f64-aitken-rearranged": (0, "33db44a121991d34f61d699bcda16c49f2bc0c1843677bf79b8c8e23feb3cf60"),
    "accelerate-f64-epsilon": (0, "48bac7f174b898246eaa1593ef2df3829bde19e3f4be3c30cfaf25232dd6c4a4"),
    "accelerate-f64-epsilon-cross": (0, "40ffa36a998c943722abf1b60283d543fe760854fa61f68b90e11927b6cb1b22"),
    "accelerate-f64-epsilon-cross-rearranged": (0, "40ffa36a998c943722abf1b60283d543fe760854fa61f68b90e11927b6cb1b22"),
    "accelerate-f64-theta": (0, "d312f2966ce7536d235ab491e3d3f35eb423436f38f0844b0d043e02d7cf1c96"),
    "accelerate-f64-theta-modified": (0, "af1b3f090da006bf4a203329584be693ea2322b05b40b8e5e5d711d73a472a4c"),
    "accelerate-f64-theta-iterated": (0, "a0f47f4931c8d8cd24c66235440313d2911d023c1013207e378a68bb65fd4a52"),
    "accelerate-f64-theta-iterated-rearranged": (0, "7a30b6350253ee27b97478a2df922cfe48fb51864ec6d4b69b2a82c31e3857c6"),
    "readme-accelerate-log": (0, "872ead37ebdea5e3c267a3158a71a11cec41f093d1f9c0ceaf7f222a3e31b98d"),
    "readme-accelerate-model": (0, "b667b97c304345cd40a3223f787a8ef30283201729ea2c46ad54a76ae3074e76"),
    "readme-error-terms": (0, "79d99456cba0c35479e38cdf47416eb9105eec527f0b51283e5b8114545a4786"),
    "readme-error-terms-json": (0, "725f36c7d7fa3bf097747bb2f2a55f2e6c0cac82fff1514eb6bd99e51254b7b6"),
    "readme-predict": (0, "1abac0d9e377b9f5d71f1a2a32c6fe80d3dabde8581882b32c0d299d003e173d"),
    "readme-transform-terms": (0, "ba2d25a616d08ba47865ada71b00ae5078376c795e9d923e73399429f1689fce"),
    "reproduce-expansion7": (0, "63d91884c3f867614cf00fdeecfe8d35c36e6f68e693997d4d43aabcb5d5ca32"),
    "reproduce-predict13": (0, "bf4c458c1eda704c333357284f86652d5c23c366be9393014ff8cfedd3d60b14"),
    "reproduce-table1": (2, "62fa47fddcfdf8ef847b47c89895ea1c0d70545de34c2fbd487ba0881a5b94ad"),
    "reproduce-table2": (0, "040f5c0af2f730732a9fd1435f0bb5e7e7e7f5f4adc97656cc4d78d914671431"),
    "transform-terms-f64-overflow-csv": (0, "b2397c3c4547e9b68f142bd751c269dfb4a0bebcfd2841c9bc3aaeb25f0e102f"),
    "transform-terms-f64-overflow-json": (0, "b8067b9e85ab3b59caec3a5a7f7fbf4765e81b5766eb1c2cb2128351b1a367ef"),
    "transform-terms-rational": (0, "a60fe69ab79fcc3f5f4e70d9d3cb9f2c6cd72852aad7e1abeb03fc40473e3ef4"),
}


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name):
    assert run_case(CASES[name]) == EXPECTED[name]
