"""Output-identity guard: stdout and exit code of fixed CLI runs, as digests.

Each case is pinned to the sha256 of its stdout and its exit code.  The cases
are the four ``reproduce`` experiments, every command-line example in the
README, and ``accelerate`` on f64 and bigfloat partial sums of
``log1p-over-z`` for each of the five families and for the rearranged
schemes of aitken, epsilon-cross and iterated theta, and for the modified
theta table, whose odd columns drop their carry dependency; the last three
groups print inherited-failure notes (epsilon-cross and theta with their
literal column numbers), so the wording and placement of those notes is
pinned too.  A refactor that is meant to change no output must keep every
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
    "accelerate-bigfloat-aitken": (0, "7e63dfd1271745b2085d9a0b7aedafa536b080291c7b63659c71c491f2cbbf1b"),
    "accelerate-bigfloat-aitken-rearranged": (0, "2bed7fefe33c9a24884e71439a40867749092b2da1c8e2b841fcb82a082980de"),
    "accelerate-bigfloat-epsilon": (0, "db017b86a2bfcfc8674cbbeded99acf470ab0f8425d56ecb41e5a56d2e9f24ec"),
    "accelerate-bigfloat-epsilon-cross": (0, "38e7cc0c628c0da3877f12b1dd313b47a206a15c9e08bcc279786313bd44a7df"),
    "accelerate-bigfloat-epsilon-cross-rearranged": (0, "38e7cc0c628c0da3877f12b1dd313b47a206a15c9e08bcc279786313bd44a7df"),
    "accelerate-bigfloat-theta": (0, "0324e001c6e0f1a5b224106dc67c608f973f03da38627f319fb223ae7b2e1839"),
    "accelerate-bigfloat-theta-modified": (0, "3a2870783cfbaf5f94521c5685234aec53b26537d99089e6fc975f98e614ee96"),
    "accelerate-bigfloat-theta-iterated": (0, "68b6290a2b067ca48d076e6859e1a046e0bb36666952c9a33c9dbbe95b761165"),
    "accelerate-bigfloat-theta-iterated-rearranged": (0, "33cba9fc2b461c900e09d472eac2ddbe7063a7baa8e881d7ab6fa736508b3692"),
    "accelerate-f64-aitken": (0, "d7cba1fa83cfe67f6f9aeb2cb0139cb9baa7d98f92bbfdb7077f0aeba90ab31a"),
    "accelerate-f64-aitken-rearranged": (0, "298c14b2e498536aa9c168fe10ebe576f121dcbd92d0ebb2fe8ef216317d7127"),
    "accelerate-f64-epsilon": (0, "74552fab97a707d6858d65345cc8cb86fa7d48c2a9dcfbc711c3ebd9269a6d9b"),
    "accelerate-f64-epsilon-cross": (0, "1945590887b84196e82c3a84346ec5c654c8caa70de260ef42f26196a90c8fc4"),
    "accelerate-f64-epsilon-cross-rearranged": (0, "1945590887b84196e82c3a84346ec5c654c8caa70de260ef42f26196a90c8fc4"),
    "accelerate-f64-theta": (0, "025ce74061d16883724c734e7c18481fff7494596f95c3e550946ced22735239"),
    "accelerate-f64-theta-modified": (0, "4361e27e997e6062e35aab17c90cfce85a1114a61b9a6e9da7318dbc0792c979"),
    "accelerate-f64-theta-iterated": (0, "9a70b3f418a2d0fd37b17f105386c47d7df16fd733f0122ef16ed9068f57be1e"),
    "accelerate-f64-theta-iterated-rearranged": (0, "b3c48a6acbd07007468d5581751cfa90ab9b5996aa591b92c6e2c5595a663e0a"),
    "readme-accelerate-log": (0, "872ead37ebdea5e3c267a3158a71a11cec41f093d1f9c0ceaf7f222a3e31b98d"),
    "readme-accelerate-model": (0, "01affdd1044c7367576252189b078d76a5454df2e60e21798b0276e0cc3df264"),
    "readme-error-terms": (0, "79d99456cba0c35479e38cdf47416eb9105eec527f0b51283e5b8114545a4786"),
    "readme-predict": (0, "1abac0d9e377b9f5d71f1a2a32c6fe80d3dabde8581882b32c0d299d003e173d"),
    "readme-transform-terms": (0, "ba2d25a616d08ba47865ada71b00ae5078376c795e9d923e73399429f1689fce"),
    "reproduce-expansion7": (0, "63d91884c3f867614cf00fdeecfe8d35c36e6f68e693997d4d43aabcb5d5ca32"),
    "reproduce-predict13": (0, "bf4c458c1eda704c333357284f86652d5c23c366be9393014ff8cfedd3d60b14"),
    "reproduce-table1": (2, "62fa47fddcfdf8ef847b47c89895ea1c0d70545de34c2fbd487ba0881a5b94ad"),
    "reproduce-table2": (0, "040f5c0af2f730732a9fd1435f0bb5e7e7e7f5f4adc97656cc4d78d914671431"),
}


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name):
    assert run_case(CASES[name]) == EXPECTED[name]
