import random
from fractions import Fraction as F

import pytest

from _laurent import (
    classic_aitken,
    classic_epsilon,
    classic_iterated_theta,
    partial_sum_laurents,
)
from seriaccel.field import RationalField, decimal_string
from seriaccel.jets import Jet, PowerSeries
from seriaccel.prediction import (
    PredictionBreakdownError,
    leading_predictions,
    predict_coefficients,
    transformation_terms,
)
from seriaccel.transforms import get_family, pade_linear_system

RAT = RationalField()


def log_series(count=13):
    return PowerSeries(RAT, tuple(F((-1) ** m, m + 1) for m in range(count)))


def random_series(rng, count=11):
    return PowerSeries(
        RAT, tuple(F(rng.randint(1, 40) * rng.choice((-1, 1)), rng.randint(1, 9)) for _ in range(count))
    )


def test_family_aliases():
    assert get_family("theta").name == "theta-iterated"
    with pytest.raises(ValueError):
        get_family("rho")


def test_first_aitken_term_matches_closed_form():
    rng = random.Random(23)
    series = random_series(rng, 7)
    table = transformation_terms(series, "aitken", 1, order=5)
    for n in range(5):
        g1, g2 = series.coefficient(n + 1), series.coefficient(n + 2)
        numerator = Jet.constant(RAT, g2 * g2, 5)
        denominator = Jet.from_coeffs(RAT, (g1, -g2), order=5)
        assert table.term(1, n).term == numerator / denominator
        assert table.term(1, n).offset == n + 3


def test_first_epsilon_term_equals_first_aitken_term():
    series = log_series(9)
    aitken = transformation_terms(series, "aitken", 1, order=4)
    epsilon = transformation_terms(series, "epsilon", 1, order=4)
    for n in range(7):
        assert aitken.term(1, n).term == epsilon.term(1, n).term


def test_first_theta_prediction_closed_form():
    rng = random.Random(29)
    series = random_series(rng, 8)
    table = leading_predictions(series, "theta", 1)
    for n in range(4):
        g1, g2, g3 = (series.coefficient(n + i) for i in (1, 2, 3))
        expected = -g3 * (g2 * g2 - 2 * g1 * g3) / (g1 * g2)
        assert table.entry(1, n) == expected
        assert table.predicted_index(1, n) == n + 4


def test_log_series_spot_predictions():
    series = log_series()
    eps = leading_predictions(series, "epsilon", 1)
    assert eps.entry(1, 0) == F(-2, 9)  # true coefficient 3 is -1/4
    theta = leading_predictions(series, "theta", 1)
    assert theta.entry(1, 0) == F(5, 24)  # true coefficient 4 is 1/5


def test_aitken_and_epsilon_level_one_predictions_agree():
    series = log_series()
    ait = leading_predictions(series, "aitken", 1)
    eps = leading_predictions(series, "epsilon", 1)
    for n in range(11):
        assert ait.entry(1, n) == eps.entry(1, n)


@pytest.mark.parametrize("family,max_level", [("aitken", 6), ("epsilon", 6), ("theta-iterated", 4)])
def test_leading_predictions_equal_term_constant_parts(family, max_level):
    series = log_series()
    terms = transformation_terms(series, family, max_level, order=3)
    leads = leading_predictions(series, family, max_level)
    for term in terms:
        assert leads.entry(term.k, term.n) == term.term.constant_term


def test_predict_coefficients_first_value_matches_leading_table():
    series = log_series()
    for family in ("aitken", "epsilon", "theta-iterated"):
        predictions = predict_coefficients(series, family, 12, 3)
        k = 12 // (3 if family == "theta-iterated" else 2)
        leads = leading_predictions(series, family, k)
        assert predictions[0][1] == leads.entry(k, 12 - (3 if family == "theta-iterated" else 2) * k)
        assert [index for index, _ in predictions] == [13, 14, 15]


def test_prediction_experiment_ten_digit_values():
    series = log_series()
    rendered = {
        family: [decimal_string(v, 10) for _, v in predict_coefficients(series, family, 12, 4)]
        for family in ("aitken", "epsilon", "theta-iterated")
    }
    assert rendered["aitken"] == ["-0.07142857137", "0.06666666629", "-0.06249999856", "0.05882352524"]
    assert rendered["epsilon"] == ["-0.07142854717", "0.06666649774", "-0.06249934843", "0.05882168762"]
    assert rendered["theta-iterated"] == ["-0.07142857148", "0.06666666684", "-0.06249999986", "0.05882352708"]


def test_epsilon_predictions_match_pade_taylor_coefficients():
    series = log_series(9)
    predictions = predict_coefficients(series, "epsilon", 8, 4)
    pade = pade_linear_system(series, 8 // 2 + 0 + 4 - 4, 4)  # [4/4] from coefficients 0..8
    taylor = pade.taylor_jet(12)
    for index, value in predictions:
        assert value == taylor.coeffs[index]


# -- reconstruction against the raw textbook recursions ----------------------


def _reconstruct(series, family, k, n, order):
    step = 3 if family == "theta-iterated" else 2
    table = transformation_terms(series, family, k, order=order)
    term = table.term(k, n)
    return series.partial_sum_jet(n + step * k, order) + term.term.shift(term.offset)


@pytest.mark.parametrize(
    "family,oracle,k,n",
    [
        ("aitken", classic_aitken, 3, 0),
        ("aitken", classic_aitken, 2, 1),
        ("epsilon", classic_epsilon, 3, 0),
        ("theta-iterated", classic_iterated_theta, 2, 0),
    ],
)
def test_terms_rebuild_the_raw_approximant_expansion(family, oracle, k, n):
    rng = random.Random(hash((family, k, n)) & 0xFFFF)
    step = 3 if family == "theta-iterated" else 2
    coeffs = [F(rng.randint(1, 30) * rng.choice((-1, 1)), rng.randint(1, 7)) for _ in range(n + step * k + 1)]
    series = PowerSeries(RAT, tuple(coeffs))
    order = n + step * k + 2
    rebuilt = _reconstruct(series, family, k, n, order)
    sums = partial_sum_laurents(coeffs, len(coeffs))
    col = 2 * k if family == "epsilon" else k
    raw = oracle(sums, col, n)
    for exponent in range(order + 1):
        assert rebuilt.coeffs[exponent] == raw.coefficient(exponent), (
            f"{family} ({k},{n}) coefficient {exponent}"
        )


def test_log_series_reconstruction_against_raw_epsilon():
    coeffs = [F((-1) ** m, m + 1) for m in range(9)]
    series = PowerSeries(RAT, tuple(coeffs))
    rebuilt = _reconstruct(series, "epsilon", 4, 0, 10)
    raw = classic_epsilon(partial_sum_laurents(coeffs, 9), 8, 0)
    for exponent in range(11):
        assert rebuilt.coeffs[exponent] == raw.coefficient(exponent)


# -- breakdown behaviour ------------------------------------------------------


def test_zero_coefficient_is_flagged_not_fatal():
    series = PowerSeries(RAT, (F(1), F(0), F(1, 3), F(-1, 4), F(1, 5), F(-1, 6), F(1, 7)))
    table = transformation_terms(series, "aitken", 3, order=3)
    assert table.failures  # at least one cell broke
    assert any(term.k >= 1 for term in table)  # but others survived
    leads = leading_predictions(series, "epsilon", 3)
    broken = [key for key in leads.valid if not leads.valid[key]]
    assert broken
    for k, n in broken:
        with pytest.raises(PredictionBreakdownError):
            leads.entry(k, n)


def test_selected_breakdown_propagates_as_typed_error():
    series = PowerSeries(RAT, (F(1), F(1), F(1), F(1), F(1)))
    # constant coefficients: the level-2 divided differences vanish
    with pytest.raises(PredictionBreakdownError) as err:
        predict_coefficients(series, "aitken", 4, 2)
    assert err.value.family == "aitken"
