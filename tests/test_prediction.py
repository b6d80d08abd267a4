import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from _laurent import (
    classic_aitken,
    classic_epsilon,
    classic_iterated_theta,
    partial_sum_laurents,
)
from _reference import pade_taylor_jet, partial_sum_jet
from seriaccel.field import BigFloatField, Float64Field, RationalField, decimal_string
from seriaccel.jets import Jet, PowerSeries
from seriaccel.prediction import (
    PredictionBreakdownError,
    leading_predictions,
    predict_coefficients,
    transformation_terms,
)
from seriaccel.remainders import leading_remainders
from seriaccel.series_library import builtin_series
from seriaccel.transforms import SelectionError, get_family, pade_linear_system, select_approximant

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


@pytest.mark.parametrize("family, max_level, key", [
    pytest.param("aitken", 4, (4, 0), id="aitken-4"),
    pytest.param("epsilon", 4, (4, 0), id="epsilon-4"),
    pytest.param("theta-iterated", 2, (2, 2), id="theta-iterated-2"),
])
def test_select_approximant_on_a_term_table_selects_by_level(family, max_level, key):
    # A term table is keyed by level, while the textbook epsilon table, which
    # shares its name, is keyed by column subscript: coefficients 0..8 select
    # the deepest level, not column 2k.
    table = transformation_terms(log_series(9), family, max_level, order=1)
    k, n, value = select_approximant(table)
    assert (k, n) == key and value == table.entry(*key)


def test_first_aitken_term_matches_closed_form():
    rng = random.Random(23)
    series = random_series(rng, 7)
    table = transformation_terms(series, "aitken", 1, order=5)
    for n in range(5):
        g1, g2 = series.coefficient(n + 1), series.coefficient(n + 2)
        numerator = Jet.from_coeffs(RAT, [g2 * g2], 5)
        denominator = Jet.from_coeffs(RAT, (g1, -g2), order=5)
        assert table.entry(1, n) == numerator / denominator


def test_first_epsilon_term_equals_first_aitken_term():
    series = log_series(9)
    aitken = transformation_terms(series, "aitken", 1, order=4)
    epsilon = transformation_terms(series, "epsilon", 1, order=4)
    for n in range(7):
        assert aitken.entry(1, n) == epsilon.entry(1, n)


def test_first_theta_prediction_closed_form():
    rng = random.Random(29)
    series = random_series(rng, 8)
    table = leading_predictions(series, "theta", 1)
    for n in range(4):
        g1, g2, g3 = (series.coefficient(n + i) for i in (1, 2, 3))
        expected = -g3 * (g2 * g2 - 2 * g1 * g3) / (g1 * g2)
        assert table.entry(1, n) == expected


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
    for (k, n), jet in terms.entries.items():
        assert leads.entry(k, n) == jet.coeffs[0]


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
    taylor = pade_taylor_jet(pade, 12)
    for index, value in predictions:
        assert value == taylor.coeffs[index]


# -- reconstruction against the raw textbook recursions ----------------------


def _reconstruct(series, family, k, n, order):
    step = 3 if family == "theta-iterated" else 2
    table = transformation_terms(series, family, k, order=order)
    return partial_sum_jet(series, n + step * k, order) + table.entry(k, n).shift(n + step * k + 1)


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
    assert table.notes  # at least one cell broke
    assert any(k >= 1 for k, n in table.entries)  # but others survived
    leads = leading_predictions(series, "epsilon", 3)
    broken = [key for key in leads.valid if not leads.valid[key]]
    assert broken
    for k, n in broken:
        with pytest.raises(SelectionError):
            leads.entry(k, n)


@pytest.mark.parametrize("family", ["aitken", "epsilon", "theta-iterated"])
def test_negative_last_index_is_rejected_with_one_message(family):
    message = "last_index must be >= 0, got -1"
    with pytest.raises(ValueError, match=message):
        predict_coefficients(log_series(), family, -1, 2)
    with pytest.raises(ValueError, match=message):
        transformation_terms(log_series(), family, 0, order=1, last_index=-1)
    with pytest.raises(ValueError, match=message):
        leading_predictions(log_series(), family, 0, last_index=-1)
    with pytest.raises(ValueError, match=message):
        leading_remainders(log_series(), family, 0, last_index=-1)


def test_a_count_below_one_is_rejected():
    with pytest.raises(ValueError, match="count must be >= 1"):
        predict_coefficients(log_series(), "aitken", 12, count=0)


def test_selected_breakdown_propagates_as_typed_error():
    series = PowerSeries(RAT, (F(1), F(1), F(1), F(1), F(1)))
    # constant coefficients: the level-2 divided differences vanish
    with pytest.raises(PredictionBreakdownError) as err:
        predict_coefficients(series, "aitken", 4, 2)
    assert err.value.family == "aitken"


# -- epsilon: the Pade route against the jet route ----------------------------
#
# ``predict_coefficients`` reads epsilon predictions off the transformation term
# of the [n+k/k] Pade approximant; ``transformation_terms`` expands the epsilon
# recursion over jets and is the oracle.


def builtin(name, fld, count):
    params = (fld.from_int(2),) if name == "zeta" else ()
    return builtin_series(name, params, count, fld).series


def broke(k, n):
    return f"breakdown at ({k}, {n})"


def epsilon_routes(series, use, count):
    """Predictions of the Pade route and of the jet route, each a tuple of
    values or :func:`broke` of the cell where it broke down."""
    k, n = use // 2, use % 2
    try:
        pade = tuple(value for _, value in predict_coefficients(series, "epsilon", use, count))
    except PredictionBreakdownError as exc:
        pade = broke(exc.k, exc.n)
    try:
        table = transformation_terms(series, "epsilon", k, order=count + 2, last_index=use)
        jets = table.entry(k, n).coeffs[:count]
    except SelectionError as exc:
        jets = broke(exc.k, exc.n)
    return pade, jets


@pytest.mark.parametrize("name", ["log1p-over-z", "zeta"])
def test_epsilon_pade_route_equals_the_jet_route_on_the_builtins(name):
    series = builtin(name, RAT, 25)
    count = 5
    # One jet table holds the selected term of every use through 24.
    table = transformation_terms(series, "epsilon", 12, order=count + 2, last_index=24)
    for use in range(2, 25):
        predictions = predict_coefficients(series, "epsilon", use, count)
        assert [index for index, _ in predictions] == list(range(use + 1, use + count + 1))
        jets = table.entry(use // 2, use % 2).coeffs[:count]
        assert tuple(value for _, value in predictions) == jets, use


@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_epsilon_pade_route_against_the_jet_route_with_zeros(coeffs):
    series = PowerSeries(RAT, tuple(F(c) for c in coeffs))
    use = len(coeffs) - 1
    k, n = use // 2, use % 2
    pade, jets = epsilon_routes(series, use, 3)
    if pade == broke(k, n):  # then the jet route broke down too, at the same cell
        assert jets == pade
        return
    taylor = pade_taylor_jet(pade_linear_system(series, n + k, k), use + 3)
    assert pade == taylor.coeffs[use + 1:]
    assert jets in (pade, broke(k, n))


def _rational_series(count):
    """1 + 3z/(2 - z): coefficients 1, 3/2, 3/4, 3/8, ..."""
    return PowerSeries(RAT, (F(1),) + tuple(F(3, 2 ** i) for i in range(1, count)))


def _polynomial(count):
    """1 + 2z + 3z**2, padded with zeros."""
    return PowerSeries(RAT, tuple(F(i + 1) if i < 3 else F(0) for i in range(count)))


@pytest.mark.parametrize("label, series, uses", [
    ("geometric", builtin("geometric", RAT, 12), range(4, 12)),
    ("polynomial", _polynomial(12), range(5, 12)),
    ("1 + 3z/(2 - z)", _rational_series(12), range(4, 12)),
])
def test_epsilon_pade_route_breaks_down_where_the_jet_route_does(label, series, uses):
    for use in uses:
        k, n = use // 2, use % 2
        assert epsilon_routes(series, use, 4) == (broke(k, n), broke(k, n)), (label, use)
        with pytest.raises(PredictionBreakdownError, match=rf"\[{n + k}/{k}\] linear system is singular"):
            predict_coefficients(series, "epsilon", use, 4)


# Where only the jet route breaks down, the Pade route predicts the Taylor
# coefficients of the [n+k/k] approximant: the first two are pinned.
ONLY_THE_JET_ROUTE_BREAKS = {
    "alternate zeros": (
        lambda i: F(1, i // 2 + 1) if i % 2 == 0 else F(0),
        {4: ("0", "2/9"), 5: ("2/9", "0"), 7: ("3/16", "0"), 8: ("0", "33/200"),
         9: ("33/200", "0")},
    ),
    "gamma2 zero": (
        lambda i: F(0) if i == 2 else F(1, i + 1),
        {4: ("57/200", "41/125"), 5: ("52/375", "649/5625"),
         6: ("95447/782775", "8094896/77807835"), 7: ("14765/133056", "24462505/245887488"),
         8: ("6768025/67734072", "14729502565/162553306041"),
         9: ("44431/488775", "3899013919/46805094000"),
         10: ("337869349/4054582224", "64641427091/840505241268"),
         11: ("1789669/23265792", "89497863721/1253002493952")},
    ),
    "polynomial": (lambda i: F(i + 1) if i < 3 else F(0), {4: ("0", "0")}),
}


@pytest.mark.parametrize("label", sorted(ONLY_THE_JET_ROUTE_BREAKS))
def test_epsilon_pade_route_predicts_where_only_the_jet_route_breaks(label):
    coefficient, pinned = ONLY_THE_JET_ROUTE_BREAKS[label]
    series = PowerSeries(RAT, tuple(coefficient(i) for i in range(12)))
    for use, values in pinned.items():
        k, n = use // 2, use % 2
        pade, jets = epsilon_routes(series, use, 2)
        assert jets == broke(k, n), (label, use)
        taylor = pade_taylor_jet(pade_linear_system(series, n + k, k), use + 2)
        assert pade == taylor.coeffs[use + 1:], (label, use)
        assert tuple(str(value) for value in pade) == values, (label, use)


def _relative_error(values, exact):
    return max(abs(F(value) - e) / abs(e) for value, e in zip(values, exact))


# (mode, name, use) -> which routes break down; every other case of
# FLOAT_USES has both routes printing predictions.
FLOAT_USES = (8, 12, 20, 30, 40)
FLOAT_BREAKDOWNS = {
    ("f64", "log1p-over-z", 30): "jets",
    ("f64", "log1p-over-z", 40): "both",
    ("f64", "zeta", 20): "jets",
    ("f64", "zeta", 30): "both",
    ("f64", "zeta", 40): "both",
}


@pytest.mark.parametrize("mode", ["bigfloat", "f64"])
def test_float_epsilon_pade_route_stays_within_ten_times_the_jet_route_error(mode):
    fld = BigFloatField(50) if mode == "bigfloat" else Float64Field()
    for name in ("log1p-over-z", "zeta"):
        exact_series = builtin(name, RAT, 41)
        series = builtin(name, fld, 41)
        for use in FLOAT_USES:
            exact = [value for _, value in predict_coefficients(exact_series, "epsilon", use, 4)]
            pade, jets = epsilon_routes(series, use, 4)
            outcome = {(True, True): "both", (False, True): "jets", (True, False): "pade"}.get(
                (isinstance(pade, str), isinstance(jets, str)))
            assert outcome == FLOAT_BREAKDOWNS.get((mode, name, use)), (name, use)
            if outcome is None:
                assert _relative_error(pade, exact) <= 10 * _relative_error(jets, exact), (name, use)
            elif outcome == "jets":
                assert _relative_error(pade, exact) < F(1, 10 ** 10), (name, use)


@pytest.mark.parametrize("name", ["log1p-over-z", "zeta"])
def test_bigfloat_epsilon_predictions_at_use_20_keep_40_digits(name):
    exact = predict_coefficients(builtin(name, RAT, 21), "epsilon", 20, 4)
    got = predict_coefficients(builtin(name, BigFloatField(50), 21), "epsilon", 20, 4)
    assert [index for index, _ in got] == [index for index, _ in exact]
    assert _relative_error([v for _, v in got], [v for _, v in exact]) < F(1, 10 ** 40)


# The jet route of predict_coefficients expands through count - 1 and no
# further: coefficient j of a jet sum, product, reciprocal or shift reads only
# operand coefficients up to j, so a longer expansion gives the same leading
# coefficients and breaks down at the same cells.
EXPANSION_USES = {("rational", "aitken"): 11, ("rational", "theta-iterated"): 14}


@pytest.mark.parametrize("fld", [RAT, BigFloatField(50), Float64Field()], ids=lambda f: f.mode)
@pytest.mark.parametrize("name", ["log1p-over-z", "zeta"])
@pytest.mark.parametrize("family", ["aitken", "theta-iterated"])
def test_jet_route_predictions_need_no_orders_past_the_last_one(fld, name, family):
    use = EXPANSION_USES.get((fld.mode, family), 29)
    series = builtin(name, fld, use + 1)
    level = use // get_family(family).step

    def leading(order, count):
        table = transformation_terms(series, family, level, order=order, last_index=use)
        return ({key: [repr(c) for c in jet.coeffs[:count]]
                 for key, jet in sorted(table.entries.items())}, table.notes)

    for count in range(1, 7):
        assert leading(count + 2, count) == leading(count - 1, count), count


# The benchmark times jet arithmetic by wrapping ``Jet.__mul__`` and
# ``Jet.reciprocal``; a kernel reached around them would read as no work.
@pytest.mark.parametrize("family", ["aitken", "theta-iterated", "epsilon"])
def test_rational_predictions_multiply_and_invert_through_the_jet_methods(monkeypatch, family):
    calls = {"__mul__": 0, "reciprocal": 0}

    def counted(name):
        method = getattr(Jet, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Jet, name, counted(name))
    assert len(predict_coefficients(builtin("zeta", RAT, 10), family, 9, 4)) == 4
    assert calls["__mul__"] > 0 and calls["reciprocal"] > 0, calls
