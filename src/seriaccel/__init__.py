"""Convergence acceleration and series-coefficient prediction.

Nonlinear sequence transformations (iterated delta-squared, Wynn's epsilon
algorithm, Brezinski's iterated theta transformation) in rearranged forms
whose rational approximants split cleanly into a partial sum plus a
transformation term.  Expanding those terms as truncated power series yields
predictions for coefficients the transformation never consumed; driving the
same recursions from known series tails instead yields exact error-term
expansions for model problems.  Everything is generic over exact rational,
big-decimal and double-precision scalar fields.
"""

from .field import (
    BigFloatField,
    BreakdownError,
    Field,
    Float64Field,
    ModeMismatchError,
    ParseError,
    RationalField,
    Scalar,
    decimal_string,
    field_for_mode,
    scientific_string,
    to_fraction_string,
)
from .jets import Jet, JetBreakdownError, PowerSeries
from .prediction import (
    PredictionBreakdownError,
    leading_predictions,
    predict_coefficients,
    transformation_terms,
)
from .remainders import (
    evaluate_error_terms,
    evaluate_transformation_terms,
    leading_remainders,
    remainder_jets,
    remainder_value,
    series_value,
)
from .series_library import ResolvedInput, builtin_series, load_coefficient_file, resolve_series_spec
from .transforms import (
    FAMILIES,
    ConvergenceReport,
    DegeneratePadeError,
    Family,
    ModelSequence,
    PadeRational,
    ScalarSequence,
    SelectionError,
    TransformTable,
    aitken_table,
    classify_convergence,
    epsilon_cross_table,
    epsilon_table,
    get_family,
    iterated_theta_table,
    pade_linear_system,
    select_approximant,
    theta_table,
)

__version__ = "0.1.0"
