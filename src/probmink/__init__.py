"""Exact arithmetic for digit expansions of reals driven by probability
distributions on the positive integers, the Minkowski-type functions they
induce, and the classical question-mark function.

Every public value is a `fractions.Fraction`; nothing here rounds.
"""

from .distribution import (
    CustomPrefixTail,
    Distribution,
    Dyadic,
    Geometric,
    parse_distribution,
)
from .errors import (
    DomainError,
    ParseError,
    PeriodDetectionError,
    ProbminkError,
    ResourceLimitError,
)
from .expansion import (
    Cylinder,
    DigitSeq,
    NotDetected,
    approximation_bound,
    cylinder,
    decode,
    decode_periodic,
    encode,
    encode_enclosure,
    parse_digit_seq,
    shift,
)
from .fmt import parse_rational, render_decimal
from .integral import (
    ClosedForms,
    IntegralReport,
    MCEstimate,
    QuadratureEnclosure,
    alpha,
    gamma,
    integral_closed,
    integral_mc,
    integral_quadrature,
    integral_report,
)
from .minkowski import (
    AffineMap2D,
    GraphResult,
    IncrementReport,
    WitnessPair,
    continued_fraction,
    continuity_modulus_check,
    cylinder_increment,
    eval_minkowski,
    eval_minkowski_enclosure,
    eval_question_mark,
    functional_equation_residuals,
    graph_points,
    ifs_maps,
    monotonicity_witnesses,
    singularity_ratio_step,
)
from .series import (
    AltSeriesValue,
    alt_series_exact,
    alt_series_periodic_closed_form,
    alt_series_truncated,
    prefix_enclosure,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap2D",
    "AltSeriesValue",
    "ClosedForms",
    "CustomPrefixTail",
    "Cylinder",
    "DigitSeq",
    "Distribution",
    "DomainError",
    "Dyadic",
    "Geometric",
    "GraphResult",
    "IncrementReport",
    "IntegralReport",
    "MCEstimate",
    "NotDetected",
    "ParseError",
    "PeriodDetectionError",
    "ProbminkError",
    "QuadratureEnclosure",
    "ResourceLimitError",
    "WitnessPair",
    "alpha",
    "alt_series_exact",
    "alt_series_periodic_closed_form",
    "alt_series_truncated",
    "approximation_bound",
    "continued_fraction",
    "continuity_modulus_check",
    "cylinder",
    "cylinder_increment",
    "decode",
    "decode_periodic",
    "encode",
    "encode_enclosure",
    "eval_minkowski",
    "eval_minkowski_enclosure",
    "eval_question_mark",
    "functional_equation_residuals",
    "gamma",
    "graph_points",
    "ifs_maps",
    "integral_closed",
    "integral_mc",
    "integral_quadrature",
    "integral_report",
    "monotonicity_witnesses",
    "parse_digit_seq",
    "parse_distribution",
    "parse_rational",
    "prefix_enclosure",
    "render_decimal",
    "shift",
    "singularity_ratio_step",
]
