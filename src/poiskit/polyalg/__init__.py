"""Exact polynomial arithmetic and graded multivector/form calculus."""

from .polynomial import (
    IDENTIFIER,
    Chart,
    ChartMismatchError,
    PolyParseError,
    Polynomial,
    degrevlex_key,
    divides_exactly,
    parse_polynomial,
)
from .floateval import FloatEvaluator
from .multivector import (
    DifferentialForm,
    MultivectorField,
    TensorValue,
    exterior_derivative,
    interior_product,
    lie_derivative,
    pair,
    schouten_bracket,
    wedge,
    wedge_power,
)

__all__ = [
    "IDENTIFIER",
    "Chart",
    "ChartMismatchError",
    "PolyParseError",
    "Polynomial",
    "degrevlex_key",
    "divides_exactly",
    "FloatEvaluator",
    "parse_polynomial",
    "DifferentialForm",
    "MultivectorField",
    "TensorValue",
    "exterior_derivative",
    "interior_product",
    "lie_derivative",
    "pair",
    "schouten_bracket",
    "wedge",
    "wedge_power",
]
