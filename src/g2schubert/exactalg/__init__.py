"""Exact arithmetic substrate: rationals, sparse polynomials, linear solving,
and small LP feasibility, all over int and fractions.Fraction."""

from .scalars import (GaussRat, Rational, exact, integral_multiple,
                      integral_multiple_of_ratios, quotient)
from .mpoly import (
    MPoly,
    NotDivisible,
    Substitution,
    UnboundVariable,
    VARIABLES,
    exact_divide,
)
from .parse import PolySyntaxError, UnknownVariable, parse_poly
from .linsolve import (
    LinInconsistency,
    LinSolution,
    determinant,
    matrix_inverse,
    nullspace,
    rank,
    solve_linear,
)
from .lp import LpInfeasible, LpPoint, lp_feasible

__all__ = [
    "GaussRat", "Rational", "exact", "integral_multiple",
    "integral_multiple_of_ratios", "quotient",
    "MPoly", "NotDivisible", "Substitution", "UnboundVariable", "VARIABLES",
    "exact_divide",
    "PolySyntaxError", "UnknownVariable", "parse_poly",
    "LinInconsistency", "LinSolution",
    "determinant", "matrix_inverse", "nullspace", "rank", "solve_linear",
    "LpInfeasible", "LpPoint", "lp_feasible",
]
