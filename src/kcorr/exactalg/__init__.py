"""Exact-arithmetic kernel: fields, polynomials, reduced bases, quotients."""

from .fields import QQ, Field, PrimeField, RationalField, parse_field
from .groebner import GroebnerBasis, buchberger, normal_form, quotient_eq
from .matrix import (Matrix, rank_factorization, rank_over_fraction_field,
                     scalar_value)
from .parser import parse_poly, tokenize
from .poly import DEGREVLEX, LEX, Ambient, Poly
from .quotient import QElem

__all__ = [
    "QQ", "Field", "PrimeField", "RationalField", "parse_field",
    "GroebnerBasis", "buchberger", "normal_form", "quotient_eq",
    "Matrix", "rank_factorization", "rank_over_fraction_field", "scalar_value",
    "parse_poly", "tokenize",
    "DEGREVLEX", "LEX", "Ambient", "Poly", "QElem",
]
