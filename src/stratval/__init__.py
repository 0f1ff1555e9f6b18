"""Exact computational toolkit for Seshadri stratifications.

Given a bonded graded poset with extremal-function degrees, and optional
Laurent-monomial coordinate charts per maximal chain, the package computes
chain valuations, the global quasi-valuation, fans of monoids with their
lattices, Newton-Okounkov simplicial complexes with degrees and Hilbert
functions, standard monomial bases via subduction, and the LS-path model
for flag and Schubert varieties.  All arithmetic is exact.
"""

from stratval.avector import AVector, Ordering, TotalOrder, degree_of, lex_compare
from stratval.errors import (
    BoundError,
    ChartError,
    SchemaError,
    StratvalError,
    ValidationFailure,
)
from stratval.laurent import LaurentPoly, parse_laurent
from stratval.poset import Chain, StratPoset, generic_model

__version__ = "0.1.0"

__all__ = [
    "AVector",
    "BoundError",
    "Chain",
    "ChartError",
    "LaurentPoly",
    "Ordering",
    "SchemaError",
    "StratPoset",
    "StratvalError",
    "TotalOrder",
    "ValidationFailure",
    "degree_of",
    "generic_model",
    "lex_compare",
    "parse_laurent",
]
