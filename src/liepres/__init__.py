"""Exact-arithmetic engine for finitely presented Lie algebras over the rationals."""

from .freelie import LiePoly, bracket, is_lyndon, lyndon_words, standard_factorization
from .presentation import ParseError, Presentation, parse_presentation
from .quotient import (
    NamesNotBasisError,
    QuotientBasis,
    certify,
    quotient_closure,
    structure_table,
)
from .table import StructureTable

__version__ = "0.1.0"

__all__ = [
    "LiePoly",
    "bracket",
    "is_lyndon",
    "lyndon_words",
    "standard_factorization",
    "ParseError",
    "Presentation",
    "parse_presentation",
    "NamesNotBasisError",
    "QuotientBasis",
    "certify",
    "quotient_closure",
    "structure_table",
    "StructureTable",
]
