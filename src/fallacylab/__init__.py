"""Logic-programming oracle for fallacious test sentences and LLM evaluation.

A small Prolog-subset engine executes eleven fallacy rule schemas over
LLM-expanded fact bases; derived rule instances are surfaced as natural
language test sentences and scored, and model predictions over the resulting
benchmarks are measured with exact-arithmetic metrics.
"""

from .engine import (
    Atom,
    Clause,
    Goal,
    Int,
    NotEqual,
    Struct,
    TermLess,
    Var,
    compare_terms,
)
from .kb import KnowledgeBase
from .labels import LABEL_ONLY_CODES, SCHEMA_CODES, FallacyCode, parse_code
from .schemas import (
    FallacySchema,
    ValidTuple,
    ValidationReport,
    derive_instances,
    ordering_diagnostic,
    schema_catalog,
    schema_for,
    validate_kb_against_schema,
)
from .seeds import load_seed

__all__ = [
    "Atom",
    "Clause",
    "FallacyCode",
    "FallacySchema",
    "Goal",
    "Int",
    "KnowledgeBase",
    "LABEL_ONLY_CODES",
    "NotEqual",
    "SCHEMA_CODES",
    "Struct",
    "TermLess",
    "ValidTuple",
    "ValidationReport",
    "Var",
    "compare_terms",
    "derive_instances",
    "load_seed",
    "ordering_diagnostic",
    "parse_code",
    "schema_catalog",
    "schema_for",
    "validate_kb_against_schema",
]

__version__ = "0.1.0"
