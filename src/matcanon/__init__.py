"""Exact canonicalization of square matrices under congruence."""

from .canon import (Block, CanonicalForm, EquivalenceResult, InvariantRecord,
                    blocks_from_record, canonical_block_matrix,
                    canonical_form_matrix, canonicalize, equivalent,
                    invariants, record_from_form, transpose_witness)
from .errors import (ContextMismatch, DivisionByZero, HypothesisViolation,
                     InvalidDescriptor, MatcanonError,
                     NoArtinSchreierRootStrict, NoRootStrictPolicy, NotSplit,
                     ParseError, SingularInput, TowerCapExceeded,
                     WrongCharacteristic)
from .exactmat import CongruenceWitness, ExactMatrix, inverse_or_rank, solve
from .field import (EXTEND, STRICT, FieldContext, Scalar,
                    artin_schreier_root_or_adjoin, canonical_compare,
                    finite_field, format_scalar, gf4, parse_scalar,
                    prime_field, rationals, sqrt_or_adjoin)

__version__ = "0.1.0"

__all__ = [
    "Block", "CanonicalForm", "CongruenceWitness",
    "ContextMismatch", "DivisionByZero", "EXTEND", "EquivalenceResult",
    "ExactMatrix", "FieldContext", "HypothesisViolation",
    "InvalidDescriptor", "InvariantRecord", "MatcanonError",
    "NoArtinSchreierRootStrict", "NoRootStrictPolicy", "NotSplit",
    "ParseError", "STRICT", "Scalar", "SingularInput", "TowerCapExceeded",
    "WrongCharacteristic", "artin_schreier_root_or_adjoin",
    "blocks_from_record", "canonical_block_matrix", "canonical_compare",
    "canonical_form_matrix", "canonicalize", "equivalent", "finite_field",
    "format_scalar", "gf4", "invariants", "inverse_or_rank",
    "parse_scalar", "prime_field", "rationals", "record_from_form",
    "solve", "sqrt_or_adjoin", "transpose_witness",
]
