"""Exact rational matrix invariants of pure braids via Delaunay flips."""

from .braids import (BraidLetter, BraidWord, CanonicalSetup, InvariantResult,
                     LoopGeometry, RelationReport, WordSyntaxError,
                     canonical_setup, invariant, parse_word, verify_relations,
                     word_from_pairs)
from .delaunay import DegenerateConfigurationError, FlipEvent, build_delaunay
from .fixtures import run_all_suites
from .flips import BasisMismatchError, build_flip_matrix, sequence_product
from .geometry import Configuration, LabeledPoint
from .kinetics import (ClearanceError, Trajectory, TrajectorySet,
                       UnresolvedEventError, exact_flip_sequence,
                       extract_flip_sequence)
from .linalg import DimensionError, Matrix, char_poly

__version__ = "0.1.0"

__all__ = [
    "BasisMismatchError", "BraidLetter", "BraidWord", "CanonicalSetup",
    "ClearanceError", "Configuration", "DegenerateConfigurationError",
    "DimensionError", "FlipEvent", "InvariantResult", "LabeledPoint",
    "LoopGeometry", "Matrix", "RelationReport", "Trajectory",
    "TrajectorySet", "UnresolvedEventError", "WordSyntaxError",
    "build_delaunay", "build_flip_matrix", "canonical_setup", "char_poly",
    "exact_flip_sequence", "extract_flip_sequence", "invariant",
    "parse_word", "run_all_suites", "sequence_product", "verify_relations",
    "word_from_pairs",
]
