"""Exact rational matrix invariants of pure braids via Delaunay flips."""

from .braids import (BraidLetter, BraidWord, CanonicalSetup, InvariantResult,
                     LoopGeometry, RelationReport, WordSyntaxError,
                     canonical_setup, generator_trajectories, invariant,
                     parse_word, verify_relations, word_from_pairs)
from .delaunay import (DegenerateConfigurationError, FlipEvent, apply_flip,
                       build_delaunay, diff_flips, render_svg, triangle,
                       verify_delaunay)
from .fixtures import run_all_suites
from .flips import (BasisMismatchError, build_flip_matrix,
                    gamma_generator_name, pentagon_cycle_product,
                    sequence_product)
from .geometry import Configuration, LabeledPoint, incircle, orient2d
from .kinetics import (ClearanceError, Trajectory, TrajectorySet,
                       UnresolvedEventError, configuration_at,
                       exact_flip_sequence, extract_flip_sequence)
from .linalg import (DimensionError, Matrix, SingularMatrixError, char_poly,
                     mat_inverse, mat_mul)

__version__ = "0.1.0"

__all__ = [
    "BasisMismatchError", "BraidLetter", "BraidWord", "CanonicalSetup",
    "ClearanceError", "Configuration", "DegenerateConfigurationError",
    "DimensionError", "FlipEvent", "InvariantResult", "LabeledPoint",
    "LoopGeometry", "Matrix", "RelationReport", "SingularMatrixError",
    "Trajectory", "TrajectorySet", "UnresolvedEventError", "WordSyntaxError",
    "apply_flip", "build_delaunay", "build_flip_matrix", "canonical_setup",
    "char_poly", "configuration_at", "diff_flips", "exact_flip_sequence",
    "extract_flip_sequence",
    "gamma_generator_name", "generator_trajectories", "incircle", "invariant",
    "mat_inverse", "mat_mul", "orient2d", "parse_word",
    "pentagon_cycle_product", "render_svg",
    "run_all_suites", "sequence_product", "triangle",
    "verify_delaunay", "verify_relations",
    "word_from_pairs",
]
