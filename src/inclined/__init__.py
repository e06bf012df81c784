"""Certified inclined-vector search and tensor-product projection families."""

from .hilbert import random_orthonormal_basis
from .tensor_index import TensorIndexSpace, block_view, blocks_matrix
from .tensor_projection import apply_axis, joint_fixed_vector
from .search import (
    BudgetExhausted,
    InclinationCertificate,
    cover_witness,
    find_inclined_vector,
    recompute_achieved,
    verify_inclination,
)
from .family import (
    BranchProjectionSpec,
    LevelSpec,
    StageParameters,
    SuppressionCertificate,
    SuppressionFailure,
    branch_intersection,
    build_branch_projection,
    min_level_dimension,
    paper_stage,
    separating_level,
    stage_predicate,
    toy_stage,
    verify_suppression,
)
from .serialize import canonical_json, derive_seed, digest_vectors

__version__ = "0.16.0"

__all__ = [
    "BranchProjectionSpec",
    "BudgetExhausted",
    "InclinationCertificate",
    "LevelSpec",
    "StageParameters",
    "SuppressionCertificate",
    "SuppressionFailure",
    "TensorIndexSpace",
    "apply_axis",
    "block_view",
    "blocks_matrix",
    "branch_intersection",
    "build_branch_projection",
    "canonical_json",
    "cover_witness",
    "derive_seed",
    "digest_vectors",
    "find_inclined_vector",
    "joint_fixed_vector",
    "min_level_dimension",
    "paper_stage",
    "random_orthonormal_basis",
    "recompute_achieved",
    "separating_level",
    "stage_predicate",
    "toy_stage",
    "verify_inclination",
    "verify_suppression",
]
