"""Exact symbolic computation with differential graded path algebras."""

from .core import (
    AlgebraElement,
    Arrow,
    GradedQuiver,
    Path,
    graded_commutator,
    multiply,
)
from .cy import build_and_check_omega, build_C, build_omega_tilde, build_split, check_C_koszul_and_model, cy_check, split
from .differential import DGModel, Differential, check_d_squared, check_grading
from .errors import DGQuiverError, InvalidInputError, ResourceLimitError
from .ginzburg import (
    Superpotential,
    cyclic_derivative,
    ginzburg_model,
    jacobian_presentation,
    restrict_potential,
)
from .homology import cohomology_dims, compare_h0, h0_presentation, truncated_dims
from .koszul import (
    McKayData,
    compute_Jn,
    delete_vertex,
    deleted_mckay_model,
    mckay_model,
    minimal_model_general,
    polynomial_model,
    shuffle_sign,
)
from .presentations import PresentedAlgebra, QuadraticPresentation

__all__ = [
    "AlgebraElement",
    "Arrow",
    "DGModel",
    "DGQuiverError",
    "Differential",
    "GradedQuiver",
    "InvalidInputError",
    "McKayData",
    "Path",
    "PresentedAlgebra",
    "QuadraticPresentation",
    "ResourceLimitError",
    "Superpotential",
    "build_C",
    "build_and_check_omega",
    "build_omega_tilde",
    "build_split",
    "check_C_koszul_and_model",
    "check_d_squared",
    "check_grading",
    "cohomology_dims",
    "compare_h0",
    "compute_Jn",
    "cy_check",
    "cyclic_derivative",
    "delete_vertex",
    "deleted_mckay_model",
    "ginzburg_model",
    "graded_commutator",
    "h0_presentation",
    "jacobian_presentation",
    "mckay_model",
    "minimal_model_general",
    "multiply",
    "polynomial_model",
    "restrict_potential",
    "shuffle_sign",
    "split",
    "truncated_dims",
]
