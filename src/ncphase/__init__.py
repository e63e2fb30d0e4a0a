"""Numerical toolkit for classical mechanics on noncommutative phase spaces."""

from .errors import (
    BothChargesNonzero,
    DegenerateChi,
    InconsistentSystem,
    NcphaseError,
    NegativeChi,
    NoKernel,
    NotARotation,
    OffConstraint,
    SingularOmega,
    StepRejected,
)
from .structure import (
    FieldConfig,
    PsiPhiPair,
    bracket,
    build_omega,
    canonical_j,
    field_config_n2,
    field_config_n3,
    poisson_matrix,
    psi_phi,
    regularity,
)

__all__ = [
    "BothChargesNonzero",
    "DegenerateChi",
    "FieldConfig",
    "InconsistentSystem",
    "NcphaseError",
    "NegativeChi",
    "NoKernel",
    "NotARotation",
    "OffConstraint",
    "PsiPhiPair",
    "SingularOmega",
    "StepRejected",
    "bracket",
    "build_omega",
    "canonical_j",
    "field_config_n2",
    "field_config_n3",
    "poisson_matrix",
    "psi_phi",
    "regularity",
]

__version__ = "0.1.0"
