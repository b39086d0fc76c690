"""Partial Wiener-Hopf indices of unimodular rational matrix functions.

The library computes the full index profile of a symbol R = V W* that takes
unitary values on the imaginary axis, starting from stable dissipative
state-space realizations of the two inner factors or stable unitary
realizations of their Cayley images.  It ships realization builders, the
Schur-based matrix-equation solvers the pipeline needs, the
continuous/discrete realization dictionary, and independent oracles
(winding numbers, root tests) for cross-validation.
"""

__version__ = "0.8.0"

from .cayley import c2d, d2c
from .core import (
    CONTINUOUS,
    DISCRETE,
    Realization,
    SymbolPair,
    ValidationReport,
    cascade,
    constant_realization,
    direct_sum,
    eval_transfer,
    unitary_twist,
    validate_stable_dissipative,
    validate_stable_unitary,
)
from .equations import (
    EquationSolution,
    SchurForm,
    eigenvalue_one_multiplicity,
    schur_form,
    solve_stein,
    solve_sylvester,
    unit_eigenvectors,
    zeta_of_minus,
)
from .errors import (
    ContractionViolationError,
    EvaluationError,
    InputValidationError,
    PipelineError,
    PreconditionError,
    ResolutionError,
    StructureError,
    UnsolvableEquationError,
)
from .indices import (
    IndexProfile,
    discrete_negative_profile,
    full_profile,
    negative_profile,
)
from .oracle import roots_stable, schur_cohen_stable, winding_number
from .realizations import (
    BlaschkeSpec,
    Polynomial,
    blaschke_eval,
    blaschke_eval_at_minus,
    blaschke_of_minus_A,
    blaschke_realization,
    defect_rank,
    diagonal_symbol_factors,
    p_sharp,
    poly_of_matrix,
    recover_blaschke_pointwise,
    zeta_power_realization,
)

__all__ = [
    "BlaschkeSpec",
    "CONTINUOUS",
    "ContractionViolationError",
    "DISCRETE",
    "EquationSolution",
    "EvaluationError",
    "IndexProfile",
    "InputValidationError",
    "PipelineError",
    "Polynomial",
    "PreconditionError",
    "Realization",
    "ResolutionError",
    "SchurForm",
    "StructureError",
    "SymbolPair",
    "UnsolvableEquationError",
    "ValidationReport",
    "blaschke_eval",
    "blaschke_eval_at_minus",
    "blaschke_of_minus_A",
    "blaschke_realization",
    "c2d",
    "cascade",
    "constant_realization",
    "d2c",
    "defect_rank",
    "diagonal_symbol_factors",
    "direct_sum",
    "discrete_negative_profile",
    "eigenvalue_one_multiplicity",
    "eval_transfer",
    "full_profile",
    "negative_profile",
    "p_sharp",
    "poly_of_matrix",
    "recover_blaschke_pointwise",
    "roots_stable",
    "schur_cohen_stable",
    "schur_form",
    "solve_stein",
    "solve_sylvester",
    "unit_eigenvectors",
    "unitary_twist",
    "validate_stable_dissipative",
    "validate_stable_unitary",
    "winding_number",
    "zeta_of_minus",
    "zeta_power_realization",
]
