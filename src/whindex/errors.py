"""Exception types shared across the library.

The CLI maps these onto exit codes: structural and input-validation
problems are user errors (exit 2), everything else is a computation
failure (exit 3).
"""


class StructureError(ValueError):
    """Dimension, shape or flavor mismatch in the supplied data."""


class InputValidationError(ValueError):
    """A realization failed its stability/dissipativity validation."""


class EvaluationError(ArithmeticError):
    """Evaluation at or too close to a pole, or a vanishing denominator."""


class UnsolvableEquationError(ArithmeticError):
    """Matrix equation is singular or numerically too ill conditioned.

    Carries a certified lower bound on the smallest singular value of the
    vectorized system: the equation is at least that far from singular.
    """

    def __init__(self, message: str, smallest_singular_value: float):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value


class ContractionViolationError(ArithmeticError):
    """An eigenvalue exceeded 1 beyond tolerance where a contraction was required."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class PreconditionError(ValueError):
    """An operation-specific precondition on the inputs does not hold."""


class PipelineError(RuntimeError):
    """The index pipeline produced inconsistent intermediate results."""


class ResolutionError(RuntimeError):
    """Adaptive refinement hit its cap without reaching the required resolution."""
