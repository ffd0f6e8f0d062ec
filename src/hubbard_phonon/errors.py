"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition.

    The message names the constraint that was broken, so callers (and the
    command line layer) can surface it without guessing.
    """


class SizingError(ValueError):
    """A requested object would exceed a hard size cap."""


class IterationLimitError(RuntimeError):
    """An iterative solver stopped before reaching its target residual."""


class AmbiguousDegeneracyError(RuntimeError):
    """Eigenvalue clustering cannot be decided at the requested tolerance.

    Raised when an eigenvalue falls inside the grey zone around the cluster
    threshold; carries a suggestion for a tolerance that would decide it.
    """

    def __init__(self, message, gap=None, suggested_tol=None):
        super().__init__(message)
        self.gap = gap
        self.suggested_tol = suggested_tol


class InfraredDivergenceError(ArithmeticError):
    """A mode-density integral diverges at the lower endpoint.

    ``divergence_class`` is one of ``"LogSingular"`` or ``"PowerSingular"``.
    """

    def __init__(self, message, divergence_class=None):
        super().__init__(message)
        self.divergence_class = divergence_class


class DiscretizationError(ValueError):
    """Moment-matched quadrature construction failed or failed validation."""


class AccuracyError(RuntimeError):
    """Two independent evaluation routes disagree beyond their tolerance."""
