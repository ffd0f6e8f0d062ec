"""Exception types shared across the package, each under one of the two
bases that the command line maps to its exit codes."""


class InputError(Exception):
    """An input the package refuses to run: the command line exits 2."""


class UncertifiedError(RuntimeError):
    """A solve that ran but cannot be certified: the command line exits 3."""


class ValidationError(InputError, ValueError):
    """An input violates a documented precondition.

    The message names the constraint that was broken, so callers (and the
    command line layer) can surface it without guessing.
    """


class SizingError(InputError, ValueError):
    """A requested object would exceed a hard size cap."""


class IterationLimitError(UncertifiedError):
    """An iterative solver stopped before reaching its target residual."""


class AmbiguousDegeneracyError(UncertifiedError):
    """Eigenvalue clustering cannot be decided at the requested tolerance.

    Raised when an eigenvalue falls inside the grey zone around the cluster
    threshold; carries a suggestion for a tolerance that would decide it.
    """

    def __init__(self, message, suggested_tol=None):
        super().__init__(message)
        self.suggested_tol = suggested_tol


class InfraredDivergenceError(InputError, ArithmeticError):
    """A mode-density integral diverges at the lower endpoint.

    ``divergence_class`` is one of ``"LogSingular"`` or ``"PowerSingular"``.
    """

    def __init__(self, message, divergence_class=None):
        super().__init__(message)
        self.divergence_class = divergence_class


class DiscretizationError(InputError, ValueError):
    """Moment-matched quadrature construction failed or failed validation."""


class AccuracyError(UncertifiedError):
    """Two independent evaluation routes disagree beyond their tolerance."""
