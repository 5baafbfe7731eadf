"""Error taxonomy shared by the whole package.

Every raisable condition maps to one of these; the command line layer
translates them to exit codes (domain-type errors -> 3, convergence -> 4).
"""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class ValidationError(DomainError):
    """A structured object (grid, Hamiltonian, weight) fails its invariants."""


class UnsupportedFeatureError(DomainError):
    """Well-formed input hitting an unimplemented corner (e.g. an odd weight)."""


class SpectralPositivityError(DomainError):
    """A discretized form that must be positive definite is not."""


class ConvergenceError(RuntimeError):
    """An iterative certificate did not reach its tolerance.

    Carries the last certified figure in ``last_residual`` so callers can
    report how far away the run stopped.
    """

    def __init__(self, message, last_residual=None):
        super().__init__(message)
        self.last_residual = last_residual
