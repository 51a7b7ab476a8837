"""Exception types shared across the package."""


class SoftProbError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SoftProbError, ValueError):
    """An input lies outside the domain of the requested operation."""


class ConvergenceError(SoftProbError, RuntimeError):
    """Adaptive refinement hit its subdivision limit before converging.

    The best estimate assembled so far is kept on the exception so callers
    can inspect how far off the run ended, and the run's
    quadrature.QuadStats record is kept as stats.
    """

    def __init__(self, message: str, best_estimate: float, stats=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.stats = stats


class DegenerateModelError(DomainError):
    """A model fit failed because the data carry no usable variation."""
