"""Exception types shared across the package."""


class SoftProbError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SoftProbError, ValueError):
    """An input lies outside the domain of the requested operation."""


class ConvergenceError(SoftProbError, RuntimeError):
    """Adaptive refinement hit its subdivision limit before converging.

    The best estimate assembled so far is kept on the exception so callers
    can inspect how far off the run ended. A 1-D run also keeps its
    quadrature.QuadStats record as stats; it is None for a 2-D run.
    """

    def __init__(self, message: str, best_estimate: float, stats=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.stats = stats


class DegenerateModelError(DomainError):
    """A model fit failed because the data carry no usable variation."""
