"""Exception types shared across the package."""

__all__ = ["ConfigurationError", "NoSolutionError", "AmbiguousSolutionError",
           "EstimationFailure"]


class ConfigurationError(ValueError):
    """A radar configuration or solver setup is invalid or inconsistent."""


class NoSolutionError(RuntimeError):
    """No candidate velocity is consistent with the observations."""

    def __init__(self, message, candidates=None):
        super().__init__(message)
        self.candidates = candidates


class AmbiguousSolutionError(RuntimeError):
    """Several candidates fit the observations equally well; no guess is made.

    ``candidates`` carries the tied candidate sets so callers can report
    them instead of silently averaging over alternatives.
    """

    def __init__(self, message, candidates=None):
        super().__init__(message)
        self.candidates = candidates


class EstimationFailure(RuntimeError):
    """A spectral estimate found no usable peak (flat or noise-only input)."""
