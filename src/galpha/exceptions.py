"""Exception types shared across the package."""

__all__ = ["GalphaError", "ConfigurationError", "PoleError", "LinearSolveError"]


class GalphaError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(GalphaError):
    """Invalid user input: bad parameters, bad config keys, unsupported sizes."""


class PoleError(GalphaError):
    """A stage denominator of the amplification matrix vanished.

    Only reachable when probing Re(theta) < 0; the method matrices are
    nonsingular on the closed right half-plane for valid parameters.
    """

    def __init__(self, stage, theta):
        self.stage = stage
        self.theta = theta
        super().__init__(
            "amplification matrix has a pole at stage %d for theta = %s" % (stage, theta)
        )


class LinearSolveError(GalphaError):
    """A matrix factorization or solve failed (singular or indefinite matrix)."""
