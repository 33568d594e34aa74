"""Exception hierarchy shared by all zetalab modules."""


class ZetaLabError(Exception):
    """Base class for every error raised by zetalab."""


class PoleAt1(ZetaLabError):
    """Evaluation requested inside the guard radius around the pole at s = 1."""


class OutOfDomain(ZetaLabError):
    """Evaluation requested outside the certified evaluation domain."""


class PoleAtNonPositiveInteger(ZetaLabError):
    """log-gamma requested at a non-positive integer."""


class PoleOfGammaFactor(ZetaLabError):
    """chi(s) requested where Gamma(1 - s) has a pole that is not cancelled."""


class BelowDomain(ZetaLabError):
    """theta/Z requested below the t >= 2 threshold."""


class ImaginaryLeak(ZetaLabError):
    """Hardy Z came out with a non-negligible imaginary part (precision loss)."""


class DivergentRegion(ZetaLabError):
    """Dirichlet series evaluation requested where it does not converge absolutely."""


class SampleBelowBound(ZetaLabError):
    """A sample point violates the Re s > b requirement of a certificate check."""


class AmbiguousFloor(ZetaLabError):
    """m * alpha is too close to an integer for floating point to decide the floor."""


class Unclassifiable(ZetaLabError):
    """An index matched neither Beatty branch; numerical failure for irrational alpha."""


class HypothesisViolation(ZetaLabError):
    """A shift sequence is not finite or violates the growth/gap side conditions."""


class PointOnBoundary(ZetaLabError):
    """Bergman bound requested at a point on (or outside) the rectangle boundary."""


class DomainOverflow(ZetaLabError):
    """A shift scan would leave the certified evaluation range."""


class VanishingTarget(ZetaLabError):
    """A universality target constant is zero (non-vanishing hypothesis)."""


class ChiBoundUnavailable(ZetaLabError):
    """No certified chi lower bound covers the requested t-range."""


class ParseError(ZetaLabError):
    """Config file could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
