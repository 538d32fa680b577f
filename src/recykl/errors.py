"""Exception types shared across the library."""


class RecyklError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(RecyklError):
    pass


class NotPositiveDefinite(RecyklError):
    """A matrix that must be SPD failed a factorization.

    ``pivot`` is the zero-based index of the first non-positive pivot when
    known, else None.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class NotSymmetric(RecyklError):
    pass


class RankDeficient(RecyklError):
    pass


class IterationLimit(RecyklError):
    pass


class Breakdown(RecyklError):
    """Conjugate-gradient breakdown: a direction with p'Ap <= 0 or a non-finite residual.

    ``iterations`` counts the iterations the run spent, the broken one
    included, when known, else None.
    """

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class NotConverged(RecyklError):
    """Iteration budget exhausted before the tolerance was met.

    Carries the partial result so callers can inspect or continue.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class EmptyBasis(RecyklError):
    pass


class NoHistory(RecyklError):
    pass


class RegimeInapplicable(RecyklError):
    """A bound-check regime's preconditions do not hold for the instance."""


class ManifestError(RecyklError):
    pass
