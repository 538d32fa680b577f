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


class EmptyBasis(RecyklError):
    pass


class NoHistory(RecyklError):
    pass


class RegimeInapplicable(RecyklError):
    """A bound-check regime's preconditions do not hold for the instance."""


class ManifestError(RecyklError):
    pass
