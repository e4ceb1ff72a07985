"""Exception types shared across the package."""


class SpectestError(Exception):
    """Base class for package-specific failures."""


class NotPositiveDefinite(SpectestError):
    """A matrix required to be Hermitian positive definite is not."""


class NonPositiveEigenvalue(SpectestError):
    """A relative eigenvalue is zero or negative where positivity is required."""


class BandwidthTooLarge(SpectestError):
    """Smoothing span m does not satisfy m < n/2."""


class EmptyGrid(SpectestError):
    """A bandwidth candidate grid is empty."""


class NoUsableSpan(SpectestError):
    """Every candidate span gives a non-positive-definite leave-out estimate."""


class SingularCovariance(SpectestError):
    """A sample covariance matrix is singular or indefinite."""


class NoConvergence(SpectestError):
    """An iterative solver exhausted its iteration budget."""


class AlignmentMismatch(SpectestError):
    """Two spectral sequences disagree in length or dimension."""


class DegenerateVariance(SpectestError):
    """A variance parameter required to be positive is not."""


class NonStationary(SpectestError):
    """An autoregressive operator has spectral radius >= 1."""


class ParseError(SpectestError):
    """Malformed tabular input; message carries the location."""


class RaggedRows(ParseError):
    """A data row has the wrong number of fields."""


class NonNumeric(ParseError):
    """A data cell failed to parse as a float."""


class TooShort(ParseError):
    """Fewer observations than the minimum supported length."""
