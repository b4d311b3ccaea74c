"""Exception types shared across the package."""


class TscError(Exception):
    """Base class for all errors raised by this library."""


class ZeroVector(TscError):
    """A column that should be normalizable is exactly zero."""

    def __init__(self, column: int):
        super().__init__(f"column {column} is zero and cannot be normalized")
        self.column = column


class NonFinite(TscError):
    """Input contains NaN or Inf where finite values are required."""


class InvalidK(TscError):
    """k-means cluster count outside [1, n]."""


class QTooLarge(TscError):
    """Neighbor count q exceeds N - 1."""


class TooFewPoints(TscError):
    """Operation needs more points than were supplied."""


class InvalidDims(TscError):
    """Dimensional arguments are inconsistent (e.g. d > m)."""


class LengthMismatch(TscError):
    """Two sequences that must align have different lengths."""


class ConfigError(TscError):
    """Invalid configuration value (CLI flag, experiment spec field, ...)."""


class FileFormatError(TscError):
    """A point CSV or an IDX file does not hold what its format requires."""


class BadMagic(FileFormatError):
    """IDX file starts with an unexpected magic number."""


class DimMismatch(FileFormatError):
    """IDX dimensions are unsupported or inconsistent across files."""


class TruncatedFile(FileFormatError):
    """IDX file ends before the header-promised payload."""


class InsufficientImages(TscError):
    """A digit class has fewer images than the requested sample size."""
