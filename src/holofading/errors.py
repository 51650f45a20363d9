"""Exception types shared across the package."""


class HoloFadingError(Exception):
    """Base class for every error raised by this package."""


class MigrationRange(HoloFadingError):
    """Requested z-plane outside the validity range of the series expansion."""


class GridTooCoarse(HoloFadingError):
    """Sample grid cannot represent every aperture harmonic."""


class GridTooLarge(HoloFadingError):
    """Dense-baseline grid exceeds the desk-scale point cap."""


class NotPSD(HoloFadingError):
    """Correlation matrix has an eigenvalue below the PSD tolerance."""


class InsufficientRealizations(HoloFadingError):
    """Too few Monte Carlo realizations for the requested estimate."""


class ConfigError(HoloFadingError):
    """Bad command-line flag or configuration-file entry."""
