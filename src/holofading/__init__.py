"""Statistically exact synthesis of spatially-stationary small-scale fading
over compact line, planar and volumetric apertures, with closed-form and
dense-baseline validation tooling.

The package root exports the generation entry point and the error classes;
every other name is imported from its module (``holofading.variances``,
``holofading.validation``, ...). All lengths are in wavelengths.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GridTooCoarse,
    GridTooLarge,
    HoloFadingError,
    InsufficientRealizations,
    MigrationRange,
    NotPSD,
)
from .generator import Aperture, FieldRealization, generate
from .spectrum import SpectralFactor

__all__ = [
    "Aperture",
    "FieldRealization",
    "SpectralFactor",
    "generate",
    "HoloFadingError",
    "ConfigError",
    "GridTooCoarse",
    "GridTooLarge",
    "InsufficientRealizations",
    "MigrationRange",
    "NotPSD",
]
