"""Statistically exact synthesis of spatially-stationary small-scale fading
over compact line, planar and volumetric apertures, with closed-form and
dense-baseline validation tooling."""

__version__ = "0.1.0"

from .baseline import (
    AcfClosedForm,
    CorrelationMatrix,
    clarke_acf_2d,
    clarke_acf_3d,
    correlation_matrix,
    kl_sample,
)
from .errors import (
    ConfigError,
    GridTooCoarse,
    GridTooLarge,
    HoloFadingError,
    IndexOutOfBand,
    InsufficientRealizations,
    LagMismatch,
    MigrationRange,
    NotPSD,
)
from .generator import (
    Aperture,
    CoefficientDraw,
    FieldRealization,
    draw_coefficients,
    generate,
    lattice_acf_1d,
    lattice_acf_2d,
    migrate,
    shape_coefficients,
    synthesize,
)
from .spectrum import (
    SpectralFactor,
    isotropic_factor_2d,
    isotropic_factor_3d,
)
from .validation import (
    AcfEstimate,
    compare,
    compare_kl,
    empirical_acf,
    lambda_half_independence,
    run_figure,
)
from .variances import (
    CoefficientVariances1D,
    CoefficientVariances2D,
    coefficient_indices,
    table_1d,
    table_2d,
    variance_1d,
    variance_2d_closed_form,
    variance_2d_quadrature,
)

__all__ = [name for name in dir() if not name.startswith("_")]
