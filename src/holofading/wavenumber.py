"""The dispersion map of the aperture harmonics.

Propagating plane waves occupy a disk of radius kappa = 2*pi/lambda in the
(kx, ky) plane; the vertical component is fixed by the dispersion relation
gamma = sqrt(kappa^2 - kx^2 - ky^2). A rectangular aperture of side lengths
(Lx, Ly) samples that disk at the harmonic lattice points
(2*pi*l/Lx, 2*pi*m/Ly); the index set itself is the table's
(``variances.table_2d``).

Lengths are wavelength-normalized (lambda = 1, kappa = 2*pi).
"""
from __future__ import annotations

import math

import numpy as np

from .variances import CoefficientVariances1D, CoefficientVariances2D

KAPPA = 2.0 * math.pi


def lattice_wavenumbers(
    table: CoefficientVariances1D | CoefficientVariances2D, part: slice = slice(None)
):
    """Wavenumber points (2*pi*l/Lx, 2*pi*m/Ly) of the table's harmonics,
    or of the slice ``part`` of them; for a line table, the array
    2*pi*l/Lx alone."""
    kx = KAPPA * table.ls[part] / table.lx
    if isinstance(table, CoefficientVariances1D):
        return kx
    return kx, KAPPA * table.ms[part] / table.ly


def lattice_gammas(table: CoefficientVariances2D) -> np.ndarray:
    """Vertical wavenumbers of the table's harmonics.

    Rim cells can carry in-disk power while their integer lattice point sits
    just outside the disk; their gamma is clamped to 0 (grazing incidence),
    which leaves all same-plane second-order statistics untouched.
    """
    s = (table.ls / table.lx) ** 2 + (table.ms / table.ly) ** 2
    return KAPPA * np.sqrt(np.clip(1.0 - s, 0.0, None))
