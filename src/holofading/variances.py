"""Per-harmonic variances of the aperture series for isotropic scattering.

Every length is in wavelengths (lambda = 1, kappa = 2*pi), and no function
here takes the wavelength: a side of Lx wavelengths samples the unit disk
of kx/kappa in steps of 1/Lx.

Line aperture of length Lx: harmonic l in {-Lx, ..., Lx - 1} carries

    sigma2_l = (1/2pi) * (arcsin((l+1)/Lx) - arcsin(l/Lx))

for l >= 0, mirrored through sigma2_{-l-1} = sigma2_l. The sum of 2*sigma2
over the full index range telescopes to exactly 1.

Rectangular aperture (Lx, Ly): harmonic (l, m) carries the isotropic
spectral mass of its wavenumber cell

    sigma2_lm = (1/4pi) * integral over
                [l/Lx, (l+1)/Lx] x [m/Ly, (m+1)/Ly]
                of 1_{unit disk}(kx, ky) / sqrt(1 - kx^2 - ky^2)

i.e. the solid angle subtended on the unit hemisphere by the in-disk part
of the cell, over 4pi. Negative indices mirror through the same reflection
as in 1D: the cell of (-l-1, m) is the image of the cell of (l, m) across
the ky axis.

The table computes the cell mass by its exact antiderivative: the corner
mass V(a, b) over [0, a] x [0, b] intersected with the disk has a closed
form (see ``_corner_mass``), and a cell is an inclusion-exclusion of four
corners. The test suite holds every cell to an independent adaptive polar
quadrature of the same integral (``variance_2d_quadrature`` in
``tests/oracles.py``).

The table evaluates ``_corner_mass`` once per lattice corner
(i/Lx, j/Ly) and forms every cell from its four corners as array
operations, in the operand order of the per-cell inclusion-exclusion, so
each entry is bitwise that scalar sum (``variance_2d_closed_form`` in
``tests/oracles.py``, which the test suite holds the table to). It is
built as a mask and a gather: the coverage mask over the (m, l) index
grid gives sigma2, gathered from the mirrored cell grid under it, and
the indices, by ``np.nonzero`` shifted in place, both in row-major order;
so no harmonic-length array is made beside the table's own three (``ls``
and ``ms`` are the two columns of nonzero's one index block).
The line table likewise evaluates arcsin once per cell edge l/Lx and
forms each cell as the difference of its two edges, bitwise the scalar
``variance_1d`` of ``tests/oracles.py``. Both stay scalar ``math`` calls:
vectorized arcsin/arctan2 can differ in the last bit.

The table index set is the cell-coverage set: all (l, m) in
{-ceil(Lx) .. ceil(Lx)-1} x {same in y} whose mirrored cell
corner lies strictly inside the unit disk. This is the 2D analog of the 1D
index range above; the covered cells tile the disk exactly, so the table's
total power 1 is preserved at every aperture size. Its scalar reference,
which the table's ls and ms are held to, is ``coefficient_indices`` in
``tests/oracles.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _fold(idx: np.ndarray) -> np.ndarray:
    """Mirror signed cell indices into the first quadrant: -l-1 <-> l."""
    return np.where(idx >= 0, idx, -idx - 1)


# ---------------------------------------------------------------------------
# line aperture
# ---------------------------------------------------------------------------

def _band_1d(lx: float) -> int:
    n = round(lx)
    if abs(lx - n) > 1e-9 or n < 1:
        raise ValueError(
            f"Lx/lambda must be a positive integer for the line series, got {lx:g}"
        )
    return n


@dataclass(frozen=True)
class CoefficientVariances1D:
    """Variance table of the line series; one coefficient per harmonic,
    each drawn with variance 2*sigma2_l."""

    lx: float
    ls: np.ndarray        # full index range, ascending
    sigma_sq: np.ndarray  # sigma2_l per index

    def total_power(self) -> float:
        return float(np.sum(2.0 * self.sigma_sq))


@lru_cache(maxsize=32)
def _table_1d_cached(lx):
    n = _band_1d(lx)
    ls = np.arange(-n, n)
    edges = np.array([math.asin(i / n) for i in range(n + 1)])  # cell edges first, then cells
    sig = ((edges[1:] - edges[:-1]) / (2.0 * math.pi))[_fold(ls)]
    for arr in (ls, sig):
        arr.flags.writeable = False  # shared by every caller of the cache
    return CoefficientVariances1D(lx=lx, ls=ls, sigma_sq=sig)


def table_1d(lx: float) -> CoefficientVariances1D:
    return _table_1d_cached(float(lx))


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def _corner_mass(a: float, b: float) -> float:
    """Exact mass of [0, a] x [0, b] intersected with the unit disk.

    When the corner (a, b) lies on or outside the rim the region is a
    spherical lune of mass (pi/2)(a + b - 1) exactly. Inside, the closed
    form is written through the complementary small arguments sqrt(s) with
    s = 1 - a^2 - b^2, so nothing is evaluated near a branch point and the
    result stays accurate for corners arbitrarily close to the rim.
    """
    a = min(max(a, 0.0), 1.0)
    b = min(max(b, 0.0), 1.0)
    if a == 0.0 or b == 0.0:
        return 0.0
    base = 0.5 * math.pi * (a + b - 1.0)
    s = 1.0 - a * a - b * b
    if s <= 0.0:
        return base
    t = math.sqrt(s)
    bracket = (
        math.atan2(t, a * b)
        - a * math.asin(min(1.0, t / math.sqrt(1.0 - a * a)))
        - b * math.asin(min(1.0, t / math.sqrt(1.0 - b * b)))
    )
    return base + bracket


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientVariances2D:
    """Variance table of the rectangular-aperture series.

    Each index carries two independent coefficient draws (up/downgoing),
    each of variance sigma2_lm.
    """

    lx: float
    ly: float
    ls: np.ndarray        # (n,) signed l indices
    ms: np.ndarray        # (n,) signed m indices
    sigma_sq: np.ndarray  # (n,) sigma2_lm

    def total_power(self) -> float:
        return float(np.sum(2.0 * self.sigma_sq))


def _closed_form_cells(lx: float, ly: float) -> np.ndarray:
    """Closed-form sigma2 of every first-quadrant cell, indexed [lf, mf].

    ``_corner_mass`` runs once per lattice corner (i/lx, j/ly), into one
    preallocated grid; each cell is then the inclusion-exclusion of its
    four corners, (x2, y2) - (x1, y2) - (x2, y1) + (x1, y1) in that operand
    order, so every value is bitwise the scalar sum over the cell's corners.
    """
    nx, ny = math.ceil(lx), math.ceil(ly)
    c = np.empty((nx + 1, ny + 1))
    for i in range(nx + 1):
        c[i] = [_corner_mass(i / lx, j / ly) for j in range(ny + 1)]
    mass = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
    return np.maximum(mass, 0.0) / (4.0 * math.pi)


@lru_cache(maxsize=32)
def _table_2d_cached(lx, ly):
    nx, ny = math.ceil(lx), math.ceil(ly)
    fl, fm = _fold(np.arange(-nx, nx)), _fold(np.arange(-ny, ny))
    x1, y1 = fl / lx, fm / ly
    # the coverage mask over the (m, l) grid, m outer; an aperture too large
    # for the host fails here, before the corner loop
    covered = (x1 * x1)[np.newaxis, :] + (y1 * y1)[:, np.newaxis] < 1.0
    # sigma2 of the mirrored cell grid under the mask, in row-major order
    sig = _closed_form_cells(lx, ly).T[np.ix_(fm, fl)][covered]
    ms, ls = np.nonzero(covered)  # the same row-major order, shifted in place
    ms -= ny
    ls -= nx
    table = CoefficientVariances2D(lx=lx, ly=ly, ls=ls, ms=ms, sigma_sq=sig)
    for arr in (ls, ms, sig):
        arr.flags.writeable = False  # shared by every caller of the cache
    return table


def table_2d(lx: float, ly: float) -> CoefficientVariances2D:
    """Build the full variance table of a rectangular aperture (sides in
    wavelengths) from the closed-form cell masses."""
    return _table_2d_cached(float(lx), float(ly))
