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

Two independent routes compute the cell mass:

* ``variance_2d_quadrature``: adaptive quadrature in polar coordinates.
  The substitution k_r = sin(u) removes the boundary singularity and makes
  the radial integral elementary; the remaining angular integral is
  adaptive with breakpoints wherever the active radial bound changes.
  This route is the authoritative oracle.
* the closed-form table: exact antiderivative. The corner mass V(a, b)
  over [0, a] x [0, b] intersected with the disk has a closed form (see
  ``_corner_mass``), and a cell is an inclusion-exclusion of four
  corners. Accepted only on agreement with the quadrature oracle.

The closed-form table evaluates ``_corner_mass`` once per lattice corner
(i/Lx, j/Ly) and forms every cell from its four corners as array
operations, in the operand order of the per-cell inclusion-exclusion, so
each entry is bitwise that scalar sum (``variance_2d_closed_form`` in
``tests/oracles.py``, which the test suite holds the table to).
The line table likewise evaluates arcsin once per cell edge l/Lx and
forms each cell as the difference of its two edges, bitwise the scalar
``variance_1d`` of ``tests/oracles.py``. Both stay scalar ``math`` calls:
vectorized arcsin/arctan2 can differ in the last bit. Only the quadrature
oracle imports ``scipy.integrate``, on first use, so a command that builds
closed-form tables never loads it.

The table index set is the cell-coverage set: all (l, m) in
{-ceil(Lx) .. ceil(Lx)-1} x {same in y} whose mirrored cell
corner lies strictly inside the unit disk. This is the 2D analog of the 1D
index range above; the covered cells tile the disk exactly, so the table's
total power 1 is preserved at every aperture size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexOutOfBand

DEFAULT_QUAD_TOL = 1e-10


def fold_index(i: int) -> int:
    """Mirror a signed cell index into the first quadrant: -l-1 <-> l."""
    return i if i >= 0 else -i - 1


def _fold(idx: np.ndarray) -> np.ndarray:
    """``fold_index`` over an int array."""
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
# rectangular aperture: cell geometry
# ---------------------------------------------------------------------------

def _cell_bounds(l: int, m: int, lx: float, ly: float):
    """First-quadrant cell of (l, m) in disk units (kx/kappa, ky/kappa)."""
    lf, mf = fold_index(l), fold_index(m)
    return lf / lx, (lf + 1) / lx, mf / ly, (mf + 1) / ly


def _in_band_2d(l: int, m: int, lx: float, ly: float) -> bool:
    """Admissible indices, the members of ``coefficient_indices``: the
    mirrored cell's lower corner lies strictly inside the unit disk (so l
    and m lie in their index ranges)."""
    x1, _, y1, _ = _cell_bounds(l, m, lx, ly)
    return x1 * x1 + y1 * y1 < 1.0


def coefficient_indices(lx: float, ly: float) -> np.ndarray:
    """Index set of the rectangular-aperture table: all (l, m) whose cell
    overlaps the unit disk with positive measure (sides in wavelengths).

    Returns an (n, 2) int array in deterministic row-major order (m outer,
    l inner, ascending).
    """
    lx, ly = float(lx), float(ly)
    nx, ny = math.ceil(lx), math.ceil(ly)
    ls, ms = np.arange(-nx, nx), np.arange(-ny, ny)
    x1 = _fold(ls) / lx
    y1 = _fold(ms) / ly
    covered = (x1 * x1)[np.newaxis, :] + (y1 * y1)[:, np.newaxis] < 1.0
    mm, ll = np.nonzero(covered)  # row-major: m outer, l inner
    return np.stack([ls[ll], ms[mm]], axis=1)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def _angular_mass(phi, x1, x2, y1, y2):
    """sqrt(1 - r_lo^2) - sqrt(1 - r_hi^2): the radial integral of the cell
    column at azimuth phi after the k_r = sin(u) substitution."""
    c, s = math.cos(phi), math.sin(phi)
    r_lo = 0.0
    if x1 > 0.0:
        r_lo = x1 / c
    if y1 > 0.0:
        r_lo = max(r_lo, y1 / s)
    r_hi = 1.0
    if c > 0.0:
        r_hi = min(r_hi, x2 / c)
    if s > 0.0:
        r_hi = min(r_hi, y2 / s)
    if r_lo >= 1.0 or r_hi <= r_lo:
        return 0.0
    return math.sqrt(1.0 - r_lo * r_lo) - math.sqrt(max(0.0, 1.0 - r_hi * r_hi))


def _cell_mass_quadrature(x1, x2, y1, y2, tol):
    """Disk-clipped cell mass by adaptive angular quadrature.

    The angular integrand is piecewise smooth except for square-root
    behavior where a radial bound crosses the rim; every such crossing is a
    breakpoint, and each smooth piece is integrated under the substitution
    phi = endpoint +/- u^2, which flattens the sqrt endpoints.
    """
    from scipy import integrate  # only the oracle needs it; keeps start-up lean

    if x1 * x1 + y1 * y1 >= 1.0:
        return 0.0
    phi_lo = math.atan2(y1, x2)
    phi_hi = math.atan2(y2, x1)
    # Breakpoints where the active radial bound changes or meets the rim.
    candidates = [math.atan2(y1, x1), math.atan2(y2, x2)]
    for v in (x1, x2):
        if 0.0 < v < 1.0:
            candidates.append(math.acos(v))
    for v in (y1, y2):
        if 0.0 < v < 1.0:
            candidates.append(math.asin(v))
    points = sorted({phi_lo, phi_hi, *[p for p in candidates if phi_lo < p < phi_hi]})
    total = 0.0
    eps = tol * 4.0 * math.pi / (2.0 * max(len(points) - 1, 1))
    for a, b in zip(points[:-1], points[1:]):
        if b - a < 1e-15:
            continue
        mid = 0.5 * (a + b)
        for lo, sign in ((a, 1.0), (b, -1.0)):
            half = math.sqrt(abs(mid - lo))

            def g(u, lo=lo, sign=sign):
                return 2.0 * u * _angular_mass(lo + sign * u * u, x1, x2, y1, y2)

            val, _ = integrate.quad(g, 0.0, half, epsabs=eps, epsrel=1e-13, limit=200)
            total += val
    return total


def variance_2d_quadrature(
    l: int, m: int, lx: float, ly: float, tol: float = DEFAULT_QUAD_TOL
) -> float:
    """Variance sigma2_lm by the polar quadrature oracle.

    Args:
        l, m: harmonic index.
        lx, ly: aperture side lengths in wavelengths.
        tol: absolute tolerance on the returned variance.

    Raises:
        IndexOutOfBand: index outside the admissible band.
    """
    if not _in_band_2d(l, m, lx, ly):
        raise IndexOutOfBand(f"index ({l}, {m}) outside the admissible band")
    x1, x2, y1, y2 = _cell_bounds(l, m, lx, ly)
    return _cell_mass_quadrature(x1, x2, y1, y2, tol) / (4.0 * math.pi)


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

    ``_corner_mass`` runs once per lattice corner (i/lx, j/ly); each cell is
    then the inclusion-exclusion of its four corners, (x2, y2) - (x1, y2) -
    (x2, y1) + (x1, y1) in that operand order, so every value is bitwise
    the scalar sum over the cell's corners.
    """
    nx, ny = math.ceil(lx), math.ceil(ly)
    c = np.array(
        [[_corner_mass(i / lx, j / ly) for j in range(ny + 1)] for i in range(nx + 1)]
    )
    mass = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
    return np.maximum(mass, 0.0) / (4.0 * math.pi)


@lru_cache(maxsize=32)
def _table_2d_cached(lx, ly, method):
    idx = coefficient_indices(lx, ly)
    folded = _fold(idx)
    if method == "closed-form":
        cells = _closed_form_cells(lx, ly)
    elif method == "quadrature":
        cells = np.zeros((math.ceil(lx), math.ceil(ly)))
        # distinct first-quadrant cells only; mirrors share the value
        for lf, mf in set(map(tuple, folded.tolist())):
            cells[lf, mf] = variance_2d_quadrature(lf, mf, lx, ly)
    else:
        raise ValueError(f"unknown method {method!r}")
    sig = cells[folded[:, 0], folded[:, 1]]
    table = CoefficientVariances2D(
        lx=lx, ly=ly, ls=idx[:, 0].copy(), ms=idx[:, 1].copy(), sigma_sq=sig
    )
    for arr in (table.ls, table.ms, table.sigma_sq):
        arr.flags.writeable = False  # shared by every caller of the cache
    return table


def table_2d(lx: float, ly: float, method: str = "closed-form") -> CoefficientVariances2D:
    """Build the full variance table of a rectangular aperture.

    Args:
        lx, ly: aperture side lengths in wavelengths.
        method: 'closed-form' (fast path) or 'quadrature' (the oracle at
            its default tolerance).
    """
    return _table_2d_cached(float(lx), float(ly), method)
