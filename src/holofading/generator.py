"""Sampling of the aperture harmonic series: coefficient draws, spectral
shaping, migration between z-planes, and IFFT synthesis on uniform grids.

Pipeline per realization (rectangular aperture):

    draw H+(l, m), H-(l, m) ~ complex normal, variance sigma2_lm each
    -> multiply by the shaping gains of the spectral factor
    -> H(l, m; z) = H+ e^{+i gamma_lm z} + H- e^{-i gamma_lm z}
    -> h(x_n, y_j) = sum over (l, m) of H e^{i 2 pi (l n / Nx + m j / Ny)}

The final sum is a zero-embedded 2D inverse FFT *without* the 1/(Nx*Ny)
normalization (the variance table already carries the physical scaling);
lattice index l maps to FFT bin l mod Nx and the output is reindexed onto
n = -Nx/2 .. Nx/2 - 1 by a half-grid cyclic shift (``synthesize``).
``plane_coefficients`` runs the stages before it (the per-plane H(l, m; z));
``generate_batch_planes`` synthesizes those. ``series_sum`` evaluates the
same series by direct summation, for the exact ACFs and the validation lag
windows.

``plane_coefficients`` draws, scales, shapes in place and migrates a row
block of realizations; ``coefficient_rows`` is how many fit
SUB_BLOCK_BYTES of coefficient draws (``block_rows``, which sizes the
CLI's ``generate`` tasks by the same budget). ``generate_batch_planes``
synthesizes each such block straight into its rows of the output block,
and the validation runs fold each block into their sums, so neither holds
more than one block of coefficients per task. Draws come from
counter-based streams, every later stage is elementwise per realization,
and each realization's IFFT is its own; so the block size changes no
output bit.

The aperture's sides fix the harmonics and their variances, so the
pipeline functions take the aperture alone and read its table from
``default_table``; only the table-level stages (draws, shaping, migration,
``series_sum``) take a table.

A line aperture uses the single-coefficient series h(x_n) = sum over l of
H_l e^{i 2 pi l n / N} with H_l of variance 2*sigma2_l, observed at
y = z = 0; migration off the line is not defined for it.

All lengths are in wavelength units (kappa = 2*pi).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import GridTooCoarse, MigrationRange
from .rng import complex_standard_normals
from .spectrum import SpectralFactor, line_shaping_gain, shaping_gains
from .variances import (
    CoefficientVariances1D,
    CoefficientVariances2D,
    table_1d,
    table_2d,
)
from .wavenumber import KAPPA, lattice_gammas, lattice_wavenumbers

LINEAR = "linear"
PLANAR = "planar"
VOLUMETRIC = "volumetric"

# the pipeline's one byte budget (``block_rows``): coefficient draws
# (``coefficient_rows``), compare-kl's baseline noise and the output of the
# CLI's ``generate`` tasks come in row blocks of about this many bytes, each
# at least one realization
SUB_BLOCK_BYTES = 1 << 20


def block_rows(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` bytes each fit SUB_BLOCK_BYTES; at
    least one, so a budget below one row still makes progress."""
    return max(1, SUB_BLOCK_BYTES // row_bytes)


@dataclass(frozen=True)
class Aperture:
    """Rectangular aperture geometry and its uniform sample grid.

    Side lengths and spacings are in wavelengths. ly = lz = 0 describes a
    line aperture, lz = 0 a planar one. Each x/y spacing must tile its side
    (L/d a whole number to a relative 1e-9), because synthesis samples the
    periodic series at n * L/N; the count N = L/d must be even. Along z,
    nothing is transformed, and nz = ceil(lz/dz). Spacings must respect the
    lambda/2 Nyquist limit of the 2*kappa-bandlimited field, and the grid
    must hold every harmonic of the aperture (N >= 2 * ceil(L/lambda)).
    """

    lx: float
    dx: float
    ly: float = 0.0
    dy: float = 0.0
    lz: float = 0.0
    dz: float = 0.0

    def __post_init__(self):
        if not (self.lx > 0.0 and self.dx > 0.0):
            raise ValueError("lx and dx must be positive")
        if self.ly < 0.0 or self.lz < 0.0:
            raise ValueError("side lengths must be nonnegative")
        if self.lz > 0.0 and self.ly == 0.0:
            raise ValueError("a volumetric aperture needs ly > 0")
        if self.lz > 0.0 and not self.lz < min(self.lx, self.ly):
            raise ValueError("lz must be smaller than min(lx, ly)")
        if self.lz > 0.0 and not self.dz > 0.0:
            raise ValueError("dz must be positive for a volumetric aperture")
        if self.ly > 0.0 and not self.dy > 0.0:
            raise ValueError("dy must be positive for a planar aperture")
        self._check_axis("x", self.lx, self.dx)
        if self.ly > 0.0:
            self._check_axis("y", self.ly, self.dy)

    @staticmethod
    def _check_axis(name, length, spacing):
        if spacing > 0.5 + 1e-12:
            raise GridTooCoarse(
                f"d{name} = {spacing:g} exceeds the Nyquist spacing of "
                "lambda/2 for the 2*kappa-bandlimited field"
            )
        ratio = length / spacing
        n = round(ratio)
        if abs(ratio - n) > 1e-9 * ratio:
            raise ValueError(
                f"d{name} = {spacing:g} does not tile the {length:g}-wavelength side: "
                f"L{name}/d{name} = {ratio:.10g} is not a whole number"
            )
        if n % 2 != 0:
            raise GridTooCoarse(
                f"N{name} = {n} must be even for the symmetric sample range"
            )
        if n < 2 * math.ceil(length):
            raise GridTooCoarse(
                f"N{name} = {n} cannot represent every harmonic of an "
                f"{length:g}-wavelength side (needs >= {2 * math.ceil(length)})"
            )

    @property
    def kind(self) -> str:
        if self.ly == 0.0:
            return LINEAR
        return VOLUMETRIC if self.lz > 0.0 else PLANAR

    @property
    def nx(self) -> int:
        return round(self.lx / self.dx)

    @property
    def ny(self) -> int:
        return round(self.ly / self.dy) if self.ly > 0.0 else 1

    @property
    def nz(self) -> int:
        return math.ceil(self.lz / self.dz) if self.lz > 0.0 else 1

    def z_planes(self) -> tuple[float, ...]:
        if self.lz > 0.0:
            return tuple(k * self.dz for k in range(self.nz))
        return (0.0,)

    def grid_x(self) -> np.ndarray:
        return np.arange(-(self.nx // 2), self.nx // 2) * self.dx

    def grid_y(self) -> np.ndarray:
        if self.ly == 0.0:
            return np.zeros(1)
        return np.arange(-(self.ny // 2), self.ny // 2) * self.dy

    def grid_coords(self) -> np.ndarray:
        """All sample coordinates as an (N, 3) array, x fastest, then y, z."""
        xs = self.grid_x()
        ys = self.grid_y()
        zs = np.asarray(self.z_planes())
        zz, yy, xx = np.meshgrid(zs, ys, xs, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])


@dataclass(frozen=True)
class CoefficientDraw:
    """Coefficient pairs per harmonic of a rectangular aperture's table:
    (n,) arrays for one realization, (B, n) arrays for a batch."""

    table: CoefficientVariances2D
    h_plus: np.ndarray
    h_minus: np.ndarray


@dataclass(frozen=True)
class FieldRealization:
    """Complex fading samples on the aperture grid, with the aperture and
    the z-planes they were synthesized on.

    ``samples`` has shape (len(z_planes), ny, nx), x fastest.
    """

    samples: np.ndarray
    aperture: Aperture
    z_planes: tuple[float, ...] = field(default=(0.0,))


def _scaled_normals(seed, realization, scale, per_harmonic) -> np.ndarray:
    """scale * complex standard normals, ``per_harmonic`` draws per harmonic
    from each realization's counter-based stream; shape (B, per_harmonic, n),
    without the leading axis for a single realization. The whole batch is
    one ``complex_standard_normals`` call, scaled in place in the block it
    returns; the result is a transposed view of that block."""
    n = len(scale)
    z = complex_standard_normals(seed, realization, per_harmonic * n)
    z = z.reshape(z.shape[:-1] + (n, per_harmonic))
    z *= scale[:, np.newaxis]
    return np.swapaxes(z, -1, -2)


def draw_coefficients(
    table: CoefficientVariances2D, seed: int, realization: int | Sequence[int] = 0
) -> CoefficientDraw:
    """Independent circularly-symmetric draws H+, H- with per-index variance
    sigma2_lm, from the counter-based stream of (seed, realization)."""
    h = _scaled_normals(seed, realization, np.sqrt(table.sigma_sq), 2)
    return CoefficientDraw(table, h[..., 0, :], h[..., 1, :])


@lru_cache(maxsize=8)
def _plane_gains(factor: SpectralFactor, lx: float, ly: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only shaping gains (g+, g-) at every harmonic of an lx x ly
    table. ``coefficient_indices`` fixes the harmonics from the sides, so
    one evaluation serves every batch of a run and either table method.
    The factor is keyed by identity."""
    gains = shaping_gains(factor, *lattice_wavenumbers(table_2d(lx, ly)), KAPPA)
    for g in gains:
        g.flags.writeable = False  # shared by every caller of the cache
    return gains


@lru_cache(maxsize=8)
def _line_gains(factor: SpectralFactor, lx: float) -> np.ndarray:
    """Read-only line shaping gain at every harmonic of an lx line table;
    the line counterpart of ``_plane_gains``."""
    gain = line_shaping_gain(factor, lattice_wavenumbers(table_1d(lx)))
    gain.flags.writeable = False  # shared by every caller of the cache
    return gain


@lru_cache(maxsize=8)
def _migration_phases(lx: float, ly: float, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only migration phases (e^{+i gamma z}, e^{-i gamma z}) at every
    harmonic of an lx x ly table, the second the conjugate of the first:
    one evaluation per plane serves every batch of a run."""
    phase = np.exp(1j * lattice_gammas(table_2d(lx, ly)) * z)
    phases = (phase, np.conj(phase))
    for p in phases:
        p.flags.writeable = False  # shared by every caller of the cache
    return phases


def _directional(factor: SpectralFactor | None) -> bool:
    """Whether the factor shapes anything: None means isotropic, and no
    factor is built for it."""
    return factor is not None and not factor.is_isotropic


def shape_coefficients(draw: CoefficientDraw, factor: SpectralFactor | None) -> CoefficientDraw:
    """Multiply each coefficient pair, in place, by the factor's shaping
    gains at its harmonic's wavenumber point, and return the draw: the
    pipeline owns its draw, so shaping allocates no copy. Isotropic
    factors (and None) are the identity."""
    if _directional(factor):
        gp, gm = _plane_gains(factor, draw.table.lx, draw.table.ly)
        np.multiply(draw.h_plus, gp, out=draw.h_plus)
        np.multiply(draw.h_minus, gm, out=draw.h_minus)
    return draw


def _check_planes(lx: float, ly: float, zs: Sequence[float]) -> None:
    """Reject planes outside the series' validity: |z| < min(Lx, Ly), and
    z = 0 only for a line aperture (ly = 0)."""
    for z in zs:
        if ly == 0.0 and z != 0.0:
            raise MigrationRange("a line aperture supports z = 0 only")
        if ly > 0.0 and abs(z) >= min(lx, ly):
            raise MigrationRange(
                f"|z| = {abs(z):g} outside the migration range of a "
                f"{lx:g} x {ly:g} wavelength aperture"
            )


def migrate(draw: CoefficientDraw, z: float) -> np.ndarray:
    """Per-harmonic coefficients on the plane at height z:
    H(z) = H+ e^{+i gamma z} + H- e^{-i gamma z}; at z = 0 both phases
    are exactly 1, so the plane is the sum H+ + H-.

    Raises:
        MigrationRange: if |z| >= min(Lx, Ly).
    """
    _check_planes(draw.table.lx, draw.table.ly, (z,))
    if z == 0.0:
        return np.add(draw.h_plus, draw.h_minus)
    up, down = _migration_phases(draw.table.lx, draw.table.ly, z)
    h = np.multiply(draw.h_plus, up)
    h += draw.h_minus * down  # two arrays held, not three
    return h


def synthesize(h: np.ndarray, aperture: Aperture, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the series of the coefficients h (any leading batch axes,
    in the harmonic order of the aperture's table) on the aperture grid:
    zero-embed them at their FFT bins, inverse FFT over the grid axes
    without the 1/N factor, and reindex onto n = -N/2 .. N/2 - 1.
    Returns (..., ny, nx); ny = 1 for a line aperture. The grid is written
    into ``out`` when one is given (a (..., ny, nx) array, which may be a
    view into a larger block), else into a new array."""
    table = default_table(aperture)
    line = aperture.kind == LINEAR
    axes = ((table.ls, aperture.nx),)
    if not line:
        axes = ((table.ms, aperture.ny),) + axes
    shape = tuple(n for _, n in axes)
    spec = np.zeros(h.shape[:-1] + shape, dtype=complex)
    # bins are distinct: Aperture guarantees N >= 2 * ceil(L), and the
    # indices span -ceil(L) .. ceil(L) - 1, one full period of the grid
    spec[(Ellipsis,) + tuple(idx % n for idx, n in axes)] = h
    grid = tuple(range(-len(shape), 0))
    np.fft.ifftn(spec, axes=grid, out=spec)
    if out is None:
        out = np.empty(h.shape[:-1] + (aperture.ny, aperture.nx), dtype=complex)
    # fftshift into out, undoing ifftn's 1/N on the way: every N is even,
    # so the shift swaps the two halves of each grid axis, one scaled copy
    # per combination of halves
    scale = math.prod(shape)
    halves = [(slice(None, n // 2), slice(n // 2, None)) for n in shape]
    swapped = [half[::-1] for half in halves]
    dest = out[..., 0, :] if line else out
    for to, src in zip(itertools.product(*halves), itertools.product(*swapped)):
        np.multiply(spec[(Ellipsis,) + src], scale, out=dest[(Ellipsis,) + to])
    return out


def draw_line_coefficients(
    table: CoefficientVariances1D,
    seed: int,
    realization: int | Sequence[int] = 0,
    factor: SpectralFactor | None = None,
) -> np.ndarray:
    """Single-coefficient draws H_l of variance 2*sigma2_l, optionally
    shaped by a spectral factor's line gain; (n,) for one realization,
    (B, n) for a sequence of them."""
    h = _scaled_normals(seed, realization, np.sqrt(2.0 * table.sigma_sq), 1)[..., 0, :]
    if _directional(factor):
        h *= _line_gains(factor, table.lx)
    return h


def default_table(aperture: Aperture) -> CoefficientVariances1D | CoefficientVariances2D:
    """Variance table of the aperture's sides (line or rectangle)."""
    if aperture.kind == LINEAR:
        return table_1d(aperture.lx)
    return table_2d(aperture.lx, aperture.ly)


def shared_table(aperture: Aperture, factor: SpectralFactor | None, z_planes: Sequence[float]):
    """The aperture's variance table, with the shaping gains of a
    directional ``factor`` and the migration phases of the ``z_planes``
    other than z = 0 (which needs none) already in their caches. Call it
    once before threads share a run:
    workers that meet cold caches together would each build the table and
    evaluate the gains, and a cache entry made on a worker thread stays in
    that thread's malloc arena, where it kept about 3 MB more of a
    256 x 256 ``generate`` resident."""
    table = default_table(aperture)
    if _directional(factor):
        if aperture.kind == LINEAR:
            _line_gains(factor, table.lx)
        else:
            _plane_gains(factor, table.lx, table.ly)
    if aperture.kind != LINEAR:
        for z in z_planes:
            if z != 0.0:
                _migration_phases(table.lx, table.ly, z)
    return table


def generate(
    aperture: Aperture,
    factor: SpectralFactor | None = None,
    seed: int = 0,
    z_planes: Sequence[float] | None = None,
    realization: int = 0,
) -> FieldRealization:
    """Full pipeline for one realization: draw, shape, migrate, synthesize.

    Args:
        aperture: geometry and grid.
        factor: spectral factor; None (the default) is isotropic.
        seed: RNG key; fixed seed gives bit-identical output.
        z_planes: planes to synthesize; defaults to the aperture's grid.
            A line aperture only supports z = 0.
        realization: realization counter within the seed's stream.

    Returns:
        FieldRealization with samples of shape (len(z_planes), ny, nx).
    """
    zs = tuple(z_planes) if z_planes is not None else aperture.z_planes()
    planes = generate_batch_planes(aperture, factor, seed, (realization,), zs)
    return FieldRealization(planes[:, 0], aperture, zs)


def plane_coefficients(
    aperture: Aperture,
    factor: SpectralFactor | None,
    seed: int,
    realizations: Sequence[int],
    z_planes: Sequence[float],
) -> list[np.ndarray]:
    """The coefficient stages of the pipeline over a batch of realizations:
    draw, shape, migrate to each z-plane. Returns one (B, n) array of
    per-harmonic coefficients per plane, in the table's harmonic order,
    each an array of its own that the caller may write over. ``factor``
    None is isotropic. A line aperture only supports z = 0.
    """
    _check_planes(aperture.lx, aperture.ly, z_planes)
    table = default_table(aperture)
    if aperture.kind == LINEAR:
        h = draw_line_coefficients(table, seed, realizations, factor)
        return [h, *(h.copy() for _ in z_planes[1:])]
    draw = shape_coefficients(draw_coefficients(table, seed, realizations), factor)
    return [migrate(draw, z) for z in z_planes]


def coefficient_rows(aperture: Aperture) -> int:
    """How many realizations' coefficient draws fit SUB_BLOCK_BYTES (at
    least one; one on a 256 x 256 grid): the row block of
    ``plane_coefficients`` calls."""
    per_harmonic = 1 if aperture.kind == LINEAR else 2  # H, or H+ and H-
    return block_rows(per_harmonic * len(default_table(aperture).ls) * np.dtype(complex).itemsize)


def generate_batch_planes(
    aperture: Aperture,
    factor: SpectralFactor | None,
    seed: int,
    realizations: Sequence[int],
    z_planes: Sequence[float],
) -> np.ndarray:
    """The synthesis pipeline over a batch of realizations: the
    ``plane_coefficients`` of each row block of ``coefficient_rows``
    realizations, synthesized plane by plane into its rows of one output
    block, so only one row block of coefficients is held at a time beside
    the output. The output block holds the whole batch; the CLI's
    ``generate`` keeps it near SUB_BLOCK_BYTES by passing batches of
    ``block_rows`` realizations of output. Returns the planes as one
    (len(z_planes), B, ny, nx) array, a plane-major view of the
    realization-major (B, len(z_planes), ny, nx) block; ``.swapaxes(0, 1)``
    gives that block back without a copy. Every realization is
    bit-identical to its single ``generate``. A line aperture only
    supports z = 0.
    """
    block = np.empty((len(realizations), len(z_planes), aperture.ny, aperture.nx), dtype=complex)
    rows = coefficient_rows(aperture)
    for a in range(0, len(realizations), rows):
        planes = plane_coefficients(aperture, factor, seed, realizations[a : a + rows], z_planes)
        for i, h in enumerate(planes):
            synthesize(h, aperture, block[a : a + rows, i])
    return block.swapaxes(0, 1)


def series_sum(weights: np.ndarray, table, lags, periods) -> np.ndarray:
    """Direct evaluation of the series sum_k w_k e^{i 2 pi (l_k x/Px + m_k y/Py)}
    on the outer grid of the lags (x, y) with periods (Px, Py); shape
    (len(x), len(y)), and (len(x), 1) for a line table, which reads only x.

    Integer lags with the sample counts (Nx, Ny) as periods are grid
    points; lags in wavelengths with the sides (Lx, Ly) are positions.
    Lag and index are multiplied and reduced mod the period before the
    phase is formed, so integer lags stay exact.
    """

    def phases(x, idx, period):
        return np.exp(2j * np.pi * (np.outer(x, idx) % period / period))

    ex = phases(lags[0], table.ls, periods[0])
    if not isinstance(table, CoefficientVariances2D):
        return (ex * weights).sum(axis=1, keepdims=True)
    return (ex * weights) @ phases(lags[1], table.ms, periods[1]).T


def lattice_acf_1d(table: CoefficientVariances1D, lags: np.ndarray) -> np.ndarray:
    """Exact series autocorrelation c_N(r) = sum 2*sigma2_l e^{i2pi l r/Lx}
    of the line generator at the given lags (wavelength units)."""
    return series_sum(2.0 * table.sigma_sq, table, (lags,), (table.lx,))[:, 0]


def lattice_acf_2d(
    table: CoefficientVariances2D, lags_x: np.ndarray, lags_y: np.ndarray
) -> np.ndarray:
    """Exact series autocorrelation of the rectangular generator on the
    outer grid of x/y lags (wavelength units); shape (len(x), len(y))."""
    return series_sum(2.0 * table.sigma_sq, table, (lags_x, lags_y), (table.lx, table.ly))
