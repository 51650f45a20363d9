"""Sampling of the aperture harmonic series: coefficient draws, migration
between z-planes, and IFFT synthesis on uniform grids.

Pipeline per realization:

    draw H+(l, m), H-(l, m) ~ complex normal, variance sigma2_lm g+-^2
    -> H(l, m; z) = H+ e^{+i gamma_lm z} + H- e^{-i gamma_lm z}
    -> h(x_n, y_j) = sum over (l, m) of H e^{i 2 pi (l n / Nx + m j / Ny)}

A directional environment is the isotropic one through a memoryless
wavenumber gain g (``spectrum``), so a shaped coefficient is a circular
complex normal of variance sigma2 g^2: the gains are in the draws'
standard deviations, and there is no shaping stage. On a single plane the
first two steps are one draw: the harmonics are independent and
|e^{+-i gamma z}| = 1, so H(l, m; z) is one circular complex normal of
variance sigma2_lm (g+^2 + g-^2), 2*sigma2_lm when isotropic. A line
aperture is the same series with one coefficient per harmonic:
h(x_n) = sum over l of H_l e^{i 2 pi l n / N}, H_l of variance
2*sigma2_l g_l^2 (H+ and H- lumped into one draw), observed at y = z = 0;
migration off the line is not defined for it. So every run draws p
coefficients per harmonic into one (p, n) block per realization: p = 2
(H+, H-) for a rectangle over several z-planes, p = 1 for a single-plane
rectangle (its H(z)) and for a line (its H). The stages index that block,
never the aperture's kind.

The final sum is a zero-embedded 2D inverse FFT *without* the 1/(Nx*Ny)
normalization (the variance table already carries the physical scaling);
lattice index l maps to FFT bin l mod Nx and the output is reindexed onto
n = -Nx/2 .. Nx/2 - 1 by a half-grid cyclic shift (``_grid_series``).
``plane_coefficients`` runs the stages before it (the per-plane H(l, m; z));
``generate_batch_planes`` synthesizes those. ``series_sum`` evaluates the
same series by direct summation, for the exact ACFs and the validation lag
windows.

``plane_coefficients`` draws, scales and migrates a row block of
realizations over the harmonics of the record it is given, a
run's ``run_constants`` or a slice ``run[part]`` of it.
``coefficient_rows`` is how many realizations of a run's draws fit
SUB_BLOCK_BYTES (``block_rows``, which sizes the CLI's ``generate`` tasks
by the same budget). The validation runs fold each block into their sums.
``generate_batch_planes`` zero-embeds each block straight into its rows of
the output block, then transforms those rows in place, so the output
block is also the spectrum: a realization of at most ``rng._SLICE`` draws
goes in one piece, and a larger one (a 256 x 256 grid) in slices of
``rng._SLICE`` draws, each scattered into the output before the next is
drawn. So a task holds its output block and one slice of coefficients per
realization of its row block. Draws come from counter-based streams, every
later stage is elementwise per harmonic, and each realization's IFFT is
its own; so neither the block size nor the slices change an output bit.

The aperture, the factor and the z-planes fix everything a realization
reads per harmonic: the draws' standard deviations (gains included), the
migration phases and the FFT bins. ``run_constants`` computes them once
per run into one read-only record. The stages (draws, migration,
embedding) take its arrays and ``plane_coefficients`` takes the
record; ``generate_batch_planes`` takes the aperture, the factor and the
planes and looks the record up once per call.

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
from .rng import _SLICE, complex_standard_normals
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
    periodic series at n * L/N; the count N = L/d must be finite and even. Along z,
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
        if not all(map(math.isfinite, (self.lx, self.dx, self.ly, self.dy, self.lz, self.dz))):
            raise ValueError("side lengths and spacings must be finite")
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
        sides = ((self.lx, self.dx), (self.ly, self.dy), (self.lz, self.dz))
        if not all(math.isfinite(side / spacing) for side, spacing in sides if side > 0.0):
            raise ValueError("every sample count L/d must be finite")
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


@dataclass(frozen=True, eq=False)
class RunConstants:
    """What every realization of a run reads per harmonic, fixed by the
    aperture, the factor and the z-planes (``run_constants``): read-only
    arrays over the table's harmonics, or over the slice of them that
    begins at harmonic ``start``.

    ``std`` is the (p, n) standard deviation of each of a harmonic's p
    draws, the shaping gains folded in: sqrt(sigma2_lm g+^2) and
    sqrt(sigma2_lm g-^2) of a multi-plane rectangle's (H+, H-), one
    broadcast row of sqrt(sigma2_lm) when isotropic; sqrt(sigma2_lm (g+^2
    + g-^2)) of a single-plane rectangle's one H(z); sqrt(2 sigma2_l g^2)
    of a line's one H (g = 1 when isotropic). ``phases`` holds, per
    z-plane, its ``migration_phases`` e^{+i gamma z}, and None at z = 0
    and on a single-plane rectangle, where they cancel in the one draw.
    ``bins`` are the FFT bins on
    the aperture grid, (m mod Ny) * Nx + (l mod Nx), and l mod Nx for a
    line; they are distinct, because Aperture guarantees N >= 2 * ceil(L)
    and the indices span -ceil(L) .. ceil(L) - 1, one full period of the
    grid.
    ``run[part]`` is the record over the harmonics ``part``: views of these
    arrays.
    """

    std: np.ndarray
    phases: tuple[np.ndarray | None, ...]
    bins: np.ndarray
    start: int = 0

    def __getitem__(self, part: slice) -> RunConstants:
        return RunConstants(
            self.std[:, part],
            tuple(None if p is None else p[part] for p in self.phases),
            self.bins[part],
            self.start + part.indices(len(self.bins))[0],
        )


@dataclass(frozen=True)
class FieldRealization:
    """Complex fading samples on the aperture grid, with the aperture and
    the z-planes they were synthesized on.

    ``samples`` has shape (len(z_planes), ny, nx), x fastest.
    """

    samples: np.ndarray
    aperture: Aperture
    z_planes: tuple[float, ...] = field(default=(0.0,))


def draw_coefficients(std: np.ndarray, seed: int, realization=0, start: int = 0) -> np.ndarray:
    """Independent circularly-symmetric draws of standard deviation ``std``
    (``RunConstants.std``, (p, n): p draws per harmonic) from the
    counter-based stream of (seed, realization): (p, n) for one
    realization, (B, p, n) for a sequence of them. Draw j of harmonic k is
    draw p * k + j of the stream, so a slice of a run's ``std`` and its
    ``start`` (p * start even) give that slice of the whole draw. The
    batch is one ``complex_standard_normals`` call, scaled in place; the
    result is a transposed view of that block."""
    p, n = std.shape
    h = complex_standard_normals(seed, realization, p * n, start=p * start)
    h = h.reshape(h.shape[:-1] + (n, p))
    h *= std.T
    return np.swapaxes(h, -1, -2)


def migration_phases(table, z: float) -> np.ndarray:
    """Migration phase e^{+i gamma z} at every harmonic of a rectangle's
    table; ``migrate`` takes its conjugate for the down-going term.

    Raises:
        MigrationRange: for a line's table, which supports z = 0 only (and
            needs no phases there), and where |z| >= min(Lx, Ly).
    """
    _check_plane(table, z)
    return np.exp(1j * lattice_gammas(table) * z)


def _check_plane(table, z: float) -> None:
    """Raises MigrationRange unless the rectangle's table supports the
    plane z: a line's table supports no z != 0, a rectangle's |z| <
    min(Lx, Ly)."""
    if not isinstance(table, CoefficientVariances2D):
        raise MigrationRange("a line aperture supports z = 0 only")
    if abs(z) >= min(table.lx, table.ly):
        raise MigrationRange(
            f"|z| = {abs(z):g} outside the migration range of a "
            f"{table.lx:g} x {table.ly:g} wavelength aperture"
        )


def migrate(h: np.ndarray, phase: np.ndarray | None, only: bool = False) -> np.ndarray:
    """Per-harmonic coefficients, a new array, on the plane of the
    ``migration_phases`` e^{+i gamma z} at height z, from the (..., p, n)
    draws h: H(z) = H+ e^{+i gamma z} + H- e^{-i gamma z}, the second phase
    the (exact) conjugate of the first. None is the plane z = 0, where both
    phases are exactly 1, so the plane is the sum H+ + H- of p = 2 draws,
    and the one draw of p = 1: a copy, so that repeated planes of one
    block are arrays of their own, or, when the plane is the block's
    ``only`` one, a view of h."""
    if phase is None:
        if h.shape[-2] == 1:
            return h[..., 0, :] if only else h[..., 0, :].copy()
        # np.add, not h.sum(axis=-2): the reduction is far slower on these strided views
        return np.add(h[..., 0, :], h[..., 1, :])
    plane = np.multiply(h[..., 0, :], phase)
    plane += h[..., 1, :] * phase.conj()  # two arrays of the block held, not three
    return plane


def _embed(grid: np.ndarray, h: np.ndarray, bins: np.ndarray) -> None:
    """Write the coefficients h (any leading batch axes) at their FFT
    ``bins`` of ``grid`` (..., ny, nx); every other bin keeps its value.
    Each grid's (ny, nx) samples must be contiguous (a new grid, or a
    plane of C-contiguous rows): merging them into one axis is then a view
    of ``grid``, and otherwise raises rather than writing into a copy."""
    flat = grid.view()
    flat.shape = grid.shape[:-2] + (-1,)  # never a copy, unlike reshape
    flat[..., bins] = h


def _grid_series(grid: np.ndarray, aperture: Aperture) -> np.ndarray:
    """Turn ``grid`` (..., ny, nx), the coefficients ``_embed`` put at their
    FFT bins and zeros elsewhere, into the series on the aperture grid, in
    place: inverse FFT over the grid axes without the 1/N factor, then
    reindex onto n = -N/2 .. N/2 - 1. Returns ``grid``."""
    shape = (aperture.nx,) if aperture.kind == LINEAR else (aperture.ny, aperture.nx)
    np.fft.ifftn(grid, axes=tuple(range(-len(shape), 0)), out=grid)
    # fftshift, undoing ifftn's 1/N on the way: every N is even, so the
    # shift swaps the two halves of each grid axis, that is each block of
    # halves with its opposite; one scaled scratch copy per pair of blocks
    scale = math.prod(shape)
    halves = [(slice(None, n // 2), slice(n // 2, None)) for n in shape]
    swapped = [half[::-1] for half in halves]
    pairs = list(zip(itertools.product(*halves), itertools.product(*swapped)))
    scratch = None
    for to, src in pairs[: len(pairs) // 2]:  # the other half are the same pairs
        a, b = grid[(Ellipsis,) + to], grid[(Ellipsis,) + src]
        scratch = np.multiply(a, scale, out=scratch)
        np.multiply(b, scale, out=a)
        b[...] = scratch
    return grid


def default_table(aperture: Aperture) -> CoefficientVariances1D | CoefficientVariances2D:
    """Variance table of the aperture's sides (line or rectangle)."""
    if aperture.kind == LINEAR:
        return table_1d(aperture.lx)
    return table_2d(aperture.lx, aperture.ly)


@lru_cache(maxsize=2)  # a command makes one run; one entry to spare for a call in between
def run_constants(
    aperture: Aperture, factor: SpectralFactor | None, z_planes: tuple[float, ...]
) -> RunConstants:
    """The ``RunConstants`` of the aperture's table for a run with the
    ``factor`` (None is isotropic) over the ``z_planes`` (a tuple), computed
    once per run. A rectangle over one plane gets one draw per harmonic and
    no phases; its plane is still range-checked. A shaped run's ``std``
    rows are sqrt(w P_j), w = sigma2 (2 sigma2 on a line) and P_j the gain
    power of draw j: g+^2 + g-^2 on one plane, (g+^2, g-^2) over several,
    g^2 on a line. A factor is a pointwise function, so its wavenumbers
    and gains are evaluated over slices of _SLICE harmonics, P written a
    slice at a time, then scaled by w and square-rooted in place: the same
    values, with one slice of a tabulated factor's interpolation
    temporaries held at a time and no harmonic-length wavenumber or gain
    array beside ``std``. The FFT bins come after, with one temporary.
    Call it once before threads share a run (and hand the record to
    workers that call ``plane_coefficients``): workers that meet a cold
    cache together would each compute the record, and arrays made on a
    worker thread stay in that thread's malloc arena, where they kept
    about 3 MB more of a 256 x 256 ``generate`` resident.

    Raises:
        MigrationRange: a plane outside the series' validity, |z| >= min(Lx, Ly),
            or z != 0 on a line aperture.
        ValueError: a gain of the factor at a harmonic that is NaN, infinite
            or negative (the load-time probe sees only its polar grid).
    """
    table = default_table(aperture)
    line = aperture.kind == LINEAR
    one_draw = not line and len(z_planes) == 1  # the plane's H(z) is drawn directly
    p = 1 if line or one_draw else 2
    if one_draw:  # its phases cancel in the one draw, but its range holds
        _check_plane(table, z_planes[0])
        phases = (None,)
    else:
        phases = tuple(None if z == 0.0 else migration_phases(table, z) for z in z_planes)
    if factor is None or factor.is_isotropic:
        std = np.sqrt(2.0 * table.sigma_sq if p == 1 else table.sigma_sq)
        std.flags.writeable = False  # and so every view of it
        # H+ and H- of several planes share one row, so no memory is added
        std = std[np.newaxis] if p == 1 else np.broadcast_to(std, (2, len(std)))
    else:  # sqrt(w P_j): P_j written slice by slice, then scaled and rooted in place
        std = np.empty((p, len(table.sigma_sq)))
        for a in range(0, std.shape[1], _SLICE):
            part = slice(a, a + _SLICE)
            k = lattice_wavenumbers(table, part)
            g = (line_shaping_gain(factor, k),) if line else shaping_gains(factor, *k, KAPPA)
            if not all(np.isfinite(x).all() and (x >= 0.0).all() for x in g):
                raise ValueError(
                    f"spectral factor ({factor.kind}) gives a NaN, infinite or negative "
                    "shaping gain at a harmonic of this aperture"
                )
            if one_draw:
                std[0, part] = g[0] ** 2 + g[1] ** 2
            else:
                for row, x in zip(std, g):
                    row[part] = x**2
            del k, g  # held only while their slice is evaluated
        # in place: per-slice roots faulted in ~1,200 more pages a run
        std *= 2.0 * table.sigma_sq if line else table.sigma_sq
        np.sqrt(std, out=std)
    if line:
        bins = table.ls % aperture.nx
    else:  # (m mod Ny) * Nx + (l mod Nx), with one temporary
        bins = table.ms % aperture.ny
        bins *= aperture.nx
        bins += table.ls % aperture.nx
    for a in (std, *(phase for phase in phases if phase is not None), bins):
        a.flags.writeable = False  # shared by every caller of the cache
    return RunConstants(std, phases, bins)


def generate(
    aperture: Aperture,
    factor: SpectralFactor | None = None,
    seed: int = 0,
    z_planes: Sequence[float] | None = None,
    realization: int = 0,
) -> FieldRealization:
    """Full pipeline for one realization: draw, migrate, synthesize.

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
    run: RunConstants, seed: int, realizations: Sequence[int]
) -> list[np.ndarray]:
    """The coefficient stages of the pipeline over a batch of realizations:
    draw (the gains in ``run.std``) and migrate to each z-plane (one phase
    array or None per plane), on the arrays of ``run``, a run's
    ``run_constants`` or a slice ``run[part]`` of it (a slice of a run of
    one draw per harmonic starts at an even harmonic). Returns one (B, n)
    array of per-harmonic coefficients per plane, in the table's harmonic
    order, with the values of the same slice of the whole draw; each is an
    array of its own that the caller may write over (a run's only plane of
    one draw per harmonic is a view of the draw block, which no one else
    holds).
    """
    h = draw_coefficients(run.std, seed, realizations, run.start)
    return [migrate(h, phase, only=len(run.phases) == 1) for phase in run.phases]


def coefficient_rows(std: np.ndarray) -> int:
    """How many realizations' coefficient draws of a run (its
    ``RunConstants.std``) fit SUB_BLOCK_BYTES, at least one: the row block
    of ``plane_coefficients`` calls."""
    return block_rows(std.size * np.dtype(complex).itemsize)


def generate_batch_planes(
    aperture: Aperture,
    factor: SpectralFactor | None,
    seed: int,
    realizations: Sequence[int],
    z_planes: Sequence[float],
) -> np.ndarray:
    """The synthesis pipeline over a batch of realizations, in one zeroed
    output block that is also their spectrum. It looks up the run's
    ``run_constants`` once. Each row block of ``coefficient_rows``
    realizations gets the ``plane_coefficients`` of each slice
    ``run[part]`` of ``rng._SLICE`` draws per realization (all harmonics
    in one slice when they fit) written at that slice's FFT bins of its
    rows, plane by plane, each slice scattered before the next is drawn.
    Then the rows are inverse transformed and reindexed in place
    (``_grid_series``). So beside the output, only one row block's
    coefficients, or one slice of each of its realizations, is held at a
    time, and no separate spectrum. The output block holds the whole
    batch; the CLI's ``generate`` keeps it near SUB_BLOCK_BYTES by passing
    batches of ``block_rows`` realizations of output. Returns the planes
    as one (len(z_planes), B, ny, nx) array, a plane-major view of the
    realization-major (B, len(z_planes), ny, nx) block; ``.swapaxes(0, 1)``
    gives that block back without a copy. Every realization is
    bit-identical to its single ``generate``. A line aperture only
    supports z = 0.
    """
    zs = tuple(z_planes)
    run = run_constants(aperture, factor, zs)
    p, n = run.std.shape
    width = _SLICE // p  # all n harmonics when p * n <= _SLICE
    block = np.zeros((len(realizations), len(zs), aperture.ny, aperture.nx), dtype=complex)
    rows = coefficient_rows(run.std)
    for a in range(0, len(realizations), rows):
        out = block[a : a + rows]
        for lo in range(0, n, width):
            part = run[lo : lo + width]  # the draw and the embedding read one slice
            for i, h in enumerate(plane_coefficients(part, seed, realizations[a : a + rows])):
                _embed(out[:, i], h, part.bins)
        _grid_series(out, aperture)
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
