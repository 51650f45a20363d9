"""Oracles and references that no command runs: the estimates and the
series evaluated straight from synthesized fields and coefficients,
independent of the coefficient-space estimator and the FFT synthesis that
they check; the coefficient-space estimate over all realizations held at
once; the draws with one unsliced Box-Muller pass over the whole block;
the FFT synthesis of given coefficients; the per-cell line variance and
the rectangle variance by closed form and by adaptive polar quadrature,
with the scalar index-set rule they share and the index set it gives;
and the lambda/2 independence row."""
import math

import numpy as np

from holofading.generator import (
    Aperture,
    _embed,
    _grid_series,
    default_table,
    plane_coefficients,
    run_constants,
    series_sum,
)
from holofading.rng import _positioned
from holofading.validation import _first_row_sums, _normalize, check_realizations
from holofading.variances import _band_1d, _corner_mass

DEFAULT_QUAD_TOL = 1e-10


class IndexOutOfBand(ValueError):
    """Coefficient index outside the admissible band of the aperture."""


def fold_index(i: int) -> int:
    """Mirror a signed cell index into the first quadrant: -l-1 <-> l."""
    return i if i >= 0 else -i - 1


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
    """The index set of the rectangular-aperture table (sides in
    wavelengths) by a double loop over the scalar rule ``_in_band_2d``:
    an (n, 2) int array of (l, m) in row-major order (m outer, l inner,
    ascending), the order ``variances.table_2d`` must hold its ls and ms
    in."""
    nx, ny = math.ceil(lx), math.ceil(ly)
    return np.array(
        [(l, m) for m in range(-ny, ny) for l in range(-nx, nx) if _in_band_2d(l, m, lx, ly)],
        dtype=np.int_,
    )


def lag_sum(h: np.ndarray, ref, lags) -> np.ndarray:
    """First-row lag products summed over realizations,
    sum_r conj(h_r(ref)) * h_r(ref + lag), of (B, ny, nx) fields over lags
    (0..ky, 0..kx) from ref = (ry, rx); shape (kx + 1, ky + 1), x lag first.

    One ``np.sum`` over the realization axis, which adds the rows in
    realization order. The row window is a basic slice: index arrays on
    two axes would reorder the products in memory, and with it the last
    bits of the sum.
    """
    (ry, rx), (ky, kx) = ref, lags
    block = h[:, ry : ry + ky + 1, rx : rx + kx + 1]
    return np.sum(np.conj(h[:, ry, rx])[:, np.newaxis, np.newaxis] * block, axis=0).T


def first_row_sums(aperture: Aperture, factor, seed: int, m: int, z_planes, lags) -> list:
    """``validation._first_row_sums`` with every realization's plane
    coefficients held at once: per plane, one ``np.sum`` over the m
    realizations of conj(sum_k H_rk) * H_rk, divided by m, evaluated by
    ``series_sum`` over the (0..kx, 0..ky) lag window of lags = (ky, kx)."""
    ky, kx = lags
    window = (np.arange(kx + 1), np.arange(ky + 1))
    out = []
    for h in plane_coefficients(run_constants(aperture, factor, tuple(z_planes)), seed, range(m)):
        w = np.sum(np.conj(h.sum(axis=-1))[:, np.newaxis] * h, axis=0) / m
        out.append(series_sum(w, default_table(aperture), window, (aperture.nx, aperture.ny)))
    return out


def empirical_acf(
    fields: np.ndarray,
    reference: tuple[int, ...] | None = None,
    max_lag_cells: int | None = None,
) -> np.ndarray:
    """First-row autocorrelation estimate of an (M, ny, nx) or (M, nx)
    sample array: the (kx + 1, ky + 1) lag window, x lag first,
    normalized by its zero lag; ky = 0 for a single row.

    Args:
        fields: the sample array.
        reference: grid index of the reference point; defaults to the grid
            origin n = 0 (array index N/2 per axis).
        max_lag_cells: lag window length per axis; defaults to a quarter
            of the grid.

    Raises:
        InsufficientRealizations: fewer than 100 realizations.
    """
    h = np.asarray(fields)
    if h.ndim == 2:
        h = h[:, np.newaxis, :]
    m, ny, nx = h.shape
    check_realizations(m)

    ref = reference if reference is not None else ((ny // 2, nx // 2) if ny > 1 else (0, nx // 2))
    if len(ref) == 1:
        ref = (0, ref[0])
    ry, rx = ref

    kx, ky = (nx // 4, ny // 4) if max_lag_cells is None else (max_lag_cells,) * 2
    if ny == 1:
        ky = 0
    if rx + kx >= nx or ry + ky >= ny:
        raise ValueError(f"lag window ({kx}, {ky}) from ({rx}, {ry}) exceeds the grid")
    return _normalize(lag_sum(h, (ry, rx), (ky, kx)) / m)


def brute_force_plane(h, aperture: Aperture) -> np.ndarray:
    """The series of the coefficients h on the (ny, nx) grid by direct
    summation; the oracle of the FFT synthesis."""
    ns = np.arange(-(aperture.nx // 2), aperture.nx // 2)
    js = np.arange(-(aperture.ny // 2), aperture.ny // 2)
    return series_sum(h, default_table(aperture), (ns, js), (aperture.nx, aperture.ny)).T


def unsliced_normals(seed: int, realizations, n: int, stream: int) -> np.ndarray:
    """(B, n) draws of ``rng.complex_standard_normals`` with Box-Muller run
    in place over the whole block at once, in one pass with a full-size cos
    temporary: the same uniforms and ufuncs in the same order, without the
    slices, so the sliced transform must match it bit for bit."""
    out = np.empty((len(realizations), n), dtype=complex)
    for row, r in zip(out.view(np.float64), realizations):
        _positioned(seed, r, stream).random(out=row)
    radius, phase = out.real, out.imag
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    np.negative(radius, out=radius)
    np.sqrt(radius, out=radius)
    phase *= 2.0 * np.pi
    cos = np.cos(phase)
    np.sin(phase, out=phase)
    phase *= radius
    radius *= cos
    return out


def synthesize(h: np.ndarray, aperture: Aperture) -> np.ndarray:
    """Evaluate the series of the coefficients h (any leading batch axes,
    in the harmonic order of the aperture's table) on the aperture grid:
    zero-embed them at their FFT bins, inverse FFT over the grid axes
    without the 1/N factor, and reindex onto n = -N/2 .. N/2 - 1, the steps
    ``generator.generate_batch_planes`` runs in its output block. Returns a
    new (..., ny, nx) array; ny = 1 for a line aperture."""
    grid = np.zeros(h.shape[:-1] + (aperture.ny, aperture.nx), dtype=complex)
    _embed(grid, h, run_constants(aperture, None, (0.0,)).bins)
    return _grid_series(grid, aperture)


def variance_1d(l: int, lx: float) -> float:
    """Variance sigma2_l of line harmonic l, the arcsin difference of its
    cell: the scalar reference that every entry of ``variances.table_1d``
    must equal bit for bit.

    Args:
        l: harmonic index in {-Lx, ..., Lx - 1}.
        lx: aperture length in wavelengths, a positive whole number.

    Raises:
        IndexOutOfBand: l outside the index range.
        ValueError: non-integer lx.
    """
    n = _band_1d(lx)
    if not -n <= l <= n - 1:
        raise IndexOutOfBand(f"l = {l} outside {{-{n}, ..., {n - 1}}}")
    lf = fold_index(l)
    return (math.asin((lf + 1) / n) - math.asin(lf / n)) / (2.0 * math.pi)


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


def variance_2d_closed_form(l: int, m: int, lx: float, ly: float) -> float:
    """Variance sigma2_lm of one cell by the exact corner antiderivative
    (sides in wavelengths): the scalar reference that every entry of the
    closed-form ``variances.table_2d`` must equal bit for bit.

    Raises:
        IndexOutOfBand: index outside the admissible band.
    """
    if not _in_band_2d(l, m, lx, ly):
        raise IndexOutOfBand(f"index ({l}, {m}) outside the admissible band")
    x1, x2, y1, y2 = _cell_bounds(l, m, lx, ly)
    mass = (
        _corner_mass(x2, y2)
        - _corner_mass(x1, y2)
        - _corner_mass(x2, y1)
        + _corner_mass(x1, y1)
    )
    return max(mass, 0.0) / (4.0 * math.pi)


def lambda_half_independence(
    m: int = 10_000,
    seed: int = 0,
    lx: float = 16.0,
    threads: int | None = None,
) -> tuple[np.ndarray, float]:
    """Row correlations of a square-aperture field sampled at exactly
    lambda/2, estimated in coefficient space by the figure runs' fold; all
    nonzero lags should be below 4/sqrt(M).

    The series is periodic on the grid, so lags wrap cyclically and every
    distinct nonzero row lag 1 .. Nx/2 is covered.

    Returns:
        (normalized row estimate over lags 0 .. Nx/2, max |correlation|
        over the nonzero lags).

    Raises:
        InsufficientRealizations: fewer than 100 realizations.
    """
    check_realizations(m)
    aperture = Aperture(lx=lx, dx=0.5, ly=lx, dy=0.5)
    (raw,) = _first_row_sums(aperture, None, seed, m, (0.0,), (0, aperture.nx // 2), threads)
    row = _normalize(raw[:, 0])
    return row, float(np.max(np.abs(row[1:])))
