"""Closed-form isotropic autocorrelations and the dense correlated-Gaussian
baseline sampler.

Isotropic scattering gives the classical autocorrelations between points at
distance r: sinc(2r) = sin(kappa r)/(kappa r) for fields in 3D space and
J0(2*pi*r) for fields observed on a line, with r in wavelengths
(kappa = 2*pi); no function here takes the wavelength. The baseline sampler
draws correlated vectors h = C^{1/2} e with e ~ complex standard normal and
C the correlation matrix sampled from those closed forms; it exists to
cross-check the series generator at desk scale, not to scale.

J0 is ``scipy.special.j0``; the test suite checks it against quadrature of
the integral representation (1/pi) * int_0^pi cos(z sin t) dt. It is
imported on first use, so commands that evaluate no J0 never load scipy.

The root runs on one BLAS thread, because the last bits of its ``eigh``
change with the BLAS thread count; compare-kl's Monte Carlo fold runs on
one too, so that its workers are the only threads. The count is set
through numpy's bundled OpenBLAS, looked up with ctypes on first use; a
numpy built on another BLAS (MKL, Accelerate) has no such library, and
its count is left alone.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLarge, NotPSD
from .generator import Aperture
from .rng import STREAM_BASELINE, complex_standard_normals


def clarke_acf_3d(r):
    """sin(kappa r)/(kappa r) with the removable singularity giving exactly
    1 at r = 0; zero at every half-wavelength multiple."""
    return np.sinc(2.0 * np.asarray(r, dtype=float))


def clarke_acf_2d(r):
    """J0(2 pi r)."""
    import scipy.special

    return scipy.special.j0(2.0 * math.pi * np.asarray(r, dtype=float))


@dataclass(frozen=True)
class AcfClosedForm:
    """Closed-form isotropic autocorrelation, 'sinc-3d' or 'bessel-2d'."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("sinc-3d", "bessel-2d"):
            raise ValueError(f"unknown autocorrelation kind {self.kind!r}")

    def __call__(self, r):
        if self.kind == "sinc-3d":
            return clarke_acf_3d(r)
        return clarke_acf_2d(r)


MAX_DENSE_POINTS = 8192


@dataclass(frozen=True)
class CorrelationMatrix:
    """Dense correlation matrix over grid-point pairs."""

    values: np.ndarray


def correlation_matrix(aperture: Aperture, acf: AcfClosedForm) -> CorrelationMatrix:
    """Entries c(r_nm) with r_nm the Euclidean distance of points n, m of
    the aperture's sample grid.

    Raises:
        GridTooLarge: more than 8192 points (the dense baseline is
            desk-scale only).
    """
    points = aperture.grid_coords()
    n = len(points)
    if n > MAX_DENSE_POINTS:
        raise GridTooLarge(f"{n} points exceed the dense-baseline cap of {MAX_DENSE_POINTS}")
    if aperture.kind == "linear":
        # uniform 1D grid: exactly Toeplitz from its first row
        lags = np.linalg.norm(points - points[0], axis=1)
        i = np.arange(n)
        values = acf(lags)[np.abs(np.subtract.outer(i, i))]
        return CorrelationMatrix(values)
    diff = points[:, np.newaxis, :] - points[np.newaxis, :, :]
    values = acf(np.sqrt(np.sum(diff * diff, axis=-1)))
    return CorrelationMatrix(values)


PSD_REL_TOL = 1e-8


@functools.cache
def _openblas_threads():
    """The (set, get) thread-count calls of numpy's bundled OpenBLAS, found
    once; None where numpy ships no OpenBLAS that has them."""
    package = os.path.dirname(np.__file__)
    for folder in (os.path.join(os.path.dirname(package), "numpy.libs"),
                   os.path.join(package, ".dylibs")):
        names = sorted(os.listdir(folder)) if os.path.isdir(folder) else []
        for name in (n for n in names if "openblas" in n):
            try:
                lib = ctypes.CDLL(os.path.join(folder, name))
                return lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
            except (OSError, AttributeError):
                continue
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the count it had;
    a no-op without numpy's bundled OpenBLAS."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def kl_root(c: CorrelationMatrix) -> np.ndarray:
    """The symmetric eigendecomposition root C^{1/2} of a correlation
    matrix, (N, N). sinc/J0 correlation matrices of dense grids are
    numerically rank-deficient, so Cholesky is not an option and small
    negative eigenvalues are clipped at zero. This is the one
    eigendecomposition and PSD check of the baseline: ``kl_sample`` and
    compare-kl's streamed estimate both take their root from here. The
    decomposition and the root product run on one BLAS thread, so the
    root's bits do not depend on the BLAS thread count.

    Raises:
        NotPSD: an eigenvalue below -1e-8 relative to the largest.
    """
    with _one_blas_thread():
        eigvals, eigvecs = np.linalg.eigh(c.values)
        top = float(eigvals[-1])
        if eigvals[0] < -PSD_REL_TOL * top:
            raise NotPSD(
                f"eigenvalue {eigvals[0]:g} below the PSD tolerance {-PSD_REL_TOL * top:g}"
            )
        return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T


def kl_sample(c: CorrelationMatrix, seed: int, m: int) -> np.ndarray:
    """m correlated draws h = C^{1/2} e, e ~ complex standard normal:
    draws @ ``kl_root(c)``.T with the noise e of all m draws from one
    batched call over realizations 0 .. m-1 of the baseline stream.

    All m draws are held at once; compare-kl instead streams the same
    noise in row blocks through the columns of the root it reads.

    Returns:
        (m, N) complex array, deterministic from the seed.

    Raises:
        NotPSD: an eigenvalue below -1e-8 relative to the largest.
    """
    root = kl_root(c)
    draws = complex_standard_normals(seed, range(m), c.values.shape[0], STREAM_BASELINE)
    return draws @ root.T
