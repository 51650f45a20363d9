"""Monte Carlo estimation of spatial autocorrelations and the comparison
harness reproducing the reference validation runs.

The estimator is the first-row sample autocorrelation from a fixed
reference point (the grid origin),

    c_hat(lag) = (1/M) sum_r conj(h_r(ref)) * h_r(ref + lag)

normalized by its zero-lag value. The Monte Carlo runs never synthesize a
field for it. Every harmonic of the series is 1 at the grid origin, so
h_r(origin) = sum_k H_rk and the estimator is linear in the coefficients:

    sum_r conj(h_r(origin)) h_r(n, j) = sum_k w_k e^{i 2 pi (l_k n/Nx + m_k j/Ny)},
    w_k = sum_r conj(sum_k' H_rk') H_rk,

the exact series autocorrelation with 2*sigma2_k replaced by its Monte Carlo
estimate w_k / M. The mean weights are folded from
``generator.plane_coefficients``; then ``generator.series_sum`` evaluates
the series once over the lag window, at integer grid lags reduced mod
(Nx, Ny). The runs take an aperture; before the workers start, they
compute its run's ``generator.run_constants`` and hand the workers that
record, so no worker looks it up, and this module builds no table of its
own. Results are returned, not written: the CLI writes the
artifacts.

``run_figure`` is the one place a lag window becomes a curve: it
normalizes each window by its zero lag (``_normalize``), forms the lags,
the de-tilted real part and the lag radii once (``_curve``), evaluates the
closed form once at those radii, and hands ``compare`` the two arrays.
``compare_kl`` is the fig 6 run plus the dense baseline's normalized
window, compared with that run's closed form. Every verdict is one rule,
``_within``, over a copy of fig 6/7/8's ``thresholds``.

Memory is bounded by row blocks, not by M. Every Monte Carlo estimate
goes through one fold, ``_mean_folds``: workers draw row blocks of about
``generator.SUB_BLOCK_BYTES`` (``generator.block_rows``), the plane
coefficients or compare-kl's dense baseline noise, which the worker
multiplies by the root rows its lag window reads; at most T + 1 blocks
are queued on T workers. This thread turns each block into (reference,
target) pairs, and ``_fold_rows`` adds their products to a running
total one row at a time, in realization order: the order one ``np.sum``
over all M rows uses. So every estimate is bit-identical for any block
size and worker count, and to the estimate over all M realizations held
at once. BLAS runs on one thread while the fold runs, so the workers are
its only parallelism.

Two oracles serve two different claims:

* the exact series autocorrelation (``generator.lattice_acf_*``: the same
  ``series_sum`` with weights 2*sigma2_k) tests the implementation itself;
  deviations are pure sampling noise, O(1/sqrt(M));
* the continuum closed forms (J0 / sinc) test model fidelity and carry the
  truncation error of a finite aperture.

The series uses the plain-l harmonic labeling, which shifts each cell's
spectral mass by half a cell relative to the cell centers; the series
autocorrelation therefore carries a known deterministic linear phase
exp(-i pi (dx/Lx + dy/Ly)) relative to the continuum law. ``_curve``
removes that phase and keeps the real part; the imaginary remainder is
zero-mean sampling noise. The dense baseline has no such phase.
"""
from __future__ import annotations

import collections
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .baseline import AcfClosedForm, _one_blas_thread, correlation_matrix, kl_root
from .errors import InsufficientRealizations
from .generator import (
    Aperture,
    block_rows,
    coefficient_rows,
    default_table,
    plane_coefficients,
    run_constants,
    series_sum,
)
from .rng import STREAM_BASELINE, complex_standard_normals

MIN_REALIZATIONS = 100


@dataclass(frozen=True)
class CompareReport:
    rmse: float
    max_abs_dev: float


def check_realizations(m: int) -> None:
    """Raises InsufficientRealizations if m < MIN_REALIZATIONS."""
    if m < MIN_REALIZATIONS:
        raise InsufficientRealizations(f"need at least {MIN_REALIZATIONS} realizations, got {m}")


def _normalize(raw: np.ndarray) -> np.ndarray:
    zero = raw.flat[0].real
    if not zero > 0.0:
        raise ValueError("zero-lag covariance must be real positive")
    out = raw / zero
    out.flat[0] = 1.0  # by definition; drops FMA residue in the imaginary part
    return out


def _fold_rows(total, s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """total + sum_r conj(s_r) * h_r over the rows r of s (B,) and h (B, ...),
    added one row at a time in row order; the products are written over h.

    The running total is added into row 0 (IEEE addition commutes), and
    ``np.add.reduce`` adds the rows in order from 0. So folding a batch in
    row blocks, block by block from a zero total, gives the bits of one
    ``np.sum`` over all its rows.
    """
    np.multiply(np.conj(s).reshape((-1,) + (1,) * (h.ndim - 1)), h, out=h)
    h[0] += total
    return np.add.reduce(h, axis=0)


def compare(empirical: np.ndarray, closed_form: np.ndarray) -> CompareReport:
    """RMSE and max absolute deviation of an empirical curve from its
    closed form, entry by entry."""
    dev = np.abs(empirical - closed_form)
    return CompareReport(
        rmse=float(np.sqrt(np.mean(np.square(dev)))),
        max_abs_dev=float(np.max(dev)),
    )


# ---------------------------------------------------------------------------
# batched Monte Carlo runs
# ---------------------------------------------------------------------------

def _thread_count(threads: int | None = None) -> int:
    """Worker count: a positive ``threads``, else the number of CPUs this
    process may run on."""
    if threads is not None and threads > 0:
        return threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn: Callable, items: Sequence, threads: int) -> Iterator:
    """fn over items, yielding the results in item order.

    With more than one thread and item, the calls run on a pool of
    ``threads`` workers, ``threads + 1`` items submitted ahead of the
    caller: one more than the workers, so a worker that finishes never
    waits for the caller to take an earlier result. The next item is
    submitted only when the caller takes a result, so a caller that stops
    early waits only for the calls in flight, and a taken result is
    dropped here before the next one is awaited.
    """
    if threads <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    todo = iter(items)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = collections.deque(pool.submit(fn, i) for i in itertools.islice(todo, threads + 1))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, i) for i in itertools.islice(todo, 1))
            yield result
            del result


def _mean_folds(draw, pairs, m: int, rows: int, threads: int | None) -> list[np.ndarray]:
    """Means over realizations 0 .. m - 1 of sum_r conj(s_r) * h_r, one per
    (reference, target) pair (s, h) that ``pairs(block)`` makes of each
    block that ``draw((start, stop))`` returns.

    Workers draw spans of ``rows`` realizations; a one-row remainder joins
    the span before it, because a one-row block would be multiplied as a
    matrix-vector product, whose last bits differ. This thread makes the
    pairs and folds them with ``_fold_rows`` in realization order, so each
    mean is, bit for bit, one ``np.sum`` over all m rows divided by m,
    whatever the block size and worker count. BLAS runs on one thread
    meanwhile, so the workers are the only parallelism.
    """
    bounds = [0, *range(rows, m - 1, rows), m]  # at least one span, so totals becomes a list
    totals = itertools.repeat(0.0)
    with _one_blas_thread():
        for block in ordered_map(draw, list(zip(bounds, bounds[1:])), _thread_count(threads)):
            totals = [_fold_rows(t, s, h) for t, (s, h) in zip(totals, pairs(block))]
            del block  # freed before the next block is awaited
    return [t / m for t in totals]


def _first_row_sums(
    aperture: Aperture, factor, seed: int, m: int, z_planes: Sequence[float],
    lags, threads: int | None,
) -> list[np.ndarray]:
    """First-row covariances from the grid origin, one (kx + 1, ky + 1)
    lag window per z-plane, over m realizations: the mean origin weights
    are folded from the plane coefficients, then the series is evaluated
    once over the window. The series reduces lags mod (Nx, Ny), so a
    window has no grid edge."""
    run = run_constants(aperture, factor, tuple(z_planes))  # the one lookup; the workers share it

    def draw(span: tuple[int, int]) -> list[np.ndarray]:
        return plane_coefficients(run, seed, range(*span))

    def pairs(planes: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
        # w_k = sum_r conj(h_r(origin)) H_rk: every harmonic is 1 at the
        # grid origin, so h_r(origin) = sum_k H_rk
        return [(h.sum(axis=-1), h) for h in planes]

    weights = _mean_folds(draw, pairs, m, coefficient_rows(run.std), threads)
    ky, kx = lags
    window = (np.arange(kx + 1), np.arange(ky + 1))
    table = default_table(aperture)
    return [series_sum(w, table, window, (aperture.nx, aperture.ny)) for w in weights]


# ---------------------------------------------------------------------------
# reference figures
# ---------------------------------------------------------------------------

FIGURE_CONFIGS = {
    6: dict(aperture=dict(lx=16.0, dx=1.0 / 16.0), oracle="bessel-2d",
            thresholds=dict(rmse=0.03, max_abs_dev=0.06)),
    7: dict(aperture=dict(lx=16.0, dx=0.25, ly=16.0, dy=0.25), oracle="sinc-3d",
            thresholds=dict(rmse=0.03)),
    8: dict(aperture=dict(lx=16.0, dx=0.25, ly=16.0, dy=0.25), oracle="sinc-3d",
            z=0.5, thresholds=dict(rmse=0.03, z_consistency=8.0)),
}


@dataclass(frozen=True)
class FigureReport:
    fig: int
    m: int
    seed: int
    rmse: float
    max_abs_dev: float
    passed: bool
    thresholds: dict
    lags_x: np.ndarray
    lags_y: np.ndarray | None
    empirical: np.ndarray
    closed_form: np.ndarray
    z_consistency_max: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "fig": self.fig, "M": self.m, "seed": self.seed,
            "rmse": self.rmse, "max_abs_dev": self.max_abs_dev,
            "pass": self.passed, "thresholds": self.thresholds,
        }
        if self.z_consistency_max is not None:
            out["z_consistency_max"] = self.z_consistency_max
        return out


def _within(measured: dict, thresholds: dict, m: int) -> bool:
    """The verdict rule of every run: each thresholded value is below its
    limit, the z-consistency limit scaled by 1/sqrt(M)."""
    return all(
        measured[key] < (limit / math.sqrt(m) if key == "z_consistency" else limit)
        for key, limit in thresholds.items()
    )


def _curve(window: np.ndarray, aperture: Aperture):
    """The x lags, y lags (None on a line), empirical curve and lag radii
    of a normalized (kx + 1, ky + 1) lag window of a plain-l series
    estimate on the aperture's grid. The curve is the real part of the
    window with the half-cell series phase exp(-i pi (dx/Lx + dy/Ly))
    removed: the continuum frame of the closed forms."""
    lags_x = np.arange(window.shape[0]) * aperture.dx
    if aperture.kind == "linear":
        empirical = window[:, 0] * np.exp(1j * np.pi * (lags_x / aperture.lx))
        return lags_x, None, empirical.real, np.abs(lags_x)
    lags_y = np.arange(window.shape[1]) * aperture.dy
    empirical = window * np.exp(1j * np.pi * (lags_x[:, None] / aperture.lx + lags_y / aperture.ly))
    return lags_x, lags_y, empirical.real, np.hypot(lags_x[:, None], lags_y)


def run_figure(
    fig: int,
    m: int = 10_000,
    seed: int = 0,
    threads: int | None = None,
) -> FigureReport:
    """Reproduce one reference validation run.

    fig 6: line aperture Lx = 16 lambda, spacing lambda/16, oracle J0.
    fig 7: square aperture 16 x 16 lambda, spacing lambda/4, z = 0,
           oracle sinc of the lag distance.
    fig 8: as 7 but over the planes z = 0 and lambda/2, which share each
           realization's draws of H+ and H-; fig 7's one plane draws one
           H per harmonic instead, so fig 8's plane 0 is not fig 7's run.
           Also checks the z = lambda/2 estimate against the z = 0
           estimate.
    """
    if fig not in FIGURE_CONFIGS:
        raise ValueError(f"unknown figure {fig}; choose 6, 7 or 8")
    check_realizations(m)
    cfg = FIGURE_CONFIGS[fig]
    thresholds = dict(cfg["thresholds"])  # the report's own; a caller may write into it
    aperture = Aperture(**cfg["aperture"])
    lag_cells = round(0.25 * aperture.lx / aperture.dx)
    lags = (0, lag_cells) if aperture.kind == "linear" else (lag_cells, lag_cells)
    z_planes = (0.0, cfg["z"]) if "z" in cfg else (0.0,)
    raws = _first_row_sums(aperture, None, seed, m, z_planes, lags, threads)
    windows = [_normalize(raw) for raw in raws]
    lags_x, lags_y, empirical, radii = _curve(windows[-1], aperture)
    closed_form = AcfClosedForm(cfg["oracle"])(radii)
    report = compare(empirical, closed_form)
    measured = asdict(report)
    if len(windows) == 2:
        measured["z_consistency"] = float(np.max(np.abs(windows[1] - windows[0])))
    return FigureReport(
        fig=fig, m=m, seed=seed, rmse=report.rmse, max_abs_dev=report.max_abs_dev,
        passed=_within(measured, thresholds, m), thresholds=thresholds,
        lags_x=lags_x, lags_y=lags_y, empirical=empirical, closed_form=closed_form,
        z_consistency_max=measured.get("z_consistency"),
    )


# ---------------------------------------------------------------------------
# series generator vs dense baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KlComparison:
    figure: FigureReport  # the fig 6 run: the series side, its lags and J0
    kl_estimate: np.ndarray
    entrywise_max: float
    kl_report: CompareReport
    passed: bool


def _kl_first_row(root: np.ndarray, seed: int, m: int, lag_cells: int, threads) -> np.ndarray:
    """First-row covariance of the dense baseline h = C^{1/2} e from the
    line's origin over lags 0 .. lag_cells; shape (lag_cells + 1,).

    The estimate is the lag sum sum_r conj(h_r(origin)) h_r(origin + lag)
    of ``kl_sample``'s m draws divided by m, bit for bit, without holding
    the draws: each worker draws the noise e in row blocks of about
    ``generator.SUB_BLOCK_BYTES`` (256 realizations of 256 points) and
    multiplies it by the root rows of the lag window on one BLAS thread,
    so only the product h = e @ window is queued, and ``_mean_folds``
    folds it with its first column as the reference. Only a copy of those
    rows is kept, not the root.
    """
    n = root.shape[0]
    rx = n // 2
    window = np.array(root[rx : rx + lag_cells + 1]).T
    del root

    def draw(span: tuple[int, int]) -> np.ndarray:
        return complex_standard_normals(seed, range(*span), n, STREAM_BASELINE) @ window

    def pairs(h: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(h[:, 0], h)]

    rows = block_rows(n * np.dtype(complex).itemsize)
    (mean,) = _mean_folds(draw, pairs, m, rows, threads)
    return mean


def compare_kl(m: int = 10_000, seed: int = 0, threads: int | None = None) -> KlComparison:
    """Series generator vs dense correlated-Gaussian baseline on the line
    grid of fig 6.

    The series side is ``run_figure(6)``; the baseline estimates the same
    first-row covariance over that run's lag window. They must agree
    entrywise within 6/sqrt(M), and each match J0 within fig 6's
    thresholds.
    """
    figure = run_figure(6, m, seed, threads)
    cfg = FIGURE_CONFIGS[6]
    aperture = Aperture(**cfg["aperture"])
    root = kl_root(correlation_matrix(aperture, AcfClosedForm(cfg["oracle"])))
    lag_cells = len(figure.lags_x) - 1  # the baseline reads fig 6's lag window
    kl_estimate = _normalize(_kl_first_row(root, seed, m, lag_cells, threads)).real
    kl_report = compare(kl_estimate, figure.closed_form)
    entrywise = float(np.max(np.abs(figure.empirical - kl_estimate)))
    passed = (
        entrywise < 6.0 / math.sqrt(m)
        and figure.passed
        and _within(asdict(kl_report), figure.thresholds, m)
    )
    return KlComparison(figure, kl_estimate, entrywise, kl_report, passed)
