import dataclasses
import json
import math
import os
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from holofading import (
    Aperture,
    InsufficientRealizations,
    SpectralFactor,
)
from holofading import baseline
from holofading.baseline import (
    AcfClosedForm,
    CorrelationMatrix,
    correlation_matrix,
    kl_root,
    kl_sample,
)
from holofading.cli import write_figure_artifacts
import holofading.generator as genmod
from holofading.generator import generate_batch_planes, lattice_acf_1d, run_constants
import holofading.validation as valmod
from holofading.validation import (
    FigureReport,
    _curve,
    _first_row_sums,
    _kl_first_row,
    _normalize,
    _thread_count,
    compare,
    compare_kl,
    ordered_map,
    run_figure,
)
from holofading.variances import table_1d, table_2d
from oracles import empirical_acf, first_row_sums, lag_sum, lambda_half_independence


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _window(ap, seed, m, z_planes, lag_cells, threads=1, factor=None):
    """The normalized first-row lag windows of a run, one per z-plane:
    (lag_cells + 1, 1) on a line, square on a rectangle."""
    lags = (0 if ap.kind == "linear" else lag_cells, lag_cells)
    return [_normalize(raw) for raw in _first_row_sums(ap, factor, seed, m, z_planes, lags, threads)]


class TestEmpiricalAcf:
    def test_constant_fields(self):
        fields = np.ones((200, 16))
        est = empirical_acf(fields)
        assert np.allclose(est, 1.0)
        assert est[0, 0] == 1.0

    def test_insufficient_realizations(self):
        with pytest.raises(InsufficientRealizations):
            empirical_acf(np.ones((99, 16)))

    def test_iid_inputs_decorrelated(self):
        m, n = 10_000, 16
        c = CorrelationMatrix(values=np.eye(n))
        draws = kl_sample(c, seed=2, m=m)
        est = empirical_acf(draws[:, np.newaxis, :], reference=(0, 0), max_lag_cells=8)
        assert est.shape == (9, 1)
        assert np.max(np.abs(est[1:])) < 4.0 / math.sqrt(m)

    def test_zero_lag_exactly_one(self):
        rng = np.random.default_rng(0)
        fields = rng.standard_normal((500, 16)) + 1j * rng.standard_normal((500, 16))
        est = empirical_acf(fields)
        assert est[0, 0] == 1.0

    def test_magnitude_within_noise_bound(self):
        ap = Aperture(lx=8.0, dx=0.5)
        (fields,) = generate_batch_planes(ap, None, 3, range(500), (0.0,))
        est = empirical_acf(fields[:, 0, :])
        assert np.all(np.abs(est) <= 1.0 + 5.0 / math.sqrt(500))


class TestCompare:
    def test_identical_curves(self):
        lags = np.arange(9) * 0.25
        series = lattice_acf_1d(table_1d(16.0), lags).real
        rep = compare(series, series)
        assert rep.rmse == rep.max_abs_dev == 0.0

    def test_constant_offset(self):
        lags = np.arange(5) * 0.5
        acf = AcfClosedForm("bessel-2d")
        rep = compare(acf(lags) + 0.1, acf(lags))
        assert rep.rmse == pytest.approx(0.1, rel=1e-12)
        assert rep.max_abs_dev == pytest.approx(0.1, rel=1e-12)

    def test_detilt_recovers_continuum_frame(self):
        # the exact series ACF, de-tilted, is real and close to J0
        ap = Aperture(lx=16.0, dx=1.0 / 16.0)
        series = lattice_acf_1d(table_1d(16.0), np.arange(0, 65) / 16.0)[:, np.newaxis]
        lags_x, lags_y, empirical, radii = _curve(series, ap)
        assert lags_y is None and np.array_equal(lags_x, np.arange(0, 65) / 16.0)
        assert np.array_equal(radii, lags_x)
        # Re(-i z) = Im(z): the imaginary part of the de-tilted series
        assert np.max(np.abs(_curve(-1j * series, ap)[2])) < 1e-12
        rep = compare(empirical, AcfClosedForm("bessel-2d")(radii))
        assert rep.rmse < 0.03

    def test_series_oracle_comparison_uses_plain_convention(self):
        # the plain-l series keeps its values through the normalization,
        # and the curve turns its phase by +pi lag/L back to the continuum
        ap = Aperture(lx=16.0, dx=1.0 / 16.0)
        lags = np.arange(0, 17) / 16.0
        series = lattice_acf_1d(table_1d(16.0), lags)
        assert np.array_equal(_normalize(series), series)
        want = (series * np.exp(1j * np.pi * lags / 16.0)).real
        assert np.array_equal(_curve(series[:, np.newaxis], ap)[2], want)

    def test_planar_curve_lags_and_radii(self):
        # unequal sides and spacings, so a swapped x/y axis shows
        ap = Aperture(lx=8.0, dx=0.25, ly=6.0, dy=0.5)
        window = np.ones((3, 2), dtype=complex)
        lags_x, lags_y, empirical, radii = _curve(window, ap)
        assert np.array_equal(lags_x, [0.0, 0.25, 0.5]) and np.array_equal(lags_y, [0.0, 0.5])
        assert np.array_equal(radii, np.hypot(lags_x[:, None], lags_y[None, :]))
        phase = lags_x[:, None] / 8.0 + lags_y[None, :] / 6.0
        assert np.allclose(empirical, np.cos(np.pi * phase), rtol=0.0, atol=1e-15)


class TestSelfConsistency:
    def test_disjoint_seed_ranges_agree(self):
        ap = Aperture(lx=16.0, dx=0.25)
        m = 2000
        (a,) = _window(ap, 101, m, (0.0,), 16)
        (b,) = _window(ap, 202, m, (0.0,), 16)
        assert np.max(np.abs(a - b)) < 6.0 / math.sqrt(m)

    def test_deviation_scales_with_realizations(self):
        # against the exact series oracle, quadrupling M at least halves
        # the max deviation, within 20 percent slack
        ap = Aperture(lx=16.0, dx=0.25)
        t = table_1d(16.0)
        lags = np.arange(17) * ap.dx
        oracle = lattice_acf_1d(t, lags)
        devs = {}
        for m in (1000, 4000):
            (raw,) = _first_row_sums(ap, None, 55, m, (0.0,), (0, 16), 1)
            devs[m] = np.max(np.abs(raw[:, 0] - oracle))
        assert devs[4000] <= devs[1000] * 0.6

    def test_thread_count_resolution(self):
        # fallbacks only; no worker thread is started
        assert _thread_count(3) == 3
        assert _thread_count(None) == _thread_count(0) == len(os.sched_getaffinity(0))

    def test_threaded_accumulation_bit_identical(self, monkeypatch):
        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", 1 << 16)  # 5 blocks of up to 128 rows
        ap = Aperture(lx=16.0, dx=0.25)
        (a,) = _window(ap, 7, 600, (0.0,), 16, threads=1)
        (b,) = _window(ap, 7, 600, (0.0,), 16, threads=4)
        assert np.array_equal(a, b)

    def test_shaping_gains_evaluated_once_per_run(self, monkeypatch):
        calls = []
        real = genmod.shaping_gains

        def counting(*args):
            calls.append(len(args[1]))
            time.sleep(0.05)  # long enough for two workers on a cold cache to both miss it
            return real(*args)

        monkeypatch.setattr(genmod, "shaping_gains", counting)
        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", 1 << 18)  # 12 blocks of up to 36 rows
        # a factor of its own, so the gains cache starts cold
        factor = SpectralFactor.from_callables(
            lambda kx, ky: 1.0 + 0.4 * np.cos(np.arctan2(ky, kx)),
            lambda kx, ky: 1.0 + 0.1 * ky / (2.0 * math.pi),
        )
        ap = Aperture(lx=8.0, dx=0.5, ly=8.0, dy=0.5)
        _first_row_sums(ap, factor, 3, 400, (0.0,), (4, 4), 2)
        assert calls == [len(table_2d(8.0, 8.0).ls)]

    def test_migration_phases_evaluated_once_per_run(self, monkeypatch):
        calls = []
        real = genmod.lattice_gammas

        def counting(table):
            calls.append(len(table.ls))
            time.sleep(0.05)  # long enough for two workers on a cold cache to both miss it
            return real(table)

        monkeypatch.setattr(genmod, "lattice_gammas", counting)
        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", 1 << 18)  # 12 blocks of up to 36 rows
        ap = Aperture(lx=8.0, dx=0.5, ly=8.0, dy=0.5)
        zs = (0.0625, 0.3125)  # planes no other test migrates to: a cold cache
        _first_row_sums(ap, None, 3, 400, zs, (4, 4), 2)
        assert calls == [len(table_2d(8.0, 8.0).ls)] * len(zs)

    def test_isotropic_run_builds_no_factor(self, monkeypatch):
        # None is isotropic: no SpectralFactor (and its probe of the disk)
        # per row block
        made = []
        init = SpectralFactor.__init__

        def spy(self, kind, *args):
            made.append(kind)
            init(self, kind, *args)

        monkeypatch.setattr(SpectralFactor, "__init__", spy)
        run_figure(8, m=2000, threads=2)
        assert made == []


_DIRECTIONAL = SpectralFactor.from_callables(
    lambda kx, ky: 1.0 + 0.5 * np.cos(np.arctan2(ky, kx) - 0.3),
    lambda kx, ky: 1.0 + 0.2 * kx / (2.0 * math.pi),
)


class TestCoefficientSpaceEstimator:
    """Validation accumulates its estimators from the plane coefficients;
    the synthesized fields stay the reference they must reproduce."""

    @pytest.mark.parametrize("ap, factor, z_planes, lag_cells", [
        (Aperture(lx=16.0, dx=1.0 / 16.0), None, (0.0,), 64),
        # unequal sides and spacings, so a swapped x/y axis shows
        (Aperture(lx=8.0, dx=0.25, ly=6.0, dy=0.5), _DIRECTIONAL, (0.0, 0.5), 5),
    ], ids=["fig6-line", "planar-directional"])
    def test_first_row_matches_fft_fields(self, ap, factor, z_planes, lag_cells, monkeypatch):
        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", 1 << 16)  # 3 (line) or 25 blocks
        m = 300
        lags = (0 if ap.kind == "linear" else lag_cells, lag_cells)
        got = _first_row_sums(ap, factor, 9, m, z_planes, lags, 1)
        fields = generate_batch_planes(ap, factor, 9, range(m), z_planes)
        assert len(got) == len(fields) == len(z_planes)
        for a, h in zip(got, fields):
            raw = lag_sum(h, (ap.ny // 2, ap.nx // 2), lags) / m
            assert a.shape == raw.shape and np.max(np.abs(a - raw)) <= 1e-12

    @pytest.mark.parametrize("sub_block", [None, 16 * 1024], ids=["default-budget", "16KiB"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("ap, factor, m, z_planes, lags", [
        (Aperture(**valmod.FIGURE_CONFIGS[6]["aperture"]), None, 1200, (0.0,), (0, 64)),
        (Aperture(lx=8.0, dx=0.25, ly=6.0, dy=0.5), _DIRECTIONAL, 700, (0.0, 0.5), (5, 5)),
    ], ids=["fig6-line", "planar-directional"])
    def test_first_row_sums_are_one_sum_over_all_realizations(
        self, ap, factor, m, z_planes, lags, threads, sub_block, monkeypatch
    ):
        if sub_block is not None:
            monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", sub_block)
        got = _first_row_sums(ap, factor, 5, m, z_planes, lags, threads)
        want = first_row_sums(ap, factor, 5, m, z_planes, lags)
        assert len(got) == len(want) == len(z_planes)
        for a, b in zip(got, want):
            assert np.array_equal(_bits(a), _bits(b))

    def test_repeated_line_plane_is_folded_once_per_plane(self):
        # a line's planes share their draws; each plane's coefficients are
        # written over by its own fold, so the second must not see the first's
        ap = Aperture(lx=16.0, dx=0.25)
        (one,) = _first_row_sums(ap, None, 2, 300, (0.0,), (0, 16), 1)
        for raw in _first_row_sums(ap, None, 2, 300, (0.0, 0.0), (0, 16), 1):
            assert np.array_equal(_bits(raw), _bits(one))

    @pytest.mark.parametrize("m", [0, 5])
    def test_lambda_half_needs_enough_realizations(self, m):
        with pytest.raises(InsufficientRealizations):
            lambda_half_independence(m=m, seed=0, lx=8.0, threads=1)

    def test_lambda_half_row_matches_cyclic_fft_row(self, monkeypatch):
        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", 1 << 18)  # 9 blocks of up to 36 rows
        m = 300
        row, _ = lambda_half_independence(m=m, seed=4, lx=8.0, threads=1)
        ap = Aperture(lx=8.0, dx=0.5, ly=8.0, dy=0.5)
        (h,) = generate_batch_planes(ap, None, 4, range(m), (0.0,))
        # the field is periodic: two periods side by side hold every cyclic lag
        raw = lag_sum(np.concatenate([h, h], axis=-1), (ap.ny // 2, ap.nx // 2), (0, ap.nx // 2))
        assert np.max(np.abs(row - raw[:, 0] / raw[0, 0].real)) <= 1e-12


class TestOrderedMap:
    """The worker map behind generate's chunks and the validation reduction;
    at most two workers, and every wait is bounded."""

    @pytest.fixture
    def submitted(self, monkeypatch):
        """Items submitted to any pool ordered_map starts, in order."""
        items = []

        class CountingPool(valmod.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                items.append(args[0])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(valmod, "ThreadPoolExecutor", CountingPool)
        return items

    def test_results_in_item_order_when_a_later_item_finishes_first(self, submitted):
        second_done = threading.Event()
        waited = []

        def fn(item):
            if item == 0:
                waited.append(second_done.wait(timeout=10.0))
            elif item == 1:
                second_done.set()
            return item * 10

        assert list(ordered_map(fn, range(5), 2)) == [0, 10, 20, 30, 40]
        assert waited == [True]  # item 1 finished while item 0 still ran
        assert submitted == [0, 1, 2, 3, 4]

    def test_a_worker_runs_on_while_an_earlier_item_is_not_taken(self):
        # two workers: item 0 holds one, item 1 frees the other, and item 2
        # runs there only if it was submitted before result 0 was taken
        third_done = threading.Event()
        waited = []

        def fn(item):
            if item == 0:
                waited.append(third_done.wait(timeout=10.0))
            elif item == 2:
                third_done.set()
            return item

        assert list(ordered_map(fn, range(4), 2)) == [0, 1, 2, 3]
        assert waited == [True]

    def test_a_taken_result_is_not_held_while_the_next_is_awaited(self):
        class Result:
            pass

        armed = threading.Event()
        refs, freed = [], []

        def fn(item):
            if item == 1:
                # runs while the consumer awaits it, after dropping result 0
                assert armed.wait(timeout=10.0)
                deadline = time.monotonic() + 5.0
                while refs[0]() is not None and time.monotonic() < deadline:
                    time.sleep(0.01)
                freed.append(refs[0]() is None)
            return Result()

        results = ordered_map(fn, range(3), 2)
        first = next(results)
        refs.append(weakref.ref(first))
        del first
        armed.set()
        next(results)
        results.close()
        assert freed == [True]

    def test_one_more_item_in_flight_than_threads(self, submitted):
        taken = 0
        for _ in ordered_map(lambda item: item, range(9), 2):
            taken += 1
            # the result in hand is taken; the rest are in flight
            assert len(submitted) - taken == min(3, 9 - taken)
        assert taken == 9 and submitted == list(range(9))

    def test_nothing_submitted_after_the_consumer_stops(self, submitted):
        started = []
        results = ordered_map(started.append, range(10), 2)
        next(results)
        results.close()
        assert submitted == [0, 1, 2, 3]  # three at the start, one when result 0 was taken
        assert set(started) <= {0, 1, 2, 3}

    def test_worker_exception_reaches_the_consumer(self, submitted):
        def fn(item):
            if item == 2:
                raise KeyError(item)
            return item

        results = ordered_map(fn, range(6), 2)
        assert [next(results), next(results)] == [0, 1]
        with pytest.raises(KeyError):
            next(results)
        assert submitted == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("threads, items", [(1, range(4)), (2, range(1))])
    def test_no_pool_for_one_worker_or_one_item(self, monkeypatch, threads, items):
        def no_pool(*args, **kwargs):
            raise AssertionError("no worker pool may start")

        monkeypatch.setattr(valmod, "ThreadPoolExecutor", no_pool)
        assert list(ordered_map(lambda item: -item, items, threads)) == [-i for i in items]


class TestRunFigure:
    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            run_figure(5)

    def test_small_run_artifacts(self, tmp_path):
        report = run_figure(6, m=200, seed=1)
        write_figure_artifacts(report, str(tmp_path))
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve[0] == "lag_over_lambda,empirical,closed_form"
        assert len(curve) == 1 + 65
        meta = json.loads((tmp_path / "report.json").read_text())
        assert meta["fig"] == 6 and meta["M"] == 200
        assert set(meta) >= {"rmse", "max_abs_dev", "M", "pass", "thresholds", "seed"}
        assert report.lags_x[-1] == pytest.approx(4.0)

    def test_fig7_grid_artifacts(self, tmp_path):
        write_figure_artifacts(run_figure(7, m=150, seed=1), str(tmp_path))
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve[0] == "lag_over_lambda,lag_y_over_lambda,empirical,closed_form"
        assert len(curve) == 1 + 17 * 17

    @pytest.mark.parametrize("fig", [6, 7, 8])
    def test_every_threshold_decides_the_verdict(self, fig, monkeypatch):
        thresholds = valmod.FIGURE_CONFIGS[fig]["thresholds"]
        for key in thresholds:
            monkeypatch.setitem(thresholds, key, math.inf)
        assert run_figure(fig, m=150, seed=1).passed
        for key in list(thresholds):
            monkeypatch.setitem(thresholds, key, 0.0)
            assert not run_figure(fig, m=150, seed=1).passed, key
            monkeypatch.setitem(thresholds, key, math.inf)

    def test_a_report_owns_its_thresholds(self):
        # writing into one report's thresholds changes no later verdict
        first = run_figure(7, m=150, seed=1)
        first.thresholds["rmse"] = math.inf  # would pass every later run if shared
        second = run_figure(7, m=150, seed=1)
        assert second.passed == first.passed
        assert second.thresholds == valmod.FIGURE_CONFIGS[7]["thresholds"] == dict(rmse=0.03)

    def test_fig8_reports_z_consistency(self):
        report = run_figure(8, m=150, seed=1)
        assert report.z_consistency_max is not None
        assert report.to_json_dict()["z_consistency_max"] == report.z_consistency_max


@pytest.mark.parametrize("run, calls", [
    (lambda: run_figure(7, 150, 1), 1),
    # the 65-lag window once and the 256-point matrix once
    (lambda: compare_kl(200, 1, 2), 2),
], ids=["fig7", "compare-kl"])
def test_closed_form_evaluated_once_per_curve(run, calls, monkeypatch):
    seen = []
    real = AcfClosedForm.__call__

    def counting(self, r):
        seen.append(np.shape(r))
        return real(self, r)

    monkeypatch.setattr(AcfClosedForm, "__call__", counting)
    run()
    assert len(seen) == calls, seen


class TestCompareKl:
    def test_series_side_is_the_fig6_run(self):
        # compare-kl's series side is fig 6's run at the same seed, bit for bit
        got = compare_kl(200, 1, 2).figure
        want = run_figure(6, 200, 1, 2)
        for field in dataclasses.fields(FigureReport):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert np.array_equal(_bits(a), _bits(b)), field.name
            else:
                assert a == b, field.name

    def test_baseline_half_alone_fails_the_comparison(self, monkeypatch):
        # thresholds wide enough for the series half at M = 200, and a
        # baseline moved 0.1 off J0 at every nonzero lag: it stays within
        # the entrywise budget 6/sqrt(M) = 0.42 but misses the rmse
        thresholds = dict(rmse=0.08, max_abs_dev=0.3)
        monkeypatch.setitem(valmod.FIGURE_CONFIGS[6], "thresholds", thresholds)
        real = valmod._kl_first_row

        def off_baseline(*args):
            raw = real(*args)
            raw[1:] += 0.1 * raw[0]
            return raw

        monkeypatch.setattr(valmod, "_kl_first_row", off_baseline)
        result = compare_kl(200, 1, 2)
        assert result.figure.passed and result.entrywise_max < 6.0 / math.sqrt(200)
        assert result.kl_report.rmse > 0.08
        assert not result.passed

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("m", [100, 257, 513, 769, 1025, 1200])
    def test_streamed_kl_estimate_is_the_dense_one_bit_for_bit(self, m, threads):
        # the noise comes in row blocks of 256 realizations (1 MiB of 256
        # points); 257, 513, 769 and 1025 leave one realization past whole
        # blocks, and a one-row block would go through gemv and change the
        # last bits
        ap = Aperture(**valmod.FIGURE_CONFIGS[6]["aperture"])
        c = correlation_matrix(ap, AcfClosedForm("bessel-2d"))
        want = lag_sum(kl_sample(c, 3, m)[:, None, :], (0, ap.nx // 2), (0, 64)) / m
        got = _kl_first_row(kl_root(c), 3, m, 64, threads)
        assert np.array_equal(_bits(got), _bits(want[:, 0]))
        want = _normalize(want[:, 0]).real
        assert np.array_equal(_bits(compare_kl(m, 3, threads).kl_estimate), _bits(want))

    def test_baseline_products_run_on_the_workers_on_one_blas_thread(self, monkeypatch):
        # the pool is the only parallelism: each worker multiplies the
        # noise block it drew on one BLAS thread, and the count the run
        # found comes back afterwards
        calls = baseline._openblas_threads()
        if calls is None:
            pytest.skip("numpy links no bundled OpenBLAS; the fold leaves its threads alone")
        set_threads, get_threads = calls
        seen = []

        class Spied(np.ndarray):
            def __matmul__(self, other):
                seen.append((threading.current_thread(), get_threads()))
                return np.asarray(self) @ other

        draw = valmod.complex_standard_normals
        monkeypatch.setattr(valmod, "complex_standard_normals",
                            lambda *args: draw(*args).view(Spied))
        c = correlation_matrix(Aperture(**valmod.FIGURE_CONFIGS[6]["aperture"]),
                               AcfClosedForm("bessel-2d"))
        root = kl_root(c)
        before = get_threads()
        set_threads(2)
        try:
            _kl_first_row(root, 3, 600, 64, 2)  # blocks of 256, 256 and 88 realizations
            assert len(seen) == 3
            assert all(t is not threading.main_thread() for t, _ in seen)
            assert [n for _, n in seen] == [1, 1, 1]
            assert get_threads() == 2
        finally:
            set_threads(before)


class TestBoundedMemory:
    """The Monte Carlo runs hold row blocks, not whole batches: the
    traced peaks were 84.6 MB (compare-kl) and 70.3 MB (fig 8) when each
    held its batch at once. compare-kl peaks at 3.5-4.5 MB with its
    baseline noise in 1 MiB row blocks and sliced Box-Muller, each block
    multiplied on the worker that drew it; 4.95-5.03 MB when the noise
    blocks were queued for the calling thread to multiply, and 9.5 MB
    with 2 MiB chunks and a full-size cos temporary per draw call."""

    @pytest.mark.parametrize("run, limit_mb", [
        (lambda: compare_kl(m=10_000, threads=2), 4.75),
        (lambda: run_figure(8, m=2000, threads=2), 30.0),
    ], ids=["compare-kl", "fig8"])
    def test_traced_peak(self, run, limit_mb):
        AcfClosedForm("bessel-2d")(0.0)  # scipy's import is not the run's memory
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6

    def test_generate_traced_peak(self):
        # a chunk of 4 realizations of the 256 x 256 grid (a 4.19 MB output
        # block, zero-embedded and transformed in place) holds one slice of
        # one realization's coefficients at a time: 4.8-5.0 MB; 7.5 MB with
        # a whole realization's draws and its own zeroed spectrum, and
        # 13.4 MB when the whole chunk was drawn, shaped and migrated at once
        ap = Aperture(lx=128.0, dx=0.5, ly=128.0, dy=0.5)
        run_constants(ap, _DIRECTIONAL, (0.0,))  # the cached run is not the chunk's memory
        # nor are first-call costs, such as numpy.fft's import and this
        # thread's Philox generator (0.9 MB in a fresh process)
        generate_batch_planes(Aperture(lx=4.0, dx=0.5, ly=4.0, dy=0.5), None, 5, range(1), (0.0,))
        tracemalloc.start()
        try:
            generate_batch_planes(ap, _DIRECTIONAL, 5, range(4), (0.0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 256 * 256 * 16 + 1e6
