import math

import numpy as np
import pytest
import scipy.linalg
from scipy import integrate, special

from holofading import Aperture, GridTooLarge, NotPSD
from holofading import baseline
from holofading.baseline import (
    AcfClosedForm,
    CorrelationMatrix,
    clarke_acf_2d,
    clarke_acf_3d,
    correlation_matrix,
    kl_root,
    kl_sample,
)


def _j0(z):
    """J0 as the package evaluates it: the line ACF at r = z / (2 pi)."""
    return clarke_acf_2d(z / (2.0 * math.pi))


class TestBesselJ0:
    @pytest.mark.parametrize("z", [0.5, 3.0, 9.7, 12.9, 13.1, 25.0, 80.0, 199.0])
    def test_against_integral_representation(self, z):
        # (1/pi) * int_0^pi Re e^{i z cos t} dt
        want, _ = integrate.quad(lambda t: math.cos(z * math.cos(t)), 0.0, math.pi, limit=400)
        assert _j0(z) == pytest.approx(want / math.pi, abs=1e-10)

    def test_even_and_scalar(self):
        assert _j0(-3.5) == _j0(3.5)
        assert np.ndim(_j0(1.0)) == 0

    def test_first_zero_location(self):
        # bracket the first root by sign change, then bisect
        lo, hi = 2.0, 3.0
        assert _j0(lo) > 0 > _j0(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _j0(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(2.404825557695773, abs=1e-9)


class TestClarkeAcf:
    def test_3d_unity_at_zero(self):
        assert clarke_acf_3d(0.0) == 1.0

    def test_3d_half_wavelength_zeros(self):
        for k in range(1, 11):
            assert abs(clarke_acf_3d(0.5 * k)) < 1e-15

    def test_3d_quarter_wavelength(self):
        assert clarke_acf_3d(0.25) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_3d_even_and_bounded(self):
        r = np.linspace(-30, 30, 4001)
        vals = clarke_acf_3d(r)
        assert np.allclose(vals, clarke_acf_3d(-r))
        assert np.max(np.abs(vals)) <= 1.0

    def test_3d_matches_definition(self):
        kappa = 2 * math.pi
        for r in (0.1, 0.37, 2.2):
            assert clarke_acf_3d(r) == pytest.approx(math.sin(kappa * r) / (kappa * r), rel=1e-13)

    def test_2d_unity_at_zero(self):
        assert clarke_acf_2d(0.0) == 1.0

    def test_2d_first_zero(self):
        assert abs(clarke_acf_2d(0.38274)) < 1e-4

    def test_2d_half_wavelength(self):
        want, _ = integrate.quad(lambda t: math.cos(math.pi * math.cos(t)), 0.0, math.pi)
        assert clarke_acf_2d(0.5) == pytest.approx(want / math.pi, abs=1e-12)
        assert clarke_acf_2d(0.5) == pytest.approx(-0.30424, abs=5e-6)

    def test_2d_bounded(self):
        vals = clarke_acf_2d(np.linspace(0, 30, 3001))
        assert np.max(np.abs(vals)) <= 1.0

    def test_2d_is_scipy_j0(self):
        r = np.linspace(0.0, 40.0, 2001)
        want = special.j0(2.0 * math.pi * r)
        assert np.array_equal(clarke_acf_2d(r).view(np.uint64), want.view(np.uint64))

    def test_closed_form_wrapper(self):
        assert AcfClosedForm("sinc-3d")(0.5) == clarke_acf_3d(0.5)
        assert AcfClosedForm("bessel-2d")(0.5) == clarke_acf_2d(0.5)
        with pytest.raises(ValueError):
            AcfClosedForm("nope")


class TestCorrelationMatrix:
    def test_two_points_at_half_wavelength(self):
        c = correlation_matrix(Aperture(lx=1.0, dx=0.5), AcfClosedForm("sinc-3d"))
        assert np.allclose(c.values, np.eye(2), atol=1e-15)

    def test_three_point_line_first_row(self):
        # a 4-point lambda/16 line: lags 0, 1/16, 2/16 and 3/16 from its first point
        c = correlation_matrix(Aperture(lx=0.25, dx=1 / 16), AcfClosedForm("bessel-2d"))
        want = [1.0, special.j0(math.pi / 8), special.j0(math.pi / 4), special.j0(3 * math.pi / 8)]
        assert np.allclose(c.values[0], want, atol=1e-14)

    def test_uniform_line_grid_exactly_toeplitz(self):
        ap = Aperture(lx=4.0, dx=0.25)
        c = correlation_matrix(ap, AcfClosedForm("bessel-2d"))
        n = c.values.shape[0]
        for i in range(1, n):
            assert np.array_equal(c.values[i, i:], c.values[0, : n - i])
            assert np.array_equal(c.values[i:, i], c.values[0, : n - i])

    @pytest.mark.parametrize("kind", ["bessel-2d", "sinc-3d"])
    def test_uniform_line_grid_matches_scipy_toeplitz(self, kind):
        ap = Aperture(lx=8.0, dx=0.125)
        acf = AcfClosedForm(kind)
        c = correlation_matrix(ap, acf)
        points = ap.grid_coords()
        lags = np.linalg.norm(points - points[0], axis=1)
        want = scipy.linalg.toeplitz(acf(lags))
        assert c.values.shape == want.shape
        assert np.array_equal(c.values.view(np.uint64), want.view(np.uint64))

    def test_unit_diagonal_and_symmetry(self):
        ap = Aperture(lx=4.0, dx=0.5, ly=4.0, dy=0.5)
        c = correlation_matrix(ap, AcfClosedForm("sinc-3d"))
        assert np.allclose(np.diag(c.values), 1.0)
        assert np.array_equal(c.values, c.values.T)

    def test_grid_too_large(self):
        with pytest.raises(GridTooLarge):
            # 16,384 points: the cap is checked before any matrix is built
            correlation_matrix(Aperture(lx=8.0, dx=1 / 16, ly=8.0, dy=1 / 16),
                               AcfClosedForm("sinc-3d"))

    def test_psd_within_tolerance(self):
        ap = Aperture(lx=8.0, dx=0.125)
        c = correlation_matrix(ap, AcfClosedForm("bessel-2d"))
        eig = np.linalg.eigvalsh(c.values)
        assert eig[0] >= -1e-8 * eig[-1]


class TestKlSample:
    def test_identity_gives_iid(self):
        c = CorrelationMatrix(values=np.eye(8))
        draws = kl_sample(c, seed=1, m=20_000)
        cov = draws.conj().T @ draws / draws.shape[0]
        assert np.max(np.abs(cov - np.eye(8))) < 3.0 / math.sqrt(20_000)

    def test_deterministic(self):
        c = CorrelationMatrix(values=np.eye(4))
        assert np.array_equal(kl_sample(c, 3, 5), kl_sample(c, 3, 5))
        assert not np.allclose(kl_sample(c, 3, 5), kl_sample(c, 4, 5))

    def test_clipping_noop_on_clean_psd(self):
        # identity is cleanly PSD: sampler must reproduce plain iid draws
        vals = np.eye(6)
        c = CorrelationMatrix(values=vals)
        draws = kl_sample(c, seed=9, m=3)
        eigvals, eigvecs = np.linalg.eigh(vals)
        root = (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T
        from holofading.rng import STREAM_BASELINE, complex_standard_normals

        manual = np.stack(
            [complex_standard_normals(9, r, 6, stream=STREAM_BASELINE) for r in range(3)]
        ) @ root.T
        assert np.array_equal(draws, manual)

    def test_not_psd_raises(self):
        vals = np.array([[1.0, 1.1], [1.1, 1.0]])
        c = CorrelationMatrix(values=vals)
        with pytest.raises(NotPSD):
            kl_sample(c, 0, 1)

    def test_sample_covariance_matches_target(self):
        ap = Aperture(lx=1.0, dx=1 / 16)
        c = correlation_matrix(ap, AcfClosedForm("bessel-2d"))
        m = 10_000
        draws = kl_sample(c, seed=5, m=m)
        cov = draws.conj().T @ draws / m
        assert np.max(np.abs(cov - c.values)) < 3.0 / math.sqrt(m)


class TestKlRootBlasThreads:
    def test_eigh_runs_on_one_thread_and_the_count_is_restored(self, monkeypatch):
        calls = baseline._openblas_threads()
        if calls is None:
            pytest.skip("numpy links no bundled OpenBLAS; kl_root leaves its threads alone")
        set_threads, get_threads = calls
        seen = []
        eigh = np.linalg.eigh

        def spy(a):
            seen.append(get_threads())
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        before = get_threads()
        set_threads(2)
        try:
            kl_root(CorrelationMatrix(values=np.eye(4)))
            assert seen == [1]
            assert get_threads() == 2
        finally:
            set_threads(before)
