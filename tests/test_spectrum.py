import math

import numpy as np
import pytest

from holofading import SpectralFactor
from holofading.spectrum import (
    ISOTROPIC_FACTOR_2D,
    ISOTROPIC_FACTOR_3D,
    line_shaping_gain,
    shaping_gains,
)
from holofading.wavenumber import KAPPA
from oracles import coefficient_indices, variance_2d_quadrature


class TestIsotropicFactors:
    def test_3d_at_unit_wavelength(self):
        assert ISOTROPIC_FACTOR_3D == pytest.approx(math.sqrt(KAPPA), rel=1e-15)

    def test_3d_normalization_identity(self):
        a = ISOTROPIC_FACTOR_3D
        assert a * a * KAPPA / (4 * math.pi**2) == pytest.approx(1.0, rel=1e-14)

    def test_2d_constant(self):
        assert ISOTROPIC_FACTOR_2D == pytest.approx(3.5449077018, rel=1e-9)

    def test_2d_squared(self):
        assert ISOTROPIC_FACTOR_2D**2 == pytest.approx(4 * math.pi, rel=1e-15)


class TestPlaneWaveSpectrum:
    def test_constant_tabulated_factor(self, tmp_path):
        c = 2.5
        path = tmp_path / "const.csv"
        _write_polar_csv(path, lambda r, p: c, lambda r, p: c)
        f = SpectralFactor.from_csv(path)
        assert f.amplitudes(0.3 * KAPPA, 0.0) == (c, c)


class TestShapingResponse:
    def test_isotropic_is_identity(self):
        f = SpectralFactor.isotropic_3d()
        rng = np.random.default_rng(0)
        r = KAPPA * np.sqrt(rng.random(64))
        phi = 2 * math.pi * rng.random(64)
        gp, gm = shaping_gains(f, r * np.cos(phi), r * np.sin(phi), KAPPA)
        assert np.allclose(gp, 1.0, rtol=0.0, atol=1e-12)
        assert np.allclose(gm, 1.0, rtol=0.0, atol=1e-12)

    def test_double_weight_doubles_gain(self):
        a = 4 * math.pi / math.sqrt(KAPPA)
        f = SpectralFactor.from_callables(lambda kx, ky: np.full(np.shape(kx), a))
        gp, gm = shaping_gains(f, 0.1, 0.2, KAPPA)
        assert gp == pytest.approx(2.0, rel=1e-13)
        assert gm == pytest.approx(2.0, rel=1e-13)

    def test_one_sided_scattering(self):
        f = SpectralFactor.from_callables(
            lambda kx, ky: np.where(kx < 0, 0.0, ISOTROPIC_FACTOR_3D)
        )
        gp, _ = shaping_gains(f, np.array([-0.5, 0.5]), np.zeros(2), KAPPA)
        assert gp[0] == 0.0
        assert gp[1] == pytest.approx(1.0, rel=1e-13)

    def test_vectorized_gains_clamp_rim_points(self):
        f = SpectralFactor.isotropic_3d()
        gp, gm = shaping_gains(f, np.array([0.0, 1.01 * KAPPA]), np.array([0.0, 0.0]), KAPPA)
        assert np.allclose(gp, 1.0, atol=1e-12)
        assert np.allclose(gm, 1.0, atol=1e-12)

    def test_line_gain_identity_for_isotropic(self):
        for f in (SpectralFactor.isotropic_2d(), SpectralFactor.isotropic_3d()):
            assert np.all(line_shaping_gain(f, np.linspace(-KAPPA, KAPPA, 9)) == 1.0)

    def test_line_gain_constant_factor(self):
        c = 2.0 * ISOTROPIC_FACTOR_2D
        f = SpectralFactor.from_callables(lambda kx, ky: np.full(np.shape(kx), c))
        assert np.allclose(line_shaping_gain(f, np.array([0.0, 1.0])), 2.0)


class TestIsotropicNormalization:
    def test_disk_integral_is_unit_power(self):
        # (1/(2 pi)^2) * integral of (S+ + S-) over the disk equals twice
        # the quadrature oracle's cell masses summed over the index set,
        # which must be 1.
        total = sum(2.0 * variance_2d_quadrature(l, m, 4.0, 4.0)
                    for l, m in coefficient_indices(4.0, 4.0).tolist())
        assert total == pytest.approx(1.0, abs=1e-6)


class TestTabulatedFactors:
    def test_bilinear_interpolation_matches_smooth_profile(self, tmp_path):
        prof = lambda r, p: 1.0 + 0.5 * r  # linear in radius: bilinear is exact
        path = tmp_path / "smooth.csv"
        _write_polar_csv(path, prof, prof, nr=9, nphi=8)
        f = SpectralFactor.from_csv(path)
        ap, am = f.amplitudes(np.array([0.25 * KAPPA]), np.array([0.0]))
        assert ap[0] == pytest.approx(1.125, rel=1e-12)

    def test_rejects_nonfinite(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write_polar_csv(path, lambda r, p: math.inf if r > 0.9 else 1.0, lambda r, p: 1.0)
        with pytest.raises(ValueError, match="unbounded"):
            SpectralFactor.from_csv(path)

    def test_rejects_negative(self, tmp_path):
        path = tmp_path / "neg.csv"
        _write_polar_csv(path, lambda r, p: -1.0, lambda r, p: 1.0)
        with pytest.raises(ValueError, match="negative"):
            SpectralFactor.from_csv(path)

    def test_rejects_partial_grid(self, tmp_path):
        path = tmp_path / "ragged.csv"
        with open(path, "w") as fh:
            fh.write("k_r_over_kappa,k_phi_rad,a_plus,a_minus\n")
            fh.write("0.0,0.0,1.0,1.0\n1.0,0.0,1.0,1.0\n1.0,1.0,1.0,1.0\n")
        with pytest.raises(ValueError, match="full polar grid"):
            SpectralFactor.from_csv(path)

    def test_rejects_missing_column(self, tmp_path):
        # csv.DictReader fills a short row's missing fields with None
        path = tmp_path / "short.csv"
        with open(path, "w") as fh:
            fh.write("k_r_over_kappa,k_phi_rad,a_plus,a_minus\n")
            fh.write("0.0,0.0,1.0,1.0\n0.0,3.0,1.0\n1.0,0.0,1.0,1.0\n1.0,3.0,1.0,1.0\n")
        with pytest.raises(ValueError, match="missing columns"):
            SpectralFactor.from_csv(path)

    def test_rejects_repeated_point(self, tmp_path):
        # (0, 0) twice and (0, 3) never: as many rows as a full 2 x 2 grid
        path = tmp_path / "repeated.csv"
        with open(path, "w") as fh:
            fh.write("k_r_over_kappa,k_phi_rad,a_plus,a_minus\n")
            fh.write("0.0,0.0,1.0,1.0\n0.0,0.0,1.0,1.0\n1.0,0.0,1.0,1.0\n1.0,3.0,1.0,1.0\n")
        with pytest.raises(ValueError, match="repeats"):
            SpectralFactor.from_csv(path)

    @pytest.mark.parametrize("phi", ["7.0", "-0.5", "6.283185307179586"])
    def test_rejects_azimuth_outside_one_turn(self, tmp_path, phi):
        # phi = 7 used to load and interpolate as if on a line: a_plus at
        # phi = pi read 1 + 4 pi / 7, and the wrap cell [7, 2 pi] had
        # negative width; 2 pi itself is the azimuth 0 again
        path = tmp_path / "turn.csv"
        with open(path, "w") as fh:
            fh.write("k_r_over_kappa,k_phi_rad,a_plus,a_minus\n")
            fh.write(f"0.0,0.0,1.0,1.0\n0.0,{phi},5.0,1.0\n1.0,0.0,1.0,1.0\n1.0,{phi},5.0,1.0\n")
        with pytest.raises(ValueError, match=r"azimuths k_phi_rad must lie in \[0, 2\*pi\)"):
            SpectralFactor.from_csv(path)

    def test_kappa_is_not_a_parameter(self, tmp_path):
        # the disk radius is always KAPPA; a caller cannot probe a smaller one
        path = tmp_path / "const.csv"
        _write_polar_csv(path, lambda r, p: 1.0, lambda r, p: 1.0)
        with pytest.raises(TypeError):
            SpectralFactor.from_callables(lambda kx, ky: np.ones(np.shape(kx)), kappa=1.0)
        with pytest.raises(TypeError):
            SpectralFactor.from_csv(path, kappa=1.0)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        with open(path, "w") as fh:
            fh.write("r,phi,a,b\n0,0,1,1\n")
        with pytest.raises(ValueError, match="header"):
            SpectralFactor.from_csv(path)


def _write_polar_csv(path, fplus, fminus, nr=5, nphi=6):
    with open(path, "w") as fh:
        fh.write("k_r_over_kappa,k_phi_rad,a_plus,a_minus\n")
        for i in range(nr):
            r = i / (nr - 1)
            for j in range(nphi):
                p = 2 * math.pi * j / nphi
                fh.write(f"{r},{p},{fplus(r, p)},{fminus(r, p)}\n")
