import math

import numpy as np
import pytest

from holofading.variances import CoefficientVariances2D, table_1d, table_2d
from holofading.wavenumber import KAPPA, lattice_gammas, lattice_wavenumbers


def _harmonics(lx, ly, pairs):
    """A table holding just the given (l, m) harmonics of an lx x ly aperture."""
    idx = np.array(pairs, dtype=int).reshape(-1, 2)
    return CoefficientVariances2D(lx, ly, idx[:, 0], idx[:, 1], np.zeros(len(idx)))


def _table_indices(lx, ly):
    """The table's harmonics (l, m) as an (n, 2) array, in table order."""
    table = table_2d(lx, ly)
    return np.column_stack((table.ls, table.ms))


def _gamma(lx, ly, l, m):
    return lattice_gammas(_harmonics(lx, ly, [(l, m)]))[0]


class TestGamma:
    """The dispersion relation gamma = sqrt(kappa^2 - kx^2 - ky^2)."""

    def test_broadside(self):
        assert _gamma(16.0, 16.0, 0, 0) == KAPPA

    def test_endfire_boundary(self):
        assert _gamma(16.0, 16.0, 16, 0) == 0.0

    def test_diagonal(self):
        assert _gamma(16.0, 16.0, 8, 8) == pytest.approx(KAPPA / math.sqrt(2), rel=1e-14)

    def test_out_of_disk(self):
        # a rim cell's lattice point outside the disk is grazing, not evanescent
        assert _gamma(16.0, 16.0, 17, 0) == 0.0
        assert _gamma(4.0, 4.0, -4, -1) == 0.0

    def test_boundary_tolerance(self):
        # (5/13)^2 + (12/13)^2 rounds to 1 + 2^-52: clamped to exactly 0, no NaN
        assert _gamma(13.0, 13.0, 5, 12) == 0.0
        assert _gamma(5.0, 5.0, 3, 4) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_dispersion_identity(self, seed):
        rng = np.random.default_rng(seed)
        lx, ly = rng.uniform(1.0, 12.0, size=2)
        table = table_2d(lx, ly)
        kx, ky = lattice_wavenumbers(table)
        g = lattice_gammas(table)
        inside = kx * kx + ky * ky < KAPPA**2
        assert np.allclose(g[inside] ** 2 + kx[inside] ** 2 + ky[inside] ** 2, KAPPA**2,
                           rtol=1e-12, atol=0.0)
        assert np.all(g[~inside] == 0.0)


class TestWavelength:
    def test_kappa(self):
        # lengths are in wavelengths: kappa = 2*pi / lambda at lambda = 1
        assert KAPPA == 2.0 * math.pi


class TestLatticeEllipse:
    """The harmonic index set: every (l, m) whose cell overlaps the disk."""

    def test_single_wavelength(self):
        got = {tuple(map(int, r)) for r in _table_indices(1.0, 1.0)}
        assert got == {(0, 0), (-1, 0), (0, -1), (-1, -1)}  # the four quarter disks

    def test_two_wavelengths(self):
        assert len(_table_indices(2.0, 2.0)) == 16

    def test_elongated(self):
        got = {tuple(map(int, r)) for r in _table_indices(16.0, 1.0)}
        assert got == {(l, m) for l in range(-16, 16) for m in (-1, 0)}

    def test_symmetry(self):
        got = {tuple(map(int, r)) for r in _table_indices(7.0, 5.0)}
        for l, m in got:
            assert (-l - 1, m) in got and (l, -m - 1) in got

    @pytest.mark.parametrize("side", [8.0, 16.0])
    def test_cardinality_asymptotics(self, side):
        n = len(_table_indices(side, side))
        assert 0.8 <= n / (math.pi * side * side) <= 1.2

    def test_deterministic_order(self):
        first = _table_indices(5.0, 3.0)
        assert np.array_equal(first, _table_indices(5.0, 3.0))
        keys = [(m, l) for l, m in first]
        assert keys == sorted(keys)


class TestGammaLattice:
    """lattice_gammas and lattice_wavenumbers at the harmonic lattice points."""

    def test_center(self):
        assert _gamma(7.0, 9.0, 0, 0) == KAPPA

    def test_boundary_exact_zero(self):
        table = table_2d(16.0, 16.0)
        rim = (table.ls == -16) & (table.ms == 0)
        assert lattice_gammas(table)[rim].tolist() == [0.0]

    def test_half_radius(self):
        assert _gamma(16.0, 16.0, 8, 0) == pytest.approx(KAPPA * math.sqrt(3.0) / 2.0, rel=1e-14)

    def test_matches_gamma_at_lattice_point(self):
        table = _harmonics(16.0, 8.0, [(3, -2), (-5, 1), (0, 4)])
        kx, ky = lattice_wavenumbers(table)
        assert np.allclose(kx, KAPPA * np.array([3, -5, 0]) / 16.0, rtol=1e-15, atol=0.0)
        assert np.allclose(ky, KAPPA * np.array([-2, 1, 4]) / 8.0, rtol=1e-15, atol=0.0)
        want = np.sqrt(KAPPA**2 - kx**2 - ky**2)
        assert np.allclose(lattice_gammas(table), want, rtol=1e-13, atol=1e-13)

    def test_line_table(self):
        table = table_1d(8.0)
        kx = lattice_wavenumbers(table)
        assert isinstance(kx, np.ndarray)
        assert np.array_equal(kx, KAPPA * np.arange(-8, 8) / 8.0)

    def test_slice_is_that_part_of_the_whole(self):
        # the run record evaluates its gains over slices of the harmonics
        table = table_2d(7.5, 3.25)
        whole = lattice_wavenumbers(table)
        for part in (slice(0, 5), slice(5, 40), slice(40, None)):
            for got, want in zip(lattice_wavenumbers(table, part), whole):
                assert np.array_equal(got, want[part])
        line = table_1d(8.0)
        assert np.array_equal(lattice_wavenumbers(line, slice(3, 9)), lattice_wavenumbers(line)[3:9])
