import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from holofading import Aperture
from holofading.generator import default_table
from holofading.variances import table_1d, table_2d
from oracles import (
    IndexOutOfBand,
    coefficient_indices,
    fold_index,
    variance_1d,
    variance_2d_closed_form,
    variance_2d_quadrature,
)


class TestVariance1D:
    def test_single_wavelength_center(self):
        assert variance_1d(0, 1.0) == 0.25

    def test_mirror_symmetry(self):
        assert variance_1d(-1, 1.0) == variance_1d(0, 1.0) == 0.25
        for l in range(0, 16):
            assert variance_1d(-l - 1, 16.0) == variance_1d(l, 16.0)

    def test_value_against_quadrature(self):
        # independent oracle: direct quadrature of the singular band spectrum
        want, _ = integrate.quad(lambda k: 1.0 / math.sqrt(1 - k * k), 0.0, 1.0 / 16.0)
        got = variance_1d(0, 16.0)
        assert got == pytest.approx(want / (2 * math.pi), abs=1e-12)
        assert got == pytest.approx(9.954e-3, abs=5e-6)

    @pytest.mark.parametrize("l", [-17, 16, 100])
    def test_out_of_band(self, l):
        with pytest.raises(IndexOutOfBand):
            variance_1d(l, 16.0)

    def test_rejects_non_integer_length(self):
        with pytest.raises(ValueError):
            variance_1d(0, 16.5)

    @pytest.mark.parametrize("lx", [1.0, 4.0, 16.0])
    def test_total_power_telescopes_to_one(self, lx):
        assert abs(table_1d(lx).total_power() - 1.0) <= 1e-12

    def test_all_nonnegative(self):
        assert np.all(table_1d(16.0).sigma_sq >= 0.0)

    @pytest.mark.parametrize("lx", [1.0, 16.0, 4100.0, 32770.0])
    def test_table_bitwise_equal_to_scalar_definition(self, lx):
        table = table_1d(lx)
        want = np.array([variance_1d(int(l), lx) for l in table.ls])
        assert table.sigma_sq.tobytes() == want.tobytes()

    def test_whole_number_side_is_stored_as_float(self):
        table = table_1d(16)
        assert type(table.lx) is float and table.lx == 16.0


class TestVariance2DQuadrature:
    def test_quarter_disk_cell(self):
        assert variance_2d_quadrature(0, 0, 1.0, 1.0) == pytest.approx(0.125, abs=1e-9)

    def test_cell_outside_disk(self):
        # (1, 0) lies on the ellipse, but its cell only touches the disk
        with pytest.raises(IndexOutOfBand):
            variance_2d_quadrature(1, 0, 1.0, 1.0)

    def test_mirrored_quarter_disk(self):
        assert variance_2d_quadrature(-1, 0, 1.0, 1.0) == pytest.approx(0.125, abs=1e-9)

    def test_out_of_band(self):
        with pytest.raises(IndexOutOfBand):
            variance_2d_quadrature(3, 0, 1.0, 1.0)

    def test_quadrant_reflections(self):
        for l, m in [(0, 0), (3, 1), (7, 7), (15, 0)]:
            base = variance_2d_quadrature(l, m, 16.0, 16.0)
            assert variance_2d_quadrature(-l - 1, m, 16.0, 16.0) == base
            assert variance_2d_quadrature(l, -m - 1, 16.0, 16.0) == base

    def test_interior_cell_against_cartesian_quadrature(self):
        # independent route: plain 2D quadrature, valid away from the rim
        x1, x2, y1, y2 = 2 / 16, 3 / 16, 5 / 16, 6 / 16
        want, _ = integrate.dblquad(
            lambda y, x: 1.0 / math.sqrt(1 - x * x - y * y), x1, x2, y1, y2,
            epsabs=1e-12, epsrel=1e-12,
        )
        got = variance_2d_quadrature(2, 5, 16.0, 16.0)
        assert got == pytest.approx(want / (4 * math.pi), abs=1e-11)

    def test_tolerance_convergence(self):
        # halving the tolerance moves no value by more than the tolerance
        for l, m in [(15, 0), (11, 10), (0, 15), (14, 7)]:
            a = variance_2d_quadrature(l, m, 16.0, 16.0, tol=1e-10)
            b = variance_2d_quadrature(l, m, 16.0, 16.0, tol=5e-11)
            assert abs(a - b) <= 1e-10


class TestClosedFormAgreement:
    def test_quarter_disk_cell(self):
        assert variance_2d_closed_form(0, 0, 1.0, 1.0) == pytest.approx(0.125, rel=1e-12)

    @pytest.mark.parametrize("side", [4.0, 16.0])
    def test_matches_quadrature_everywhere(self, side):
        seen = set()
        for l, m in coefficient_indices(side, side).tolist():
            key = (fold_index(l), fold_index(m))
            if key in seen:
                continue
            seen.add(key)
            q = variance_2d_quadrature(l, m, side, side, tol=1e-11)
            c = variance_2d_closed_form(l, m, side, side)
            assert c == pytest.approx(q, rel=1e-8, abs=1e-13), (l, m)

    def test_matches_on_rectangular_aperture(self):
        for l, m in [(0, 0), (6, 2), (-7, -2), (5, -4)]:
            q = variance_2d_quadrature(l, m, 8.0, 4.0, tol=1e-11)
            c = variance_2d_closed_form(l, m, 8.0, 4.0)
            assert c == pytest.approx(q, rel=1e-8, abs=1e-13)

    @pytest.mark.parametrize("lx, ly", [(5.0, 5.0), (7.5, 3.25)])
    def test_oracles_accept_exactly_the_table_index_set(self, lx, ly):
        # lattice points on the ellipse, such as (0, 5) and (3, 4) at 5 x 5,
        # are not in the table: their cells meet the disk in a set of measure 0
        table = table_2d(lx, ly)
        members = set(zip(table.ls.tolist(), table.ms.tolist()))
        accepted = {oracle: set() for oracle in (variance_2d_closed_form, variance_2d_quadrature)}
        for l in range(-math.ceil(lx) - 2, math.ceil(lx) + 2):
            for m in range(-math.ceil(ly) - 2, math.ceil(ly) + 2):
                for oracle, seen in accepted.items():
                    try:
                        oracle(l, m, lx, ly)
                    except IndexOutOfBand:
                        continue
                    seen.add((l, m))
        assert all(seen == members for seen in accepted.values())

    def test_non_integer_sides_allowed(self):
        got = variance_2d_closed_form(0, 0, 5.5, 3.25)
        want = variance_2d_quadrature(0, 0, 5.5, 3.25)
        assert got == pytest.approx(want, rel=1e-10)


class TestTables:
    def test_total_power_single_wavelength(self):
        # the four quarter-disk cells tile the disk
        table = table_2d(1.0, 1.0)
        assert len(table.ls) == 4
        assert table.total_power() == pytest.approx(1.0, abs=1e-12)

    def test_cached_table_is_read_only(self):
        table = table_2d(4.0, 4.0)
        power = table.total_power()
        for arr in (table.ls, table.ms, table.sigma_sq):
            with pytest.raises(ValueError):
                arr[:] = 0
        assert table_2d(4.0, 4.0).total_power() == power == pytest.approx(1.0, abs=1e-12)

    def test_cached_line_table_is_one_read_only_object(self):
        line = Aperture(lx=8.0, dx=0.5)
        table = default_table(line)
        assert default_table(line) is table is table_1d(8)
        for arr in (table.ls, table.sigma_sq):
            with pytest.raises(ValueError):
                arr[:] = 0
        assert table.total_power() == pytest.approx(1.0, abs=1e-12)

    def test_total_power_cap_and_monotonicity(self):
        totals = [table_2d(s, s).total_power() for s in (2.0, 4.0, 8.0, 16.0)]
        for t in totals:
            assert t <= 1.0 + 1e-9
        assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))
        assert 0.95 < totals[-1] <= 1.0

    def test_all_nonnegative(self):
        assert np.all(table_2d(16.0, 16.0).sigma_sq >= 0.0)

    def test_index_set_bounds_and_order(self):
        table = table_2d(4.0, 2.0)
        assert table.ls.min() >= -4 and table.ls.max() <= 3
        assert table.ms.min() >= -2 and table.ms.max() <= 1
        keys = list(zip(table.ms.tolist(), table.ls.tolist()))
        assert keys == sorted(keys)

    def test_index_set_matches_positive_mass(self):
        table = table_2d(4.0, 4.0)
        idx = set(zip(table.ls.tolist(), table.ms.tolist()))
        for l in range(-5, 5):
            for m in range(-5, 5):
                lf, mf = fold_index(l), fold_index(m)
                inside = (lf / 4.0) ** 2 + (mf / 4.0) ** 2 < 1.0
                assert ((l, m) in idx) == inside


def _assert_table_is_scalar_definition(lx, ly):
    idx = coefficient_indices(lx, ly)
    table = table_2d(lx, ly)
    for got, want in ((table.ls, idx[:, 0]), (table.ms, idx[:, 1])):
        assert got.dtype == np.int_ and np.array_equal(got, want)
    want = np.array(
        [variance_2d_closed_form(int(l), int(m), lx, ly) for l, m in idx]
    )
    assert np.array_equal(table.sigma_sq.view(np.uint64), want.view(np.uint64))


class TestClosedFormTable:
    """The table evaluates each lattice corner once; every entry must still
    be bitwise the per-index definition."""

    @pytest.mark.parametrize(
        "lx, ly, lam",
        [(1.0, 1.0, 1.0), (16.0, 16.0, 1.0), (128.0, 128.0, 1.0), (16.0, 8.0, 1.0),
         (8.0, 4.0, 0.5), (7.5, 3.25, 1.0), (3.3, 5.7, 1.0), (3.3, 5.7, 0.5),
         # corners exactly on the rim: (3/5)^2 + (4/5)^2 and (7/25)^2 + (24/25)^2 == 1.0
         (5.0, 5.0, 1.0), (25.0, 25.0, 1.0)],
    )
    def test_bitwise_equal_to_scalar_definition(self, lx, ly, lam):
        # sides in metres at wavelength lam; the table takes them in wavelengths
        _assert_table_is_scalar_definition(lx / lam, ly / lam)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        lx=st.floats(min_value=0.3, max_value=20.0, allow_nan=False, allow_infinity=False),
        ly=st.floats(min_value=0.3, max_value=20.0, allow_nan=False, allow_infinity=False),
    )
    def test_bitwise_equal_to_scalar_definition_property(self, lx, ly):
        _assert_table_is_scalar_definition(lx, ly)
