import math
import tracemalloc

import numpy as np
import pytest

from holofading import Aperture, GridTooCoarse, MigrationRange, SpectralFactor, generate
from holofading import variances
from holofading.generator import (
    coefficient_rows,
    default_table,
    draw_coefficients,
    generate_batch_planes,
    lattice_acf_1d,
    lattice_acf_2d,
    lattice_gammas,
    migrate,
    migration_phases,
    plane_coefficients,
    run_constants,
    series_sum,
)
from holofading.rng import _SLICE, complex_standard_normals
from holofading.spectrum import ISOTROPIC_FACTOR_2D, line_shaping_gain, shaping_gains
from holofading.variances import table_1d, table_2d
from holofading.wavenumber import lattice_wavenumbers
from oracles import brute_force_plane, synthesize

KAPPA = 2.0 * math.pi


# a rectangle's run over more than one plane draws H+ and H- (p = 2); two
# planes at z = 0 evaluate no migration phases. A line's run is one plane.
_TWO_PLANES = (0.0, 0.0)


def _planes(ap):
    return (0.0,) if ap.kind == "linear" else _TWO_PLANES


def _std(ap):
    """The (p, n) draw standard deviations of an isotropic run of the
    aperture that draws H+ and H- of a rectangle, H of a line."""
    return run_constants(ap, None, _planes(ap)).std


class TestAperture:
    def test_kinds(self):
        assert Aperture(lx=16, dx=0.5).kind == "linear"
        assert Aperture(lx=16, dx=0.5, ly=16, dy=0.5).kind == "planar"
        assert Aperture(lx=16, dx=0.5, ly=16, dy=0.5, lz=2, dz=0.5).kind == "volumetric"

    def test_counts(self):
        ap = Aperture(lx=16, dx=0.25, ly=8, dy=0.5)
        assert (ap.nx, ap.ny, ap.nz) == (64, 16, 1)

    @pytest.mark.parametrize("fields", [
        # NaN fails every comparison, so the sign checks alone let it through
        dict(lx=4, dx=0.5, ly=math.nan, dy=0.5),
        dict(lx=4, dx=0.5, ly=4, dy=0.5, lz=math.nan, dz=0.5),
        dict(lx=math.inf, dx=0.5),
        dict(lx=4, dx=math.nan),
        dict(lx=4, dx=0.5, ly=4, dy=0.5, lz=1, dz=-math.inf),
    ], ids=["ly-nan", "lz-nan", "lx-inf", "dx-nan", "dz-inf"])
    def test_non_finite_fields_rejected(self, fields):
        with pytest.raises(ValueError, match="finite"):
            Aperture(**fields)

    def test_nyquist_violation(self):
        with pytest.raises(GridTooCoarse, match="Nyquist"):
            Aperture(lx=16, dx=0.6)

    def test_odd_count_rejected(self):
        with pytest.raises(GridTooCoarse, match="even"):
            Aperture(lx=4.5, dx=0.5)

    def test_spacing_must_tile_the_side(self):
        # 7.9 / 0.5 = 15.8: synthesis would sample at n * 0.49375, not n * 0.5
        with pytest.raises(ValueError, match="tile"):
            Aperture(lx=7.9, dx=0.5, ly=7.9, dy=0.5)
        with pytest.raises(ValueError, match="tile"):
            Aperture(lx=8, dx=0.5, ly=7.9, dy=0.5)
        # within the relative 1e-9 tolerance N is the nearest whole count
        assert Aperture(lx=8 * (1 + 1e-12), dx=0.25).nx == 32
        # nothing is transformed along z, so lz need not be a multiple of dz
        assert Aperture(lx=8, dx=0.5, ly=8, dy=0.5, lz=1.3, dz=0.5).nz == 3

    def test_harmonic_representability(self):
        # dx = lambda/2 always yields N = 2*ceil(L); a coarser effective
        # grid cannot happen without tripping Nyquist first
        ap = Aperture(lx=16, dx=0.5)
        assert ap.nx == 32

    def test_volumetric_needs_planar_base(self):
        with pytest.raises(ValueError):
            Aperture(lx=16, dx=0.5, lz=2, dz=0.5)

    def test_lz_bound(self):
        with pytest.raises(ValueError, match="lz"):
            Aperture(lx=8, dx=0.5, ly=8, dy=0.5, lz=8, dz=0.5)

    def test_z_planes(self):
        ap = Aperture(lx=8, dx=0.5, ly=8, dy=0.5, lz=2, dz=0.5)
        assert ap.z_planes() == (0.0, 0.5, 1.0, 1.5)
        assert Aperture(lx=8, dx=0.5).z_planes() == (0.0,)

    def test_grid_coords_order(self):
        ap = Aperture(lx=2, dx=0.5, ly=2, dy=0.5)
        pts = ap.grid_coords()
        assert pts.shape == (16, 3)
        # x fastest
        assert np.allclose(pts[:4, 0], [-1.0, -0.5, 0.0, 0.5])
        assert np.allclose(pts[:4, 1], -1.0)


_AP4 = Aperture(lx=4.0, dx=0.5, ly=4.0, dy=0.5)
_AP16 = Aperture(lx=16.0, dx=0.5, ly=16.0, dy=0.5)  # the harmonic (8, 0) sits at |k| = kappa/2


class TestDrawCoefficients:
    def test_deterministic(self):
        std = _std(_AP4)
        a = draw_coefficients(std, seed=5)
        b = draw_coefficients(std, seed=5)
        assert a.shape == (2, len(default_table(_AP4).ls))
        assert np.array_equal(a, b)
        c = draw_coefficients(std, seed=6)
        assert not np.allclose(a[0], c[0])

    def test_zero_variance_draws_exact_zero(self):
        # the coverage table has no zero-mass cells; zero-variance indices
        # must still draw exactly zero if a table carries them
        d = draw_coefficients(np.broadcast_to(np.sqrt([0.1, 0.05, 0.0]), (2, 3)), seed=0)
        assert d[0, 2] == 0.0 and d[1, 2] == 0.0
        assert d[0, 0] != 0.0

    def test_sample_variance_one_index(self):
        ap = Aperture(lx=1.0, dx=0.5, ly=1.0, dy=0.5)
        t = default_table(ap)
        std = _std(ap)
        m = 100_000
        vals = np.empty(m, dtype=complex)
        for r in range(m):
            vals[r] = draw_coefficients(std, seed=21, realization=r)[0, 0]
        sigma2 = t.sigma_sq[0]
        assert np.mean(np.abs(vals) ** 2) == pytest.approx(sigma2, rel=0.03)

    def test_half_space_draws_uncorrelated(self):
        ap = Aperture(lx=16.0, dx=0.5, ly=16.0, dy=0.5)
        t = default_table(ap)
        d = draw_coefficients(_std(ap), seed=2)
        live = t.sigma_sq > 0
        xp = d[0, live] / np.sqrt(t.sigma_sq[live])
        xm = d[1, live] / np.sqrt(t.sigma_sq[live])
        corr = np.mean(xp * np.conj(xm))
        assert abs(corr) < 6.0 / math.sqrt(live.sum())

    def test_harmonic_draws_are_consecutive_stream_draws(self):
        # draw j of harmonic k is stream draw p * k + j, for p = 2 and 1 (a
        # single plane and a line), and a slice of the run with its start
        # is that slice of the draw
        for ap, zs in ((_AP4, _TWO_PLANES), (_AP4, (0.0,)), (Aperture(lx=4.0, dx=0.5), (0.0,))):
            run = run_constants(ap, None, zs)
            p, n = run.std.shape
            z = complex_standard_normals(9, range(2), p * n)
            whole = draw_coefficients(run.std, seed=9, realization=range(2))
            assert np.array_equal(whole, z.reshape(2, n, p).swapaxes(-1, -2) * run.std)
            part = run[slice(2, 6)]
            got = draw_coefficients(part.std, seed=9, realization=range(2), start=part.start)
            assert np.array_equal(got, whole[..., 2:6])


def _shaped_std(factor, ap=_AP4):
    """The (p, n) draw standard deviations of a run of the aperture with
    the factor, over two planes of a rectangle (H+, H-) or a line's one;
    the gains are in them."""
    return run_constants(ap, factor, _planes(ap)).std


def _direct_std(factor, ap=_AP4):
    """sqrt(w g^2) of a direct evaluation of the gains at all of the
    table's harmonics: (sqrt(sigma2 g+^2), sqrt(sigma2 g-^2)) of a
    rectangle, (sqrt(2 sigma2 g^2),) of a line."""
    t = default_table(ap)
    k = lattice_wavenumbers(t)
    if ap.kind == "linear":
        return (np.sqrt(line_shaping_gain(factor, k) ** 2 * (2.0 * t.sigma_sq)),)
    return tuple(np.sqrt(g**2 * t.sigma_sq) for g in shaping_gains(factor, *k, KAPPA))


def _lobed_csv(tmp_path):
    """A tabulated factor with lobes in both weights, from a 17 x 48 polar
    grid written to a CSV under tmp_path."""
    path = tmp_path / "factor.csv"
    with open(path, "w") as fh:
        fh.write("k_r_over_kappa,k_phi_rad,a_plus,a_minus\n")
        for i in range(17):
            for j in range(48):
                p = 2 * math.pi * j / 48
                fh.write(f"{i / 16},{p},{1 + 0.5 * math.cos(p - 1)},{1 + 0.3 * math.sin(p)}\n")
    return SpectralFactor.from_csv(path)


def _traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _ring(value):
    """An analytic factor that takes ``value`` on a thin ring at |k| =
    kappa/2 and 1 elsewhere: the ring falls between the radii of the
    load-time probe, but the harmonic (8, 0) of a 16-wavelength side sits
    on it."""
    return SpectralFactor.from_callables(
        lambda kx, ky: np.where(np.abs(np.hypot(kx, ky) / KAPPA - 0.5) < 1e-3, value, 1.0)
    )


def _shaped_draw(monkeypatch, factor, seed=1):
    """Realization 0's (2, n) draw of an _AP4 run over two planes with the
    factor, the block ``plane_coefficients`` drew and migrated."""
    import holofading.generator as genmod

    drawn = []
    real = genmod.draw_coefficients

    def keep(*args, **kwargs):
        drawn.append(real(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(genmod, "draw_coefficients", keep)
    planes = plane_coefficients(run_constants(_AP4, factor, _TWO_PLANES), seed, (0,))
    monkeypatch.setattr(genmod, "draw_coefficients", real)
    (h,) = drawn
    for plane in planes:
        assert np.array_equal(plane, migrate(h, None))  # no stage between draw and plane
    return h[0]


class TestShapeCoefficients:
    """A shaped coefficient is a circular normal of variance sigma2 g^2, so
    the gains live in the run's ``std`` rows and no stage shapes a draw."""

    def test_isotropic_identity(self, monkeypatch):
        # an isotropic factor is the run of None: one broadcast row of
        # sqrt(sigma2) over (H+, H-), sqrt(2 sigma2) of a line
        for ap, iso in ((_AP4, SpectralFactor.isotropic_3d()),
                        (Aperture(lx=4.0, dx=0.5), SpectralFactor.isotropic_2d())):
            std, plain = _shaped_std(iso, ap), _shaped_std(None, ap)
            assert np.array_equal(std, plain) and std.strides == plain.strides
        d = draw_coefficients(_std(_AP4), seed=1)
        s = _shaped_draw(monkeypatch, SpectralFactor.isotropic_3d())
        assert np.array_equal(s, d)

    def test_shapes_in_place(self, monkeypatch):
        # the draw is scaled in place by the shaped std, no copy and no
        # later gain pass: standard normals times sqrt(sigma2 g+-^2)
        f = self._lobed()
        std = _shaped_std(f)
        z = complex_standard_normals(1, 0, std.size).reshape(-1, 2).T
        s = _shaped_draw(monkeypatch, f)
        assert np.array_equal(s, z * std)

    def test_half_disk_blackout(self, monkeypatch):
        t = table_2d(4.0, 4.0)
        f = SpectralFactor.from_callables(
            lambda kx, ky: np.where(kx < 0, 0.0, 1.0)
        )
        std = _shaped_std(f)
        scale = math.sqrt(KAPPA) / (2 * math.pi)
        for row in std:  # zero std where the factor is dark, sqrt(sigma2 g^2) elsewhere
            assert np.all(row[t.ls < 0] == 0.0)
            assert np.array_equal(row[t.ls >= 0], np.sqrt(scale**2 * t.sigma_sq[t.ls >= 0]))
        s = _shaped_draw(monkeypatch, f)
        assert np.all(s[:, t.ls < 0] == 0.0) and np.all(s[:, t.ls >= 0] != 0.0)
        one = run_constants(_AP4, f, (0.0,)).std  # one plane: sqrt(sigma2 (g^2 + g^2))
        assert np.all(one[0, t.ls < 0] == 0.0) and np.all(one[0, t.ls >= 0] > 0.0)

    def test_constant_gain_scales_power(self, monkeypatch):
        d = draw_coefficients(_std(_AP4), seed=3)
        g = 2.0
        a = g * 2.0 * math.pi / math.sqrt(KAPPA)
        f = SpectralFactor.from_callables(lambda kx, ky: np.full(np.shape(kx), a))
        s = _shaped_draw(monkeypatch, f, seed=3)
        assert np.allclose(np.abs(s[0]) ** 2, g * g * np.abs(d[0]) ** 2, rtol=1e-12)

    @staticmethod
    def _lobed():
        return SpectralFactor.from_callables(
            lambda kx, ky: 1.0 + 0.5 * np.cos(kx), lambda kx, ky: 2.0 + np.sin(ky)
        )

    def test_cached_gains_are_read_only(self):
        f = self._lobed()
        run = run_constants(_AP4, f, (0.0, 0.5))
        assert run_constants(_AP4, f, (0.0, 0.5)) is run  # evaluated once per run
        assert set(type(run).__dataclass_fields__) == {"std", "phases", "bins", "start"}
        assert run.phases[0] is None and run.phases[1].shape == run.bins.shape
        for a in (run.std, run.phases[1], run.bins):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        # p = 2 draws per harmonic of a rectangle, H+ and H-, each row its
        # own sqrt(sigma2 g^2); isotropic, one row of sqrt(sigma2) broadcast;
        # p = 1 of a line, of sqrt(2 sigma2 g^2)
        n = len(run.bins)
        assert run.std.shape == (2, n)
        iso = run_constants(_AP4, None, (0.0, 0.5)).std
        assert iso.shape == (2, n) and iso.strides[0] == 0 and not iso.base.flags.writeable
        assert np.array_equal(iso[0], np.sqrt(default_table(_AP4).sigma_sq))
        line = run_constants(Aperture(lx=4.0, dx=0.5), f, (0.0,))
        assert line.std.shape == (1, len(line.bins)) and not line.std.flags.writeable
        assert np.array_equal(line.std[0], _direct_std(f, Aperture(lx=4.0, dx=0.5))[0])
        iso_line = run_constants(Aperture(lx=4.0, dx=0.5), None, (0.0,)).std
        assert np.array_equal(iso_line[0], np.sqrt(2.0 * table_1d(4.0).sigma_sq))
        assert not iso_line.base.flags.writeable  # the row a view shows is read-only too
        part = run[slice(2, 5)]  # a slice of the record is views, read-only too
        assert part.start == 2 and np.shares_memory(part.std, run.std)
        assert part.std.shape == (2, 3)
        assert np.shares_memory(part.phases[1], run.phases[1]) and not part.phases[1].flags.writeable
        # one plane: H(z) is one draw of variance sigma2 (g+^2 + g-^2), gains
        # and phases folded in, and its plane still range-checked
        one = run_constants(_AP4, f, (0.5,))
        gp, gm = shaping_gains(f, *lattice_wavenumbers(default_table(_AP4)), KAPPA)
        assert one.std.shape == (1, n) and not one.std.flags.writeable
        assert np.array_equal(one.std[0], np.sqrt(default_table(_AP4).sigma_sq * (gp**2 + gm**2)))
        assert one.phases == (None,)
        iso = run_constants(_AP4, None, (0.0,)).std
        assert np.array_equal(iso, np.sqrt(2.0 * default_table(_AP4).sigma_sq)[np.newaxis])
        with pytest.raises(MigrationRange):
            run_constants(_AP4, f, (4.0,))

    def test_run_gains_equal_a_direct_evaluation(self):
        # the run's std rows are sqrt(sigma2 g^2) of a direct evaluation at
        # the table's harmonics, bit for bit
        f = self._lobed()
        std = _shaped_std(f)
        want = _direct_std(f)
        assert np.array_equal(std[0], want[0]) and np.array_equal(std[1], want[1])

    def test_tabulated_gains_are_evaluated_in_slices(self, tmp_path):
        # the polar interpolation makes about 20 temporaries of its points:
        # over all 51,940 harmonics of the 256 x 256 grid at once they
        # peaked at 8.4 MB, over slices of _SLICE harmonics at 3.3 MB
        # while the wavenumbers were whole arrays, at 2.7 MB with the
        # wavenumbers sliced too and the FFT bins formed after the gains,
        # and at 2.29 MB with the gains folded into the two std rows
        f = _lobed_csv(tmp_path)
        ap = Aperture(lx=128.0, dx=0.5, ly=128.0, dy=0.5)
        default_table(ap)  # the cached table is not the evaluation's memory
        std = []
        assert _traced_peak(lambda: std.append(_shaped_std(f, ap))) < 2.35e6
        # a factor is pointwise, so the slices give the one evaluation's bits
        want = _direct_std(f, ap)
        assert np.array_equal(std[0][0], want[0]) and np.array_equal(std[0][1], want[1])

    def test_line_gains_across_slices(self):
        f = self._lobed()
        ap = Aperture(lx=4100.0, dx=0.5)
        assert _SLICE < len(default_table(ap).ls) < 2 * _SLICE  # a whole slice and a remainder
        assert np.array_equal(_shaped_std(f, ap)[0], _direct_std(f, ap)[0])

    def test_setup_peaks(self, tmp_path):
        # the setup of a 256 x 256 generate: a cold table peaked at 2.92 MB
        # traced with harmonic-length index temporaries and 1.32 MB as a
        # mask gathered in place; the run record of one plane with a
        # tabulated factor at 3.34 MB with whole wavenumber and gain
        # arrays, and at 1.81 MB evaluated slice by slice; over the planes
        # (0, 0.5) at 4.36 MB with gain arrays beside std and both
        # e^{+-i gamma z}, and at 3.12 MB with the gains in std and one phase
        variances._table_2d_cached.cache_clear()
        assert _traced_peak(lambda: table_2d(128.0, 128.0)) < 1.4e6
        f = _lobed_csv(tmp_path)
        ap = Aperture(lx=128.0, dx=0.5, ly=128.0, dy=0.5)
        assert _traced_peak(lambda: run_constants(ap, f, (0.0,))) < 1.9e6
        assert _traced_peak(lambda: run_constants(ap, f, (0.0, 0.5))) < 3.2e6

    @pytest.mark.parametrize("ap, value", [
        (_AP16, np.nan), (_AP16, -1.0), (Aperture(lx=16.0, dx=0.5), np.nan),
        (Aperture(lx=16.0, dx=0.5), -1.0),
    ], ids=["nan-ring", "negative-ring", "nan-ring-line", "negative-ring-line"])
    def test_bad_gains_between_probe_points_raise(self, ap, value):
        # at a harmonic on the ring, every sample of the realization was
        # NaN; a line's RMS gain hid a negative weight
        f = _ring(value)
        for zs in _planes(ap), (0.0,):  # the two-draw and the one-draw run
            with pytest.raises(ValueError, match=r"spectral factor \(analytic\)"):
                run_constants(ap, f, zs)
        with pytest.raises(ValueError, match="negative"):
            generate(ap, factor=f, seed=1)
        assert np.isfinite(generate(ap, factor=_ring(1.0), seed=1).samples).all()


class TestMigrate:
    def test_zero_plane_is_sum(self):
        d = draw_coefficients(_std(_AP4), seed=4)
        assert np.allclose(migrate(d, None), d[0] + d[1], rtol=0, atol=0)
        # a line's one draw is its plane, in an array of its own, or the
        # draw block's own view when it is the block's only plane
        h = draw_coefficients(_std(Aperture(lx=4.0, dx=0.5)), seed=4, realization=range(3))
        plane = migrate(h, None)
        assert np.array_equal(plane, h[:, 0]) and not np.shares_memory(plane, h)
        only = migrate(h, None, only=True)
        assert np.array_equal(only, h[:, 0]) and np.shares_memory(only, h)

    @pytest.mark.parametrize("ap, zs", [
        (_AP4, (0.0,)), (_AP4, (0.5,)), (Aperture(lx=4.0, dx=0.5), (0.0,)),
        (Aperture(lx=4.0, dx=0.5), (0.0, 0.0)),
    ], ids=["planar", "planar-z", "line", "line-repeated"])
    def test_only_plane_of_one_draw_is_not_copied(self, ap, zs, monkeypatch):
        # a run of one draw per harmonic over one plane returns the draw
        # block's view; repeated planes each get an array of their own
        import holofading.generator as genmod

        drawn = []
        real = genmod.draw_coefficients

        def keep(*args):
            drawn.append(real(*args))
            return drawn[-1]

        monkeypatch.setattr(genmod, "draw_coefficients", keep)
        planes = plane_coefficients(run_constants(ap, None, tuple(zs)), 4, range(3))
        (h,) = drawn
        assert h.shape[-2] == 1
        for plane in planes:
            assert np.array_equal(plane, h[:, 0])
        shared = [np.shares_memory(plane, h) for plane in planes]
        assert shared == ([True] if len(zs) == 1 else [False] * len(zs))

    def test_zero_plane_is_the_phase_path(self):
        # e^{i gamma 0} = 1 exactly, so the z = 0 sum is the phase path
        # H+ (1 + 0j) + H- (1 - 0j), also where zero gains leave zero
        # coefficients; there the sum may keep a -0 that the multiply by
        # 1 + 0j turns into +0, a sign no synthesized sample carries
        half = SpectralFactor.from_callables(lambda kx, ky: np.where(kx < 0, 0.0, 1.0 + ky / KAPPA))
        ap = _AP4
        t = default_table(ap)
        run = run_constants(ap, half, _TWO_PLANES)
        d = draw_coefficients(run.std, seed=4, realization=range(3))  # the gains in std
        one = np.exp(1j * lattice_gammas(t) * 0.0)
        want = d[:, 0] * one + d[:, 1] * np.conj(one)
        assert run.phases[0] is None
        got = migrate(d, run.phases[0])
        assert np.count_nonzero(got == 0) > 0  # the factor is 0 on half the disk
        assert np.array_equal(got, want)
        live = got != 0
        assert np.array_equal(got[live].view(np.uint64), want[live].view(np.uint64))
        # the phase path forms e^{-i gamma z} as the conjugate of its one array
        assert np.array_equal(migrate(d, one).view(np.uint64), want.view(np.uint64))
        fields = synthesize(got, ap), synthesize(want, ap)
        assert np.array_equal(fields[0].view(np.uint64), fields[1].view(np.uint64))

    def test_zero_plane_evaluates_no_gammas(self, monkeypatch):
        import holofading.generator as genmod

        calls = []
        real = genmod.lattice_gammas

        def counting(table):
            calls.append(len(table.ls))
            return real(table)

        monkeypatch.setattr(genmod, "lattice_gammas", counting)
        genmod.run_constants.cache_clear()  # a cold cache, whatever ran before
        run = run_constants(_AP4, None, (0.0,))
        assert run.phases == (None,)
        migrate(draw_coefficients(run.std, seed=4), run.phases[0])
        assert calls == []

    def test_range_check(self):
        t = table_2d(4.0, 4.0)
        with pytest.raises(MigrationRange):
            migration_phases(t, 4.0)
        migration_phases(t, 3.9)  # inside the range
        with pytest.raises(MigrationRange):  # a run checks each of its planes
            run_constants(_AP4, None, (0.0, -4.0))
        with pytest.raises(MigrationRange):
            migration_phases(table_1d(4.0), 0.5)

    def test_second_moment_invariant_in_z(self):
        ap = Aperture(lx=1.0, dx=0.5, ly=1.0, dy=0.5)
        t = default_table(ap)
        std, phases = _std(ap), migration_phases(t, 0.4)
        m = 100_000
        acc0 = np.zeros(len(t.ls))
        acc1 = np.zeros(len(t.ls))
        for r in range(m):
            d = draw_coefficients(std, seed=30, realization=r)
            acc0 += np.abs(migrate(d, None)) ** 2
            acc1 += np.abs(migrate(d, phases)) ** 2
        want = 2.0 * t.sigma_sq
        for acc in (acc0, acc1):
            got = acc / m
            # 3 sigma of the chi-square sample mean
            assert np.all(np.abs(got - want) <= 3.0 * want / math.sqrt(m) + 1e-12)

    def test_phases_evaluated_once_per_plane(self, monkeypatch):
        # e^{i gamma z} is evaluated once per plane of a run and read-only;
        # the draw, which callers reuse across planes, is left as it was
        import holofading.generator as genmod

        calls = []
        real = genmod.lattice_gammas

        def counting(table):
            calls.append(len(table.ls))
            return real(table)

        d = draw_coefficients(_std(_AP4), seed=4, realization=range(3))
        monkeypatch.setattr(genmod, "lattice_gammas", counting)
        t = table_2d(4.0, 4.0)
        kept = d.copy()
        zs = (0.1234, -0.4321)  # planes no other test migrates to: a cold cache
        first = [migrate(d, p) for p in run_constants(_AP4, None, zs).phases]
        again = [migrate(d, p) for p in run_constants(_AP4, None, zs).phases]
        assert calls == [len(t.ls)] * len(zs)
        for z, a, b in zip(zs, first, again):
            phase = np.exp(1j * real(t) * z)
            assert np.array_equal(a, d[:, 0] * phase + d[:, 1] * np.conj(phase))
            assert np.array_equal(a, b)
        assert np.array_equal(d, kept)
        phase = run_constants(_AP4, None, zs).phases[0]  # e^{+i gamma z} alone
        assert np.array_equal(phase, np.exp(1j * real(t) * zs[0]))
        with pytest.raises(ValueError):
            phase[0] = 0.0

    def test_boundary_index_constant_in_z(self):
        ap = Aperture(lx=16.0, dx=0.5, ly=16.0, dy=0.5)
        t = default_table(ap)
        d = draw_coefficients(_std(ap), seed=5)
        rim = np.flatnonzero(lattice_gammas(t) == 0.0)
        assert rim.size > 0
        h0 = migrate(d, None)[rim]
        h1 = migrate(d, migration_phases(t, 7.0))[rim]
        assert np.array_equal(h0, h1)


class TestSynthesize:
    @pytest.mark.parametrize("ap, zs", [
        (Aperture(lx=4, dx=0.5, ly=3, dy=0.25, lz=1, dz=0.5), (0.0, 0.5)),
        (Aperture(lx=4, dx=0.5), (0.0,)),
    ], ids=["volumetric", "line"])
    def test_batch_planes_are_views_of_one_block(self, ap, zs):
        # generate writes each chunk as the block its planes were
        # synthesized into, with no stacking copy
        planes = generate_batch_planes(ap, None, 3, range(3), zs)
        block = planes.swapaxes(0, 1)
        assert block.shape == (3, len(zs), ap.ny, ap.nx) and block.flags.c_contiguous
        coefficients = plane_coefficients(run_constants(ap, None, tuple(zs)), 3, range(3))
        for plane, h in zip(planes, coefficients):
            assert np.shares_memory(plane, block)
            assert np.array_equal(plane, synthesize(h, ap))

    def test_single_dc_coefficient(self):
        t = table_2d(4.0, 4.0)
        ap = Aperture(lx=4, dx=0.5, ly=4, dy=0.5)
        hz = np.zeros(len(t.ls), dtype=complex)
        dc = np.flatnonzero((t.ls == 0) & (t.ms == 0))[0]
        hz[dc] = 1.0
        out = synthesize(hz, ap)
        assert np.allclose(out, 1.0, rtol=0, atol=1e-14)

    def test_single_harmonic_pointwise(self):
        t = table_2d(4.0, 4.0)
        ap = Aperture(lx=4, dx=0.5, ly=4, dy=0.5)
        hz = np.zeros(len(t.ls), dtype=complex)
        k = np.flatnonzero((t.ls == 1) & (t.ms == 0))[0]
        hz[k] = 1.0
        out = synthesize(hz, ap)
        ns = np.arange(-ap.nx // 2, ap.nx // 2)
        want = np.exp(2j * np.pi * ns / ap.nx)
        assert np.allclose(out, want[np.newaxis, :], atol=1e-13)

    @pytest.mark.parametrize("ap", [
        Aperture(lx=4, dx=0.5, ly=4, dy=0.5),
        Aperture(lx=16, dx=1 / 16),
        Aperture(lx=4, dx=0.25),
        Aperture(lx=7, dx=0.5),
    ], ids=["planar-4x4", "line-16", "line-4", "line-7"])
    def test_matches_brute_force(self, ap):
        t = default_table(ap)
        phases = None if ap.kind == "linear" else migration_phases(t, 0.25)
        for r in range(25):
            h = migrate(draw_coefficients(_std(ap), seed=77, realization=r), phases)
            fft = synthesize(h, ap)
            ref = brute_force_plane(h, ap)
            assert fft.shape == ref.shape == (ap.ny, ap.nx)
            assert np.max(np.abs(fft - ref)) < 1e-10

    def test_line_single_harmonic(self):
        t = table_1d(4.0)
        ap = Aperture(lx=4, dx=0.25)
        h = np.zeros(len(t.ls), dtype=complex)
        h[np.flatnonzero(t.ls == -2)[0]] = 1.0
        out = synthesize(h, ap)[0]
        ns = np.arange(-ap.nx // 2, ap.nx // 2)
        assert np.allclose(out, np.exp(-2j * np.pi * 2 * ns / ap.nx), atol=1e-13)


class TestSlicedRealizations:
    """A realization of more than rng._SLICE draws is drawn, shaped,
    migrated and zero-embedded in slices of rng._SLICE draws, straight into
    its output rows; each output bit must be the whole realization's."""

    FACTOR = SpectralFactor.from_callables(
        lambda kx, ky: 1.0 + 0.5 * np.cos(np.arctan2(ky, kx) - 0.3),
        lambda kx, ky: 1.0 + 0.2 * kx / KAPPA,
    )

    @staticmethod
    def _reference(ap, factor, seed, reals, zs):
        """All harmonics drawn at once, zero-embedded in a spectrum of their
        own and transformed out of place, shifted by numpy's fftshift."""
        t = default_table(ap)
        rows = 0 if ap.kind == "linear" else t.ms % ap.ny  # a line is one row
        planes = []
        for h in plane_coefficients(run_constants(ap, factor, tuple(zs)), seed, reals):
            spec = np.zeros(h.shape[:-1] + (ap.ny, ap.nx), dtype=complex)
            spec[..., rows, t.ls % ap.nx] = h
            grid = np.fft.fftshift(np.fft.ifftn(spec, axes=(-2, -1)), axes=(-2, -1))
            planes.append(grid * (ap.nx * ap.ny))
        return planes

    def _check(self, ap, zs, monkeypatch):
        import holofading.generator as genmod

        calls = []
        real = genmod.complex_standard_normals

        def counting(seed, reals, n, **kwargs):
            calls.append(n)
            return real(seed, reals, n, **kwargs)

        monkeypatch.setattr(genmod, "complex_standard_normals", counting)
        std = run_constants(ap, self.FACTOR, tuple(zs)).std
        draws = std.size
        assert coefficient_rows(std) == 1 and draws > _SLICE
        got = generate_batch_planes(ap, self.FACTOR, 3, range(2), zs)
        # one call per slice and realization, the last slice a remainder
        assert calls == ([_SLICE] * (draws // _SLICE) + [draws % _SLICE]) * 2
        assert got.shape == (len(zs), 2, ap.ny, ap.nx)
        for plane, want in zip(got, self._reference(ap, self.FACTOR, 3, range(2), zs)):
            assert np.array_equal(plane.view(np.uint64), want.view(np.uint64))

    def test_over_budget_plane(self, monkeypatch):
        # 51,940 harmonics over two planes: 1.66 MB of draws a realization,
        # in 13 slices
        self._check(Aperture(lx=128.0, dx=0.5, ly=128.0, dy=0.5), (0.0, 0.5), monkeypatch)

    @pytest.mark.parametrize("z", [0.0, 0.5])
    def test_single_plane(self, z, monkeypatch):
        # one draw per harmonic of the one plane: 51,940 draws, 0.83 MB a
        # realization, within SUB_BLOCK_BYTES but in 7 slices all the same
        self._check(Aperture(lx=128.0, dx=0.5, ly=128.0, dy=0.5), (z,), monkeypatch)

    def test_over_budget_volumetric(self, monkeypatch):
        import holofading.generator as genmod

        # 5,172 harmonics of two draws each, over a 64 KiB budget (one
        # realization a row block): two slices, one partial
        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", 1 << 16)
        ap = Aperture(lx=40.0, dx=0.5, ly=40.0, dy=0.5, lz=1.0, dz=0.5)
        self._check(ap, ap.z_planes(), monkeypatch)

    def test_over_budget_line(self, monkeypatch):
        import holofading.generator as genmod

        # 10,000 harmonics of one draw each, over a 64 KiB budget: a whole
        # slice of _SLICE harmonics and a partial one
        monkeypatch.setattr(genmod, "SUB_BLOCK_BYTES", 1 << 16)
        self._check(Aperture(lx=5000.0, dx=0.5), (0.0,), monkeypatch)

    def test_embed_refuses_a_grid_it_cannot_flatten_in_place(self):
        import holofading.generator as genmod

        ap = Aperture(lx=4.0, dx=0.5, ly=4.0, dy=0.5)
        h = np.ones((1, len(default_table(ap).ls)), dtype=complex)
        grid = np.zeros((1, ap.nx, ap.ny), dtype=complex).swapaxes(-2, -1)
        with pytest.raises(AttributeError):  # a copy would lose every bin
            genmod._embed(grid, h, run_constants(ap, None, (0.0,)).bins)


class TestGenerate:
    def test_deterministic(self):
        ap = Aperture(lx=8, dx=0.5, ly=8, dy=0.5)
        a = generate(ap, seed=11)
        b = generate(ap, seed=11)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("factor", [
        None,
        SpectralFactor.from_callables(
            lambda kx, ky: 1.0 + 0.5 * np.cos(np.arctan2(ky, kx) - 0.3),
            lambda kx, ky: 1.0 + 0.2 * kx / KAPPA,
        ),
    ], ids=["isotropic", "directional"])
    def test_batch_equals_singles(self, factor):
        ap = Aperture(lx=8, dx=0.5, ly=8, dy=0.5)
        batch = generate_batch_planes(ap, factor, 13, range(5), (0.0, 0.5))
        for r in range(5):
            single = generate(ap, factor, seed=13, realization=r, z_planes=(0.0, 0.5))
            assert np.array_equal(batch[0][r], single.samples[0])
            assert np.array_equal(batch[1][r], single.samples[1])

    @pytest.mark.parametrize("factor", [
        None,
        SpectralFactor.from_callables(lambda kx, ky: np.where(kx < 0, 0.5, 2.0)),
    ], ids=["isotropic", "shaped"])
    def test_line_batch_equals_singles(self, factor):
        ap = Aperture(lx=16, dx=0.5)
        (batch,) = generate_batch_planes(ap, factor, 13, range(4), (0.0,))
        for r in range(4):
            single = generate(ap, factor, seed=13, realization=r)
            assert np.array_equal(batch[r], single.samples[0])

    @pytest.mark.parametrize("kwargs", [
        dict(seed=-1), dict(seed=1 << 64), dict(realization=-1), dict(realization=1 << 64),
    ], ids=["seed-negative", "seed-past-64-bits", "realization-negative",
            "realization-past-64-bits"])
    def test_seed_and_realization_outside_64_bits_raise(self, kwargs):
        # a masked key would draw the samples of -1 + 2^64
        with pytest.raises(ValueError, match=r"2\*\*64"):
            generate(_AP4, **kwargs)

    def test_top_64_bit_seed_and_realization_draw(self):
        top = (1 << 64) - 1
        a = generate(_AP4, seed=top, realization=top).samples
        assert np.all(np.isfinite(a)) and np.any(a != 0)
        assert not np.allclose(a, generate(_AP4, seed=top - 1, realization=top).samples)

    def test_line_rejects_migration(self):
        ap = Aperture(lx=16, dx=0.5)
        with pytest.raises(MigrationRange):
            generate(ap, z_planes=(0.5,))

    def test_sample_power_matches_table(self):
        ap = Aperture(lx=8, dx=0.5, ly=8, dy=0.5)
        t = table_2d(8.0, 8.0)
        m = 10_000
        (fields,) = generate_batch_planes(ap, None, 17, range(m), (0.0,))
        power = np.mean(np.abs(fields[:, ap.ny // 2, ap.nx // 2]) ** 2)
        assert power == pytest.approx(t.total_power(), rel=0.03)

    def test_same_draw_different_planes_share_power(self):
        ap = Aperture(lx=8, dx=0.5, ly=8, dy=0.5)
        t = table_2d(8.0, 8.0)
        d = draw_coefficients(_std(ap), seed=19)
        h0 = migrate(d, None)
        h1 = migrate(d, migration_phases(t, 0.5))
        assert not np.allclose(h0, h1)
        assert np.allclose(np.abs(d[0]), np.abs(d[0]))  # draws unchanged
        # per-index modulus of each half-space piece is migration-invariant
        gam = lattice_gammas(t)
        assert np.allclose(np.abs(d[0] * np.exp(1j * gam * 0.5)), np.abs(d[0]))

    def test_volumetric_stack(self):
        ap = Aperture(lx=8, dx=0.5, ly=8, dy=0.5, lz=1.0, dz=0.5)
        f = generate(ap, seed=3)
        assert f.samples.shape == (2, 16, 16)
        assert f.z_planes == (0.0, 0.5)

    @pytest.mark.parametrize("ap", [
        Aperture(lx=4, dx=0.5, ly=4, dy=0.5),
        Aperture(lx=4, dx=0.25),
    ], ids=["planar", "line"])
    def test_isotropic_generate_builds_no_factor(self, ap, monkeypatch):
        # None is isotropic: no SpectralFactor (and its probe of the disk)
        # per call
        made = []
        init = SpectralFactor.__init__

        def spy(self, kind, *args):
            made.append(kind)
            init(self, kind, *args)

        monkeypatch.setattr(SpectralFactor, "__init__", spy)
        generate(ap, seed=1)
        assert made == []


class TestFieldStatistics:
    def test_one_sided_scattering_halves_power(self):
        ap = Aperture(lx=8, dx=0.5, ly=8, dy=0.5)
        t = table_2d(8.0, 8.0)
        iso_amp = 2.0 * math.pi / math.sqrt(KAPPA)
        f = SpectralFactor.from_callables(
            lambda kx, ky: np.where(kx < 0, 0.0, iso_amp)
        )
        m = 4000
        (fields,) = generate_batch_planes(ap, f, 43, range(m), (0.0,))
        power = np.mean(np.abs(fields[:, ap.ny // 2, ap.nx // 2]) ** 2)
        live = t.ls >= 0
        want = float(np.sum(2.0 * t.sigma_sq[live]))
        assert 0.4 < want < 0.6  # roughly half the spectral mass is lit
        assert power == pytest.approx(want, rel=0.05)

    @pytest.mark.parametrize("zs", [(0.0,), (0.5,), (0.0, 0.5)],
                             ids=["one-plane", "one-plane-z", "two-planes"])
    def test_per_harmonic_power_of_a_directional_plane(self, zs):
        # H(z) = g+ H+ e^{i gamma z} + g- H- e^{-i gamma z} has power
        # sigma2 (g+^2 + g-^2): the variance of a single plane's one draw,
        # and what a run over two planes migrates to. |H|^2 is exponential,
        # so each harmonic's mean over m realizations has a standard error
        # of its mean / sqrt(m); every one of the 60 harmonics must sit
        # within 5 of them (false alarm about 3e-5 a run)
        ap, m = _AP4, 10_000
        t = default_table(ap)
        f = TestSlicedRealizations.FACTOR
        gp, gm = shaping_gains(f, *lattice_wavenumbers(t), KAPPA)
        want = t.sigma_sq * (gp**2 + gm**2)
        for h in plane_coefficients(run_constants(ap, f, tuple(zs)), 47, range(m)):
            got = np.mean(np.abs(h) ** 2, axis=0)
            assert np.max(np.abs(got / want - 1.0)) * math.sqrt(m) < 5.0

    def test_cross_plane_moment_of_a_shaped_two_plane_run(self):
        # E[conj H(0) H(z)] = sigma2 (g+^2 e^{+i gamma z} + g-^2 e^{-i gamma z})
        # sees which gain goes with which phase, and the phase itself, where
        # the power sigma2 (g+^2 + g-^2) sees neither. sigma2, the gains and
        # gamma come from the table, shaping_gains and lattice_gammas, not
        # from the run's record. H(0) and H(z) are jointly circular normals
        # of power s = sigma2 (g+^2 + g-^2) each, so by Isserlis the product
        # has variance s^2, and m |mean - E|^2 / s^2 has mean 1 and variance
        # at most 2 per harmonic, the 60 harmonics independent. Their sum T
        # must sit within 5 times its standard deviation bound sqrt(2 * 60)
        # of 60: false alarm below 1e-6 a run (normal approximation)
        ap, z, m = _AP4, 0.3, 2000
        t = table_2d(4.0, 4.0)
        f = TestShapeCoefficients._lobed()  # a+ != a- at every harmonic
        gp, gm = shaping_gains(f, *lattice_wavenumbers(t), KAPPA)
        phase = np.exp(1j * lattice_gammas(t) * z)
        want = t.sigma_sq * (gp**2 * phase + gm**2 * np.conj(phase))
        s = t.sigma_sq * (gp**2 + gm**2)
        run = run_constants(ap, f, (0.0, z))
        acc = np.zeros(len(t.ls), dtype=complex)
        rows = coefficient_rows(run.std)
        for a in range(0, m, rows):
            h0, hz = plane_coefficients(run, 59, range(a, min(a + rows, m)))
            acc += np.sum(np.conj(h0) * hz, axis=0)
        n = len(t.ls)
        stat = np.sum(m * np.abs(acc / m - want) ** 2 / s**2)
        assert abs(stat - n) < 5.0 * math.sqrt(2.0 * n)

    def test_shaped_line_generation(self):
        ap = Aperture(lx=16, dx=0.25)
        t = table_1d(16.0)
        amp = 2.0 * ISOTROPIC_FACTOR_2D * math.sqrt(2.0)
        f = SpectralFactor.from_callables(
            lambda kx, ky: np.where(kx < 0, 0.0, amp)
        )
        a = generate(ap, factor=f, seed=3)
        b = generate(ap, factor=f, seed=3)
        assert np.array_equal(a.samples, b.samples)
        # per-index contract: rms of (0, amp) over the two half-spaces,
        # i.e. gain 0 for l < 0 and amp / (2 sqrt(pi)) = 2 sqrt(2) otherwise
        plain = draw_coefficients(_std(ap), 3, 0)[0]
        shaped = plane_coefficients(run_constants(ap, f, (0.0,)), 3, (0,))[0][0]
        assert np.all(shaped[t.ls < 0] == 0.0)
        assert np.allclose(shaped[t.ls >= 0], plain[t.ls >= 0] * 2.0 * math.sqrt(2.0), rtol=1e-12)
        # expected power: gain^2 = 8 on the half of the spectral mass
        m = 4000
        (fields,) = generate_batch_planes(ap, f, 3, range(m), (0.0,))
        assert np.mean(np.abs(fields[:, 0, ap.nx // 2]) ** 2) == pytest.approx(4.0, rel=0.05)

    def test_empirical_covariance_matches_series_acf_2d(self):
        ap = Aperture(lx=8, dx=0.5, ly=8, dy=0.5)
        t = table_2d(8.0, 8.0)
        m = 3000
        (fields,) = generate_batch_planes(ap, None, 23, range(m), (0.0,))
        ry, rx = ap.ny // 2, ap.nx // 2
        k = 4
        block = fields[:, ry : ry + k + 1, rx : rx + k + 1]
        cov = np.mean(np.conj(fields[:, ry, rx])[:, None, None] * block, axis=0).T
        want = lattice_acf_2d(t, np.arange(k + 1) * ap.dx, np.arange(k + 1) * ap.dy)
        assert np.max(np.abs(cov - want)) < 4.0 / math.sqrt(m)

    def test_empirical_covariance_matches_series_acf_1d(self):
        ap = Aperture(lx=16, dx=0.25)
        t = table_1d(16.0)
        m = 3000
        (fields,) = generate_batch_planes(ap, None, 29, range(m), (0.0,))
        row = fields[:, 0, :]
        rx = ap.nx // 2
        k = 16
        cov = np.mean(np.conj(row[:, rx, None]) * row[:, rx : rx + k + 1], axis=0)
        want = lattice_acf_1d(t, np.arange(k + 1) * ap.dx)
        assert np.max(np.abs(cov - want)) < 4.0 / math.sqrt(m)

    def test_gaussianity_at_fixed_point(self):
        ap = Aperture(lx=4, dx=0.5, ly=4, dy=0.5)
        t = table_2d(4.0, 4.0)
        m = 100_000
        vals = np.empty(m, dtype=complex)
        for start in range(0, m, 20_000):
            (fields,) = generate_batch_planes(ap, None, 31, range(start, start + 20_000), (0.0,))
            vals[start : start + 20_000] = fields[:, ap.ny // 2, ap.nx // 2]
        for comp in (vals.real, vals.imag):
            kurt = np.mean((comp - comp.mean()) ** 4) / np.var(comp) ** 2 - 3.0
            assert abs(kurt) < 0.1

    def test_stationarity_between_reference_rows(self):
        ap = Aperture(lx=8, dx=0.5, ly=8, dy=0.5)
        t = table_2d(8.0, 8.0)
        m = 3000
        (fields,) = generate_batch_planes(ap, None, 37, range(m), (0.0,))
        rx, k = ap.nx // 2, 4

        def row_acf(iy):
            row = fields[:, iy, :]
            raw = np.mean(np.conj(row[:, rx, None]) * row[:, rx : rx + k + 1], axis=0)
            return raw / raw[0].real

        a = row_acf(0)
        b = row_acf(ap.nx // 4)
        assert np.max(np.abs(a - b)) < 2.0 * 4.0 / math.sqrt(m)


class TestLatticeAcf:
    def test_zero_lag_is_total_power(self):
        t2 = table_2d(8.0, 8.0)
        assert lattice_acf_2d(t2, np.array([0.0]), np.array([0.0]))[0, 0] == pytest.approx(
            t2.total_power(), rel=1e-12
        )
        t1 = table_1d(8.0)
        assert lattice_acf_1d(t1, np.array([0.0]))[0] == pytest.approx(
            t1.total_power(), rel=1e-12
        )

    def test_matches_direct_sum(self):
        t = table_2d(4.0, 4.0)
        got = lattice_acf_2d(t, np.array([0.5]), np.array([0.25]))[0, 0]
        want = np.sum(
            2.0 * t.sigma_sq * np.exp(2j * np.pi * (t.ls * 0.5 / 4.0 + t.ms * 0.25 / 4.0))
        )
        assert got == pytest.approx(want, rel=1e-12)

        # the reference-run lag windows against the float-lag sums, without
        # the reduction of l * lag mod L: fig 6 (65 lags at 1/16) and
        # fig 7/8 (17 x 17 lags at 1/4)
        t1 = table_1d(16.0)
        lags = np.arange(65) / 16.0
        want = np.exp(2j * np.pi * np.outer(lags, t1.ls) / t1.lx) @ (2.0 * t1.sigma_sq)
        assert np.max(np.abs(lattice_acf_1d(t1, lags) - want)) < 1e-14

        t2 = table_2d(16.0, 16.0)
        lags = np.arange(17) / 4.0
        ex = np.exp(2j * np.pi * np.outer(lags, t2.ls) / t2.lx)
        ey = np.exp(2j * np.pi * np.outer(lags, t2.ms) / t2.ly)
        want = np.einsum("xk,yk,k->xy", ex, ey, 2.0 * t2.sigma_sq)
        got = lattice_acf_2d(t2, lags, lags)
        assert np.max(np.abs(got - want)) < 1e-14

        # integer grid lags with the sample counts as periods are the same points
        ap = Aperture(lx=16, dx=0.25, ly=16, dy=0.25)
        k, j = np.arange(17), np.arange(9)
        grid = series_sum(2.0 * t2.sigma_sq, t2, (k, j), (ap.nx, ap.ny))
        assert np.max(np.abs(grid - lattice_acf_2d(t2, k * ap.dx, j * ap.dy))) < 1e-14


class TestLineDraws:
    def test_variance_doubled(self):
        t = table_1d(1.0)
        std = _std(Aperture(lx=1.0, dx=0.5))
        m = 50_000
        vals = np.empty(m, dtype=complex)
        for r in range(m):
            vals[r] = draw_coefficients(std, seed=41, realization=r)[0, 0]
        assert np.mean(np.abs(vals) ** 2) == pytest.approx(2.0 * t.sigma_sq[0], rel=0.03)
