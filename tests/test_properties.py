"""Property tests over random apertures (sides 1 to 12 wavelengths) and seeds.

Hypothesis runs derandomized, so every run checks the same examples.
"""
import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holofading import Aperture, SpectralFactor, generate
from holofading.generator import (
    draw_coefficients,
    generate_batch_planes,
    migrate,
    migration_phases,
    run_constants,
)
import holofading.generator as genmod
from holofading.validation import _first_row_sums, _normalize, run_figure
from holofading.variances import table_2d
from holofading.wavenumber import KAPPA, lattice_gammas, lattice_wavenumbers
from oracles import brute_force_plane, lambda_half_independence, synthesize

sides = st.floats(min_value=1.0, max_value=12.0, allow_nan=False, allow_infinity=False)
fixed = settings(derandomize=True, deadline=None)


@fixed
@given(lx=sides, ly=sides)
def test_index_set_mirror_symmetric_and_bounded(lx, ly):
    table = table_2d(lx, ly)
    idx = np.column_stack((table.ls, table.ms))
    got = {(int(l), int(m)) for l, m in idx}
    assert all((-l - 1, m) in got and (l, -m - 1) in got for l, m in got)
    nx, ny = math.ceil(lx), math.ceil(ly)
    assert idx[:, 0].min() >= -nx and idx[:, 0].max() <= nx - 1
    assert idx[:, 1].min() >= -ny and idx[:, 1].max() <= ny - 1


@fixed
@given(lx=sides, ly=sides)
def test_unit_total_power_and_mirrored_variances(lx, ly):
    table = table_2d(lx, ly)
    assert abs(table.total_power() - 1.0) <= 1e-12
    sigma = {(int(l), int(m)): s for l, m, s in zip(table.ls, table.ms, table.sigma_sq)}
    for (l, m), s in sigma.items():
        assert sigma[(-l - 1, m)] == s
        assert sigma[(l, -m - 1)] == s


@fixed
@given(lx=sides, ly=sides)
def test_dispersion_relation(lx, ly):
    table = table_2d(lx, ly)
    kx, ky = lattice_wavenumbers(table)
    gamma = lattice_gammas(table)
    rho2 = kx * kx + ky * ky
    inside = rho2 < KAPPA**2
    assert np.allclose(gamma[inside] ** 2 + rho2[inside], KAPPA**2, rtol=1e-12, atol=0.0)
    assert np.all(gamma[~inside] == 0.0)


@fixed
@given(
    lx=sides,
    ly=sides,
    extra=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    z_frac=st.floats(min_value=-0.95, max_value=0.95),
    seed=st.integers(0, 2**32 - 1),
    realization=st.integers(0, 1000),
)
def test_fft_synthesis_equals_brute_force(lx, ly, extra, z_frac, seed, realization):
    # the smallest even grids that hold every harmonic, plus 0-2 extra pairs
    nx, ny = 2 * (math.ceil(lx) + extra[0]), 2 * (math.ceil(ly) + extra[1])
    dx, dy = lx / nx, ly / ny
    assume(math.ceil(lx / dx) == nx and math.ceil(ly / dy) == ny)  # no rounding past N
    aperture = Aperture(lx=lx, dx=dx, ly=ly, dy=dy)
    table = table_2d(lx, ly)
    z = z_frac * min(lx, ly)
    # H+ and H-, the draws of a run over two planes, migrated to z
    draw = draw_coefficients(run_constants(aperture, None, (0.0, z)).std, seed, realization)
    hz = migrate(draw, None if z == 0.0 else migration_phases(table, z))
    fft = synthesize(hz, aperture)
    assert np.max(np.abs(fft - brute_force_plane(hz, aperture))) <= 1e-10


_DIRECTIONAL = SpectralFactor.from_callables(
    lambda kx, ky: 1.0 + 0.5 * np.cos(np.arctan2(ky, kx) - 0.3),
    lambda kx, ky: 1.0 + 0.2 * kx / KAPPA,
)


def _aperture(lx, ly, extra):
    """The smallest even grids that hold every harmonic plus 0-2 extra
    pairs; ly = 0 gives a line aperture, whose side is a whole number of
    wavelengths."""
    nx = 2 * (math.ceil(lx) + extra[0])
    if ly == 0.0:
        return Aperture(lx=float(math.ceil(lx)), dx=math.ceil(lx) / nx)
    ny = 2 * (math.ceil(ly) + extra[1])
    return Aperture(lx=lx, dx=lx / nx, ly=ly, dy=ly / ny)


small_sides = st.floats(min_value=1.0, max_value=6.0, allow_nan=False, allow_infinity=False)
line_or_side = st.one_of(st.just(0.0), small_sides)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    lx=small_sides,
    ly=line_or_side,
    extra=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    z_frac=st.floats(min_value=-0.95, max_value=0.95),
    directional=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    start=st.integers(0, 1000),
    count=st.integers(1, 6),
)
def test_batch_equals_per_realization_generate(lx, ly, extra, z_frac, directional, seed, start,
                                               count):
    aperture = _aperture(lx, ly, extra)
    factor = _DIRECTIONAL if directional else None
    zs = (0.0,) if ly == 0.0 else (0.0, z_frac * min(lx, ly))
    reals = range(start, start + count)
    batch = generate_batch_planes(aperture, factor, seed, reals, zs)
    for i, r in enumerate(reals):
        single = generate(aperture, factor, seed=seed, z_planes=zs, realization=r).samples
        for plane, want in zip(batch, single):
            assert np.array_equal(plane[i], want)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(
    lx=small_sides,
    ly=line_or_side,
    extra=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    directional=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(100, 400),
    sub_block=st.integers(0, 21).map(lambda e: 1 << e),
)
def test_first_row_accumulation_thread_invariant(lx, ly, extra, directional, seed, m, sub_block):
    # two workers at most: the property is the one fold in realization
    # order, over row blocks of any size (down to one row); the generated
    # fields share the same row-block rule
    aperture = _aperture(lx, ly, extra)
    factor = _DIRECTIONAL if directional else None
    zs = (0.0,) if ly == 0.0 else (0.0, 0.5 * min(lx, ly))
    lag = min(aperture.nx, aperture.ny if ly else aperture.nx) // 4

    def results(threads):
        lags = (0 if ly == 0.0 else lag, lag)
        raws = _first_row_sums(aperture, factor, seed, m, zs, lags, threads)
        row = lambda_half_independence(m=m, seed=seed, lx=8.0, threads=threads)[0]
        return [
            *raws,
            *map(_normalize, raws),
            run_figure(8, m=m, seed=seed, threads=threads).empirical,
            row,
            generate_batch_planes(aperture, factor, seed, range(m // 10), zs),
        ]

    one = results(1)
    with mock.patch.object(genmod, "SUB_BLOCK_BYTES", sub_block):
        two = results(2)
    for a, b in zip(one, two, strict=True):
        assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                              np.ascontiguousarray(b).view(np.uint64))
