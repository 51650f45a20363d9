import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holofading.rng import (
    _SLICE,
    STREAM_BASELINE,
    STREAM_COEFFICIENTS,
    complex_standard_normals,
)
from oracles import unsliced_normals

WORD = st.integers(0, 2**64 - 1)


class TestDeterminism:
    def test_repeatable(self):
        a = complex_standard_normals(42, 3, 100)
        b = complex_standard_normals(42, 3, 100)
        assert np.array_equal(a, b)

    def test_frozen_regression(self):
        # locked draw values: any change to the counter layout or the
        # uniform-to-Gaussian transform breaks reproducibility guarantees
        z = complex_standard_normals(0, 0, 3)
        want = np.array([
            0.005719571371203856 + 0.10761608713015194j,
            -0.3159422051675771 - 0.13534293039646514j,
            -0.14417799696276298 + 0.8228793686760134j,
        ])
        assert np.allclose(z, want, rtol=0, atol=1e-15)
        z2 = complex_standard_normals(12345, 7, 2, stream=STREAM_BASELINE)
        want2 = np.array([
            0.22437850168710402 - 0.923732582136512j,
            -0.452777648733727 + 0.8243769079228767j,
        ])
        assert np.allclose(z2, want2, rtol=0, atol=1e-15)

    def test_streams_disjoint(self):
        a = complex_standard_normals(1, 0, 50)
        assert not np.allclose(a, complex_standard_normals(1, 1, 50))
        assert not np.allclose(a, complex_standard_normals(2, 0, 50))
        assert not np.allclose(a, complex_standard_normals(1, 0, 50, stream=STREAM_BASELINE))

    @pytest.mark.parametrize("seed, realization", [
        (-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64),
    ], ids=["seed-negative", "seed-past-64-bits", "realization-negative",
            "realization-past-64-bits"])
    def test_words_outside_64_bits_raise(self, seed, realization):
        # a masked word would alias -1 to 2^64 - 1: another key's draws
        with pytest.raises(ValueError, match=r"2\*\*64"):
            complex_standard_normals(seed, realization, 4)
        with pytest.raises(ValueError, match=r"2\*\*64"):  # any row of a batch
            complex_standard_normals(seed, (0, realization), 4)

    def test_top_64_bit_words_still_draw(self):
        top = (1 << 64) - 1
        a = complex_standard_normals(top, top, 4)
        assert np.all(np.isfinite(a)) and np.array_equal(a, complex_standard_normals(top, top, 4))
        assert not np.allclose(a, complex_standard_normals(top - 1, top, 4))
        assert not np.allclose(a, complex_standard_normals(top, top - 1, 4))

    def test_prefix_consistency(self):
        # draw i is a fixed function of (seed, realization, i): prefixes agree
        long = complex_standard_normals(9, 5, 200)
        short = complex_standard_normals(9, 5, 20)
        assert np.array_equal(long[:20], short)


class TestThreads:
    def test_concurrent_streams_match_sequential(self):
        # each thread repositions its own generator; a shared one would let
        # one thread's repositioning land between the other's set and draw
        streams = [(3, r, 1 + r % 97) for r in range(400)]
        want = [complex_standard_normals(*s) for s in streams]
        got = [None] * len(streams)

        def work(first):
            for i in range(first, len(streams), 2):
                got[i] = complex_standard_normals(*streams[i])

        workers = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _reference(seed, realization, n, stream):
    """The documented stream computed the plain way, independent of the
    module's in-place transform: a fresh Philox at counter (0, 0,
    realization, stream), then Box-Muller on (1 - u)."""
    counter = np.array([0, 0, realization, stream], dtype=np.uint64)
    key = np.array([seed, 0], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(counter=counter, key=key)).random((n, 2))
    radius = np.sqrt(-np.log1p(-u[:, 0]))
    phase = 2.0 * np.pi * u[:, 1]
    out = np.empty(n, dtype=complex)
    out.real = radius * np.cos(phase)
    out.imag = radius * np.sin(phase)
    return out


class TestBatches:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=WORD,
        # small indices make repeats likely; lists come unsorted
        reals=st.lists(st.one_of(st.integers(0, 5), WORD), max_size=6),
        n=st.integers(1, 40),
        stream=st.sampled_from([STREAM_COEFFICIENTS, STREAM_BASELINE]),
    )
    def test_rows_equal_single_calls(self, seed, reals, n, stream):
        batch = complex_standard_normals(seed, reals, n, stream)
        assert batch.shape == (len(reals), n)
        for row, r in zip(batch, reals):
            single = complex_standard_normals(seed, r, n, stream)
            assert single.shape == (n,)
            assert np.array_equal(row.view(np.uint64), single.view(np.uint64))
            want = _reference(seed, r, n, stream)
            np.testing.assert_array_max_ulp(row.real, want.real, maxulp=2)
            np.testing.assert_array_max_ulp(row.imag, want.imag, maxulp=2)

    def test_range_and_tuple_sequences(self):
        a = complex_standard_normals(4, range(3), 5, STREAM_BASELINE)
        b = complex_standard_normals(4, (0, 1, 2), 5, STREAM_BASELINE)
        assert a.shape == (3, 5)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSlices:
    """Box-Muller runs over fixed slices of the flattened block; every
    stage is elementwise, so the slicing changes no bit."""

    N = 2 * _SLICE + 3  # a row of two whole slices and a remainder

    @pytest.mark.parametrize("stream", [STREAM_COEFFICIENTS, STREAM_BASELINE])
    def test_row_across_slices_equals_unsliced(self, stream):
        got = complex_standard_normals(21, 4, self.N, stream)
        want = unsliced_normals(21, [4], self.N, stream)[0]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_batch_across_slices_equals_unsliced(self):
        # 3 rows of 2 * _SLICE + 3: slices straddle the row boundaries
        reals = [0, 9, 2**63 + 5]
        got = complex_standard_normals(8, reals, self.N, STREAM_BASELINE)
        want = unsliced_normals(8, reals, self.N, STREAM_BASELINE)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_traced_peak_is_the_output_and_one_slice(self):
        complex_standard_normals(1, range(2), 8)  # this thread's generator is not the call's memory
        n = 50 * _SLICE + 7
        tracemalloc.start()
        try:
            out = complex_standard_normals(1, range(2), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the cos scratch is one slice; a full-size temporary would add
        # half the output again
        assert peak < out.nbytes + 8 * _SLICE + 64 * 1024


class TestStart:
    """A call from an even draw ``start`` returns draws start .. start + n - 1
    of the full row: counter word 0 starts at start // 2."""

    FULL = 3 * _SLICE + 10

    @pytest.mark.parametrize("start, n", [
        (0, 5),
        (2, 7),
        (_SLICE - 2, 4),  # straddles a slice boundary of the full row
        (_SLICE, _SLICE),  # one whole slice on a slice boundary
        (_SLICE + 6, 2 * _SLICE + 4),  # ends at the end of the full row
        (3 * _SLICE + 8, 1),
    ])
    def test_equals_the_columns_of_the_full_row(self, start, n):
        full = complex_standard_normals(31, range(3), self.FULL)
        batch = complex_standard_normals(31, range(3), n, start=start)
        assert np.array_equal(batch.view(np.uint64), full[:, start : start + n].view(np.uint64))
        for r in range(3):
            single = complex_standard_normals(31, r, n, start=start)
            assert np.array_equal(single.view(np.uint64), full[r, start : start + n].view(np.uint64))

    def test_other_stream(self):
        full = complex_standard_normals(5, 2, 40, STREAM_BASELINE)
        part = complex_standard_normals(5, 2, 10, STREAM_BASELINE, start=30)
        assert np.array_equal(part.view(np.uint64), full[30:].view(np.uint64))

    @pytest.mark.parametrize("start", [1, 3, _SLICE + 1, -2])
    def test_odd_or_negative_start_raises(self, start):
        with pytest.raises(ValueError, match="start"):
            complex_standard_normals(1, 0, 4, start=start)


def _in_two_threads(calls):
    """Results of complex_standard_normals(*call) for every call, made by
    two threads taking alternate calls under a tiny switch interval."""
    got = [None] * len(calls)

    def work(first):
        for i in range(first, len(calls), 2):
            got[i] = complex_standard_normals(*calls[i])

    workers = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    return got


class TestBatchThreads:
    def test_concurrent_batches_match_sequential(self):
        # a batch repositions the thread's generator once per row; another
        # thread's repositioning must not land between a row's set and fill
        calls = [(3, [r + k * 7 for k in range(1 + r % 5)], 1 + r % 53) for r in range(300)]
        want = [complex_standard_normals(*c) for c in calls]
        got = _in_two_threads(calls)
        assert all(np.array_equal(g.view(np.uint64), w.view(np.uint64)) for g, w in zip(got, want))


class TestDistribution:
    def test_moments(self):
        z = complex_standard_normals(7, 0, 200_000)
        assert abs(z.mean()) < 0.01
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.01)
        assert np.var(z.real) == pytest.approx(0.5, abs=0.01)
        assert np.var(z.imag) == pytest.approx(0.5, abs=0.01)

    def test_circular_symmetry(self):
        z = complex_standard_normals(8, 0, 200_000)
        # pseudo-variance E[z^2] vanishes for circular symmetry
        assert abs(np.mean(z * z)) < 0.01

    def test_component_kurtosis(self):
        z = complex_standard_normals(11, 0, 100_000)
        for comp in (z.real, z.imag):
            k = np.mean((comp - comp.mean()) ** 4) / np.var(comp) ** 2 - 3.0
            assert abs(k) < 0.1

    def test_all_finite(self):
        z = complex_standard_normals(13, 0, 100_000)
        assert np.all(np.isfinite(z.real)) and np.all(np.isfinite(z.imag))
