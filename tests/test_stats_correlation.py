"""Unit and property tests for NCC / SBD (repro.stats.correlation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.stats.correlation import (
    cross_correlation_sequence,
    normalized_cross_correlation,
    sbd,
    sbd_matrix,
    sbd_pairs,
    sbd_with_shift,
)
from repro.stats.timeseries_ops import znormalize

series_pair_length = st.integers(min_value=4, max_value=128)


def _series(length, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=length)


class TestCrossCorrelation:
    def test_matches_numpy_correlate(self):
        x = _series(32, 1)
        y = _series(32, 2)
        ours = cross_correlation_sequence(x, y)
        # numpy's "full" cross-correlation shares our shift axis: index
        # n-1 is the zero shift, higher indices shift x to the right.
        reference = np.correlate(x, y, mode="full")
        np.testing.assert_allclose(ours, reference, atol=1e-9)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            cross_correlation_sequence(np.ones(4), np.ones(5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cross_correlation_sequence(np.array([]), np.array([]))

    def test_output_length(self):
        out = cross_correlation_sequence(np.ones(7), np.ones(7))
        assert out.size == 13


class TestNCC:
    def test_identical_series_peak_is_one(self):
        x = znormalize(np.sin(np.linspace(0, 12, 100)))
        ncc = normalized_cross_correlation(x, x)
        assert abs(ncc.max() - 1.0) < 1e-9

    def test_bounded_by_one(self):
        x = _series(64, 3)
        y = _series(64, 4)
        ncc = normalized_cross_correlation(x, y)
        assert np.all(np.abs(ncc) <= 1.0 + 1e-9)

    def test_zero_energy_series(self):
        ncc = normalized_cross_correlation(np.zeros(10), np.ones(10))
        assert np.all(ncc == 0.0)


class TestSBD:
    def test_self_distance_zero(self):
        x = _series(50, 5)
        assert sbd(x, x) < 1e-9

    def test_shift_invariance(self):
        """SBD sees through time shifts -- the property Sieve needs for
        metrics of communicating components (effects arrive delayed)."""
        x = np.sin(np.linspace(0, 20, 200))
        for shift in (1, 5, 17):
            shifted = np.roll(x, shift)
            assert sbd(x, shifted) < 0.05

    def test_detected_shift_matches_roll(self):
        x = znormalize(np.sin(np.linspace(0, 20, 200)))
        _, shift = sbd_with_shift(np.roll(x, 9), x)
        assert shift == 9

    def test_anticorrelated_series_is_far(self):
        # A negated series is far even under the best shift: partial
        # overlaps can correlate a little, but far less than the
        # near-zero distance of genuinely similar shapes.
        x = znormalize(np.linspace(0.0, 1.0, 100))
        d = sbd(x, -x)
        assert d > 0.5
        # ...and without any shift the distance is maximal.
        ncc_zero_shift = float(x @ -x) / float(x @ x)
        assert 1.0 - ncc_zero_shift == pytest.approx(2.0)

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = sbd(rng.normal(size=30), rng.normal(size=30))
            assert 0.0 <= d <= 2.0

    @given(st.integers(0, 10_000), series_pair_length)
    @settings(max_examples=40, deadline=None)
    def test_property_symmetry(self, seed, length):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=length)
        y = rng.normal(size=length)
        assert abs(sbd(x, y) - sbd(y, x)) < 1e-9

    @given(st.integers(0, 10_000), series_pair_length,
           st.floats(0.1, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_property_scale_invariance(self, seed, length, scale):
        """SBD is invariant to amplitude scaling (the z-normalization
        rationale of the paper)."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=length)
        y = rng.normal(size=length)
        assert abs(sbd(x, y) - sbd(x * scale, y)) < 1e-7

    @given(st.integers(0, 10_000), series_pair_length)
    @settings(max_examples=40, deadline=None)
    def test_property_bounds(self, seed, length):
        rng = np.random.default_rng(seed)
        d = sbd(rng.normal(size=length), rng.normal(size=length))
        assert 0.0 <= d <= 2.0


class TestBatchedSBD:
    """The batched FFT kernel must agree with the per-pair reference.

    Agreement is to ~1e-16, not bit-for-bit: numpy's complex multiply
    vectorizes differently over a row batch than over a single row
    (see the module docstring), so comparisons use a tight tolerance.
    """

    def _reference_matrix(self, rows):
        """The per-pair double loop over :func:`sbd` (the oracle)."""
        rows = np.asarray(rows, dtype=float)
        out = np.zeros((len(rows), len(rows)))
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                out[i, j] = out[j, i] = sbd(rows[i], rows[j])
        return out

    def _reference_pairs(self, x_rows, y_rows):
        """Every cross pair through :func:`sbd_with_shift` (the oracle)."""
        x_rows = np.asarray(x_rows, dtype=float)
        y_rows = np.asarray(y_rows, dtype=float)
        out_d = np.zeros((len(x_rows), len(y_rows)))
        out_s = np.zeros((len(x_rows), len(y_rows)), dtype=int)
        for i, x in enumerate(x_rows):
            for j, y in enumerate(y_rows):
                out_d[i, j], out_s[i, j] = sbd_with_shift(x, y)
        return out_d, out_s

    # Odd/even/pow-two lengths straddle the FFT padding boundary
    # (2n-1 -> next power of two), the classic off-by-one hideout.
    @pytest.mark.parametrize("length", [31, 32, 33, 64, 65, 127, 128])
    def test_matrix_matches_reference_random(self, length):
        rng = np.random.default_rng(length)
        rows = rng.normal(size=(7, length))
        batched = sbd_matrix(rows)
        np.testing.assert_allclose(batched,
                                   self._reference_matrix(rows),
                                   atol=1e-12)
        assert np.array_equal(batched, batched.T)
        assert np.all(np.diag(batched) == 0.0)

    @pytest.mark.parametrize("length", [31, 32, 33, 64, 65, 127, 128])
    def test_pairs_match_reference_cross(self, length):
        rng = np.random.default_rng(length + 1)
        x_rows = rng.normal(size=(5, length))
        y_rows = rng.normal(size=(3, length))
        distances, shifts = sbd_pairs(x_rows, y_rows)
        ref_d, ref_s = self._reference_pairs(x_rows, y_rows)
        np.testing.assert_allclose(distances, ref_d, atol=1e-12)
        assert np.array_equal(shifts, ref_s)
        # Cross-check one entry against the scalar API too.
        d, s = sbd_with_shift(x_rows[2], y_rows[1])
        assert distances[2, 1] == pytest.approx(d, abs=1e-12)
        assert shifts[2, 1] == s

    def test_flat_rows_zero_energy(self):
        """Constant (zero after z-norm) rows must not divide by zero
        and must sit at the maximal distance from everything, exactly
        like the per-pair reference."""
        rng = np.random.default_rng(9)
        rows = np.vstack([np.zeros(40), np.full(40, 3.5),
                          rng.normal(size=(2, 40))])
        batched = sbd_matrix(rows)
        np.testing.assert_allclose(batched,
                                   self._reference_matrix(rows),
                                   atol=1e-12)
        assert np.all(np.isfinite(batched))
        # NCC against a flat series is all zeros -> distance 1.
        assert batched[0, 2] == pytest.approx(1.0)

    def test_shifted_series_recover_the_shift(self):
        base = znormalize(np.sin(np.linspace(0, 20, 200)))
        rolls = [np.roll(base, k) for k in (0, 3, 9, 17)]
        distances, shifts = sbd_pairs(np.stack(rolls), base[None, :])
        ref_d, ref_s = self._reference_pairs(np.stack(rolls),
                                             base[None, :])
        np.testing.assert_allclose(distances, ref_d, atol=1e-12)
        assert np.array_equal(shifts, ref_s)
        assert list(shifts[:, 0]) == [0, 3, 9, 17]
        assert np.all(distances[:, 0] < 0.05)

    def test_batched_is_deterministic(self):
        """Same rows, same shapes -> the very same bits, run to run
        (what makes serial == process reproducible across executors)."""
        rng = np.random.default_rng(21)
        rows = rng.normal(size=(12, 96))
        first = sbd_matrix(rows.copy())
        second = sbd_matrix(rows.copy())
        assert np.array_equal(first, second)

    def test_degenerate_inputs(self):
        assert sbd_matrix(np.empty((0, 8))).shape == (0, 0)
        assert sbd_matrix(np.ones((1, 8))).shape == (1, 1)
        with pytest.raises(ValueError):
            sbd_pairs(np.ones((2, 8)), np.ones((2, 9)))
