"""Tests for the F-test and the Augmented Dickey-Fuller test."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.stats.hypothesis_tests import (
    _TAU_PROBS,
    _TAU_QUANTILES,
    adf_test,
    f_test_nested,
    is_stationary,
    mackinnon_critical_values,
    mackinnon_pvalue,
)


class TestFTest:
    def test_no_improvement_accepts_null(self):
        result = f_test_nested(10.0, 10.0, 2, 40)
        assert result.f_statistic == 0.0
        assert result.p_value == pytest.approx(1.0)
        assert not result.rejects_null()

    def test_large_improvement_rejects(self):
        result = f_test_nested(100.0, 10.0, 1, 50)
        assert result.rejects_null(0.01)

    @pytest.mark.parametrize("q", [1, 2, 4])
    @pytest.mark.parametrize("df", [1, 2, 3, 7, 40, 120, 241, 500])
    def test_f_statistic_formula(self, q, df):
        # The p-value is scipy.stats' own F survival function, exactly:
        # F near 0 and across 1e-3 .. 1e3.
        for f in [0.0, 1e-300, 1e-12, 1e-6, *np.logspace(-3, 3, 37)]:
            rss_restricted = 10.0 + f * q * 10.0 / df
            result = f_test_nested(rss_restricted, 10.0, q, df)
            expected = ((rss_restricted - 10.0) / q) / (10.0 / df)
            assert result.f_statistic == expected
            assert result.p_value == float(scipy_stats.f.sf(expected, q, df))

    def test_perfect_unrestricted_fit(self):
        assert f_test_nested(5.0, 0.0, 1, 10).p_value == 0.0
        assert f_test_nested(0.0, 0.0, 1, 10).p_value == 1.0

    def test_negative_improvement_clamped(self):
        # RSS can be marginally larger numerically; never a negative F.
        result = f_test_nested(9.999, 10.0, 1, 30)
        assert result.f_statistic == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            f_test_nested(1.0, 1.0, 0, 10)
        with pytest.raises(ValueError):
            f_test_nested(1.0, 1.0, 1, 0)


class TestMacKinnon:
    def test_critical_values_ordering(self):
        cvs = mackinnon_critical_values(200)
        assert cvs[0.01] < cvs[0.05] < cvs[0.10] < 0

    def test_asymptotic_five_percent(self):
        # Large-sample 5% critical value is about -2.86.
        assert mackinnon_critical_values(10_000)[0.05] == pytest.approx(
            -2.86, abs=0.01
        )

    def test_pvalue_monotone(self):
        taus = np.linspace(-5.0, 1.5, 40)
        ps = [mackinnon_pvalue(t) for t in taus]
        assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))

    def test_pvalue_at_critical_values(self):
        # p-value at the asymptotic 5% critical value is about 0.05.
        assert mackinnon_pvalue(-2.86) == pytest.approx(0.05, abs=0.005)
        assert mackinnon_pvalue(-3.43) == pytest.approx(0.01, abs=0.003)

    def test_pvalue_is_the_probit_interpolant_exactly(self):
        inside = np.linspace(_TAU_QUANTILES[0], _TAU_QUANTILES[-1], 2001)
        probits = scipy_stats.norm.ppf(_TAU_PROBS)
        for tau in [*inside[1:-1], *_TAU_QUANTILES[1:-1]]:
            expected = scipy_stats.norm.cdf(
                np.interp(tau, _TAU_QUANTILES, probits))
            assert mackinnon_pvalue(tau) == float(expected)

    def test_pvalue_saturates(self):
        assert mackinnon_pvalue(-50.0) == pytest.approx(0.0005)
        assert mackinnon_pvalue(50.0) == pytest.approx(0.999)


class TestADF:
    def test_random_walk_is_nonstationary(self):
        rng = np.random.default_rng(1)
        walk = np.cumsum(rng.normal(size=400))
        result = adf_test(walk)
        assert result.p_value > 0.05
        assert not result.is_stationary()

    def test_white_noise_is_stationary(self):
        rng = np.random.default_rng(2)
        noise = rng.normal(size=400)
        assert adf_test(noise, max_lags=2).is_stationary()

    def test_ar1_is_stationary(self):
        rng = np.random.default_rng(3)
        x = np.zeros(500)
        for i in range(1, 500):
            x[i] = 0.5 * x[i - 1] + rng.normal()
        assert adf_test(x, max_lags=4).is_stationary()

    def test_monotone_counter_is_nonstationary(self):
        """CPU/network byte counters -- the paper's canonical case."""
        rng = np.random.default_rng(4)
        counter = np.cumsum(np.abs(rng.normal(5.0, 1.0, size=300)))
        assert not adf_test(counter).is_stationary()

    def test_constant_series_reported_stationary(self):
        result = adf_test(np.full(50, 3.0))
        assert result.is_stationary()
        assert result.p_value == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            adf_test(np.arange(5.0))

    def test_is_stationary_helper(self):
        rng = np.random.default_rng(5)
        assert is_stationary(rng.normal(size=300), max_lags=2)
        assert not is_stationary(np.cumsum(rng.normal(size=300)))

    def test_differencing_makes_walk_stationary(self):
        rng = np.random.default_rng(6)
        walk = np.cumsum(rng.normal(size=400))
        assert adf_test(np.diff(walk), max_lags=2).is_stationary()
