"""Hypothesis tests behind Sieve's dependency extraction.

Two tests from the paper's Section 3.3:

* the **F-test** comparing the restricted and unrestricted Granger OLS
  models (null: the extra lagged regressors add no explanatory power);
* the **Augmented Dickey-Fuller (ADF) test** used to find non-stationary
  series -- those are first-differenced before Granger testing, because
  regressions between integrated series are spurious (Granger & Newbold
  1974).

The ADF distribution is non-standard; we use the MacKinnon (2010)
response-surface critical values for the constant-only regression and an
interpolated quantile table for approximate p-values.  That matches what
``statsmodels.tsa.stattools.adfuller`` does, at the fidelity Sieve needs
(a stationary / non-stationary decision at the 5% level).

P-values come straight from the ``scipy.special`` kernels that
``scipy.stats`` itself evaluates (``fdtrc`` for ``f.sf``, ``ndtr`` /
``ndtri`` for ``norm.cdf`` / ``norm.ppf``): the same numbers without the
distribution-object overhead, and without importing ``scipy.stats``.
SciPy is imported inside the functions, so importing this module (and
everything that serves ingest) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.regression import add_constant, ols
from repro.stats.timeseries_ops import lag_matrix


@dataclass(frozen=True)
class FTestResult:
    """Outcome of the nested-model F-test."""

    f_statistic: float
    p_value: float
    df_num: int
    df_den: int

    def rejects_null(self, alpha: float = 0.05) -> bool:
        """True when the unrestricted model is significantly better."""
        return self.p_value < alpha


def f_test_nested(rss_restricted: float, rss_unrestricted: float,
                  n_extra_params: int, df_resid_unrestricted: int) -> FTestResult:
    """F-test for nested OLS models.

    ``F = ((RSS_r - RSS_u) / q) / (RSS_u / df_u)`` where ``q`` is the
    number of restrictions.  A perfect unrestricted fit (``RSS_u == 0``)
    yields ``p = 0`` when it strictly improves on the restricted model.
    """
    if n_extra_params < 1:
        raise ValueError("need at least one restriction to test")
    if df_resid_unrestricted < 1:
        raise ValueError("unrestricted model has no residual degrees of freedom")
    improvement = max(rss_restricted - rss_unrestricted, 0.0)
    if rss_unrestricted <= 0.0:
        p_value = 0.0 if improvement > 0 else 1.0
        return FTestResult(np.inf if improvement > 0 else 0.0, p_value,
                           n_extra_params, df_resid_unrestricted)
    f_stat = (improvement / n_extra_params) / (
        rss_unrestricted / df_resid_unrestricted
    )
    from scipy.special import fdtrc

    p_value = float(fdtrc(n_extra_params, df_resid_unrestricted, f_stat))
    return FTestResult(float(f_stat), p_value, n_extra_params,
                       df_resid_unrestricted)


# MacKinnon (2010) response-surface coefficients for the ADF tau
# distribution, constant-only regression ("c"), one unit root tested.
# cv(T) = b0 + b1/T + b2/T^2 + b3/T^3.
_MACKINNON_CV_CONSTANT = {
    0.01: (-3.43035, -6.5393, -16.786, -79.433),
    0.05: (-2.86154, -2.8903, -4.234, -40.04),
    0.10: (-2.56677, -1.5384, -2.809, 0.0),
}

# Asymptotic quantiles of the ADF tau distribution (constant case), from
# the Dickey-Fuller / MacKinnon tables.  Used for approximate p-values by
# monotone interpolation in probit space.
_TAU_QUANTILES = np.array(
    [-4.38, -3.95, -3.60, -3.43, -3.12, -2.86, -2.57, -2.25,
     -1.94, -1.57, -1.14, -0.72, -0.44, -0.07, 0.23, 0.60, 1.02]
)
_TAU_PROBS = np.array(
    [0.0005, 0.001, 0.0025, 0.01, 0.025, 0.05, 0.10, 0.20,
     0.33, 0.50, 0.67, 0.80, 0.90, 0.95, 0.975, 0.99, 0.999]
)


def mackinnon_critical_values(n_obs: int) -> dict[float, float]:
    """Finite-sample ADF critical values for the constant-only regression."""
    if n_obs < 1:
        raise ValueError("n_obs must be positive")
    out = {}
    for level, (b0, b1, b2, b3) in _MACKINNON_CV_CONSTANT.items():
        out[level] = b0 + b1 / n_obs + b2 / n_obs**2 + b3 / n_obs**3
    return out


def mackinnon_pvalue(tau: float) -> float:
    """Approximate p-value for an ADF tau statistic (constant case).

    Interpolates the asymptotic quantile table through the probit
    transform, which keeps the interpolant smooth and monotone.  Values
    beyond the table saturate at the boundary probabilities.
    """
    if tau <= _TAU_QUANTILES[0]:
        return float(_TAU_PROBS[0])
    if tau >= _TAU_QUANTILES[-1]:
        return float(_TAU_PROBS[-1])
    from scipy.special import ndtr, ndtri

    interp = np.interp(tau, _TAU_QUANTILES, ndtri(_TAU_PROBS))
    return float(ndtr(interp))


@dataclass(frozen=True)
class ADFResult:
    """Outcome of the Augmented Dickey-Fuller test.

    The null hypothesis is the presence of a unit root
    (non-stationarity); small p-values mean the series looks stationary.
    """

    statistic: float
    p_value: float
    used_lags: int
    n_obs: int
    critical_values: dict[float, float]

    def is_stationary(self, alpha: float = 0.05) -> bool:
        """True when the unit-root null is rejected at level ``alpha``."""
        return self.p_value < alpha


def _default_adf_lags(n_obs: int) -> int:
    """Schwert's rule of thumb, ``12 * (T/100)^0.25``, safely capped."""
    schwert = int(np.ceil(12.0 * (n_obs / 100.0) ** 0.25))
    return max(0, min(schwert, n_obs // 2 - 2))


def adf_test(values: np.ndarray, max_lags: int | None = None) -> ADFResult:
    """Augmented Dickey-Fuller test with a constant term.

    Regresses ``dy[t] = a + b*y[t-1] + sum_i g_i * dy[t-i] + e`` and
    compares the t-statistic of ``b`` against the MacKinnon distribution.

    A series with (near-)zero variance is reported as stationary with
    ``p = 0``: it trivially never wanders, and Sieve's variance filter
    removes such metrics anyway.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"expected 1-D series, got shape {y.shape}")
    if y.size < 8:
        raise ValueError("ADF test needs at least 8 observations")
    if y.std() <= 1e-12:
        return ADFResult(
            statistic=-np.inf,
            p_value=0.0,
            used_lags=0,
            n_obs=y.size,
            critical_values=mackinnon_critical_values(y.size),
        )

    dy = np.diff(y)
    lags = _default_adf_lags(y.size) if max_lags is None else int(max_lags)
    lags = max(0, min(lags, dy.size - 3))

    # Align: regress dy[lags:] on y_lagged and lagged differences.
    target = dy[lags:]
    level = y[lags:-1]
    columns = [level]
    if lags > 0:
        columns.append(lag_matrix(dy, lags))
    design = add_constant(np.column_stack(columns))
    fit = ols(target, design)

    tau = float(fit.tvalues[1])  # coefficient on y[t-1]
    if not np.isfinite(tau):
        # Degenerate regression (e.g. perfectly collinear design): the
        # unit-root null is not rejected, so the series is reported
        # non-stationary and Sieve differences it.
        tau, p_value = 0.0, 1.0
    else:
        p_value = mackinnon_pvalue(tau)
    return ADFResult(
        statistic=tau,
        p_value=p_value,
        used_lags=lags,
        n_obs=fit.n_obs,
        critical_values=mackinnon_critical_values(fit.n_obs),
    )


def is_stationary(values: np.ndarray, alpha: float = 0.05,
                  max_lags: int | None = None) -> bool:
    """Convenience wrapper: does ``values`` look stationary at ``alpha``?"""
    return adf_test(values, max_lags=max_lags).is_stationary(alpha)
