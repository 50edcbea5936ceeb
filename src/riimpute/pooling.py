"""Analysis-model fitting and combination of multiply imputed estimates.

The analysis model is a linear regression of the (completed) target on the
covariates. Estimates from the m completed datasets are combined with the
classic rules: pooled point estimate is the mean, total variance adds the
between-imputation spread inflated by (1 + 1/m), and interval degrees of
freedom are (m - 1) * (1 + u / ((1 + 1/m) b))^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .fitters import _EINSUM_ROWS, _with_intercept, ols_fit


@dataclass(frozen=True)
class AnalysisFit:
    """Coefficients and squared standard errors of one analysis-model fit."""

    beta_hat: np.ndarray
    variances: np.ndarray
    n: int


@dataclass(frozen=True)
class PooledEstimate:
    """Combined estimate over m imputations with 95% interval."""

    q_bar: np.ndarray
    u_bar: np.ndarray
    b: np.ndarray
    t: np.ndarray
    df: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    m: int


def fit_analysis(covariates, target) -> AnalysisFit:
    """OLS of target on an intercept plus the covariates; collinear ones raise RankDeficient.

    From ``fitters._EINSUM_ROWS`` rows on, the design is built in F order,
    which ``ols_fit`` sums by einsum without a copy.
    """
    n = len(covariates)
    if n < _EINSUM_ROWS:
        design = np.column_stack([np.ones(n), covariates])
    else:
        design = _with_intercept(covariates)
    fit = ols_fit(design, target)
    variances = fit.residual_variance * np.diag(fit.gram_inverse)
    return AnalysisFit(beta_hat=fit.coefficients, variances=variances, n=fit.n_rows)


def _with_interval(q_bar, u_bar, b, t, df, m: int) -> PooledEstimate:
    """The estimate with its 95% interval; infinite df take the normal quantile.

    ``stdtrit`` and ``ndtri`` are the functions SciPy's ``t.ppf`` and
    ``norm.ppf`` evaluate (same bits), without importing its stats package,
    which costs about 0.8 s per process. They are imported on first use:
    ``scipy.special`` itself takes 0.10-0.16 s to import after numpy (2 CPUs,
    Python 3.11), and commands that pool nothing (``density``) never load it.
    """
    from scipy.special import ndtri, stdtrit

    quantile = np.full(len(df), ndtri(0.975))
    finite = np.isfinite(df)
    quantile[finite] = stdtrit(df[finite], 0.975)
    half_width = quantile * np.sqrt(t)
    return PooledEstimate(q_bar=q_bar, u_bar=u_bar, b=b, t=t, df=df,
                          ci_low=q_bar - half_width, ci_high=q_bar + half_width, m=m)


def rubin_pool(fits: list[AnalysisFit], m: int) -> PooledEstimate:
    """Combine m analysis fits into one pooled estimate with 95% intervals.

    Coordinates where the between-imputation variance is exactly zero get
    infinite degrees of freedom and a normal quantile.
    """
    if m != len(fits) or m < 2:
        raise InvalidParameter(f"m must equal the number of fits and be >= 2, got m={m}")
    p = len(fits[0].beta_hat)
    if any(len(f.beta_hat) != p or len(f.variances) != p for f in fits):
        raise DimensionMismatch("all fits must have the same coefficient dimension")

    estimates = np.vstack([f.beta_hat for f in fits])
    within = np.vstack([f.variances for f in fits])
    q_bar = estimates.mean(axis=0)
    u_bar = within.mean(axis=0)
    b = estimates.var(axis=0, ddof=1)
    t = u_bar + (1.0 + 1.0 / m) * b

    df = np.full(p, inf)
    positive = b > 0
    df[positive] = (m - 1) * (1.0 + u_bar[positive] / ((1.0 + 1.0 / m) * b[positive])) ** 2
    return _with_interval(q_bar, u_bar, b, t, df, m)


def single_fit_estimate(fit: AnalysisFit) -> PooledEstimate:
    """Normal-theory interval for one fit, in the pooled-estimate layout.

    Used for the complete-case method: zero between-imputation variance and
    the usual residual degrees of freedom n - p.
    """
    p = len(fit.beta_hat)
    if fit.n - p <= 0:
        raise InvalidParameter("fit must have positive residual degrees of freedom")
    return _with_interval(fit.beta_hat.copy(), fit.variances.copy(), np.zeros(p),
                          fit.variances.copy(), np.full(p, float(fit.n - p)), 1)


def coverage(pooled: PooledEstimate, truth) -> np.ndarray:
    """1 where the pooled 95% interval contains the true value, else 0."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != pooled.q_bar.shape:
        raise DimensionMismatch(
            f"truth has shape {truth.shape}, pooled estimate has {pooled.q_bar.shape}"
        )
    return ((pooled.ci_low <= truth) & (truth <= pooled.ci_high)).astype(np.int8)
