"""Least-squares and logistic regression fitters used by the imputation models.

Both fitters work on explicit design matrices (the caller appends intercept
columns) and return small result objects carrying everything downstream code
needs for posterior draws: coefficients, a dispersion estimate and the inverse
Gram / information matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NonConvergence,
    RankDeficient,
    Separation,
)

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 25
IRLS_COEF_CAP = 15.0
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least squares result.

    ``gram_inverse`` is the inverse of design' design (after the ridge bump
    when ``ridge_adjusted`` is set), so coefficient covariance is
    ``residual_variance * gram_inverse``.
    """

    coefficients: np.ndarray
    residual_variance: float
    gram_inverse: np.ndarray
    n_rows: int
    n_params: int
    ridge_adjusted: bool = False


@dataclass(frozen=True)
class LogisticFit:
    """Maximum likelihood logistic regression result.

    ``covariance`` is the inverse observed Fisher information at the estimate.
    """

    coefficients: np.ndarray
    covariance: np.ndarray
    iterations: int


def _as_design(design, response, response_name: str):
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    if design.ndim == 1:
        design = design[:, None]
    if design.ndim != 2:
        raise DimensionMismatch(f"design must be 2-dimensional, got ndim={design.ndim}")
    if response.ndim != 1 or design.shape[0] != response.shape[0]:
        raise DimensionMismatch(
            f"design has {design.shape[0]} rows but {response_name} has length {response.shape[0]}"
        )
    return design, response


def ols_fit(design, response, *, strict: bool = False) -> LinearFit:
    """Least squares fit of `response` on the columns of `design`.

    Near-singular designs get a small ridge bump on the Gram diagonal and the
    returned fit is flagged ``ridge_adjusted``; with ``strict=True`` they raise
    RankDeficient instead.
    """
    x, y = _as_design(design, response, "response")
    n, p = x.shape
    if n < p:
        raise DimensionMismatch(f"need at least {p} rows for {p} parameters, got {n}")

    gram = x.T @ x
    singular_values = np.linalg.svd(x, compute_uv=False)
    deficient = singular_values[-1] < _RANK_RTOL * singular_values[0]
    ridge_adjusted = False
    if deficient:
        if strict:
            raise RankDeficient(
                f"smallest singular value {singular_values[-1]:.3e} below "
                f"{_RANK_RTOL:g} x largest {singular_values[0]:.3e}"
            )
        gram = gram + (1e-8 * np.trace(gram) / p) * np.eye(p)
        ridge_adjusted = True

    gram_inverse = np.linalg.inv(gram)
    gram_inverse = 0.5 * (gram_inverse + gram_inverse.T)
    coefficients = gram_inverse @ (x.T @ y)
    residuals = y - x @ coefficients
    rss = float(residuals @ residuals)
    residual_variance = rss / (n - p) if n > p else 0.0
    return LinearFit(
        coefficients=coefficients,
        residual_variance=max(residual_variance, 0.0),
        gram_inverse=gram_inverse,
        n_rows=n,
        n_params=p,
        ridge_adjusted=ridge_adjusted,
    )


def _loglik(eta: np.ndarray, y: np.ndarray) -> float:
    # log expit(eta) for y=1 plus log expit(-eta) for y=0, computed stably
    signed = np.where(y == 1, eta, -eta)
    return float(-np.logaddexp(0.0, -signed).sum())


def logistic_fit(design, indicator) -> LogisticFit:
    """Logistic regression by iteratively reweighted least squares.

    Newton steps with step halving, so the log likelihood never decreases.
    Raises Separation once any coefficient passes ``IRLS_COEF_CAP`` in
    magnitude and NonConvergence after ``IRLS_MAX_ITER`` iterations.
    """
    x, y = _as_design(design, indicator, "indicator")
    if not (np.all((y == 0) | (y == 1)) and y.min() == 0 and y.max() == 1):
        raise InvalidParameter("indicator must contain both 0s and 1s and nothing else")
    p = x.shape[1]

    beta = np.zeros(p)
    eta = x @ beta
    ll = _loglik(eta, y)

    for iterations in range(1, IRLS_MAX_ITER + 1):
        mu = expit(eta)
        weights = mu * (1.0 - mu)
        grad = x.T @ (y - mu)
        hessian = x.T @ (weights[:, None] * x)
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hessian, grad, rcond=None)[0]

        # halve the step until the log likelihood stops decreasing; the slack
        # scales with |ll| so float rounding of the big sum cannot stall the step
        factor = 1.0
        slack = 1e-12 * (1.0 + abs(ll))
        for _ in range(30):
            candidate = beta + factor * step
            new_eta = x @ candidate
            new_ll = _loglik(new_eta, y)
            if new_ll >= ll - slack:
                break
            factor *= 0.5
        delta = float(np.abs(candidate - beta).max())
        beta, eta, ll = candidate, new_eta, new_ll

        if np.abs(beta).max() > IRLS_COEF_CAP:
            raise Separation(
                f"coefficient magnitude exceeded {IRLS_COEF_CAP:g} after {iterations} iterations"
            )
        grad_now = x.T @ (y - expit(eta))
        if delta < IRLS_TOL and np.abs(grad_now).max() <= 1e-6:
            break
    else:
        raise NonConvergence(f"IRLS did not converge within {IRLS_MAX_ITER} iterations")

    mu = expit(eta)
    info = x.T @ ((mu * (1.0 - mu))[:, None] * x)
    covariance = np.linalg.inv(info)
    covariance = 0.5 * (covariance + covariance.T)
    return LogisticFit(coefficients=beta, covariance=covariance, iterations=iterations)
