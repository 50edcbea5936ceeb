"""Least-squares and logistic regression fitters used by the imputation models.

Both fitters work on explicit design matrices (the caller appends intercept
columns) and return small result objects carrying everything downstream code
needs for posterior draws: coefficients, a dispersion estimate and the inverse
Gram / information matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _mu_loglik(x: np.ndarray, y: np.ndarray, beta: np.ndarray):
    """Fitted probabilities and log likelihood at ``beta``.

    One ``e = exp(-|eta|)`` of the linear predictor ``eta`` gives both: ``mu``
    is ``1 / (1 + e)`` where eta is non-negative and ``e / (1 + e)``
    elsewhere, and the log likelihood is
    ``y.eta - sum(max(eta, 0)) - sum(log1p(e))``. Neither overflows.
    """
    eta = x @ beta
    e = np.exp(-np.abs(eta))
    mu = np.where(eta >= 0, 1.0, e) / (1.0 + e)
    ll = float(y @ eta - np.maximum(eta, 0.0).sum() - np.log1p(e).sum())
    return mu, ll


def _irls(x: np.ndarray, y: np.ndarray, beta: np.ndarray):
    """Newton iterations from ``beta``: ``(beta, mu, iterations, error)``.

    ``error`` is the Separation or NonConvergence that stopped the iterations,
    or None when they converged.
    """
    mu, ll = _mu_loglik(x, y, beta)
    grad = x.T @ (y - mu)
    for iterations in range(1, IRLS_MAX_ITER + 1):
        hessian = x.T @ ((mu * (1.0 - mu))[:, None] * x)
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
            new_mu, new_ll = _mu_loglik(x, y, candidate)
            if new_ll >= ll - slack:
                break
            factor *= 0.5
        delta = float(np.abs(candidate - beta).max())
        beta, mu, ll = candidate, new_mu, new_ll

        if np.abs(beta).max() > IRLS_COEF_CAP:
            return beta, mu, iterations, Separation(
                f"coefficient magnitude exceeded {IRLS_COEF_CAP:g} after {iterations} iterations"
            )
        grad = x.T @ (y - mu)
        if delta < IRLS_TOL and np.abs(grad).max() <= 1e-6:
            return beta, mu, iterations, None
    return beta, mu, IRLS_MAX_ITER, NonConvergence(
        f"IRLS did not converge within {IRLS_MAX_ITER} iterations"
    )


def logistic_fit(design, indicator, start=None) -> LogisticFit:
    """Logistic regression by iteratively reweighted least squares.

    Newton steps with step halving, so the log likelihood never decreases.
    Raises Separation once any coefficient passes ``IRLS_COEF_CAP`` in
    magnitude, NonConvergence after ``IRLS_MAX_ITER`` iterations, and
    RankDeficient when the information matrix at the estimate is singular.

    ``start`` (one value per design column, default zeros) is where the
    iterations begin; a caller refitting the same model on slightly changed
    data passes its previous estimate to save iterations. A fit from a
    nonzero start that separates or does not converge is refitted once from
    zero, so a start changes the cost of a fit but not whether it succeeds.
    ``iterations`` counts the iterations of both attempts.
    """
    x, y = _as_design(design, indicator, "indicator")
    if not (np.all((y == 0) | (y == 1)) and y.min() == 0 and y.max() == 1):
        raise InvalidParameter("indicator must contain both 0s and 1s and nothing else")
    p = x.shape[1]
    start = np.zeros(p) if start is None else np.asarray(start, dtype=float)
    if start.shape != (p,):
        raise DimensionMismatch(f"start has shape {start.shape}, expected ({p},)")
    if not np.all(np.isfinite(start)):
        raise InvalidParameter("start must be finite")

    beta, mu, iterations, error = _irls(x, y, start)
    if error is not None and start.any():
        beta, mu, cold_iterations, error = _irls(x, y, np.zeros(p))
        iterations += cold_iterations
    if error is not None:
        raise error

    info = x.T @ ((mu * (1.0 - mu))[:, None] * x)
    # rank test on the information scaled to unit diagonal, so column units do not matter
    scale = np.sqrt(np.diag(info))
    smallest = np.linalg.eigvalsh(info / np.outer(scale, scale))[0] if scale.min() > 0 else 0.0
    if not smallest >= _RANK_RTOL:
        raise RankDeficient(
            f"information matrix is singular: smallest eigenvalue {smallest:.3e} of its "
            f"unit-diagonal form is below {_RANK_RTOL:g}"
        )
    covariance = np.linalg.inv(info)
    covariance = 0.5 * (covariance + covariance.T)
    return LogisticFit(coefficients=beta, covariance=covariance, iterations=iterations)
