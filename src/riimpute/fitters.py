"""Least-squares and logistic regression fitters used by the imputation models.

Both fitters work on explicit design matrices (the caller appends intercept
columns) and return small result objects carrying everything downstream code
needs for posterior draws: coefficients, a dispersion estimate and the inverse
Gram / information matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NonConvergence, RankDeficient, Separation

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 25
IRLS_COEF_CAP = 15.0
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least squares result.

    ``gram_inverse`` is the inverse of design' design, so coefficient
    covariance is ``residual_variance * gram_inverse``.
    """

    coefficients: np.ndarray
    residual_variance: float
    gram_inverse: np.ndarray
    n_rows: int
    n_params: int


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
    if design.shape[1] == 0:
        raise DimensionMismatch("design has no columns")
    if response.ndim != 1 or design.shape[0] != response.shape[0]:
        raise DimensionMismatch(
            f"design has {design.shape[0]} rows but {response_name} has length {response.shape[0]}"
        )
    return design, response


def _checked_inverse(matrix: np.ndarray, name: str) -> np.ndarray:
    """Symmetrized inverse of the symmetric positive semi-definite ``matrix``.

    Raises RankDeficient, naming ``name``, when the smallest eigenvalue of
    ``matrix`` scaled to unit diagonal is below ``_RANK_RTOL``. The scaling
    makes the test independent of the units of each design column.
    """
    scale = np.sqrt(np.diag(matrix))
    smallest = np.linalg.eigvalsh(matrix / np.outer(scale, scale))[0] if scale.min() > 0 else 0.0
    if not smallest >= _RANK_RTOL:
        raise RankDeficient(
            f"{name} is singular: smallest eigenvalue {smallest:.3e} of its "
            f"unit-diagonal form is below {_RANK_RTOL:g}"
        )
    inverse = np.linalg.inv(matrix)
    return 0.5 * (inverse + inverse.T)


def ols_fit(design, response) -> LinearFit:
    """Least squares fit of `response` on the columns of `design`.

    Raises RankDeficient when the Gram matrix design' design is numerically
    singular (see ``_checked_inverse``).
    """
    x, y = _as_design(design, response, "response")
    n, p = x.shape
    if n < p:
        raise DimensionMismatch(f"need at least {p} rows for {p} parameters, got {n}")
    return _ols(x, y)


def _ols(x: np.ndarray, y: np.ndarray) -> LinearFit:
    """Kernel of ``ols_fit`` for a float design with at least as many rows as columns."""
    n, p = x.shape
    gram_inverse = _checked_inverse(x.T @ x, "Gram matrix")
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
    )


def _mu_loglik(x: np.ndarray, y: np.ndarray, beta: np.ndarray):
    """Fitted probabilities and log likelihood at ``beta``.

    One ``e = exp(-|eta|)`` of the linear predictor ``eta`` gives both: ``mu``
    is ``1 / (1 + e)`` where eta is non-negative and ``e / (1 + e)``
    elsewhere, and the log likelihood is
    ``y.eta - sum(max(eta, 0)) - sum(log1p(e))``. Neither overflows. Since
    ``0 <= e <= 1``, ``max(eta >= 0, e)`` picks the numerator without a branch.
    """
    eta = x @ beta
    e = np.exp(-np.abs(eta))
    mu = np.maximum(eta >= 0, e) / (1.0 + e)
    ll = float(y @ eta - np.maximum(eta, 0.0).sum() - np.log1p(e).sum())
    return mu, ll


def _information(x: np.ndarray, mu: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """The information matrix ``x' diag(mu (1 - mu)) x`` at fitted probabilities ``mu``.

    The weighted design is written transposed into ``buffer``, shape ``(p, n)``:
    broadcasting the weights along the rows of a C-order ``(p, n)`` array runs
    an inner loop of length n, where ``w[:, None] * x`` runs one of length p.
    The products are the same, and the tests pin that the matrix product sums
    them to the same bits as ``x.T @ (w[:, None] * x)`` for C-order designs.
    """
    np.multiply(x.T, mu * (1.0 - mu), out=buffer)
    return x.T @ buffer.T


def _irls(x: np.ndarray, y: np.ndarray, beta: np.ndarray, buffer: np.ndarray):
    """Newton iterations from ``beta``: ``(beta, mu, iterations, error)``.

    ``error`` is the Separation or NonConvergence that stopped the iterations,
    or None when they converged. ``buffer`` is ``_information``'s scratch.
    """
    mu, ll = _mu_loglik(x, y, beta)
    grad = x.T @ (y - mu)
    for iterations in range(1, IRLS_MAX_ITER + 1):
        hessian = _information(x, mu, buffer)
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
    return _logistic(x, y, start)


def _logistic(x: np.ndarray, y: np.ndarray, start: np.ndarray) -> LogisticFit:
    """Kernel of ``logistic_fit`` for arguments that pass its checks."""
    buffer = np.empty(x.shape[::-1])
    beta, mu, iterations, error = _irls(x, y, start, buffer)
    if error is not None and start.any():
        beta, mu, cold_iterations, error = _irls(x, y, np.zeros_like(start), buffer)
        iterations += cold_iterations
    if error is not None:
        raise error

    covariance = _checked_inverse(_information(x, mu, buffer), "information matrix")
    return LogisticFit(coefficients=beta, covariance=covariance, iterations=iterations)
