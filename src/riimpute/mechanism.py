"""The logistic nonresponse model.

The probability that the target value is observed follows

    logit P(observed) = psi0 + psi1 * x + psi_z . z

where x is the (possibly unobserved) target value and z the complete
covariates entering the selection model. ``psi1 = 0`` makes the mechanism
ignorable; a nonzero ``psi1`` shifts the mean of the missing part of x by
``psi1 * sigma2`` below the observed part when the observed part is normal
with residual variance ``sigma2`` given z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import DimensionMismatch, InvalidParameter
from .rng import RngStream, sample_bernoulli


@dataclass(frozen=True)
class NonresponseParams:
    """Coefficients of the logistic selection model on the log-odds scale."""

    psi0: float
    psi1: float
    psi_z: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        object.__setattr__(self, "psi0", float(self.psi0))
        object.__setattr__(self, "psi1", float(self.psi1))
        object.__setattr__(self, "psi_z", np.atleast_1d(np.asarray(self.psi_z, dtype=float)))
        vec = np.array([self.psi0, self.psi1, *self.psi_z])
        if not np.all(np.isfinite(vec)):
            raise InvalidParameter("nonresponse coefficients must be finite")

    @property
    def is_ignorable(self) -> bool:
        return self.psi1 == 0.0

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.psi0, self.psi1], self.psi_z))


def _covariate_matrix(z, n_rows: int, n_coefs: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if n_coefs == 0:
        if z.size != 0 and z.shape[-1] != 0:
            raise DimensionMismatch("model has no covariate coefficients but covariates were given")
        return np.zeros((n_rows, 0))
    if z.ndim == 1:
        # a single row (scalar target) or a single covariate column
        z = z[None, :] if n_rows == 1 else z[:, None]
    if z.shape != (n_rows, n_coefs):
        raise DimensionMismatch(
            f"covariates shape {z.shape} does not match {n_rows} rows x {n_coefs} coefficients"
        )
    return z


def response_probability(params: NonresponseParams, x1, z=None):
    """P(observed) under the selection model, for one row or row-wise."""
    x1 = np.asarray(x1, dtype=float)
    scalar = x1.ndim == 0
    x1 = np.atleast_1d(x1)
    n = x1.shape[0]
    zmat = _covariate_matrix(z if z is not None else np.zeros((n, 0)), n, len(params.psi_z))
    eta = params.psi0 + params.psi1 * x1 + zmat @ params.psi_z
    prob = expit(eta)
    return float(prob[0]) if scalar else prob


def generate_missingness(
    target, covariates, params: NonresponseParams, rng: RngStream
) -> np.ndarray:
    """Draw the response indicator row-wise from the selection model.

    Returns an int8 vector, 1 where the target value is observed.
    """
    target = np.asarray(target, dtype=float)
    prob = response_probability(params, target, covariates)
    return sample_bernoulli(np.atleast_1d(prob), rng)


def delta_from_psi(psi1: float, sigma2: float) -> float:
    """Mean shift of the missing part implied by the selection slope: psi1 * sigma2."""
    if not sigma2 > 0:
        raise InvalidParameter(f"sigma2 must be positive, got {sigma2}")
    return float(psi1) * float(sigma2)


def sample_selection_population(
    params: NonresponseParams,
    mean,
    covariates,
    sigma2: float,
    rng: RngStream,
    indicators: int = 1,
) -> np.ndarray:
    """Draw target values whose fully observed part is exactly normal under selection.

    Verification utility. Returns one target value per row of ``mean`` from the
    equal-variance normal mixture with component j (j = 0..indicators) centred
    at ``mean - j * psi1 * sigma2`` and log weight

        log C(indicators, j) - j * (psi0 + psi_z . z) - j * psi1 * mean
        + j^2 * psi1^2 * sigma2 / 2.

    With ``indicators`` independent response draws from the selection model, the
    subpopulation observed in all of them is then N(mean, sigma2) row-wise, and
    each additional miss shifts the conditional mean down by exactly
    ``psi1 * sigma2``. Used by the distribution checks in the test suite; the
    identity does not hold for an arbitrary marginal target distribution.
    """
    if not sigma2 > 0:
        raise InvalidParameter("sigma2 must be positive")
    if indicators < 1:
        raise InvalidParameter("indicators must be >= 1")
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    n = mean.shape[0]
    zmat = _covariate_matrix(covariates if covariates is not None else np.zeros((n, 0)), n, len(params.psi_z))
    base = params.psi0 + zmat @ params.psi_z

    j = np.arange(indicators + 1, dtype=float)
    log_binom = np.array(
        [math.log(math.comb(indicators, k)) for k in range(indicators + 1)]
    )
    log_w = (
        log_binom[None, :]
        - j[None, :] * (base[:, None] + params.psi1 * mean[:, None])
        + 0.5 * (j[None, :] ** 2) * params.psi1**2 * sigma2
    )
    log_w -= log_w.max(axis=1, keepdims=True)
    weights = np.exp(log_w)
    weights /= weights.sum(axis=1, keepdims=True)

    u = rng.generator.random(n)
    component = (np.cumsum(weights, axis=1) < u[:, None]).sum(axis=1)
    shift = component * params.psi1 * sigma2
    return mean - shift + np.sqrt(sigma2) * rng.generator.standard_normal(n)
