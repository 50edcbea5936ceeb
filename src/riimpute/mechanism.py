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

from dataclasses import dataclass, field

import numpy as np

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
    # imported on first use: scipy.special takes 0.10-0.16 s to import after
    # numpy, and commands that draw no missingness (``density``) never load it
    from scipy.special import expit

    x1 = np.asarray(x1, dtype=float)
    scalar = x1.ndim == 0
    x1 = np.atleast_1d(x1)
    n = x1.shape[0]
    zmat = _covariate_matrix(z if z is not None else np.zeros((n, 0)), n, len(params.psi_z))
    eta = zmat @ params.psi_z
    eta += x1 * params.psi1 + params.psi0
    prob = expit(eta, out=eta)
    return float(prob[0]) if scalar else prob


def generate_missingness(
    target, covariates, params: NonresponseParams, rng: RngStream
) -> np.ndarray:
    """Draw the response indicator row-wise from the selection model.

    Returns an int8 vector, 1 where the target value is observed.
    """
    return sample_bernoulli(np.atleast_1d(response_probability(params, target, covariates)), rng)
