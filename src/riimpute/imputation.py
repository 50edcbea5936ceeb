"""Imputation of a single incomplete variable: the random-indicator method and
its comparators.

The random-indicator imputer alternates three draws: selection-model
coefficients given the current completed target, a pseudo response indicator
from those coefficients, and new imputations from a regression of the target
on the covariates plus the pseudo indicator. The coefficient on the pseudo
indicator estimates the location shift between observed and missing parts, so
imputations are corrected beyond what an ignorable model would produce.

Comparators: ``mar_impute`` (Bayesian regression imputation assuming an
ignorable mechanism) and ``complete_case`` (drop incomplete rows).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRdot,
    DimensionMismatch,
    InvalidParameter,
    Separation,
    TooFewRows,
)
from .fitters import LinearFit, logistic_fit, ols_fit
from .mechanism import NonresponseParams, generate_missingness
from .rng import RngStream, mix_stream_id, sample_mvnormal, sample_scaled_inv_chi2

logger = logging.getLogger(__name__)

# pseudo-indicator redraws per sweep before the sweep falls back to zero shift
MAX_RDOT_REDRAWS = 5


@dataclass(frozen=True)
class IncompleteDataset:
    """One incomplete numeric target plus fully observed covariates.

    Missing target cells are NaN; covariates must be complete. Infinite
    values are rejected in both.
    """

    target: np.ndarray
    covariates: np.ndarray
    target_name: str = "x1"
    covariate_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        target = np.asarray(self.target, dtype=float)
        covariates = np.asarray(self.covariates, dtype=float)
        if covariates.ndim == 1:
            covariates = covariates[:, None]
        if target.ndim != 1 or covariates.ndim != 2:
            raise DimensionMismatch("target must be 1-d and covariates 2-d")
        if covariates.shape[0] != target.shape[0]:
            raise DimensionMismatch(
                f"covariates have {covariates.shape[0]} rows, target has {target.shape[0]}"
            )
        if np.isnan(covariates).any():
            raise InvalidParameter("covariates must be fully observed")
        if np.isinf(target).any() or np.isinf(covariates).any():
            raise InvalidParameter("target and covariates must not contain infinite values")
        names = tuple(self.covariate_names) or tuple(
            f"z{i + 1}" for i in range(covariates.shape[1])
        )
        if len(names) != covariates.shape[1]:
            raise DimensionMismatch("one name per covariate column required")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "covariates", covariates)
        object.__setattr__(self, "covariate_names", names)

    @property
    def n(self) -> int:
        return self.target.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    @property
    def observed_mask(self) -> np.ndarray:
        return ~np.isnan(self.target)

    @property
    def n_observed(self) -> int:
        return int(self.observed_mask.sum())

    @property
    def n_missing(self) -> int:
        return self.n - self.n_observed

    def require_imputable(self) -> None:
        if self.n_observed < 2:
            raise TooFewRows("imputation needs at least 2 observed target values")
        if self.n_missing < 1:
            raise TooFewRows("nothing to impute: target has no missing values")

    def require_fittable(self, n_params: int) -> None:
        if self.n_observed < n_params + 2:
            raise TooFewRows(
                f"model with {n_params} parameters needs at least {n_params + 2} "
                f"observed rows, got {self.n_observed}"
            )


@dataclass(frozen=True)
class RiConfig:
    """Settings for the random-indicator imputer."""

    iterations: int = 10
    num_imputations: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1 or self.num_imputations < 1:
            raise InvalidParameter("iterations and num_imputations must be >= 1")


def _with_intercept(z: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(z.shape[0]), z])


def _indicator(values, n: int) -> np.ndarray:
    """A caller's response or pseudo-response indicator: 0/1 vector of length n."""
    values = np.asarray(values)
    if values.ndim != 1 or not np.all((values == 0) | (values == 1)):
        raise InvalidParameter("indicator must be a 1-d vector of 0s and 1s")
    if len(values) != n:
        raise DimensionMismatch(f"indicator has length {len(values)}, expected {n}")
    return values


def estimate_adjustment(data: IncompleteDataset, rdot) -> LinearFit:
    """Fit the observed-part regression with the pseudo-indicator offset.

    Regresses the observed target on intercept, covariates, and (rdot - 1);
    the last coefficient, on (rdot - 1), is the estimated shift ``delta_adj``.
    Raises DegenerateRdot when rdot is constant among the observed rows.
    """
    rdot = _indicator(rdot, data.n)
    obs = data.observed_mask
    rdot_obs = rdot[obs]
    if rdot_obs.size == 0 or rdot_obs.min() == rdot_obs.max():
        raise DegenerateRdot("pseudo indicator is constant among observed rows")
    data.require_fittable(data.n_covariates + 2)

    design = np.column_stack(
        [_with_intercept(data.covariates[obs]), rdot_obs.astype(float) - 1.0]
    )
    return ols_fit(design, data.target[obs])


def _impute_draw(data: IncompleteDataset, fit: LinearFit, rng: RngStream, rdot=None) -> np.ndarray:
    """One posterior imputation of the missing rows from an observed-rows fit.

    Draws the residual variance (scaled inverse chi-square) and the regression
    coefficients phi (normal) from their noninformative posterior; an exact
    fit keeps the estimates. With ``rdot`` the fit's last coefficient is the
    shift ``delta_adj``, kept at its estimate, and each missing row is
    predicted as ``z.phi + delta_adj * (rdot - 2)``: shifted once when
    pseudo-observed, twice when pseudo-missing. Normal noise at the drawn
    residual variance is added.
    """
    df = fit.n_rows - fit.n_params
    if df <= 0:
        raise TooFewRows("posterior draw needs positive residual degrees of freedom")
    if fit.residual_variance > 0:
        sigma2_dot = sample_scaled_inv_chi2(df, fit.residual_variance, rng)
    else:
        sigma2_dot = 0.0
    phi = slice(0, fit.n_params if rdot is None else fit.n_params - 1)
    phi_dot = sample_mvnormal(fit.coefficients[phi], sigma2_dot * fit.gram_inverse[phi, phi], rng)

    mis = ~data.observed_mask
    means = _with_intercept(data.covariates[mis]) @ phi_dot
    if rdot is not None:
        means = means + float(fit.coefficients[-1]) * (np.asarray(rdot)[mis] - 2.0)
    completed = data.target.copy()
    completed[mis] = means + np.sqrt(sigma2_dot) * rng.generator.standard_normal(mis.sum())
    return completed


def impute_given_rdot(data: IncompleteDataset, rdot, rng: RngStream) -> np.ndarray:
    """Impute the missing target values for a fixed pseudo indicator.

    Estimates the shift ``delta_adj`` from the observed rows with
    ``estimate_adjustment`` and draws the imputations around
    ``z.phi + delta_adj * (rdot - 2)``: the shift applied once for
    pseudo-observed rows and twice for pseudo-missing rows.
    """
    return _impute_draw(data, estimate_adjustment(data, rdot), rng, rdot)


def draw_psi_posterior(
    completed_target, covariates, r, rng: RngStream, start: NonresponseParams | None = None
) -> NonresponseParams:
    """Fit the selection model of ``r`` on the completed data and draw its coefficients.

    The draw is normal around the maximum likelihood estimate with the inverse
    Fisher information as covariance. ``start``, typically the previous sweep's
    draw, is where the fit's iterations begin (see ``logistic_fit``).
    """
    completed_target = np.asarray(completed_target, dtype=float)
    covariates = np.asarray(covariates, dtype=float)
    if covariates.ndim == 1:
        covariates = covariates[:, None]
    design = np.column_stack(
        [np.ones(completed_target.shape[0]), completed_target, covariates]
    )
    if start is not None:
        start = np.r_[start.psi0, start.psi1, start.psi_z]
    fit = logistic_fit(design, r, start=start)
    draw = sample_mvnormal(fit.coefficients, fit.covariance, rng)
    return NonresponseParams(psi0=draw[0], psi1=draw[1], psi_z=draw[2:])


def _mar_fit(data: IncompleteDataset) -> LinearFit:
    obs = data.observed_mask
    data.require_fittable(data.n_covariates + 1)
    return ols_fit(_with_intercept(data.covariates[obs]), data.target[obs])


def mar_impute(data: IncompleteDataset, m: int, rng: RngStream) -> list[np.ndarray]:
    """Multiple imputation under an ignorable mechanism.

    Per imputation: draw residual variance and coefficients from the
    noninformative posterior of the observed-rows regression, then predict
    missing rows and add noise.
    """
    if m < 1:
        raise InvalidParameter("m must be >= 1")
    if data.n_missing == 0:
        logger.warning("target has no missing values; returning %d identical copies", m)
        return [data.target.copy() for _ in range(m)]
    data.require_imputable()
    fit = _mar_fit(data)
    return [_impute_draw(data, fit, rng) for _ in range(m)]


def ri_impute(
    data: IncompleteDataset,
    config: RiConfig,
    nonresponse_columns: tuple[int, ...] | None = None,
) -> list[np.ndarray]:
    """Random-indicator multiple imputation of the incomplete target.

    Runs ``config.num_imputations`` independent chains. Each chain starts from
    missing values resampled out of the observed ones, then repeats for
    ``config.iterations`` sweeps: draw selection coefficients from their
    posterior given the completed target, draw a pseudo response indicator,
    and reimpute the missing rows with the estimated shift.

    ``nonresponse_columns`` restricts which covariate columns enter the
    selection model (default: all of them). If the drawn pseudo indicator is
    constant among observed rows it is redrawn up to ``MAX_RDOT_REDRAWS``
    times, after which the sweep falls back to an unshifted imputation and
    logs a warning. A sweep whose selection-model fit separates takes the
    same fallback and warning. Within a chain, each selection-model fit
    starts from the chain's latest coefficient draw; the first starts at zero.
    """
    if data.n_missing == 0:
        logger.warning(
            "target has no missing values; returning %d identical copies",
            config.num_imputations,
        )
        return [data.target.copy() for _ in range(config.num_imputations)]
    data.require_imputable()
    cols = tuple(range(data.n_covariates)) if nonresponse_columns is None else tuple(nonresponse_columns)
    z_nr = data.covariates[:, cols]

    obs = data.observed_mask
    observed_values = data.target[obs]
    results: list[np.ndarray] = []
    for chain in range(config.num_imputations):
        rng = RngStream(config.seed, mix_stream_id("ri-chain", chain))
        completed = data.target.copy()
        completed[~obs] = rng.generator.choice(observed_values, size=data.n_missing, replace=True)
        psi_dot = None
        for _ in range(config.iterations):
            try:
                psi_dot = draw_psi_posterior(completed, z_nr, obs, rng, start=psi_dot)
            except Separation:
                logger.warning("selection model separated; sweep uses zero shift")
                completed = _impute_draw(data, _mar_fit(data), rng)
                continue
            for _ in range(MAX_RDOT_REDRAWS + 1):
                rdot = generate_missingness(completed, z_nr, psi_dot, rng)
                try:
                    completed = impute_given_rdot(data, rdot, rng)
                    break
                except DegenerateRdot:
                    pass
            else:
                logger.warning(
                    "pseudo indicator degenerate after %d redraws; sweep uses zero shift",
                    MAX_RDOT_REDRAWS,
                )
                completed = _impute_draw(data, _mar_fit(data), rng)
        results.append(completed)
    return results


def complete_case(data: IncompleteDataset) -> tuple[np.ndarray, np.ndarray]:
    """Covariates and target restricted to rows with an observed target."""
    data.require_fittable(data.n_covariates + 1)
    obs = data.observed_mask
    return data.covariates[obs].copy(), data.target[obs].copy()
