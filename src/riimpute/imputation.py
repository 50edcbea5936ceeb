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
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateRdot, DimensionMismatch, InvalidParameter, NonConvergence,
                     Separation, TooFewRows)
from .fitters import LinearFit, _logistic, _ols, logistic_fit
from .mechanism import NonresponseParams, _probability
from .rng import RngStream, _bernoulli, _mvnormal, mix_stream_id, sample_scaled_inv_chi2

logger = logging.getLogger(__name__)

# pseudo-indicator redraws per sweep before the sweep falls back to zero shift
MAX_RDOT_REDRAWS = 5


@dataclass(frozen=True)
class IncompleteDataset:
    """One incomplete numeric target plus fully observed covariates.

    Missing target cells are NaN; covariates must be complete. Infinite
    values are rejected in both. The dataset keeps read-only copies of its
    inputs, so later writes to the caller's arrays do not reach it, and
    splits the rows once: ``observed_mask`` (read-only), the counts, and the
    ``[1, z]`` designs of the observed and of the missing rows. The sweeps
    gather and scatter by the read-only row indices of the observed and of the
    missing rows, and read the observed target values from a read-only copy:
    an index array is about ten times faster than the mask.
    """

    target: np.ndarray
    covariates: np.ndarray
    target_name: str = "x1"
    covariate_names: tuple[str, ...] = ()
    observed_mask: np.ndarray = field(init=False, repr=False, compare=False)
    n_observed: int = field(init=False, repr=False, compare=False)
    _observed_design: np.ndarray = field(init=False, repr=False, compare=False)
    _missing_design: np.ndarray = field(init=False, repr=False, compare=False)
    _observed_rows: np.ndarray = field(init=False, repr=False, compare=False)
    _missing_rows: np.ndarray = field(init=False, repr=False, compare=False)
    _observed_target: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        target = np.array(self.target, dtype=float)
        covariates = np.array(self.covariates, dtype=float)
        if covariates.ndim == 1:
            covariates = covariates[:, None]
        if target.ndim != 1 or covariates.ndim != 2:
            raise DimensionMismatch("target must be 1-d and covariates 2-d")
        if covariates.shape[0] != target.shape[0]:
            raise DimensionMismatch(
                f"covariates have {covariates.shape[0]} rows, target has {target.shape[0]}"
            )
        names = tuple(self.covariate_names) or tuple(
            f"z{i + 1}" for i in range(covariates.shape[1])
        )
        if len(names) != covariates.shape[1]:
            raise DimensionMismatch("one name per covariate column required")
        holes = np.isnan(covariates).sum(axis=0)
        if holes.any():
            first = int(np.flatnonzero(holes)[0])
            count = int(holes[first])
            raise InvalidParameter(f"covariates must be fully observed; {names[first]!r} has "
                                   f"{count} missing cell{'s' * (count != 1)}")
        if np.isinf(target).any() or np.isinf(covariates).any():
            raise InvalidParameter("target and covariates must not contain infinite values")
        observed = ~np.isnan(target)
        rows = np.flatnonzero(observed), np.flatnonzero(~observed)
        designs = [np.column_stack([np.ones(len(r)), covariates[r]]) for r in rows]
        observed_target = target[rows[0]]
        for array in (target, covariates, observed, *rows, *designs, observed_target):
            array.setflags(write=False)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "covariates", covariates)
        object.__setattr__(self, "covariate_names", names)
        object.__setattr__(self, "observed_mask", observed)
        object.__setattr__(self, "n_observed", len(rows[0]))
        object.__setattr__(self, "_observed_design", designs[0])
        object.__setattr__(self, "_missing_design", designs[1])
        object.__setattr__(self, "_observed_rows", rows[0])
        object.__setattr__(self, "_missing_rows", rows[1])
        object.__setattr__(self, "_observed_target", observed_target)

    def __reduce__(self):
        # rebuild through __post_init__: pickle does not keep numpy's read-only flag
        return type(self), (self.target, self.covariates, self.target_name, self.covariate_names)

    @property
    def n(self) -> int:
        return self.target.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_missing(self) -> int:
        return self.n - self.n_observed

    def require_imputable(self) -> None:
        if self.n_observed < 2:
            raise TooFewRows("imputation needs at least 2 observed target values")

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


def estimate_adjustment(data: IncompleteDataset, rdot) -> LinearFit:
    """Fit the observed-part regression with the pseudo-indicator offset.

    Regresses the observed target on intercept, covariates, and (rdot - 1);
    the last coefficient, on (rdot - 1), is the estimated shift ``delta_adj``.
    Raises DegenerateRdot when rdot is constant among the observed rows.
    """
    rdot = np.asarray(rdot)
    if rdot.ndim != 1 or not np.all((rdot == 0) | (rdot == 1)):
        raise InvalidParameter("indicator must be a 1-d vector of 0s and 1s")
    if len(rdot) != data.n:
        raise DimensionMismatch(f"indicator has length {len(rdot)}, expected {data.n}")
    design = np.column_stack([data._observed_design, np.zeros(data.n_observed)])
    return _adjustment_fit(data, rdot, design)


def _adjustment_fit(data: IncompleteDataset, rdot: np.ndarray, design: np.ndarray) -> LinearFit:
    """Kernel of ``estimate_adjustment``; it fills ``design``'s last column with rdot - 1."""
    rdot_obs = rdot[data._observed_rows]
    if rdot_obs.size == 0 or rdot_obs.min() == rdot_obs.max():
        raise DegenerateRdot("pseudo indicator is constant among observed rows")
    data.require_fittable(data.n_covariates + 2)
    design[:, -1] = rdot_obs - 1.0
    return _ols(design, data._observed_target)


def _impute_draw(data: IncompleteDataset, fit: LinearFit, rng: RngStream, rdot=None) -> np.ndarray:
    """One posterior imputation of the missing rows from an observed-rows fit.

    Draws the residual variance (scaled inverse chi-square) and the regression
    coefficients phi (normal) from their noninformative posterior; an exact
    fit keeps the estimates. With ``rdot`` the fit's last coefficient is the
    shift ``delta_adj``, kept at its estimate, and each missing row is
    predicted as ``z.phi + delta_adj * (rdot - 2)``: shifted once when
    pseudo-observed, twice when pseudo-missing. Normal noise at the drawn
    residual variance is added. ``fit`` comes from data that passed
    ``require_fittable``, so it has at least two residual degrees of freedom.
    """
    if fit.residual_variance > 0:
        sigma2_dot = sample_scaled_inv_chi2(fit.n_rows - fit.n_params, fit.residual_variance, rng)
    else:
        sigma2_dot = 0.0
    phi = slice(0, fit.n_params if rdot is None else fit.n_params - 1)
    # exactly symmetric: a scaled leading block of _checked_inverse's output
    phi_dot = _mvnormal(fit.coefficients[phi], sigma2_dot * fit.gram_inverse[phi, phi], rng)

    mis = data._missing_rows
    means = data._missing_design @ phi_dot
    if rdot is not None:
        means = means + float(fit.coefficients[-1]) * (np.asarray(rdot)[mis] - 2.0)
    completed = data.target.copy()
    completed[mis] = means + np.sqrt(sigma2_dot) * rng.generator.standard_normal(data.n_missing)
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
    design = np.column_stack([np.ones(len(completed_target)), completed_target, covariates])
    if start is not None:
        start = np.r_[start.psi0, start.psi1, start.psi_z]
    fit = logistic_fit(design, r, start=start)
    # like every covariance fitters return, fit.covariance is exactly symmetric
    draw = _mvnormal(fit.coefficients, fit.covariance, rng)
    return NonresponseParams(psi0=draw[0], psi1=draw[1], psi_z=draw[2:])


def _mar_fit(data: IncompleteDataset) -> LinearFit:
    data.require_fittable(data.n_covariates + 1)
    return _ols(data._observed_design, data._observed_target)


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

    ``nonresponse_columns`` chooses which covariate columns enter the
    selection model (default: all of them); a non-integer, out-of-range or
    repeated index raises InvalidParameter. If the drawn pseudo indicator is
    constant among observed rows it is redrawn up to ``MAX_RDOT_REDRAWS``
    times, after which the sweep falls back to an unshifted imputation and
    logs a warning. A sweep whose selection-model fit separates or does not
    converge takes the same fallback, with a warning naming which (a
    rank-deficient fit raises). Within a chain, each selection-model fit
    starts from the chain's latest coefficient draw; the first starts at zero.

    The sweeps run the kernels of the public steps without their argument
    checks: every array they get is built here from the checked dataset.
    """
    k = data.n_covariates
    cols = list(range(k)) if nonresponse_columns is None else list(nonresponse_columns)
    if not all(
        isinstance(c, (int, np.integer)) and not isinstance(c, bool) and 0 <= c < k for c in cols
    ) or len(set(cols)) < len(cols):
        raise InvalidParameter(f"nonresponse columns {tuple(cols)} must be distinct "
                               f"integer indices of the {k} covariates")
    if data.n_missing == 0:
        logger.warning("target has no missing values; returning %d identical copies",
                       config.num_imputations)
        return [data.target.copy() for _ in range(config.num_imputations)]
    data.require_imputable()
    z_nr = data.covariates[:, cols]
    # 0s and 1s both occur (the return above, require_imputable); floats: no cast per IRLS product
    response = data.observed_mask.astype(float)
    # built once; each sweep overwrites the target column and the rdot - 1 column
    selection_design = np.column_stack([np.ones(data.n), data.target, z_nr])
    adjustment_design = np.column_stack([data._observed_design, np.zeros(data.n_observed)])

    results: list[np.ndarray] = []
    for chain in range(config.num_imputations):
        rng = RngStream(config.seed, mix_stream_id("ri-chain", chain))
        completed = data.target.copy()
        completed[data._missing_rows] = rng.generator.choice(
            data._observed_target, size=data.n_missing, replace=True)
        psi_dot = np.zeros(selection_design.shape[1])
        for _ in range(config.iterations):
            selection_design[:, 1] = completed
            try:
                fit = _logistic(selection_design, response, psi_dot)
            except (Separation, NonConvergence) as exc:
                logger.warning("selection model %s; sweep uses zero shift",
                               "separated" if isinstance(exc, Separation) else "did not converge")
                completed = _impute_draw(data, _mar_fit(data), rng)
                continue
            psi_dot = _mvnormal(fit.coefficients, fit.covariance, rng)
            if not np.isfinite(psi_dot).all():  # the check NonresponseParams makes
                raise InvalidParameter("nonresponse coefficients must be finite")
            for _ in range(MAX_RDOT_REDRAWS + 1):
                rdot = _bernoulli(_probability(psi_dot, completed, z_nr), rng)
                try:
                    adjustment = _adjustment_fit(data, rdot, adjustment_design)
                except DegenerateRdot:
                    continue
                completed = _impute_draw(data, adjustment, rng, rdot)
                break
            else:
                logger.warning(
                    "pseudo indicator degenerate after %d redraws; sweep uses zero shift",
                    MAX_RDOT_REDRAWS,
                )
                completed = _impute_draw(data, _mar_fit(data), rng)
        results.append(completed)
    return results


def complete_case(data: IncompleteDataset) -> tuple[np.ndarray, np.ndarray]:
    """Covariates and target of the rows with an observed target."""
    data.require_fittable(data.n_covariates + 1)
    obs = data.observed_mask
    return data.covariates[obs], data.target[obs]
