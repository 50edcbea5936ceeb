"""The random-indicator sweep as three checked steps, for checking ``ri_impute``.

Not a test module (no ``test_`` prefix): the imputation tests import it.
``ri_impute`` runs the same arithmetic on private kernels without these
argument checks; ``test_ri_impute_is_the_chain_of_public_steps`` chains the
steps here and asserts that the draws match bit for bit.
"""

import numpy as np

from riimpute import DimensionMismatch, IncompleteDataset, InvalidParameter, LinearFit
from riimpute import NonresponseParams, RngStream
from riimpute.fitters import _Columns, _logistic
from riimpute.imputation import _adjustment_fit, _impute_draw
from riimpute.rng import _mvnormal


class DegenerateRdot(Exception):
    """The drawn pseudo response indicator is constant among observed rows."""


def estimate_adjustment(data: IncompleteDataset, rdot) -> LinearFit:
    """Fit the observed-part regression with the pseudo-indicator offset.

    Regresses the observed target on intercept, covariates, and (rdot - 1);
    the last coefficient, on (rdot - 1), is the estimated shift ``delta_adj``.
    Raises DegenerateRdot when rdot is constant among the observed rows, and
    then TooFewRows when the observed rows are too few for the fit.
    """
    rdot = np.asarray(rdot)
    if rdot.ndim != 1 or not np.all((rdot == 0) | (rdot == 1)):
        raise InvalidParameter("indicator must be a 1-d vector of 0s and 1s")
    if len(rdot) != data.n:
        raise DimensionMismatch(f"indicator has length {len(rdot)}, expected {data.n}")
    if np.unique(rdot[data.observed_mask]).size < 2:
        raise DegenerateRdot("pseudo indicator is constant among observed rows")
    data.require_fittable(data.n_covariates + 2)
    observed = data._observed_design
    if isinstance(observed, _Columns):  # from _EINSUM_ROWS rows on, as in ri_impute
        design = _Columns(observed.shared, np.zeros(data.n_observed), at=observed.shape[1])
    else:
        design = np.column_stack([observed, np.zeros(data.n_observed)])
    return _adjustment_fit(data, rdot, design)


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
    draw, is where the fit's iterations begin (default zero; see
    ``fitters._logistic``). ``r`` must hold both 0s and 1s and nothing else.
    """
    design = np.column_stack([np.ones(len(completed_target)), completed_target, covariates])
    start = (np.zeros(design.shape[1]) if start is None
             else np.r_[start.psi0, start.psi1, start.psi_z])
    fit = _logistic(design, np.asarray(r, dtype=float), start)
    # like every covariance fitters return, fit.covariance is exactly symmetric
    draw = _mvnormal(fit.coefficients, fit.covariance, rng)
    return NonresponseParams(psi0=draw[0], psi1=draw[1], psi_z=draw[2:])
