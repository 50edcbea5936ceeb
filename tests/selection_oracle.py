"""Reference populations and cell means for checking the selection model.

Not a test module (no ``test_`` prefix): the distribution checks in the test
suite and ``demos/01_nonresponse_mechanism.py`` import it. The imputer itself
never needs these; they verify the identities its estimator rests on.
"""

import math

import numpy as np

from riimpute import InvalidParameter, NonresponseParams, RngStream


def sample_selection_population(
    params: NonresponseParams,
    mean,
    covariates,
    sigma2: float,
    rng: RngStream,
    indicators: int = 1,
) -> np.ndarray:
    """Draw target values whose fully observed part is exactly normal under selection.

    Returns one target value per row of ``mean`` from the equal-variance normal
    mixture with component j (j = 0..indicators) centred at
    ``mean - j * psi1 * sigma2`` and log weight

        log C(indicators, j) - j * (psi0 + psi_z . z) - j * psi1 * mean
        + j^2 * psi1^2 * sigma2 / 2.

    With ``indicators`` independent response draws from the selection model, the
    subpopulation observed in all of them is then N(mean, sigma2) row-wise, and
    each additional miss shifts the conditional mean down by exactly
    ``psi1 * sigma2``. The identity does not hold for an arbitrary marginal
    target distribution. ``covariates`` is an n x k matrix matching
    ``params.psi_z``, or None when the model has no covariate terms.
    """
    if not sigma2 > 0:
        raise InvalidParameter("sigma2 must be positive")
    if indicators < 1:
        raise InvalidParameter("indicators must be >= 1")
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    n = mean.shape[0]
    zmat = np.zeros((n, 0)) if covariates is None else np.asarray(covariates, dtype=float)
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


def cell_means(target, r, rdot) -> np.ndarray:
    """Target means cross-classified by response and pseudo response.

    Returns a 2 x 2 array indexed ``[r, rdot]``; empty cells are NaN. The
    observed-part difference is ``cells[1, 1] - cells[1, 0]`` and the
    missing-part difference ``cells[0, 1] - cells[0, 0]``.
    """
    target = np.asarray(target, dtype=float)
    r = np.asarray(r)
    rdot = np.asarray(rdot)
    cells = np.full((2, 2), np.nan)
    for rv in (0, 1):
        for dv in (0, 1):
            cell = target[(r == rv) & (rdot == dv)]
            if cell.size:
                cells[rv, dv] = cell.mean()
    return cells
