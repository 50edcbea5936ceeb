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
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NonConvergence, Separation, TooFewRows
from .fitters import (_EINSUM_ROWS, LinearFit, _Columns, _irls_work, _logistic, _matvec, _ols,
                      _with_intercept)
from .rng import (RngStream, _bernoulli, _is_integer, _is_seed, _mvnormal, mix_stream_id,
                  sample_scaled_inv_chi2)

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
    ``[1, z]`` designs of the observed and of the missing rows, which from
    ``fitters._EINSUM_ROWS`` rows on are ``_Columns`` over read-only F-order
    blocks, so every fit on them sums by einsum. The sweeps
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
    _observed_design: np.ndarray | _Columns = field(init=False, repr=False, compare=False)
    _missing_design: np.ndarray | _Columns = field(init=False, repr=False, compare=False)
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
        large = len(target) >= _EINSUM_ROWS
        designs = [_with_intercept(covariates[r]) if large
                   else np.column_stack([np.ones(len(r)), covariates[r]]) for r in rows]
        observed_target = target[rows[0]]
        for array in (target, covariates, observed, *rows, *designs, observed_target):
            array.setflags(write=False)
        if large:
            designs = [_Columns(design) for design in designs]
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
        counts = (self.iterations, self.num_imputations)
        if not all(_is_integer(c) and c >= 1 for c in counts):
            raise InvalidParameter("iterations and num_imputations must be >= 1 and integers, "
                                   f"got {counts[0]!r} and {counts[1]!r}")
        if not _is_seed(self.seed):
            raise InvalidParameter(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


def _adjustment_fit(data: IncompleteDataset, rdot: np.ndarray,
                    design: np.ndarray) -> LinearFit | None:
    """The observed-rows regression with the pseudo-indicator offset, or None
    when ``rdot`` is constant among the observed rows.

    Regresses the observed target on intercept, covariates and rdot - 1,
    which it writes into ``design``'s last column; the last coefficient is the
    estimated shift ``delta_adj``.
    """
    rdot_obs = rdot[data._observed_rows]
    if rdot_obs.size == 0 or np.minimum.reduce(rdot_obs) == np.maximum.reduce(rdot_obs):
        return None
    data.require_fittable(data.n_covariates + 2)
    design[:, -1] = rdot_obs - 1.0
    return _ols(design, data._observed_target)


def _impute_draw(data: IncompleteDataset, fit: LinearFit, rng: RngStream, rdot=None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """One posterior imputation of the missing rows from an observed-rows fit.

    Draws the residual variance (scaled inverse chi-square) and the regression
    coefficients phi (normal) from their noninformative posterior; an exact
    fit keeps the estimates. With ``rdot`` the fit's last coefficient is the
    shift ``delta_adj``, kept at its estimate, and each missing row is
    predicted as ``z.phi + delta_adj * (rdot - 2)``: shifted once when
    pseudo-observed, twice when pseudo-missing. Normal noise at the drawn
    residual variance is added. ``fit`` comes from data that passed
    ``require_fittable``, so it has at least two residual degrees of freedom.
    The completed target is a copy of ``data.target``, or ``out``, a
    completed target whose missing rows are overwritten.
    """
    if fit.residual_variance > 0:
        sigma2_dot = sample_scaled_inv_chi2(fit.n_rows - fit.n_params, fit.residual_variance, rng)
    else:
        sigma2_dot = 0.0
    phi = slice(0, fit.n_params if rdot is None else fit.n_params - 1)
    # exactly symmetric: a scaled leading block of _checked_inverse's output
    phi_dot = _mvnormal(fit.coefficients[phi], sigma2_dot * fit.gram_inverse[phi, phi], rng)

    mis = data._missing_rows
    means = _matvec(data._missing_design, phi_dot)
    if rdot is not None:
        means += float(fit.coefficients[-1]) * (np.asarray(rdot)[mis] - 2.0)
    noise = rng.generator.standard_normal(data.n_missing)
    noise *= np.sqrt(sigma2_dot)
    means += noise
    completed = data.target.copy() if out is None else out
    completed[mis] = means
    return completed


def _mar_fit(data: IncompleteDataset) -> LinearFit:
    data.require_fittable(data.n_covariates + 1)
    return _ols(data._observed_design, data._observed_target)


def mar_impute(data: IncompleteDataset, m: int, rng: RngStream) -> list[np.ndarray]:
    """Multiple imputation under an ignorable mechanism.

    Per imputation: draw residual variance and coefficients from the
    noninformative posterior of the observed-rows regression, then predict
    missing rows and add noise.
    """
    if not _is_integer(m):
        raise InvalidParameter(f"m must be an integer, got {m!r}")
    if m < 1:
        raise InvalidParameter("m must be >= 1")
    if data.n_missing == 0:
        logger.warning("target has no missing values; returning %d identical copies", m)
        return [data.target.copy() for _ in range(m)]
    data.require_imputable()
    fit = _mar_fit(data)
    return [_impute_draw(data, fit, rng) for _ in range(m)]


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


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

    From 10 000 rows on (``fitters._EINSUM_ROWS``) the chains run on T
    threads, one per available CPU and at most one per chain, and their
    designs are column-major with every n-long product summed by einsum, not
    BLAS, so the draws are the same for any number of CPUs or BLAS threads.
    The threads share the chains out one sweep at a time, so that the chains
    finish together: a free thread takes the chain with the most sweeps left
    that no other thread is running (the lowest index on a tie), runs one
    sweep of it with the thread's own workspace, and puts it back. Once a
    chain has failed, no sweep of a later chain starts; the chains before it
    still finish. Below that row count, in a worker process (such as
    ``run_scenario``'s, whose parent already shares the CPUs out) or with one
    CPU, T is 1 and the same rule runs the sweeps on the calling thread. Then
    each chain's warnings are logged in chain order, and the first failing
    chain's error is raised after the warnings of its own sweeps and of every
    chain before it, as when the chains run one after another.

    The sweeps run private kernels without argument checks: every array they
    get is built here from the checked dataset. ``tests/ri_step_oracle.py``
    rebuilds the same loop from checked steps and matches its draws bit for
    bit.
    """
    k = data.n_covariates
    cols = list(range(k)) if nonresponse_columns is None else list(nonresponse_columns)
    if not all(_is_integer(c) and 0 <= c < k for c in cols) or len(set(cols)) < len(cols):
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
    if data.n < _EINSUM_ROWS:
        def workspace() -> tuple:
            selection = np.column_stack([np.ones(data.n), data.target, z_nr])
            adjustment = np.column_stack([data._observed_design, np.zeros(data.n_observed)])
            return selection, adjustment, _irls_work(selection)
    else:
        selection_block = _with_intercept(z_nr)

        def workspace() -> tuple:
            selection = _Columns(selection_block, np.empty(data.n), at=1)
            adjustment = _Columns(data._observed_design.shared, np.empty(data.n_observed),
                                  at=k + 1)
            return selection, adjustment, _irls_work(selection)

    # The completions and the workspaces are allocated on this thread: memory a
    # pool thread allocates stays in that thread's malloc arena after it is freed.
    m = config.num_imputations
    completions = [data.target.copy() for _ in range(m)]
    warnings: list[list[tuple]] = [[] for _ in range(m)]
    errors: list[Exception | None] = [None] * m
    chains = [_chain(data, config.seed, response, completions[c], c, warnings[c])
              for c in range(m)]
    for chain in chains:
        next(chain)
    # sweeps left of each chain, 0 while a thread runs a sweep of it
    ready = [config.iterations] * m
    stop = m  # no sweep starts for a chain from the first failed one on
    lock = threading.Lock()
    serial = data.n < _EINSUM_ROWS or multiprocessing.parent_process() is not None
    threads = 1 if serial else min(_available_cpus(), m)
    spaces = [workspace() for _ in range(threads)]

    def run(space: tuple) -> None:
        nonlocal stop
        chain = left = None
        while True:
            with lock:
                if chain is not None:  # put back the chain of the last sweep
                    if errors[chain] is None:
                        ready[chain] = left
                    else:
                        stop = min(stop, chain)
                chain = max(range(stop), key=ready.__getitem__, default=None)
                if chain is None or not ready[chain]:
                    return
                left, ready[chain] = ready[chain] - 1, 0
            try:
                chains[chain].send(space)
            except Exception as exc:  # raised below, after the warnings of the chains before it
                errors[chain] = exc

    if threads == 1:
        run(spaces[0])
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, spaces))
    for messages, error in zip(warnings, errors):
        for message in messages:
            logger.warning(*message)
        if error is not None:
            raise error
    return completions


def _chain(data: IncompleteDataset, seed: int, response: np.ndarray, completed: np.ndarray,
           chain: int, warnings: list[tuple]):
    """One chain of ``ri_impute`` as a generator that runs one sweep per
    ``send``. Fills the missing rows of ``completed``, a copy of
    ``data.target``.

    Prime it with ``next``; then each ``send(workspace)`` runs one sweep with
    that workspace, the first after resampling the starting values. The
    chain's stream, its latest coefficient draw and ``completed`` stay with the
    generator, so successive sweeps can run on different threads.
    ``response`` is shared with the other chains and only read.
    ``workspace`` holds the selection and adjustment designs
    (arrays, or ``_Columns`` from ``_EINSUM_ROWS`` rows on) and the scratch
    rows that the selection fits and the pseudo-indicator draws share; each
    sweep overwrites the designs' target and rdot - 1 columns and the scratch,
    so any thread's workspace gives the same draws.
    Warnings are appended to ``warnings`` as ``logger.warning`` arguments, for
    the caller to log in chain order.
    """
    selection_design, adjustment_design, work = yield
    from scipy.special import expit  # loaded on first use; see mechanism.response_probability
    rng = RngStream(seed, mix_stream_id("ri-chain", chain))
    completed[data._missing_rows] = rng.generator.choice(
        data._observed_target, size=data.n_missing, replace=True)
    psi_dot = np.zeros(selection_design.shape[1])
    while True:
        selection_design[:, 1] = completed
        fallback = None
        try:
            fit = _logistic(selection_design, response, psi_dot, work)
        except (Separation, NonConvergence) as exc:
            fallback = ("selection model %s; sweep uses zero shift",
                        "separated" if isinstance(exc, Separation) else "did not converge")
        else:
            psi_dot = _mvnormal(fit.coefficients, fit.covariance, rng)
            if not np.logical_and.reduce(np.isfinite(psi_dot)):  # the check NonresponseParams makes
                raise InvalidParameter("nonresponse coefficients must be finite")
            probability = expit(_matvec(selection_design, psi_dot, out=work[0]), out=work[0])
            for _ in range(MAX_RDOT_REDRAWS + 1):
                rdot = _bernoulli(probability, rng, out=work[-1])
                adjustment = _adjustment_fit(data, rdot, adjustment_design)
                if adjustment is not None:
                    _impute_draw(data, adjustment, rng, rdot, out=completed)
                    break
            else:
                fallback = ("pseudo indicator degenerate after %d redraws; sweep uses zero shift",
                            MAX_RDOT_REDRAWS)
        if fallback is not None:
            warnings.append(fallback)
            _impute_draw(data, _mar_fit(data), rng, out=completed)
        rdot = None  # an n-long array; not kept while the chain waits for its next sweep
        selection_design, adjustment_design, work = yield


def complete_case(data: IncompleteDataset) -> tuple[np.ndarray, np.ndarray]:
    """Covariates and target of the rows with an observed target."""
    data.require_fittable(data.n_covariates + 1)
    obs = data.observed_mask
    return data.covariates[obs], data.target[obs]
