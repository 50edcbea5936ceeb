import logging
import os
import pickle
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riimpute import (
    DimensionMismatch,
    IncompleteDataset,
    InvalidParameter,
    NonConvergence,
    NonresponseParams,
    RankDeficient,
    RiConfig,
    RngStream,
    Separation,
    TooFewRows,
    builtin_scenario,
    complete_case,
    generate_complete_data,
    generate_missingness,
    logistic_fit,
    mar_impute,
    mix_stream_id,
    ri_impute,
    rubin_pool,
    fit_analysis,
    format_result_table,
    run_scenario,
    sample_bernoulli,
    sample_mvnormal,
)

import riimpute.imputation as imputation
from ri_step_oracle import DegenerateRdot, draw_psi_posterior, estimate_adjustment, impute_given_rdot
from selection_oracle import cell_means, sample_selection_population


def indicator(bits):
    return np.asarray(bits, dtype=np.int8)


# ---------------------------------------------------------------------------
# IncompleteDataset


def test_dataset_validation():
    with pytest.raises(InvalidParameter):
        IncompleteDataset(np.array([1.0, np.nan]), np.array([[1.0], [np.nan]]))
    with pytest.raises(DimensionMismatch):
        IncompleteDataset(np.array([1.0, 2.0]), np.ones((3, 1)))
    with pytest.raises(DimensionMismatch, match="target must be 1-d"):
        IncompleteDataset(np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(DimensionMismatch, match="one name per covariate column"):
        IncompleteDataset(np.ones(3), np.ones((3, 2)), covariate_names=("a",))
    data = IncompleteDataset(np.array([1.0, np.nan, 3.0]), np.arange(3.0))
    assert data.n == 3 and data.n_observed == 2 and data.n_missing == 1
    assert data.observed_mask.tolist() == [True, False, True]
    assert data.covariate_names == ("z1",)


def test_dataset_names_the_first_covariate_with_holes():
    covariates = np.column_stack([np.arange(5.0), [1.0, np.nan, 2.0, np.nan, 3.0],
                                  [np.nan, 1.0, 2.0, 3.0, 4.0]])
    with pytest.raises(InvalidParameter, match="^covariates must be fully observed; 'b' has 2 "
                                               "missing cells$"):
        IncompleteDataset(np.arange(5.0), covariates, covariate_names=("a", "b", "c"))
    with pytest.raises(InvalidParameter, match="'z3' has 1 missing cell$"):
        IncompleteDataset(np.arange(5.0), covariates[:, [0, 0, 2]])


def test_dataset_row_indices_match_the_mask():
    target = RngStream(9, 0).generator.normal(0, 1, 50)
    target[[0, 3, 4, 17, 49]] = np.nan
    data = IncompleteDataset(target, np.arange(100.0).reshape(50, 2))
    for copy in (data, pickle.loads(pickle.dumps(data))):
        rows = {"_observed_rows": np.flatnonzero(copy.observed_mask),
                "_missing_rows": np.flatnonzero(~copy.observed_mask),
                "_observed_target": copy.target[copy.observed_mask]}
        for name, expected in rows.items():
            array = getattr(copy, name)
            assert array.dtype == expected.dtype and array.tobytes() == expected.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = array[:1]
    assert data._missing_rows.tolist() == [0, 3, 4, 17, 49]


def test_dataset_ignores_later_writes_to_the_callers_arrays():
    gen = RngStream(8, 0).generator
    covariates = gen.normal(0, 1, (40, 2))
    target = covariates.sum(axis=1) + gen.standard_normal(40)
    target[::5] = np.nan
    data = IncompleteDataset(target, covariates)
    mask = data.observed_mask.copy()
    config = RiConfig(iterations=3, num_imputations=2, seed=4)
    before = ri_impute(data, config) + mar_impute(data, 2, RngStream(4, 1))

    target[:10] = np.nan
    target[5] = 1.0
    covariates[:] = 0.0
    assert data.n_missing == 8
    assert np.array_equal(data.observed_mask, mask)
    after = ri_impute(data, config) + mar_impute(data, 2, RngStream(4, 1))
    for old, new in zip(before, after):
        assert np.array_equal(old, new)


def test_dataset_arrays_are_read_only():
    data = IncompleteDataset(np.array([1.0, np.nan, 3.0]), np.arange(3.0))
    for array in (data.target, data.covariates, data.observed_mask):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]


def test_dataset_stays_read_only_through_pickle():
    for n in (4, imputation._EINSUM_ROWS):
        target = np.arange(1.0, n + 1.0)
        target[1] = np.nan
        data = IncompleteDataset(target, np.arange(2.0 * n).reshape(n, 2),
                                 target_name="y", covariate_names=("a", "b"))
        copy = pickle.loads(pickle.dumps(data))
        assert (copy.target_name, copy.covariate_names) == ("y", ("a", "b"))
        assert (copy.n_observed, copy.n_missing) == (n - 1, 1)
        for name in ("target", "covariates", "observed_mask", "_observed_design",
                     "_missing_design"):
            arrays = [getattr(copy, name), getattr(data, name)]
            if name.endswith("_design") and n >= imputation._EINSUM_ROWS:
                # the designs' F-order blocks, which the chains' threads share
                assert all(isinstance(design, imputation._Columns) for design in arrays)
                arrays = [design.shared for design in arrays]
                assert arrays[0].flags.f_contiguous
            assert arrays[0].tobytes() == arrays[1].tobytes()
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = array[:1]


def test_dataset_rejects_infinite_values():
    with pytest.raises(InvalidParameter):
        IncompleteDataset(np.array([1.0, np.inf, np.nan]), np.arange(3.0))
    with pytest.raises(InvalidParameter):
        IncompleteDataset(np.array([1.0, 2.0, np.nan]), np.array([0.0, -np.inf, 2.0]))


# ---------------------------------------------------------------------------
# estimate_adjustment


def test_adjustment_exact_two_group_shift():
    # no covariates: observed pseudo-observed rows at 5, pseudo-missing at 3
    target = np.array([5.0, 5.0, 5.0, 3.0, 3.0, 3.0, np.nan])
    data = IncompleteDataset(target, np.zeros((7, 0)))
    rdot = indicator([1, 1, 1, 0, 0, 0, 1])
    fit = estimate_adjustment(data, rdot)
    assert fit.coefficients[-1] == pytest.approx(2.0, abs=1e-10)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-12)
    assert fit.coefficients[0] == pytest.approx(5.0, abs=1e-10)


def test_adjustment_recovers_constructed_shift():
    # target linear in z, then the pseudo-missing observed group shifted down 1.5
    gen = RngStream(41, 0).generator
    n = 4000
    z = gen.normal(0, 1, n)
    x = z + gen.standard_normal(n)
    rdot_bits = (gen.random(n) < 0.5).astype(int)
    r_bits = (gen.random(n) < 0.8).astype(int)
    shift = 1.5
    x_shifted = x - shift * ((rdot_bits == 0) & (r_bits == 1))

    target = x_shifted.copy()
    target[r_bits == 0] = np.nan
    data = IncompleteDataset(target, z[:, None])
    fit = estimate_adjustment(data, indicator(rdot_bits))
    delta_adj = fit.coefficients[-1]

    se = np.sqrt(fit.residual_variance * fit.gram_inverse[-1, -1])
    assert abs(delta_adj - shift) < 3 * se

    # oracle: two-group mean difference of residuals after projecting out z
    obs = r_bits == 1
    design = np.column_stack([np.ones(obs.sum()), z[obs]])
    coef = np.linalg.lstsq(design, x_shifted[obs], rcond=None)[0]
    resid = x_shifted[obs] - design @ coef
    oracle = resid[rdot_bits[obs] == 1].mean() - resid[rdot_bits[obs] == 0].mean()
    assert abs(oracle - shift) < 3 * se
    assert abs(delta_adj - oracle) < 0.05


def test_adjustment_on_selection_consistent_population():
    # strongly nonignorable slope 1.5, unit variance: the fitted shift recovers
    # slope * variance = 1.5 when the doubly-observed cell is exactly normal
    n = 100_000
    params_true = NonresponseParams(-2.0, 1.5, [0.0])
    gen_rng = RngStream(42, 0)
    z = gen_rng.generator.normal(2, 2, n)
    mu_z = 1.0 + 0.5 * z
    x = sample_selection_population(params_true, mu_z, z[:, None], 1.0, gen_rng, indicators=2)

    r = generate_missingness(x, z[:, None], params_true, RngStream(42, 1))
    rdot = generate_missingness(x, z[:, None], params_true, RngStream(42, 2))

    target = x.copy()
    target[r == 0] = np.nan
    data = IncompleteDataset(target, z[:, None])
    assert abs(estimate_adjustment(data, rdot).coefficients[-1] - 1.5) < 0.05


def test_adjustment_degenerate_rdot():
    target = np.array([1.0, 2.0, 3.0, np.nan])
    data = IncompleteDataset(target, np.zeros((4, 0)))
    with pytest.raises(DegenerateRdot):
        estimate_adjustment(data, indicator([1, 1, 1, 0]))
    with pytest.raises(DegenerateRdot):
        impute_given_rdot(data, indicator([0, 0, 0, 1]), RngStream(0, 0))


# ---------------------------------------------------------------------------
# impute_given_rdot


def test_impute_offset_structure_on_exact_data(rng):
    # observed rows: z.phi = 2 + 3z, pseudo-missing ones 0.7 lower, no noise,
    # so the fit and the draw are exact and the imputations are the means
    z = np.array([0.0, 1.0, 2.0, 3.0, 0.5, 1.5, 2.5, 3.5, 1.0, 1.0])
    rdot = indicator([1, 1, 1, 1, 0, 0, 0, 0, 1, 0])
    target = 2.0 + 3.0 * z - 0.7 * (rdot == 0)
    target[8:] = np.nan
    data = IncompleteDataset(target, z[:, None])
    completed = impute_given_rdot(data, rdot, rng)
    base = 5.0
    # missing rows: shifted once when pseudo-observed, twice when pseudo-missing
    assert completed[8:] == pytest.approx([base - 0.7, base - 1.4], abs=1e-8)
    # within the missing rows the two pseudo groups differ by exactly delta_adj
    assert completed[8] - completed[9] == pytest.approx(0.7, abs=1e-8)


def test_impute_reduces_to_regression_predictions_when_exact(rng):
    # exact linear data in both pseudo groups: zero shift, zero residual noise
    z = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 1.5, 2.5])
    x = 2.0 + 3.0 * z
    target = x.copy()
    target[6:] = np.nan
    data = IncompleteDataset(target, z[:, None])
    rdot = indicator([1, 0, 1, 0, 1, 0, 1, 0])
    completed = impute_given_rdot(data, rdot, rng)
    assert np.allclose(completed[6:], 2.0 + 3.0 * z[6:], atol=1e-8)
    assert np.array_equal(completed[:6], x[:6])


def test_impute_mean_difference_matches_pseudo_group_frequencies():
    # realized imputations sit below the unshifted regression predictions by
    # delta_adj * mean(2 - rdot) over the missing rows
    n = 40_000
    params_true = NonresponseParams(-0.5, 1.0, [0.0])
    gen_rng = RngStream(43, 0)
    z = gen_rng.generator.normal(0, 1, n)
    mu_z = 1.0 + 0.8 * z
    x = sample_selection_population(params_true, mu_z, z[:, None], 1.0, gen_rng, indicators=2)
    r = generate_missingness(x, z[:, None], params_true, RngStream(43, 1))
    rdot = generate_missingness(x, z[:, None], params_true, RngStream(43, 2))

    target = x.copy()
    target[r == 0] = np.nan
    data = IncompleteDataset(target, z[:, None])

    fit = estimate_adjustment(data, rdot)
    completed = impute_given_rdot(data, rdot, RngStream(43, 3))

    mis = r == 0
    unshifted = np.column_stack([np.ones(mis.sum()), z[mis]]) @ fit.coefficients[:-1]
    expected_gap = -fit.coefficients[-1] * (2.0 - rdot[mis]).mean()
    observed_gap = completed[mis].mean() - unshifted.mean()
    assert abs(observed_gap - expected_gap) < 0.05


def test_zero_shift_reduces_to_ignorable_imputation(rng):
    # observed rows on the line 0.7 - 1.2z in both pseudo groups: the shift is
    # zero and so is the residual variance, so every missing row is imputed
    # at z.phi whatever its pseudo indicator
    gen = RngStream(49, 0).generator
    z = gen.normal(0, 1, 12)
    target = 0.7 - 1.2 * z
    target[6:] = np.nan
    data = IncompleteDataset(target, z[:, None])
    rdot = indicator([1, 0, 1, 0, 1, 0] + [1, 1, 0, 0, 1, 0])
    completed = impute_given_rdot(data, rdot, rng)
    assert np.allclose(completed, 0.7 - 1.2 * z, atol=1e-12)


def test_impute_never_touches_observed_rows(rng):
    gen = RngStream(44, 0).generator
    z = gen.normal(0, 1, 50)
    x = 1.0 + z + gen.standard_normal(50)
    target = x.copy()
    target[:10] = np.nan
    data = IncompleteDataset(target, z[:, None])
    rdot = indicator((gen.random(50) < 0.6).astype(int))
    completed = impute_given_rdot(data, rdot, rng)
    assert np.array_equal(completed[10:], x[10:])
    assert np.all(np.isfinite(completed))


# ---------------------------------------------------------------------------
# nonresponse posterior draws


def _selection_fit(x, z, r):
    return logistic_fit(np.column_stack([np.ones(len(x)), x, z]), r)


def test_psi_draw_is_fit_estimate_plus_normal_deviate():
    # one draw is the selection fit's estimate plus one normal deviate with the
    # fit covariance, unpacked as intercept, target slope, covariate slopes
    gen = RngStream(45, 2).generator
    n = 500
    z = gen.normal(0, 1, (n, 2))
    x = gen.normal(0, 1, n)
    r = (gen.random(n) < 0.6).astype(np.int8)
    fit = _selection_fit(x, z, r)
    expected = sample_mvnormal(fit.coefficients, fit.covariance, RngStream(45, 3))
    params = draw_psi_posterior(x, z, r, RngStream(45, 3))
    assert [params.psi0, params.psi1, *params.psi_z] == expected.tolist()
    assert params.psi_z.shape == (2,)


def test_draw_covariance_matches_fit_covariance():
    gen = RngStream(45, 0).generator
    n = 5000
    z = gen.normal(0, 1, n)
    x = gen.normal(0, 1, n)
    r_bits = (gen.random(n) < 0.6).astype(int)
    fit = _selection_fit(x, z, r_bits)

    rng = RngStream(45, 1)
    draws = []
    for _ in range(10_000):
        params = draw_psi_posterior(x, z, r_bits, rng)
        draws.append([params.psi0, params.psi1, *params.psi_z])
    draws = np.array(draws)
    emp = np.cov(draws.T)
    rel = np.linalg.norm(emp - fit.covariance) / np.linalg.norm(fit.covariance)
    assert rel < 0.05


def test_psi_draw_near_zero_slope_under_ignorable_mechanism():
    # completed data with selection on the covariate only: slope estimate near 0
    gen_rng = RngStream(46, 0)
    gen = gen_rng.generator
    n = 100_000
    z = gen.normal(2, 2, n)
    x = 1.0 + 0.5 * z + gen.standard_normal(n)
    params_true = NonresponseParams(-2.0, 0.0, [0.5])
    r = generate_missingness(x, z[:, None], params_true, RngStream(46, 1))
    psi = draw_psi_posterior(x, z[:, None], r, RngStream(46, 2))
    assert abs(psi.psi1) < 0.05


def test_draw_rdot_probability_one(rng):
    psi = NonresponseParams(60.0, 0.0)
    rdot = generate_missingness(np.zeros(50), None, psi, rng)
    assert rdot.dtype == np.int8
    assert rdot.tolist() == [1] * 50


def test_draw_rdot_marginal_rate_matches_fitted_model():
    gen_rng = RngStream(47, 0)
    gen = gen_rng.generator
    n = 100_000
    z = gen.normal(2, 2, n)
    x = 1.0 + 0.5 * z + gen.standard_normal(n)
    params_true = NonresponseParams(-2.0, 0.0, [0.5])
    r = generate_missingness(x, z[:, None], params_true, RngStream(47, 1))

    fit = _selection_fit(x, z, r)
    psi_hat = NonresponseParams(fit.coefficients[0], fit.coefficients[1], fit.coefficients[2:])
    rdot = generate_missingness(x, z[:, None], psi_hat, RngStream(47, 2))
    assert abs(rdot.mean() - r.mean()) < 0.02


def test_draw_rdot_monotone_selection(rng):
    gen = RngStream(48, 0).generator
    x = gen.normal(0, 1, 20_000)
    psi = NonresponseParams(0.0, 3.0)
    rdot = generate_missingness(x, None, psi, rng)
    assert x[rdot == 1].mean() > x[rdot == 0].mean()


# ---------------------------------------------------------------------------
# ri_impute / mar_impute / complete_case


def _mnar_dataset(seed, n=600, psi=(-0.5, 1.0, 0.0)):
    gen_rng = RngStream(seed, 0)
    gen = gen_rng.generator
    z1 = gen.normal(2, 2, n)
    z2 = gen.normal(-1, 1, n)
    x = 1.0 + 0.5 * z1 + z2 + gen.standard_normal(n)
    params = NonresponseParams(psi[0], psi[1], [psi[2]])
    r = generate_missingness(x, z1[:, None], params, RngStream(seed, 1))
    target = x.copy()
    target[r == 0] = np.nan
    return IncompleteDataset(target, np.column_stack([z1, z2])), x


def test_ri_no_missing_returns_copies(caplog):
    data = IncompleteDataset(np.arange(20.0), np.ones((20, 1)))
    with caplog.at_level(logging.WARNING, logger="riimpute.imputation"):
        out = ri_impute(data, RiConfig(seed=1))
    assert len(out) == 5
    for completed in out:
        assert np.array_equal(completed, np.arange(20.0))
    assert any("no missing" in record.message for record in caplog.records)


def test_ri_separated_selection_fit_falls_back_to_zero_shift(caplog):
    # 3 of 20 rows missing: the selection fit on the completed data separates
    # in most sweeps, which used to abort the whole run
    gen = RngStream(0, 20).generator
    z = gen.standard_normal(20)
    target = 1.0 + 0.5 * z + gen.standard_normal(20)
    target[[2, 9, 15]] = np.nan
    data = IncompleteDataset(target, z[:, None])
    with caplog.at_level(logging.WARNING, logger="riimpute.imputation"):
        out = ri_impute(data, RiConfig(iterations=10, num_imputations=5, seed=0))
    assert len(out) == 5
    for completed in out:
        assert np.all(np.isfinite(completed))
        assert np.array_equal(completed[data.observed_mask], target[data.observed_mask])
    assert any("separated" in record.message and "zero shift" in record.message
               for record in caplog.records)


def _near_separated_dataset():
    # 15 rows whose response depends strongly on the target: several sweeps
    # take the zero-shift fallback, and some selection fits started from the
    # previous draw separate and are refitted from zero
    gen = np.random.default_rng([3, 15])
    z = np.column_stack([gen.normal(2.0, 2.0, 15), gen.normal(-1.0, 1.0, 15)])
    x = 1.0 + 0.5 * z[:, 0] + z[:, 1] + gen.standard_normal(15)
    observed = gen.random(15) < 1.0 / (1.0 + np.exp(1.0 - 0.75 * x + 0.5 * z[:, 0]))
    observed[:3] = True
    observed[-1] = False
    return IncompleteDataset(np.where(observed, x, np.nan), z)


def test_ri_target_in_tiny_units_takes_no_fallback_sweep(caplog):
    # a target measured in units of 1e-8 leaves the selection fit's stopping
    # rule as it is, so no sweep degrades to MAR
    x, z = generate_complete_data((1.0, 0.5, 1.0), 20_000, RngStream(5, 0))
    r = generate_missingness(x, np.zeros((len(x), 0)), NonresponseParams(-2.0, 1.5), RngStream(5, 1))
    data = IncompleteDataset(np.where(r == 1, 1e8 * x, np.nan), z)
    with caplog.at_level(logging.WARNING, logger="riimpute.imputation"):
        ri_impute(data, RiConfig(iterations=10, num_imputations=5, seed=1), nonresponse_columns=(0,))
    assert [record.getMessage() for record in caplog.records] == []


@pytest.mark.parametrize("case", ["regular", "near_separated"])
def test_ri_warm_started_fits_give_the_cold_start_draws(monkeypatch, caplog, case):
    if case == "regular":
        data = _mnar_dataset(51, n=200)[0]
        config = RiConfig(iterations=6, num_imputations=3, seed=5)
    else:
        data = _near_separated_dataset()
        config = RiConfig(iterations=10, num_imputations=5, seed=15)

    def run():
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="riimpute.imputation"):
            completions = ri_impute(data, config, nonresponse_columns=(0,))
        return completions, [record.getMessage() for record in caplog.records]

    warm, warm_messages = run()
    fit = imputation._logistic
    calls = []

    def cold_fit(design, response, start, work):
        calls.append(start)
        return fit(design, response, np.zeros_like(start), work)

    monkeypatch.setattr(imputation, "_logistic", cold_fit)
    cold, cold_messages = run()

    assert any(start.any() for start in calls)
    assert len(warm) == len(cold)
    assert all(np.array_equal(a, b) for a, b in zip(warm, cold))
    assert warm_messages == cold_messages
    if case == "near_separated":
        assert any("zero shift" in message for message in warm_messages)


SEPARATED = "selection model separated; sweep uses zero shift"
NOT_CONVERGED = "selection model did not converge; sweep uses zero shift"
DEGENERATE = "pseudo indicator degenerate after 5 redraws; sweep uses zero shift"


def _reference_chains(data, config, columns):
    """ri_impute built from the steps of ``ri_step_oracle`` and the public API:
    completions, warnings, rdot redraws."""
    z_nr = data.covariates[:, list(columns)]
    obs = data.observed_mask
    completions, messages, redraws = [], [], 0
    for chain in range(config.num_imputations):
        rng = RngStream(config.seed, mix_stream_id("ri-chain", chain))
        completed = data.target.copy()
        completed[~obs] = rng.generator.choice(data.target[obs], size=data.n_missing, replace=True)
        psi = None
        for _ in range(config.iterations):
            try:
                psi = draw_psi_posterior(completed, z_nr, obs.astype(np.int8), rng, start=psi)
            except (Separation, NonConvergence) as exc:
                messages.append(SEPARATED if isinstance(exc, Separation) else NOT_CONVERGED)
                completed = mar_impute(data, 1, rng)[0]
                continue
            for _ in range(imputation.MAX_RDOT_REDRAWS + 1):
                rdot = generate_missingness(completed, z_nr, psi, rng)
                try:
                    completed = impute_given_rdot(data, rdot, rng)
                    break
                except DegenerateRdot:
                    redraws += 1
            else:
                messages.append(DEGENERATE)
                completed = mar_impute(data, 1, rng)[0]
        completions.append(completed)
    return completions, messages, redraws


def _redrawing_dataset():
    # 30 rows, 3 missing, response almost certain for all but the lowest
    # targets: the pseudo indicator is often constant among the observed rows
    gen = np.random.default_rng([0, 30])
    x = 3.0 * gen.standard_normal(30)
    observed = gen.random(30) < 1.0 / (1.0 + np.exp(-3.0 - x))
    observed[:3] = True
    observed[-1] = False
    return IncompleteDataset(np.where(observed, x, np.nan), gen.standard_normal((30, 1)))


def _separated_dataset():
    # 60 rows whose response is perfectly separated by the covariate: every
    # selection fit runs out of iterations before a coefficient passes the cap
    gen = RngStream(8, 0).generator
    z = np.r_[gen.normal(-4, 0.3, 30), gen.normal(4, 0.3, 30)]
    target = 1.0 + 0.1 * z + gen.standard_normal(60)
    target[:30] = np.nan
    return IncompleteDataset(target, z[:, None])


@pytest.mark.parametrize("case", ["mnar", "target_only", "near_separated", "redraws", "separated"])
def test_ri_impute_is_the_chain_of_public_steps(caplog, case):
    data, columns, config = {
        "mnar": (_mnar_dataset(52, n=200)[0], (0, 1), RiConfig(iterations=6, num_imputations=3, seed=8)),
        "target_only": (_mnar_dataset(52, n=200)[0], (), RiConfig(iterations=6, num_imputations=3, seed=8)),
        "near_separated": (_near_separated_dataset(), (0,), RiConfig(iterations=10, num_imputations=5, seed=15)),
        "redraws": (_redrawing_dataset(), (0,), RiConfig(iterations=8, num_imputations=3, seed=0)),
        "separated": (_separated_dataset(), (0,), RiConfig(iterations=10, num_imputations=5, seed=1)),
    }[case]
    expected, expected_messages, redraws = _reference_chains(data, config, columns)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="riimpute.imputation"):
        completions = ri_impute(data, config, nonresponse_columns=columns)
    messages = [record.getMessage() for record in caplog.records]

    assert len(completions) == len(expected)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(completions, expected))
    assert messages == expected_messages
    if case == "near_separated":
        assert SEPARATED in messages
    if case == "redraws":
        assert redraws > 0 and SEPARATED in messages and DEGENERATE in messages
    if case == "separated":
        assert messages == [NOT_CONVERGED] * 50


def test_ri_rank_deficient_selection_fit_aborts(caplog):
    # b = 2a makes the selection design singular in every sweep, so there is
    # nothing to fall back from: the first selection fit (its information
    # matrix, not an OLS Gram matrix) ends the run
    gen = RngStream(3, 0).generator
    a = gen.normal(0, 1, 60)
    target = 1.0 + a + gen.standard_normal(60)
    target[::4] = np.nan
    data = IncompleteDataset(target, np.column_stack([a, 2.0 * a]))
    with caplog.at_level(logging.WARNING, logger="riimpute.imputation"):
        with pytest.raises(RankDeficient, match="information matrix"):
            ri_impute(data, RiConfig(iterations=10, num_imputations=5, seed=1))
    assert caplog.records == []


@pytest.mark.parametrize("columns", [(5,), (2,), (1.0,), (-1,), (0, 0), (True,), ("0",)])
def test_ri_rejects_bad_nonresponse_columns(columns):
    data = _mnar_dataset(53, n=60)[0]
    with pytest.raises(InvalidParameter, match="nonresponse column"):
        ri_impute(data, RiConfig(iterations=1, num_imputations=1), nonresponse_columns=columns)


def test_imputers_reject_zero_counts():
    with pytest.raises(InvalidParameter, match="iterations and num_imputations must be >= 1"):
        RiConfig(iterations=0)
    with pytest.raises(InvalidParameter, match="m must be >= 1"):
        mar_impute(_mnar_dataset(53, n=60)[0], 0, RngStream(1, 0))


@pytest.mark.parametrize("m", [2.5, True, np.float64(2.0), "2"])
def test_mar_impute_rejects_an_m_that_is_no_integer(m):
    with pytest.raises(InvalidParameter, match=re.escape(f"m must be an integer, got {m!r}")):
        mar_impute(_mnar_dataset(53, n=60)[0], m, RngStream(1, 0))


def test_mar_impute_accepts_a_numpy_integer_m():
    data = _mnar_dataset(53, n=60)[0]
    expected = mar_impute(data, 2, RngStream(1, 0))
    assert ([c.tobytes() for c in mar_impute(data, np.int64(2), RngStream(1, 0))]
            == [c.tobytes() for c in expected])


@pytest.mark.parametrize("counts", [
    {"iterations": 2.5}, {"num_imputations": 2.0}, {"iterations": True},
    {"num_imputations": np.float64(3.0)}, {"iterations": "3"},
])
def test_ri_config_rejects_counts_that_are_no_integers(counts):
    with pytest.raises(InvalidParameter, match="must be >= 1 and integers"):
        RiConfig(**counts)


def test_ri_config_accepts_numpy_integer_counts():
    config = RiConfig(iterations=np.int64(2), num_imputations=np.int32(2), seed=np.uint64(3))
    data = _mnar_dataset(53, n=60)[0]
    expected = ri_impute(data, RiConfig(iterations=2, num_imputations=2, seed=3))
    assert [c.tobytes() for c in ri_impute(data, config)] == [c.tobytes() for c in expected]
    assert RiConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


@pytest.mark.parametrize("seed", ["3", 1.5, True, np.float64(2.0), -1, 2**64])
def test_ri_config_rejects_seeds_outside_64_unsigned_bits(seed):
    # refused at construction, not folded by int() into another seed or raised from a chain
    with pytest.raises(InvalidParameter, match=re.escape("seed must be an integer in [0, 2**64)")):
        RiConfig(iterations=2, num_imputations=2, seed=seed)


def test_ri_non_finite_selection_draw_raises(monkeypatch):
    # the chain checks its coefficient draw, as NonresponseParams would
    monkeypatch.setattr(imputation, "_mvnormal", lambda mean, cov, rng: np.full(len(mean), np.nan))
    with pytest.raises(InvalidParameter, match="nonresponse coefficients must be finite"):
        ri_impute(_mnar_dataset(53, n=60)[0], RiConfig(iterations=1, num_imputations=1))


def test_nan_response_probabilities_raise(rng):
    # expit of a NaN log-odds is NaN, which would otherwise draw 0
    with pytest.raises(InvalidParameter):
        generate_missingness(np.array([0.0, np.nan]), None, NonresponseParams(0.0, 1.0), rng)
    with pytest.raises(InvalidParameter):
        sample_bernoulli(np.array([0.5, np.nan]), rng)


def test_ri_deterministic_given_seed():
    data, _ = _mnar_dataset(50)
    config = RiConfig(iterations=5, num_imputations=3, seed=99)
    first = ri_impute(data, config, nonresponse_columns=(0,))
    second = ri_impute(data, config, nonresponse_columns=(0,))
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    third = ri_impute(data, RiConfig(iterations=5, num_imputations=3, seed=100),
                      nonresponse_columns=(0,))
    assert not np.array_equal(first[0], third[0])


def test_ri_preserves_observed_values():
    data, x = _mnar_dataset(51)
    obs = data.observed_mask
    for completed in ri_impute(data, RiConfig(iterations=3, num_imputations=2, seed=7)):
        assert np.array_equal(completed[obs], x[obs])
        assert np.all(np.isfinite(completed))


def test_ri_agrees_with_mar_under_ignorable_mechanism():
    # constant response probability: both imputers target the same estimand
    reps = 40
    ri_means, mi_means = [], []
    for rep in range(reps):
        gen_rng = RngStream(52, rep)
        gen = gen_rng.generator
        n = 400
        z1 = gen.normal(2, 2, n)
        z2 = gen.normal(-1, 1, n)
        x = 1.0 + 0.5 * z1 + z2 + gen.standard_normal(n)
        params = NonresponseParams(-0.75, 0.0, [0.0])
        r = generate_missingness(x, z1[:, None], params, RngStream(53, rep))
        target = x.copy()
        target[r == 0] = np.nan
        data = IncompleteDataset(target, np.column_stack([z1, z2]))

        ri_out = ri_impute(data, RiConfig(seed=rep), nonresponse_columns=(0,))
        mi_out = mar_impute(data, 5, RngStream(54, rep))
        ri_means.append(rubin_pool([fit_analysis(data.covariates, c) for c in ri_out], 5).q_bar)
        mi_means.append(rubin_pool([fit_analysis(data.covariates, c) for c in mi_out], 5).q_bar)

    ri_means = np.vstack(ri_means)
    mi_means = np.vstack(mi_means)
    gap = ri_means.mean(axis=0) - mi_means.mean(axis=0)
    se = np.sqrt(ri_means.var(axis=0, ddof=1) / reps + mi_means.var(axis=0, ddof=1) / reps)
    assert np.all(np.abs(gap) < 2 * se)


def test_mar_impute_no_missing_identity(caplog):
    data = IncompleteDataset(np.arange(10.0), np.ones((10, 1)))
    with caplog.at_level(logging.WARNING, logger="riimpute.imputation"):
        out = mar_impute(data, 3, RngStream(55, 0))
    assert all(np.array_equal(c, np.arange(10.0)) for c in out)


def test_mar_impute_of_an_exact_fit_keeps_the_estimates():
    # a constant observed target is fitted with zero residual variance, so the
    # draw adds no noise and keeps the coefficients
    data = IncompleteDataset(np.array([2.5, 2.5, 2.5, 2.5, np.nan]), np.array([0.0, 1.0, 0.0, 1.0, 0.0]))
    assert all(c.tolist() == [2.5] * 5 for c in mar_impute(data, 2, RngStream(57, 0)))


def test_mar_impute_recovers_truth():
    gen_rng = RngStream(56, 0)
    gen = gen_rng.generator
    n = 20_000
    z = gen.normal(0, 1, n)
    x = 2.0 - z + gen.standard_normal(n)
    target = x.copy()
    target[(gen.random(n) < 0.4)] = np.nan
    data = IncompleteDataset(target, z[:, None])
    completions = mar_impute(data, 5, RngStream(56, 1))
    pooled = rubin_pool([fit_analysis(data.covariates, c) for c in completions], 5)
    assert abs(pooled.q_bar[0] - 2.0) < 4 * np.sqrt(pooled.t[0])
    assert abs(pooled.q_bar[1] + 1.0) < 4 * np.sqrt(pooled.t[1])


def test_complete_case_counts():
    data, x = _mnar_dataset(57, n=100)
    covs, values = complete_case(data)
    assert len(values) == data.n_observed
    assert covs.shape == (data.n_observed, 2)
    assert np.array_equal(values, x[data.observed_mask])

    full = IncompleteDataset(np.arange(10.0), np.ones((10, 1)))
    covs_full, values_full = complete_case(full)
    assert len(values_full) == 10


def test_complete_case_too_few_rows():
    target = np.array([1.0, np.nan])
    data = IncompleteDataset(target, np.array([[1.0], [2.0]]))
    with pytest.raises(TooFewRows):
        complete_case(data)


# ---------------------------------------------------------------------------
# cell_means, the cross-classification oracle in tests/selection_oracle.py


def test_cell_means_all_observed_single_cell():
    target = np.array([1.0, 2.0, 3.0])
    ones = indicator([1, 1, 1])
    cells = cell_means(target, ones, ones)
    assert cells[1, 1] == pytest.approx(2.0)
    assert np.isnan(cells).tolist() == [[True, True], [True, False]]


def test_cell_means_hand_built():
    target = np.array([4.0, 4.0, 2.0, 2.0, 2.0, 0.0])
    r = indicator([1, 1, 1, 0, 0, 0])
    rdot = indicator([1, 1, 0, 1, 1, 0])
    cells = cell_means(target, r, rdot)
    assert cells.tolist() == [[0.0, 2.0], [2.0, 4.0]]


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 60), st.integers(0, 10_000))
def test_cell_means_recombine_to_grand_mean(n, seed):
    gen = RngStream(60, seed).generator
    target = gen.normal(0, 5, n)
    r = (gen.random(n) < 0.5).astype(int)
    rdot = (gen.random(n) < 0.5).astype(int)
    cells = cell_means(target, r, rdot)
    counts = np.bincount(2 * r + rdot, minlength=4).reshape(2, 2)
    grand_mean = np.nansum(cells * counts) / n
    assert abs(grand_mean - target.mean()) < 1e-10


BLAS_THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from riimpute import (IncompleteDataset, RiConfig, RngStream, fit_analysis, mar_impute,
                      ri_impute)
n = int(sys.argv[1])
gen = np.random.default_rng([16, n])
z = np.column_stack([gen.normal(2.0, 2.0, n), gen.normal(-1.0, 1.0, n)])
x = 1.0 + 0.5 * z[:, 0] + z[:, 1] + gen.standard_normal(n)
observed = gen.random(n) < 1.0 / (1.0 + np.exp(2.0 - 1.5 * x))
data = IncompleteDataset(np.where(observed, x, np.nan), z)
for completions in (ri_impute(data, RiConfig(iterations=10, num_imputations=5, seed=3),
                              nonresponse_columns=(0,)),
                    mar_impute(data, 5, RngStream(3, 1))):
    print(hashlib.sha256(np.stack(completions).tobytes()).hexdigest())
    fits = [fit_analysis(z, completed) for completed in completions]
    print(hashlib.sha256(np.stack([(f.beta_hat, f.variances) for f in fits]).tobytes()).hexdigest())
"""


# 300 000 rows, about 56% of them observed: OpenBLAS splits x' y over its
# threads from about 150 000 rows with 3 design columns, so the observed-rows
# fit of mar_impute, fit_analysis with 2 and 3 covariates, and ols_fit and
# logistic_fit on C-order designs all cross that size. The last line is the
# digest of what `impute --method mar -m 2` writes to its pooled JSON.
BLAS_SPLIT_SCRIPT = """
import hashlib
from pathlib import Path
import numpy as np
from riimpute import (IncompleteDataset, RngStream, fit_analysis, logistic_fit, mar_impute,
                      ols_fit, rubin_pool)
from riimpute.cli import main
def sha(*arrays):
    return hashlib.sha256(b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)).hexdigest()
n = 300_000
gen = np.random.default_rng([24, n])
z = np.column_stack([gen.normal(2.0, 2.0, n), gen.normal(-1.0, 1.0, n)])
x = 1.0 + 0.5 * z[:, 0] + z[:, 1] + gen.standard_normal(n)
observed = gen.random(n) < 1.0 / (1.0 + np.exp(1.0 - 1.5 * x))
target = np.where(observed, x, np.nan)
completions = mar_impute(IncompleteDataset(target, z), 2, RngStream(3, 1))
print(sha(*completions))
for covariates in (z, np.column_stack([z, gen.uniform(-1.0, 1.0, n)])):
    fits = [fit_analysis(covariates, completed) for completed in completions]
    pooled = rubin_pool(fits, 2)
    print(sha(*(a for f in fits for a in (f.beta_hat, f.variances)), pooled.q_bar, pooled.t,
              pooled.df))
fit = ols_fit(np.column_stack([np.ones(n), z]), x)
print(sha(fit.coefficients, fit.residual_variance, fit.gram_inverse))
fit = logistic_fit(np.column_stack([np.ones(n), x, z[:, 0]]), observed)
print(sha(fit.coefficients, fit.covariance))
with open("input.csv", "w") as handle:
    handle.write("x1,x2,x3\\n")
    handle.writelines(f"{'' if t != t else repr(t)},{a!r},{b!r}\\n"
                      for t, a, b in zip(target.tolist(), *z.T.tolist()))
assert main(["impute", "input.csv", "--target", "x1", "--covariates", "x2,x3", "--method",
             "mar", "-m", "2", "--seed", "11", "--output-prefix", "out"]) == 0
print(hashlib.sha256(Path("out_pooled.json").read_bytes()).hexdigest())
"""


def _blas_thread_digests(threads, script, *args, cwd=None):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_draws_do_not_depend_on_the_blas_thread_count_at_2000_rows():
    single = _blas_thread_digests("1", BLAS_THREADS_SCRIPT, "2000")
    assert len(single) == 4 and _blas_thread_digests("2", BLAS_THREADS_SCRIPT, "2000") == single


def test_draws_do_not_depend_on_the_blas_thread_count_at_100000_rows():
    # From about 10 000 rows on every n-long dot and every chain product is
    # einsum's. At 100 000 rows the BLAS fits of older versions gave the same
    # bits for any thread count too: OpenBLAS's gemv does not yet split x' y
    # with 3 design columns there. The test at 300 000 rows covers them.
    single = _blas_thread_digests("1", BLAS_THREADS_SCRIPT, "100000")
    assert len(single) == 4 and _blas_thread_digests("2", BLAS_THREADS_SCRIPT, "100000") == single


def test_fits_do_not_depend_on_the_blas_thread_count_at_300000_rows(tmp_path):
    runs = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        runs.append(_blas_thread_digests(threads, BLAS_SPLIT_SCRIPT, cwd=tmp_path / threads))
    assert len(runs[0]) == 6 and runs[1] == runs[0]


# ---------------------------------------------------------------------------
# the chain pool, from imputation._EINSUM_ROWS rows on

POOL_N = imputation._EINSUM_ROWS + 1


@pytest.fixture(scope="module")
def pool_data():
    return _mnar_dataset(61, n=POOL_N, psi=(-1.0, 1.0, 0.0))[0]


def _run(monkeypatch, caplog, data, config, *, serial, cpus=2):
    """ri_impute's completions (or its error) and log, with the sweeps run on
    the calling thread as in a worker process, or on a pool of ``cpus`` threads."""
    with monkeypatch.context() as patch:
        patch.setattr(imputation, "_available_cpus", lambda: cpus)
        if serial:
            patch.setattr(imputation.multiprocessing, "parent_process", lambda: object())
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="riimpute.imputation"):
            try:
                outcome = [c.tobytes() for c in ri_impute(data, config, nonresponse_columns=(0,))]
            except Exception as exc:
                outcome = (type(exc), str(exc))
        return outcome, [record.getMessage() for record in caplog.records]


@pytest.mark.parametrize("cpus, m", [
    pytest.param(cpus, m, id=str(cpus) if m == 5 else f"{cpus}-m{m}")
    for m in (1, 3, 5) for cpus in (1, 2, 4)
])
def test_chain_pool_gives_the_serial_bytes_for_any_cpu_count(monkeypatch, caplog, pool_data, cpus,
                                                             m):
    # chains move between threads from sweep to sweep when m is not a multiple of the threads
    config = RiConfig(iterations=4, num_imputations=m, seed=2)
    started = []
    pool_class = imputation.ThreadPoolExecutor

    def counted_pool(max_workers):
        started.append(max_workers)
        return pool_class(max_workers=max_workers)

    monkeypatch.setattr(imputation, "ThreadPoolExecutor", counted_pool)
    serial = _run(monkeypatch, caplog, pool_data, config, serial=True)
    assert started == []
    assert _run(monkeypatch, caplog, pool_data, config, serial=False, cpus=cpus) == serial
    threads = min(cpus, m)
    assert started == ([] if threads == 1 else [threads])  # one thread runs the chains inline


def test_chain_pool_shares_the_sweeps_out_evenly(monkeypatch, caplog, pool_data):
    # Every sweep fits the selection model once, on the thread that runs the
    # sweep. With the fit slowed down, 5 chains of 4 sweeps on 2 threads take
    # 10 sweeps each; a fixed share of chains per thread would run 12 and 8.
    config = RiConfig(iterations=4, num_imputations=5, seed=2)
    serial = _run(monkeypatch, caplog, pool_data, config, serial=True)
    fits = {}
    logistic = imputation._logistic

    def slow_logistic(*args):
        thread = threading.get_ident()
        fits[thread] = fits.get(thread, 0) + 1
        time.sleep(0.05)
        return logistic(*args)

    monkeypatch.setattr(imputation, "_logistic", slow_logistic)
    assert _run(monkeypatch, caplog, pool_data, config, serial=False, cpus=2) == serial
    assert len(fits) == 2 and sum(fits.values()) == 20 and max(fits.values()) <= 11


def test_chain_pool_runs_each_sweep_once_under_fast_thread_switching(monkeypatch, caplog,
                                                                     pool_data):
    # More threads than CPUs, switching every microsecond, over many sweeps that
    # do no work but hand the interpreter on: a lost update to the shared sweep
    # counts would run a chain on two threads at once, or run too many or too
    # few of its sweeps.
    sweeps, active, overlaps = [0] * 7, set(), []

    def counted_chain(data, seed, response, completed, chain, warnings):
        yield
        while True:
            if chain in active:
                overlaps.append(chain)
            active.add(chain)
            sweeps[chain] += 1
            time.sleep(0)
            active.discard(chain)
            yield

    monkeypatch.setattr(imputation, "_chain", counted_chain)
    config = RiConfig(iterations=300, num_imputations=7, seed=6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run(monkeypatch, caplog, pool_data, config, serial=False, cpus=4)
    finally:
        sys.setswitchinterval(interval)
    assert overlaps == [] and sweeps == [300] * 7


@pytest.mark.parametrize("m, expected, cpus", [
    pytest.param(m, expected, cpus, id=name if cpus == 2 else f"{name}-{cpus}cpus")
    for cpus in (2, 4) for name, m, expected in [
        ("warnings", 4, [SEPARATED] * 3 + [NOT_CONVERGED] * 3),
        ("first-error", 5, ((RankDeficient, "chain 2"), [SEPARATED] * 3)),
    ]
])
def test_chain_pool_keeps_warnings_and_the_first_error_in_chain_order(monkeypatch, caplog,
                                                                     pool_data, m, expected,
                                                                     cpus):
    # every sweep of chain 1 is slowed down, so the chains after it finish
    # first. Chains 1 and 3 take the zero-shift fallback in every sweep, each
    # with its own warning; at m = 5, chains 2 and 4 raise, and chain 2's error
    # is the one raised, after the warnings of chains 0-1 and before any of
    # chain 3's. A sweep may run on any thread, so each one records its chain.
    current = threading.local()
    chain, logistic = imputation._chain, imputation._logistic
    errors = {1: Separation("s"), 3: NonConvergence("c")}
    if m == 5:
        errors.update({2: RankDeficient("chain 2"), 4: RankDeficient("chain 4")})

    def slow_chain(*args):
        sweeps = chain(*args)
        next(sweeps)
        while True:
            space = yield
            current.chain = args[-2]
            if current.chain == 1:
                time.sleep(0.15)
            sweeps.send(space)

    def failing_logistic(*args):
        if current.chain in errors:
            raise errors[current.chain]
        return logistic(*args)

    monkeypatch.setattr(imputation, "_chain", slow_chain)
    monkeypatch.setattr(imputation, "_logistic", failing_logistic)
    config = RiConfig(iterations=3, num_imputations=m, seed=4)
    serial = _run(monkeypatch, caplog, pool_data, config, serial=True)
    assert _run(monkeypatch, caplog, pool_data, config, serial=False, cpus=cpus) == serial
    assert (serial[1] if m == 4 else serial) == expected


def test_chain_pool_starts_no_sweep_of_a_chain_after_a_failed_one(monkeypatch, caplog, pool_data):
    # Chain 2 raises in its first sweep, which it starts while chain 1's first
    # sweep runs. From then on the threads run only chains 0 and 1, to the end,
    # as when the chains run one after another; a fixed share of chains per
    # thread would also run chains 3 and 4.
    current = threading.local()
    chain, logistic = imputation._chain, imputation._logistic
    sweeps = [0] * 5

    def counted_chain(*args):
        inner = chain(*args)
        next(inner)
        while True:
            space = yield
            current.chain = args[-2]
            sweeps[current.chain] += 1
            if current.chain == 1:
                time.sleep(0.1)
            inner.send(space)

    def failing_logistic(*args):
        if current.chain == 2:
            raise RankDeficient("chain 2")
        return logistic(*args)

    monkeypatch.setattr(imputation, "_chain", counted_chain)
    monkeypatch.setattr(imputation, "_logistic", failing_logistic)
    config = RiConfig(iterations=3, num_imputations=5, seed=4)
    serial = _run(monkeypatch, caplog, pool_data, config, serial=True)
    assert serial == ((RankDeficient, "chain 2"), []) and sweeps == [3, 3, 1, 0, 0]
    sweeps[:] = [0] * 5
    assert _run(monkeypatch, caplog, pool_data, config, serial=False, cpus=2) == serial
    assert sweeps == [3, 3, 1, 0, 0]


def test_run_scenario_workers_run_their_chains_serially(monkeypatch):
    config = builtin_scenario("mnar1", n=POOL_N, replications=2, master_seed=5, iterations=2)
    table = format_result_table([run_scenario(config)])

    def no_pool(max_workers):
        raise AssertionError("a scenario worker started a chain pool")

    monkeypatch.setattr(imputation, "ThreadPoolExecutor", no_pool)
    assert format_result_table([run_scenario(config, n_jobs=2)]) == table
