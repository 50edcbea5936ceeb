import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riimpute import (
    DegenerateRdot,
    DimensionMismatch,
    IncompleteDataset,
    InvalidParameter,
    NonresponseParams,
    RiConfig,
    RngStream,
    TooFewRows,
    complete_case,
    draw_psi_posterior,
    estimate_adjustment,
    generate_missingness,
    impute_given_rdot,
    logistic_fit,
    mar_impute,
    ri_impute,
    rubin_pool,
    fit_analysis,
    sample_mvnormal,
)

import riimpute.imputation as imputation
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
    data = IncompleteDataset(np.array([1.0, np.nan, 3.0]), np.arange(3.0))
    assert data.n == 3 and data.n_observed == 2 and data.n_missing == 1
    assert data.observed_mask.tolist() == [True, False, True]
    assert data.covariate_names == ("z1",)


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
    fit = imputation.logistic_fit
    monkeypatch.setattr(imputation, "logistic_fit",
                        lambda design, indicator, start=None: fit(design, indicator))
    cold, cold_messages = run()

    assert len(warm) == len(cold)
    assert all(np.array_equal(a, b) for a, b in zip(warm, cold))
    assert warm_messages == cold_messages
    if case == "near_separated":
        assert any("zero shift" in message for message in warm_messages)


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
