import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm, t as student_t

from riimpute import (
    AnalysisFit,
    DimensionMismatch,
    InvalidParameter,
    RankDeficient,
    RiImputeError,
    RngStream,
    coverage,
    fit_analysis,
    ols_fit,
    rubin_pool,
    single_fit_estimate,
)
from riimpute.fitters import _EINSUM_ROWS, _Columns, _ols


def make_fit(beta, variances, n=100):
    return AnalysisFit(np.asarray(beta, dtype=float), np.asarray(variances, dtype=float), n)


# ---------------------------------------------------------------------------
# fit_analysis


def test_fit_analysis_exact_data_has_zero_variances():
    z = np.arange(6.0)
    fit = fit_analysis(z[:, None], 1.0 + 2.0 * z)
    assert np.allclose(fit.beta_hat, [1.0, 2.0], atol=1e-10)
    assert np.allclose(fit.variances, 0.0, atol=1e-12)
    assert fit.n == 6


def test_fit_analysis_recovers_strong_coefficients():
    gen = RngStream(71, 0).generator
    n = 100_000
    x2 = gen.normal(2, 2, n)
    x3 = gen.normal(-1, 1, n)
    x1 = 1.0 + 0.5 * x2 + 1.0 * x3 + gen.standard_normal(n)
    fit = fit_analysis(np.column_stack([x2, x3]), x1)
    assert np.all(np.abs(fit.beta_hat - np.array([1.0, 0.5, 1.0])) < 0.02)


def test_fit_analysis_moderate_explained_variance():
    # moderate coefficient set explains about a third of the target variance
    gen = RngStream(72, 0).generator
    n = 100_000
    x2 = gen.normal(2, 2, n)
    x3 = gen.normal(-1, 1, n)
    x1 = 3.0 - 0.25 * x2 + 0.5 * x3 + gen.standard_normal(n)
    fit = fit_analysis(np.column_stack([x2, x3]), x1)
    design = np.column_stack([np.ones(n), x2, x3])
    resid = x1 - design @ fit.beta_hat
    r2 = 1.0 - resid.var() / x1.var()
    assert abs(r2 - 1.0 / 3.0) < 0.02


def test_fit_analysis_strict_rank():
    z = np.column_stack([np.arange(8.0), 2.0 * np.arange(8.0)])
    with pytest.raises(RankDeficient):
        fit_analysis(z, np.arange(8.0))


@pytest.mark.parametrize("n", [_EINSUM_ROWS - 1, _EINSUM_ROWS])
@pytest.mark.parametrize("shape", ["2-d", "1-d", "no covariates"])
def test_fit_analysis_sums_by_blas_below_the_einsum_rows_and_by_einsum_from_them(n, shape):
    gen = np.random.default_rng([24, n])
    z = gen.normal(2.0, 2.0, (n, 2))
    covariates = {"2-d": z, "1-d": z[:, 0], "no covariates": z[:, :0]}[shape]
    target = 1.0 + z @ [0.5, 1.0] + gen.standard_normal(n)
    design = np.column_stack([np.ones(n), covariates])
    if n < _EINSUM_ROWS:
        expected = ols_fit(design, target)
    else:
        expected = _ols(_Columns(np.asfortranarray(design)), target)
    fit = fit_analysis(covariates, target)
    assert fit.beta_hat.tobytes() == expected.coefficients.tobytes()
    variances = expected.residual_variance * np.diag(expected.gram_inverse)
    assert fit.variances.tobytes() == variances.tobytes() and fit.n == n


@pytest.mark.parametrize("n", [_EINSUM_ROWS - 1, _EINSUM_ROWS])
@pytest.mark.parametrize("fault", ["short target", "nan covariate", "inf target", "collinear"])
def test_fit_analysis_raises_what_the_c_order_design_raises(n, fault):
    z = np.random.default_rng([25, n]).normal(0.0, 1.0, (n, 2))
    target = z[:, 0].copy()
    if fault == "short target":
        target = target[1:]
    elif fault == "nan covariate":
        z[n // 2, 1] = np.nan
    elif fault == "inf target":
        target[-1] = np.inf
    else:
        z[:, 1] = 2.0 * z[:, 0]
    with pytest.raises(RiImputeError) as expected:
        ols_fit(np.column_stack([np.ones(n), z]), target)
    with pytest.raises(type(expected.value)) as raised:
        fit_analysis(z, target)
    # a singular Gram matrix's message cites its smallest eigenvalue, which
    # einsum and BLAS sum to different bits
    assert str(raised.value).split(":")[0] == str(expected.value).split(":")[0]


# ---------------------------------------------------------------------------
# rubin_pool


def test_pool_hand_computed_two_imputations():
    fits = [make_fit([1.0], [1.0]), make_fit([3.0], [1.0])]
    pooled = rubin_pool(fits, 2)
    assert pooled.q_bar[0] == pytest.approx(2.0, abs=1e-12)
    assert pooled.u_bar[0] == pytest.approx(1.0, abs=1e-12)
    assert pooled.b[0] == pytest.approx(2.0, abs=1e-12)
    assert pooled.t[0] == pytest.approx(4.0, abs=1e-12)
    assert pooled.df[0] == pytest.approx((1.0 + 1.0 / 3.0) ** 2, abs=1e-12)


def test_pool_identical_fits_use_normal_quantile():
    fits = [make_fit([2.0, -1.0], [0.25, 0.04])] * 3
    pooled = rubin_pool(fits, 3)
    assert np.allclose(pooled.b, 0.0)
    assert np.allclose(pooled.t, pooled.u_bar)
    assert np.all(np.isinf(pooled.df))
    half = norm.ppf(0.975) * np.sqrt(pooled.t)
    assert np.allclose(pooled.ci_high - pooled.q_bar, half, atol=1e-12)


def assert_interval_uses_stats_quantiles(est):
    # the bits ``t.ppf`` and ``norm.ppf`` give, from ``scipy.special`` inside the package
    quantile = np.where(np.isinf(est.df), norm.ppf(0.975),
                        student_t.ppf(0.975, np.where(np.isinf(est.df), 1.0, est.df)))
    half = quantile * np.sqrt(est.t)
    assert est.ci_low.tobytes() == (est.q_bar - half).tobytes()
    assert est.ci_high.tobytes() == (est.q_bar + half).tobytes()


def test_pooled_quantiles_match_scipy_stats_bit_for_bit():
    # m = 2 with estimates 0 and 1 gives b = 1/2 and df = (1 + u / 0.75)^2, so
    # u sweeps df from 1 to 1e15; the last coordinate has b = 0 and infinite df
    wanted_df = np.geomspace(1.0, 1e15, 2000)
    u = np.append(0.75 * (np.sqrt(wanted_df) - 1.0), 1.0)
    fits = [make_fit(np.zeros(len(u)), u), make_fit(np.append(np.ones(len(u) - 1), 0.0), u)]
    pooled = rubin_pool(fits, 2)
    assert pooled.df[0] == 1.0 and 0.99e15 < pooled.df[-2] < 1.01e15
    assert np.isinf(pooled.df[-1])
    assert_interval_uses_stats_quantiles(pooled)


def test_single_fit_quantiles_match_scipy_stats_bit_for_bit():
    for df in np.unique(np.round(np.geomspace(1.0, 1e15, 300))):
        est = single_fit_estimate(make_fit([1.0, -2.0], [0.25, 3.0], n=int(df) + 2))
        assert np.all(est.df == df)
        assert_interval_uses_stats_quantiles(est)


def test_pool_total_variance_identity_and_widening():
    gen = RngStream(73, 0).generator
    fits = [make_fit(gen.normal(0, 1, 4), gen.random(4) + 0.1) for _ in range(7)]
    pooled = rubin_pool(fits, 7)
    assert np.allclose(pooled.t, pooled.u_bar + (1 + 1 / 7) * pooled.b, atol=0, rtol=1e-15)
    assert np.all(pooled.t >= pooled.u_bar)
    assert np.all(pooled.b >= 0) and np.all(pooled.u_bar >= 0)
    assert np.all(pooled.df > 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000))
def test_pool_permutation_invariant(seed):
    gen = RngStream(74, seed).generator
    fits = [make_fit(gen.normal(0, 1, 3), gen.random(3) + 0.01) for _ in range(5)]
    pooled = rubin_pool(fits, 5)
    order = gen.permutation(5)
    shuffled = rubin_pool([fits[i] for i in order], 5)
    for name in ("q_bar", "u_bar", "b", "t", "df", "ci_low", "ci_high"):
        assert np.allclose(getattr(pooled, name), getattr(shuffled, name), atol=1e-12)


def test_pool_validation():
    fits = [make_fit([1.0], [1.0])]
    with pytest.raises(InvalidParameter):
        rubin_pool(fits, 1)
    with pytest.raises(DimensionMismatch):
        rubin_pool([make_fit([1.0], [1.0]), make_fit([1.0, 2.0], [1.0, 1.0])], 2)


def test_pooled_interval_never_narrower_than_average_single_interval():
    gen = RngStream(75, 0).generator
    fits = [make_fit(gen.normal(0, 0.3, 2), [0.04, 0.09]) for _ in range(5)]
    pooled = rubin_pool(fits, 5)
    avg_half = norm.ppf(0.975) * np.sqrt(np.vstack([f.variances for f in fits]).mean(axis=0))
    assert np.all(pooled.ci_high - pooled.q_bar >= avg_half - 1e-12)


# ---------------------------------------------------------------------------
# single_fit_estimate / coverage


def test_single_fit_estimate_degrees_of_freedom():
    fit = make_fit([1.0, 2.0], [0.25, 0.01], n=30)
    est = single_fit_estimate(fit)
    assert np.all(est.df == 28.0)
    assert np.all(est.b == 0.0)
    assert est.ci_low[0] < 1.0 < est.ci_high[0]
    with pytest.raises(InvalidParameter, match="positive residual degrees of freedom"):
        single_fit_estimate(make_fit([1.0, 2.0], [0.25, 0.01], n=2))


def test_coverage_truth_at_center_and_outside():
    fits = [make_fit([1.0, -1.0], [0.1, 0.1]), make_fit([1.2, -0.8], [0.1, 0.1])]
    pooled = rubin_pool(fits, 2)
    assert coverage(pooled, pooled.q_bar).tolist() == [1, 1]
    far = pooled.q_bar + 100.0
    assert coverage(pooled, far).tolist() == [0, 0]
    with pytest.raises(DimensionMismatch):
        coverage(pooled, np.array([1.0]))


def test_coverage_of_pooled_center_always_one():
    gen = RngStream(76, 0).generator
    for _ in range(10):
        fits = [make_fit(gen.normal(0, 1, 2), gen.random(2) + 0.01) for _ in range(4)]
        pooled = rubin_pool(fits, 4)
        assert coverage(pooled, pooled.q_bar).tolist() == [1, 1]
