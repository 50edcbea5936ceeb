import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riimpute import (
    DimensionMismatch,
    IncompleteDataset,
    InvalidParameter,
    NonresponseParams,
    RngStream,
    estimate_adjustment,
    generate_missingness,
    impute_given_rdot,
    response_probability,
)

from selection_oracle import cell_means, sample_selection_population


def test_zero_linear_predictor_gives_half():
    params = NonresponseParams(0.0, 0.0)
    assert response_probability(params, -3.1) == pytest.approx(0.5)
    assert response_probability(params, 12.0) == pytest.approx(0.5)


def test_constant_probability_setting():
    # intercept -0.75 alone: response probability 1/(1+e^0.75), about 32% observed
    params = NonresponseParams(-0.75, 0.0, [0.0])
    p = response_probability(params, 5.0, np.array([2.0]))
    assert p == pytest.approx(1.0 / (1.0 + np.exp(0.75)), abs=1e-12)
    assert 1.0 - p == pytest.approx(0.68, abs=0.005)


def test_strongly_nonignorable_setting_missing_rate():
    # slope 1.5 on the target, strong-association data: about 57% missing
    gen = RngStream(21, 0).generator
    n = 100_000
    x2 = gen.normal(2, 2, n)
    x3 = gen.normal(-1, 1, n)
    x1 = 1.0 + 0.5 * x2 + 1.0 * x3 + gen.standard_normal(n)
    params = NonresponseParams(-2.0, 1.5, [0.0])
    p = response_probability(params, x1, x2[:, None])
    assert abs((1.0 - p.mean()) - 0.57) < 0.02


def test_response_probability_dimension_mismatch():
    params = NonresponseParams(0.0, 1.0, [0.5, -0.5])
    with pytest.raises(DimensionMismatch):
        response_probability(params, 1.0, np.array([1.0]))


def test_generate_missingness_degenerate_probability(rng):
    params = NonresponseParams(50.0, 0.0)
    indicator = generate_missingness(np.zeros(100), None, params, rng)
    assert indicator.tolist() == [1] * 100


def test_generate_missingness_rate_ignorable(rng):
    # selection on the covariate only, strong-association data: about 70% missing
    gen = RngStream(22, 0).generator
    n = 100_000
    x2 = gen.normal(2, 2, n)
    x3 = gen.normal(-1, 1, n)
    x1 = 1.0 + 0.5 * x2 + 1.0 * x3 + gen.standard_normal(n)
    params = NonresponseParams(-2.0, 0.0, [0.5])
    indicator = generate_missingness(x1, x2[:, None], params, rng)
    assert abs((indicator == 0).mean() - 0.70) < 0.01


def test_generate_missingness_rate_moderate_nonignorable(rng):
    # slope 0.75 on the target, negative covariate effect, moderate data: 58% missing
    gen = RngStream(23, 0).generator
    n = 100_000
    x2 = gen.normal(2, 2, n)
    x3 = gen.normal(-1, 1, n)
    x1 = 3.0 - 0.25 * x2 + 0.5 * x3 + gen.standard_normal(n)
    params = NonresponseParams(-1.0, 0.75, [-0.5])
    indicator = generate_missingness(x1, x2[:, None], params, rng)
    assert abs((indicator == 0).mean() - 0.58) < 0.01


@settings(max_examples=50, deadline=None)
@given(
    psi1=st.one_of(st.just(0.0), st.floats(1e-3, 3), st.floats(-3, -1e-3)),
    x_lo=st.floats(-5, 5, allow_nan=False),
    gap=st.floats(0.1, 5, allow_nan=False),
)
def test_response_probability_monotone_in_target(psi1, x_lo, gap):
    params = NonresponseParams(0.3, psi1)
    lo = response_probability(params, x_lo)
    hi = response_probability(params, x_lo + gap)
    if psi1 > 0:
        assert hi > lo
    elif psi1 < 0:
        assert hi < lo
    else:
        assert hi == lo


def test_nonresponse_params_validation():
    with pytest.raises(InvalidParameter):
        NonresponseParams(np.inf, 0.0)
    params = NonresponseParams(-2, 1.5, [0.25])
    assert (params.psi0, params.psi1, params.psi_z.tolist()) == (-2.0, 1.5, [0.25])


def test_response_indicator_validation(rng):
    # indicators are plain 0/1 vectors, checked by the functions that take them
    data = IncompleteDataset(np.array([1.0, 2.0, 3.0, 4.0, np.nan]), np.zeros((5, 0)))
    with pytest.raises(InvalidParameter):
        estimate_adjustment(data, [1, 0, 1, 2, 0])
    with pytest.raises(InvalidParameter):
        impute_given_rdot(data, np.array([[1, 0, 1, 0, 1]]), rng)
    with pytest.raises(DimensionMismatch):
        estimate_adjustment(data, [1, 0, 1])
    with pytest.raises(DimensionMismatch):
        impute_given_rdot(data, [1, 0, 1, 0, 1, 0], rng)
    # lists, booleans and any integer type are accepted as they are
    assert estimate_adjustment(data, [1, 0, 1, 0, 1]).n_params == 2
    assert estimate_adjustment(data, np.array([True, False, True, False, True])).n_params == 2


# ---------------------------------------------------------------------------
# distributional identities of the selection model, checked by simulation on
# populations whose observed part is normal by construction


def test_missing_part_mean_shift_is_slope_times_variance():
    # observed part N(mu_z, sigma2) given z  ->  missing part shifted by -psi1*sigma2
    n = 1_000_000
    sigma2 = 1.0
    params = NonresponseParams(-1.0, 1.5, [0.3])
    gen_rng = RngStream(31, 0)
    z = gen_rng.generator.normal(0, 1, n)
    mu_z = 2.0 + 0.5 * z
    x = sample_selection_population(params, mu_z, z[:, None], sigma2, gen_rng)

    indicator = generate_missingness(x, z[:, None], params, RngStream(31, 1))
    mis = indicator == 0
    shift = (x - mu_z)[mis].mean()
    se = (x - mu_z)[mis].std() / np.sqrt(mis.sum())
    assert abs(shift + params.psi1 * sigma2) < 4 * se
    obs_shift = (x - mu_z)[~mis].mean()
    assert abs(obs_shift) < 4 * (x - mu_z)[~mis].std() / np.sqrt((~mis).sum())


def test_cross_classified_cell_shifts_match_slope_times_variance():
    # two independent indicators: both off-diagonal cell means agree, and both
    # within-row differences equal psi1 * sigma2
    n = 1_000_000
    sigma2 = 1.0
    params = NonresponseParams(-0.5, 0.8)
    gen_rng = RngStream(32, 0)
    mu = np.full(n, 1.0)
    x = sample_selection_population(params, mu, None, sigma2, gen_rng, indicators=2)

    r = generate_missingness(x, None, params, RngStream(32, 1))
    rdot = generate_missingness(x, None, params, RngStream(32, 2))
    cells = cell_means(x, r, rdot)
    assert not np.isnan(cells).any()

    def cell_se(rv, dv):
        sel = (r == rv) & (rdot == dv)
        return x[sel].std() / np.sqrt(sel.sum())

    pooled_se = np.hypot(cell_se(1, 0), cell_se(0, 1))
    assert abs(cells[1, 0] - cells[0, 1]) < 4 * pooled_se

    delta = params.psi1 * sigma2
    se_obs = np.hypot(cell_se(1, 1), cell_se(1, 0))
    se_mis = np.hypot(cell_se(0, 1), cell_se(0, 0))
    assert abs((cells[1, 1] - cells[1, 0]) - delta) < 4 * se_obs
    assert abs((cells[0, 1] - cells[0, 0]) - delta) < 4 * se_mis


def test_off_diagonal_equality_holds_for_any_marginal():
    # mu10 = mu01 needs only independent draws of the same model, not normality
    n = 500_000
    params = NonresponseParams(0.2, 0.9)
    gen = RngStream(33, 0).generator
    x = gen.exponential(1.0, n) - 1.0  # deliberately skewed marginal

    r = generate_missingness(x, None, params, RngStream(33, 1))
    rdot = generate_missingness(x, None, params, RngStream(33, 2))
    cells = cell_means(x, r, rdot)

    sel10 = (r == 1) & (rdot == 0)
    sel01 = (r == 0) & (rdot == 1)
    pooled_se = np.hypot(
        x[sel10].std() / np.sqrt(sel10.sum()), x[sel01].std() / np.sqrt(sel01.sum())
    )
    assert abs(cells[1, 0] - cells[0, 1]) < 4 * pooled_se
