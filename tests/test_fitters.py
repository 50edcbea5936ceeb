import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import expit

from riimpute import fitters
from riimpute.fitters import (IRLS_COEF_CAP, _Columns, _eigh, _eigvalsh, _information, _inv,
                              _irls, _irls_work, _logistic, _mu_loglik, _ols, _solve)

from riimpute import (
    DimensionMismatch,
    IncompleteDataset,
    InvalidParameter,
    LogisticFit,
    NonConvergence,
    RankDeficient,
    RngStream,
    Separation,
    fit_analysis,
    logistic_fit,
    mar_impute,
    ols_fit,
)

# ---------------------------------------------------------------------------
# independent oracles


def gaussian_elimination_solve(a, b):
    """Solve a @ x = b by elementary row operations with partial pivoting."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    aug = np.column_stack([a, b])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, -1]


def logistic_loglik(beta, x, y):
    eta = x @ beta
    return float(np.where(y == 1, eta, 0.0).sum() - np.logaddexp(0.0, eta).sum())


def coordinate_search_mle(x, y, n_cycles=60):
    """Maximise the logistic log likelihood by cyclic 1-d grid refinement."""
    beta = np.zeros(x.shape[1])
    width = 4.0
    for _ in range(n_cycles):
        for j in range(len(beta)):
            grid = beta[j] + np.linspace(-width, width, 41)
            values = []
            for g in grid:
                trial = beta.copy()
                trial[j] = g
                values.append(logistic_loglik(trial, x, y))
            beta[j] = grid[int(np.argmax(values))]
        width *= 0.7
    return beta


# ---------------------------------------------------------------------------
# ols_fit


def test_ols_exact_line():
    fit = ols_fit([[1, 0], [1, 1], [1, 2]], [2, 5, 8])
    assert np.allclose(fit.coefficients, [2.0, 3.0], atol=1e-10)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-12)


def test_ols_constant_response():
    fit = ols_fit([[1], [1], [1]], [4, 4, 4])
    assert fit.coefficients[0] == pytest.approx(4.0, abs=1e-12)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-12)


def test_ols_against_gaussian_elimination_oracle():
    gen = RngStream(314, 0).generator
    design = np.column_stack([np.ones(50), gen.normal(0, 1, 50), gen.normal(0, 2, 50)])
    truth = np.array([1.0, -2.0, 0.5])
    response = design @ truth + gen.normal(0, 0.1, 50)

    fit = ols_fit(design, response)
    oracle = gaussian_elimination_solve(design.T @ design, design.T @ response)
    assert np.allclose(fit.coefficients, oracle, atol=1e-10)

    se = np.sqrt(fit.residual_variance * np.diag(fit.gram_inverse))
    assert np.all(np.abs(fit.coefficients - truth) < 3 * se)


def test_ols_residuals_orthogonal_to_design():
    gen = RngStream(315, 0).generator
    design = np.column_stack([np.ones(200), gen.normal(0, 1, 200), gen.normal(0, 1, 200)])
    response = gen.normal(0, 1, 200)
    fit = ols_fit(design, response)
    resid = response - design @ fit.coefficients
    for col in design.T:
        bound = 1e-8 * np.linalg.norm(col) * np.linalg.norm(resid)
        assert abs(float(col @ resid)) < max(bound, 1e-10)


def test_ols_gram_inverse_symmetric():
    gen = RngStream(316, 0).generator
    design = gen.normal(0, 1, (40, 4))
    fit = ols_fit(design, gen.normal(0, 1, 40))
    assert np.allclose(fit.gram_inverse, fit.gram_inverse.T, rtol=1e-10, atol=0)
    assert fit.n_rows == 40 and fit.n_params == 4


def test_ols_rank_deficiency_strict_raises():
    design = np.column_stack([np.ones(10), np.arange(10.0), 2.0 * np.arange(10.0)])
    with pytest.raises(RankDeficient, match="Gram matrix is singular"):
        ols_fit(design, np.arange(10.0))


def test_ols_rank_test_ignores_column_units():
    # [1, a * 1e-6, b * 1e5] is well conditioned once each column has unit
    # length; only the units of a and b differ from the unit-scaled fit
    gen = RngStream(318, 0).generator
    covariates = gen.normal(0, 1, (200, 2))
    target = 1.0 + covariates @ [1.1, -0.7] + gen.normal(0, 1, 200)
    units = np.array([1e-6, 1e5])
    unit_fit = ols_fit(np.column_stack([np.ones(200), covariates]), target)
    scaled_fit = ols_fit(np.column_stack([np.ones(200), covariates * units]), target)
    to_unit = np.r_[1.0, units]
    np.testing.assert_allclose(scaled_fit.coefficients * to_unit, unit_fit.coefficients,
                               rtol=1e-10, atol=0)

    unit_analysis = fit_analysis(covariates, target)
    scaled_analysis = fit_analysis(covariates * units, target)
    np.testing.assert_allclose(scaled_analysis.beta_hat * to_unit, unit_analysis.beta_hat,
                               rtol=1e-10, atol=0)
    np.testing.assert_allclose(scaled_analysis.variances * to_unit**2,
                               unit_analysis.variances, rtol=1e-10, atol=0)


def test_mar_impute_collinear_covariates_raise_rank_deficient():
    gen = RngStream(319, 0).generator
    a = gen.normal(0, 1, 60)
    target = 1.0 + a + gen.standard_normal(60)
    target[::4] = np.nan
    data = IncompleteDataset(target, np.column_stack([a, 2.0 * a]))
    with pytest.raises(RankDeficient, match="Gram matrix is singular"):
        mar_impute(data, 5, RngStream(1, 0))


def test_ols_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        ols_fit([[1, 0], [1, 1]], [1, 2, 3])
    with pytest.raises(DimensionMismatch, match="need at least 3 rows for 3 parameters, got 2"):
        ols_fit([[1, 0, 2], [1, 1, 0]], [1, 2])


@pytest.mark.parametrize("fitter, design, response", [
    (ols_fit, np.empty((5, 0)), np.ones(5)),
    (logistic_fit, np.empty((4, 0)), [0, 1, 0, 1]),
], ids=["ols", "logistic"])
def test_zero_column_design_raises_dimension_mismatch(fitter, design, response):
    with pytest.raises(DimensionMismatch, match="design has no columns"):
        fitter(design, response)


@pytest.mark.parametrize("fitter, response", [
    (ols_fit, [0.5, -1.0, 0.2, 1.5, 0.1, 2.0, 1.2, 2.5]),
    (logistic_fit, [0, 1, 0, 0, 1, 0, 1, 1]),
], ids=["ols", "logistic"])
def test_fitters_take_a_1d_design_as_one_column_and_refuse_3d(fitter, response):
    x = np.linspace(-1.0, 2.0, 8)
    one, column = fitter(x, response), fitter(x[:, None], response)
    assert one.coefficients.tobytes() == column.coefficients.tobytes()
    with pytest.raises(DimensionMismatch, match="design must be 2-dimensional, got ndim=3"):
        fitter(x[:, None, None], response)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["design", "response"])
def test_fitters_reject_non_finite_input(where, bad):
    gen = RngStream(330, 0).generator
    z = gen.normal(0, 1, (40, 2))
    y = z.sum(axis=1) + gen.standard_normal(40)
    r = (gen.random(40) < 0.5).astype(float)
    if where == "design":
        z[3, 1] = bad
    else:
        y[3] = r[3] = bad
    x = np.column_stack([np.ones(40), z])
    calls = [(ols_fit, (x, y), where), (fit_analysis, (z, y), where),
             (logistic_fit, (x, r), "design" if where == "design" else "indicator")]
    for fitter, args, name in calls:
        with pytest.raises(InvalidParameter, match=f"^{name} must contain only finite values$"):
            fitter(*args)


# ---------------------------------------------------------------------------
# logistic_fit


def test_logistic_balanced_intercept_is_zero():
    fit = logistic_fit(np.ones((40, 1)), [0] * 20 + [1] * 20)
    assert abs(fit.coefficients[0]) < 1e-6


def test_logistic_intercept_only_large_sample():
    # generating intercept -0.75, no covariate effects
    gen = RngStream(317, 0).generator
    n = 100_000
    y = (gen.random(n) < expit(-0.75)).astype(int)
    fit = logistic_fit(np.ones((n, 1)), y)
    assert abs(fit.coefficients[0] + 0.75) < 0.05


def test_logistic_matches_coordinate_search_oracle():
    gen = RngStream(318, 0).generator
    x = np.column_stack([np.ones(30), gen.normal(0, 1, 30), gen.normal(0, 1, 30)])
    eta = x @ np.array([0.3, 1.0, -0.7])
    y = (gen.random(30) < expit(eta)).astype(int)

    fit = logistic_fit(x, y)
    oracle = coordinate_search_mle(x, y)
    assert np.all(np.abs(fit.coefficients - oracle) < 1e-3)
    # the IRLS estimate should be at least as good as the search's best point
    assert logistic_loglik(fit.coefficients, x, y) >= logistic_loglik(oracle, x, y) - 1e-9


def test_logistic_loglik_nondecreasing_trace():
    gen = RngStream(319, 0).generator
    x = np.column_stack([np.ones(200), gen.normal(0, 2, 200)])
    y = (gen.random(200) < expit(x @ np.array([-1.0, 1.5]))).astype(int)

    # replay IRLS manually through the public function by checking the final
    # likelihood dominates the start, then verify monotonicity on a fine fit
    fit = logistic_fit(x, y)
    assert logistic_loglik(fit.coefficients, x, y) >= logistic_loglik(np.zeros(2), x, y)

    betas = [np.zeros(2)]
    for _ in range(fit.iterations):
        mu = expit(x @ betas[-1])
        w = mu * (1 - mu)
        step = np.linalg.solve(x.T @ (w[:, None] * x), x.T @ (y - mu))
        betas.append(betas[-1] + step)
    lls = [logistic_loglik(b, x, y) for b in betas]
    assert all(b >= a - 1e-12 for a, b in zip(lls, lls[1:]))


def test_logistic_covariance_positive_semidefinite():
    gen = RngStream(320, 0).generator
    x = np.column_stack([np.ones(500), gen.normal(0, 1, 500)])
    y = (gen.random(500) < expit(x @ np.array([0.2, 0.8]))).astype(int)
    fit = logistic_fit(x, y)
    eigvals = np.linalg.eigvalsh(fit.covariance)
    assert np.all(eigvals > -1e-8)
    assert np.allclose(fit.covariance, fit.covariance.T, atol=1e-12)


def test_logistic_separation_raises():
    x = np.column_stack([np.ones(20), np.r_[np.full(10, -2.0), np.full(10, 2.0)]])
    y = np.r_[np.zeros(10), np.ones(10)].astype(int)
    with pytest.raises((Separation, NonConvergence)):
        logistic_fit(x, y)


def test_logistic_requires_both_classes():
    with pytest.raises(InvalidParameter):
        logistic_fit(np.ones((5, 1)), [1, 1, 1, 1, 1])


def test_logistic_fused_loglik_matches_oracle_without_overflow():
    eta = np.r_[np.linspace(-700.0, 700.0, 201), -36.5, 0.0, 1e-300, 36.5]
    x = eta[:, None]
    y = (np.arange(eta.size) % 3 == 0).astype(float)
    mu = np.empty(eta.size)
    with np.errstate(all="raise"):
        ll = _mu_loglik(x, y, np.ones(1), mu, np.empty((2, eta.size)))
    assert ll == pytest.approx(logistic_loglik(np.ones(1), x, y), rel=1e-14)
    assert np.allclose(mu, expit(eta), rtol=1e-14, atol=0)


def test_mu_loglik_bytes_match_the_branching_formula():
    tiny = np.finfo(float).smallest_subnormal
    eta = np.r_[0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 37.0, -37.0, 745.0, -745.0,
                800.0, -800.0, np.linspace(-50.0, 50.0, 1001)]
    x = eta[:, None]
    y = (np.arange(eta.size) % 3 == 0).astype(float)
    mu = np.empty(eta.size)
    ll = _mu_loglik(x, y, np.ones(1), mu, np.empty((2, eta.size)))
    # the formula _mu_loglik had before its numerator became max(eta >= 0, e)
    e = np.exp(-np.abs(eta))
    expected_mu = np.where(eta >= 0, 1.0, e) / (1.0 + e)
    expected_ll = float(y @ eta - np.maximum(eta, 0.0).sum() - np.log1p(e).sum())
    assert mu.tobytes() == expected_mu.tobytes()
    assert np.float64(ll).tobytes() == np.float64(expected_ll).tobytes()


@pytest.mark.parametrize("n", [2, 3, 1000, 100_000])
def test_information_bytes_match_the_broadcast_product(n):
    gen = RngStream(55, n).generator
    buffer = np.empty((5, n))
    for p in range(1, 6):
        x = np.column_stack([np.ones(n), gen.normal(0.0, 3.0, (n, p - 1))])
        assert x.flags.c_contiguous
        mu = expit(x @ gen.normal(0.0, 0.5, p))
        w = mu * (1.0 - mu)
        expected = x.T @ (w[:, None] * x)
        assert _information(x, mu, buffer[:p]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("at", [None, 0, 1, 3])
def test_columns_products_match_the_array_products(at):
    # the block-by-block einsum sums are the BLAS products up to rounding
    n = 20_000
    gen = RngStream(56, n).generator
    x = np.column_stack([np.ones(n), gen.normal(0.0, 3.0, (n, 3))])
    if at is None:
        design = _Columns(np.asfortranarray(x))
    else:
        design = _Columns(np.asfortranarray(np.delete(x, at, axis=1)), np.empty(n), at=at)
        design[:, at] = x[:, at]
    b, w, v = gen.normal(0.0, 1.0, 4), gen.random(n), gen.normal(0.0, 1.0, n)
    assert design.shape == x.shape
    for got, expected in ((design.matvec(b), x @ b), (design.rmatvec(v), x.T @ v),
                          (design.gram(), x.T @ x), (design.gram(w), x.T @ (w[:, None] * x)),
                          (_ols(design, v).coefficients, _ols(x, v).coefficients)):
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    with pytest.raises(IndexError):
        design[:, 2 if at != 2 else 1] = v


# ---------------------------------------------------------------------------
# the selection fit from a start: fitters._logistic, the kernel ri_impute runs


@pytest.fixture(scope="module")
def well_posed():
    gen = RngStream(321, 0).generator
    x = np.column_stack([np.ones(500), gen.normal(0, 1, 500), gen.normal(1, 2, 500)])
    # float, as logistic_fit passes it to the kernel that the warm starts call
    y = (gen.random(500) < expit(x @ np.array([-0.5, 1.0, 0.3]))).astype(float)
    return x, y, logistic_fit(x, y)


@pytest.mark.parametrize("name", ["zero", "mle", "mle_plus_noise", "far"])
def test_logistic_start_reaches_the_cold_fit(well_posed, name):
    x, y, cold = well_posed
    mle = cold.coefficients
    start = {
        "zero": np.zeros(3),
        "mle": mle,
        "mle_plus_noise": mle + RngStream(322, 0).generator.normal(0, 0.3, 3),
        "far": np.array([-14.0, 14.0, -14.0]),
    }[name]
    assert np.abs(start).max() <= IRLS_COEF_CAP
    fit = _logistic(x, y, start)
    assert np.abs(fit.coefficients - mle).max() <= 1e-10
    assert np.abs(fit.covariance - cold.covariance).max() <= 1e-12


def test_logistic_start_at_mle_converges_at_once(well_posed):
    x, y, cold = well_posed
    assert cold.iterations > 2
    assert _logistic(x, y, cold.coefficients).iterations <= 2


def test_logistic_start_past_cap_retries_cold(well_posed):
    x, y, cold = well_posed
    start = np.array([10.0, -10.0, 0.0])
    # the first step from this start overshoots the cap on data that do not separate
    *_, warm_iterations, error = _irls(x, y, start, _irls_work(x))
    assert isinstance(error, Separation)
    fit = _logistic(x, y, start)
    assert np.array_equal(fit.coefficients, cold.coefficients)
    assert np.array_equal(fit.covariance, cold.covariance)
    assert fit.iterations == warm_iterations + cold.iterations


def test_logistic_start_past_cap_that_meets_the_stopping_rule_raises_separation(
        well_posed, monkeypatch):
    # recoding a covariate as x / 20 puts its coefficient at about 20, past the
    # cap; the recoded MLE already meets the stopping rule, yet is not returned
    x, y, cold = well_posed
    x = x / np.array([1.0, 20.0, 1.0])
    start = cold.coefficients * np.array([1.0, 20.0, 1.0])
    assert np.abs(start).max() > IRLS_COEF_CAP
    with monkeypatch.context() as uncapped:
        uncapped.setattr(fitters, "IRLS_COEF_CAP", np.inf)
        *_, steps, error = _irls(x, y, start, _irls_work(x))
    assert error is None and steps <= 1
    *_, steps, error = _irls(x, y, start, _irls_work(x))
    assert isinstance(error, Separation) and steps == 0
    with pytest.raises(Separation):
        _logistic(x, y, start)


@pytest.mark.parametrize("n", [20_000, 100_000])
def test_logistic_fit_of_a_covariate_in_tiny_units_is_the_rescaled_fit(n):
    # the stopping rule does not depend on the units of the design; a raw
    # gradient or step test does, and in units of 1e-8 never passed
    gen = RngStream(40, n).generator
    z = gen.normal(0.0, 1.0, n)
    y = (gen.random(n) < expit(-0.5 + z)).astype(float)
    fit = logistic_fit(np.column_stack([np.ones(n), z]), y)
    recoded = logistic_fit(np.column_stack([np.ones(n), 1e8 * z]), y)
    assert np.allclose(recoded.coefficients * [1.0, 1e8], fit.coefficients, rtol=1e-6, atol=0)
    assert abs(recoded.iterations - fit.iterations) <= 1


def _fit_or_error(x, y):
    try:
        return logistic_fit(x, y)
    except (Separation, NonConvergence, RankDeficient) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(60, 400), st.sampled_from([1, 2]),
       st.floats(-0.5, 8.0), st.sampled_from([-1.0, 1.0]), st.floats(-5.0, 5.0))
def test_logistic_fit_is_invariant_to_affine_recoding_of_a_covariate(seed, n, column, log_scale,
                                                                     sign, shift):
    # the column becomes a * (x + shift); the recoded coefficients are
    # beta_j / a and beta_0 - beta_j * shift, and Newton's method maps onto them
    gen = RngStream(seed, n).generator
    x = np.column_stack([np.ones(n), gen.normal(0.0, 1.0, n), gen.normal(1.0, 2.0, n)])
    y = (gen.random(n) < expit(x @ gen.uniform(-1.0, 1.0, 3))).astype(float)
    a = sign * 10.0**log_scale
    recoded_x = x.copy()
    recoded_x[:, column] = a * (x[:, column] + shift)
    fit, recoded = _fit_or_error(x, y), _fit_or_error(recoded_x, y)
    if not isinstance(fit, LogisticFit):
        assert recoded is fit
        return
    mapped = fit.coefficients.copy()
    mapped[column] /= a
    mapped[0] -= fit.coefficients[column] * shift
    assume(np.abs(mapped).max() <= IRLS_COEF_CAP / 2)
    assert isinstance(recoded, LogisticFit)
    back = recoded.coefficients.copy()
    back[column] *= a
    back[0] += back[column] * shift
    assert np.abs(back - fit.coefficients).max() <= 1e-6 * np.abs(fit.coefficients).max()
    assert abs(recoded.iterations - fit.iterations) <= 1


@pytest.mark.parametrize("n", [60, 1000])
@pytest.mark.parametrize("gap", [0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
def test_logistic_perfectly_separated_data_never_fit(n, gap):
    # the classes' covariate values are at most 0 and at least gap: no finite
    # MLE exists, so the fit must fail as separated or not converged
    gen = RngStream(41, n).generator
    y = np.arange(n) % 2
    z = np.where(y == 1, gap + np.abs(gen.normal(0.0, 1.0, n)), -np.abs(gen.normal(0.0, 1.0, n)))
    with pytest.raises((Separation, NonConvergence)):
        logistic_fit(np.column_stack([np.ones(n), z]), y)


# seed 0: the information matrix is exactly singular in floating point;
# seed 5: it is not, and a plain inverse would return entries near 1e15
@pytest.mark.parametrize("seed", [0, 5])
def test_logistic_singular_information_raises_rank_deficient(seed):
    gen = RngStream(seed, 0).generator
    a = gen.normal(0, 1, 60)
    x = np.column_stack([np.ones(60), a, 2.0 * a])
    y = (gen.random(60) < expit(a)).astype(int)
    with pytest.raises(RankDeficient, match="information matrix is singular"):
        logistic_fit(x, y)


# ---------------------------------------------------------------------------
# the LAPACK gufuncs called without numpy.linalg's wrappers


def _symmetric_matrices():
    """Seeded symmetric positive definite matrices, p = 1 to 5, well conditioned
    and nearly singular (eigenvalues down to 1e-8 and 1e-17 of the largest),
    plus singular ones: the zero matrix of each size, a matrix of ones and
    diag(1, 0)."""
    gen = np.random.default_rng(20)
    for p in range(1, 6):
        for spread in (1.0, 1e-8, 1e-17):
            q, _ = np.linalg.qr(gen.standard_normal((p, p)))
            a = (q * np.geomspace(gen.uniform(0.5, 2.0), spread, p)) @ q.T
            yield 0.5 * (a + a.T)
        yield np.zeros((p, p))
    yield np.ones((4, 4))
    yield np.diag([1.0, 0.0])


LINALG_CASES = {
    "solve": (np.linalg.solve, _solve),
    "inv": (np.linalg.inv, _inv),
    "eigvalsh": (np.linalg.eigvalsh, _eigvalsh),
    "eigh": (np.linalg.eigh, _eigh),
}


def _outcome(function, *arrays):
    """The bytes of each array ``function`` returns, or the LinAlgError it raises."""
    try:
        result = function(*arrays)
    except np.linalg.LinAlgError as exc:
        return f"LinAlgError: {exc}"
    return [np.asarray(r).tobytes() for r in (result if isinstance(result, tuple) else [result])]


@pytest.mark.parametrize("outer", ["default", "raise"])
@pytest.mark.parametrize("name", LINALG_CASES)
def test_lapack_helpers_match_numpy_linalg_bit_for_bit(name, outer):
    wrapper, helper = LINALG_CASES[name]
    gen = np.random.default_rng(21)
    outcomes = set()
    settings = {"all": "raise"} if outer == "raise" else {}
    for matrix in _symmetric_matrices():
        arrays = (matrix, gen.standard_normal(len(matrix))) if name == "solve" else (matrix,)
        with np.errstate(**settings):
            before = np.geterr()
            expected = _outcome(wrapper, *arrays)
            assert _outcome(helper, *arrays) == expected
            assert np.geterr() == before
        outcomes.add(isinstance(expected, str))
    # solve and inv raise "Singular matrix" on the singular ones, as the wrappers do
    assert outcomes == ({False, True} if name in ("solve", "inv") else {False})
