"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (bypassing capture) and then asserts, so a
full run shows the status of every criterion. The Monte Carlo grid (ten
scenarios at n = 1000, 200 replications, m = 5, 10 sweeps) is computed once per
session and shared; a second run with n_jobs = 4 (the calling process and three forked
workers) backs the determinism check.
"""

import time

import numpy as np
import pytest

from riimpute import (
    AnalysisFit,
    NonresponseParams,
    RngStream,
    builtin_scenario,
    format_result_table,
    generate_complete_data,
    generate_missingness,
    logistic_fit,
    rubin_pool,
    run_scenario,
)

from selection_oracle import cell_means, sample_selection_population
from test_fitters import coordinate_search_mle

# the session grid fixtures dominate the suite's run time; `pytest -m "not slow"` skips them
pytestmark = pytest.mark.slow

ACCEPTANCE_SEED = 7

MECHANISMS = ("mcar", "mar", "mnar1", "mnar2", "mnar3")
BETA_SETS = ("strong", "moderate")

# reference missing-data percentages per mechanism x association strength
EXPECTED_MISSING_PCT = {
    ("mcar", "strong"): 68, ("mcar", "moderate"): 68,
    ("mar", "strong"): 70, ("mar", "moderate"): 70,
    ("mnar1", "strong"): 41, ("mnar1", "moderate"): 28,
    ("mnar2", "strong"): 73, ("mnar2", "moderate"): 58,
    ("mnar3", "strong"): 57, ("mnar3", "moderate"): 35,
}

# reference mean estimates and coverage percentages at n = 1000:
# {(mechanism, beta set): {method: ([means], [coverages])}}
# The values are the paper's, except the three mnar3/moderate complete-case
# coverages and the mnar2/strong complete-case beta3 coverage, which are the
# long-run coverages printed (rounded) by tests/cc_coverage_oracle.py, an
# independent numpy/scipy recomputation.
LARGE_SAMPLE_REFERENCE = {
    ("mcar", "strong"): {
        "cc": ([1.001, 0.500, 1.003], [95, 97, 95]),
        "mi": ([1.003, 0.501, 1.004], [94, 94, 93]),
        "ri": ([1.004, 0.500, 1.004], [95, 92, 92]),
    },
    ("mar", "strong"): {
        "cc": ([0.998, 0.500, 0.998], [95, 96, 95]),
        "mi": ([0.998, 0.500, 0.998], [93, 95, 94]),
        "ri": ([0.998, 0.500, 0.997], [95, 95, 92]),
    },
    ("mnar1", "strong"): {
        "cc": ([1.230, 0.458, 0.958], [17, 55, 84]),
        "mi": ([1.230, 0.458, 0.958], [26, 63, 86]),
        "ri": ([0.993, 0.504, 1.004], [94, 93, 96]),
    },
    ("mnar2", "strong"): {
        "cc": ([1.370, 0.518, 0.899], [1, 92, 63]),
        "mi": ([1.370, 0.517, 0.899], [5, 92, 72]),
        "ri": ([0.971, 0.506, 0.964], [95, 92, 90]),
    },
    ("mnar3", "strong"): {
        "cc": ([1.617, 0.390, 0.778], [0, 1, 0]),
        "mi": ([1.620, 0.390, 0.777], [0, 4, 4]),
        "ri": ([1.066, 0.481, 0.959], [87, 89, 88]),
    },
    ("mcar", "moderate"): {
        "cc": ([3.000, -0.250, 0.499], [94, 96, 96]),
        "mi": ([3.003, -0.249, 0.504], [94, 94, 93]),
        "ri": ([3.005, -0.250, 0.504], [96, 93, 91]),
    },
    ("mar", "moderate"): {
        "cc": ([2.998, -0.250, 0.498], [95, 96, 95]),
        "mi": ([2.997, -0.250, 0.498], [93, 95, 94]),
        "ri": ([2.989, -0.249, 0.497], [97, 95, 92]),
    },
    ("mnar1", "moderate"): {
        "cc": ([3.137, -0.262, 0.478], [44, 91, 91]),
        "mi": ([3.137, -0.262, 0.477], [47, 90, 88]),
        "ri": ([3.021, -0.251, 0.500], [95, 95, 95]),
    },
    ("mnar2", "moderate"): {
        "cc": ([3.191, -0.167, 0.457], [23, 15, 88]),
        "mi": ([3.192, -0.167, 0.457], [26, 29, 87]),
        "ri": ([3.039, -0.225, 0.489], [95, 90, 94]),
    },
    ("mnar3", "moderate"): {
        "cc": ([3.155, -0.196, 0.392], [22, 14, 14]),
        "mi": ([3.154, -0.196, 0.391], [26, 21, 22]),
        "ri": ([3.049, -0.251, 0.501], [86, 96, 95]),
    },
}

# small-sample spot check at n = 200
SMALL_SAMPLE_RI_MEANS = (1.077, 0.478, 0.952)


def _report(capsys, number, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" - {detail}" if detail else ""
        print(f"\nACCEPTANCE CRITERION {number}: {status}{suffix}")


def _grid(n_jobs):
    results = {}
    for mechanism in MECHANISMS:
        for beta_set in BETA_SETS:
            config = builtin_scenario(
                mechanism, beta_set, n=1000, replications=200, master_seed=ACCEPTANCE_SEED
            )
            results[(mechanism, beta_set)] = run_scenario(config, n_jobs=n_jobs)
    return results


@pytest.fixture(scope="session")
def table2_grid():
    start = time.monotonic()
    results = _grid(n_jobs=1)
    elapsed = time.monotonic() - start
    return results, elapsed


@pytest.fixture(scope="session")
def table2_grid_workers():
    return _grid(n_jobs=4)


def test_criterion_1_missing_rates(capsys):
    failures = []
    for (mechanism, beta_set), expected in EXPECTED_MISSING_PCT.items():
        config = builtin_scenario(mechanism, beta_set, n=100_000, replications=1,
                                  master_seed=ACCEPTANCE_SEED)
        data_rng = RngStream(ACCEPTANCE_SEED, 1001)
        x1, covs = generate_complete_data(config.beta, 100_000, data_rng)
        indicator = generate_missingness(x1, covs[:, :1], config.psi,
                                         RngStream(ACCEPTANCE_SEED, 1002))
        pct = 100.0 * int((indicator == 0).sum()) / 100_000
        if abs(pct - expected) > 2.0:
            failures.append(f"{mechanism}/{beta_set}: {pct:.1f}% vs {expected}%")
    ok = not failures
    _report(capsys, 1, ok, "missing rates within 2 points" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_2_large_sample_reproduction(capsys, table2_grid):
    results, elapsed = table2_grid
    mean_failures, coverage_failures = [], []
    for key, per_method in LARGE_SAMPLE_REFERENCE.items():
        summary = results[key]
        for method, (ref_means, ref_covs) in per_method.items():
            stats = summary.methods[method]
            for j in range(3):
                tol = max(0.03, 4.0 * stats.mc_se[j])
                if abs(stats.mean_estimate[j] - ref_means[j]) > tol:
                    mean_failures.append(
                        f"{key[0]}/{key[1]}/{method}/beta{j+1}: "
                        f"{stats.mean_estimate[j]:.3f} vs {ref_means[j]} (tol {tol:.3f})"
                    )
                cov_pct = 100.0 * stats.coverage_rate[j]
                if abs(cov_pct - ref_covs[j]) > 5.0:
                    coverage_failures.append(
                        f"{key[0]}/{key[1]}/{method}/beta{j+1}: "
                        f"{cov_pct:.1f} vs {ref_covs[j]}"
                    )

    extreme = results[("mnar3", "strong")]
    key_checks = (
        100.0 * extreme.methods["cc"].coverage_rate[0] < 5.0
        and 100.0 * extreme.methods["mi"].coverage_rate[0] < 5.0
        and 100.0 * extreme.methods["ri"].coverage_rate[0] >= 82.0
    )
    runtime_ok = elapsed < 15 * 60

    failures = mean_failures + coverage_failures
    if not key_checks:
        failures.append("extreme-scenario coverage key check")
    if not runtime_ok:
        failures.append(f"runtime {elapsed:.0f}s over budget")
    ok = not failures
    detail = (
        f"10 scenarios x 200 reps in {elapsed:.0f}s; all means within max(0.03, 4 MC SE); "
        "coverage within 5 points"
        if ok
        else f"{len(mean_failures)} mean / {len(coverage_failures)} coverage deviations: "
        + "; ".join(failures[:6])
    )
    _report(capsys, 2, ok, detail)
    assert ok, failures


def test_criterion_3_small_sample_spot_checks(capsys):
    config = builtin_scenario("mnar3", "strong", n=200, replications=200,
                              master_seed=ACCEPTANCE_SEED)
    result = run_scenario(config)
    stats = result.methods["ri"]
    failures = []
    for j, ref in enumerate(SMALL_SAMPLE_RI_MEANS):
        tol = max(0.03, 4.0 * stats.mc_se[j])
        if abs(stats.mean_estimate[j] - ref) > tol:
            failures.append(f"beta{j+1}: {stats.mean_estimate[j]:.3f} vs {ref} (tol {tol:.3f})")
    for j in range(3):
        if 100.0 * stats.coverage_rate[j] < 87.0:
            failures.append(f"beta{j+1} coverage {100*stats.coverage_rate[j]:.1f} < 87")
    ok = not failures
    detail = (
        f"means {np.round(stats.mean_estimate, 3).tolist()}, "
        f"coverages {np.round(100*stats.coverage_rate, 1).tolist()}"
    )
    _report(capsys, 3, ok, detail if ok else detail + "; " + "; ".join(failures))
    assert ok, failures


def test_criterion_4_missing_part_mean_shift(capsys):
    n = 1_000_000
    failures = []
    stream = 2000
    for sigma2 in (1.0, 4.0):
        for psi1 in (-1.0, 0.5, 1.5):
            gen_rng = RngStream(ACCEPTANCE_SEED, stream)
            z = gen_rng.generator.normal(0, 1, n)
            mu_z = 1.0 + 0.5 * z
            # intercept keeps the response rate near one half
            psi0 = -psi1 * 1.0 + 0.5 * psi1**2 * sigma2
            params = NonresponseParams(psi0, psi1, [0.25])
            x = sample_selection_population(params, mu_z, z[:, None], sigma2, gen_rng)
            indicator = generate_missingness(x, z[:, None], params,
                                             RngStream(ACCEPTANCE_SEED, stream + 1))
            mis = indicator == 0
            shift = (x - mu_z)[mis].mean()
            se = (x - mu_z)[mis].std() / np.sqrt(mis.sum())
            if abs(shift + psi1 * sigma2) > 4.0 * se:
                failures.append(
                    f"sigma2={sigma2} psi1={psi1}: shift {shift:.4f} vs {-psi1 * sigma2}"
                )
            stream += 2
    ok = not failures
    _report(capsys, 4, ok,
            "missing-part mean shift equals -slope*variance in all 6 settings"
            if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_5_cross_classified_cells(capsys):
    n = 1_000_000
    failures = []
    for idx, (psi0, psi1) in enumerate(((-0.5, 0.8), (-1.0, 1.5))):
        sigma2 = 1.0
        params = NonresponseParams(psi0, psi1)
        gen_rng = RngStream(ACCEPTANCE_SEED, 3000 + 10 * idx)
        x = sample_selection_population(params, np.full(n, 1.0), None, sigma2,
                                        gen_rng, indicators=2)
        r = generate_missingness(x, None, params, RngStream(ACCEPTANCE_SEED, 3001 + 10 * idx))
        rdot = generate_missingness(x, None, params, RngStream(ACCEPTANCE_SEED, 3002 + 10 * idx))
        cells = cell_means(x, r, rdot)

        def cell_se(rv, dv):
            sel = (r == rv) & (rdot == dv)
            return x[sel].std() / np.sqrt(sel.sum())

        off_diag_se = np.hypot(cell_se(1, 0), cell_se(0, 1))
        if abs(cells[1, 0] - cells[0, 1]) > 4.0 * off_diag_se:
            failures.append(f"psi1={psi1}: off-diagonal means differ")
        delta = psi1 * sigma2
        delta_observed = cells[1, 1] - cells[1, 0]
        delta_missing = cells[0, 1] - cells[0, 0]
        if abs(delta_observed - delta) > 4.0 * np.hypot(cell_se(1, 1), cell_se(1, 0)):
            failures.append(f"psi1={psi1}: observed-part difference {delta_observed:.4f}")
        if abs(delta_missing - delta) > 4.0 * np.hypot(cell_se(0, 1), cell_se(0, 0)):
            failures.append(f"psi1={psi1}: missing-part difference {delta_missing:.4f}")
    ok = not failures
    _report(capsys, 5, ok,
            "off-diagonal equality and both cell differences match slope*variance"
            if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_6_ignorable_mechanism_calibration(capsys, table2_grid):
    results, _ = table2_grid
    failures = []
    for mechanism in ("mcar", "mar"):
        for beta_set in BETA_SETS:
            summary = results[(mechanism, beta_set)]
            truth = np.asarray(summary.config.beta)
            for method in ("cc", "mi", "ri"):
                stats = summary.methods[method]
                rel_bias = np.abs((stats.mean_estimate - truth) / truth)
                for j in range(3):
                    if rel_bias[j] >= 0.02:
                        failures.append(
                            f"{mechanism}/{beta_set}/{method}/beta{j+1} "
                            f"relative bias {100*rel_bias[j]:.2f}%"
                        )
                    cov_pct = 100.0 * stats.coverage_rate[j]
                    if not 91.0 <= cov_pct <= 98.0:
                        failures.append(
                            f"{mechanism}/{beta_set}/{method}/beta{j+1} "
                            f"coverage {cov_pct:.1f} outside [91, 98]"
                        )
    ok = not failures
    _report(capsys, 6, ok,
            "all methods unbiased with near-nominal coverage under ignorable mechanisms"
            if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_7_estimator_unit_oracles(capsys):
    from scipy.special import expit

    failures = []
    gen = RngStream(ACCEPTANCE_SEED, 4000).generator
    x = np.column_stack([np.ones(30), gen.normal(0, 1, 30), gen.normal(0, 1, 30)])
    y = (gen.random(30) < expit(x @ np.array([0.4, -0.8, 1.1]))).astype(int)
    fit = logistic_fit(x, y)
    oracle = coordinate_search_mle(x, y)
    if np.abs(fit.coefficients - oracle).max() >= 1e-3:
        failures.append(
            f"logistic estimate differs from search oracle by "
            f"{np.abs(fit.coefficients - oracle).max():.2e}"
        )

    fits = [
        AnalysisFit(np.array([1.0]), np.array([1.0]), 50),
        AnalysisFit(np.array([3.0]), np.array([1.0]), 50),
    ]
    pooled = rubin_pool(fits, 2)
    checks = (
        (pooled.q_bar[0], 2.0, "pooled point"),
        (pooled.t[0], 4.0, "total variance"),
        (pooled.df[0], (1.0 + 1.0 / 3.0) ** 2, "degrees of freedom"),
    )
    for got, want, label in checks:
        if abs(got - want) > 1e-12:
            failures.append(f"{label}: {got!r} vs {want!r}")
    ok = not failures
    _report(capsys, 7, ok,
            "logistic search oracle within 1e-3; pooling identities exact to 1e-12"
            if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_8_worker_count_determinism(capsys, table2_grid, table2_grid_workers):
    serial, _ = table2_grid
    workers = table2_grid_workers
    order = [(m, b) for m in MECHANISMS for b in BETA_SETS]
    table_serial = format_result_table([serial[key] for key in order])
    table_workers = format_result_table([workers[key] for key in order])
    ok = table_serial.encode() == table_workers.encode()
    _report(capsys, 8, ok,
            "serial and 4-worker-process grids render byte-identical tables"
            if ok else "tables differ between worker-process counts")
    assert ok
