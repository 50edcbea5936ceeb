"""Impute one nonignorably incomplete variable three ways and compare.

One dataset: the target depends on two covariates, and the chance of observing
it rises steeply with its own value, so 57% of the targets go missing in a
value-dependent way. Complete-case analysis and ignorable multiple imputation
both overestimate the intercept badly; the random-indicator imputer estimates
the selection shift from the data and lands near the truth.

Run:  python demos/02_random_indicator_imputation.py
"""

import numpy as np

from riimpute import (
    IncompleteDataset,
    NonresponseParams,
    RiConfig,
    RngStream,
    complete_case,
    density_summary,
    fit_analysis,
    generate_missingness,
    mar_impute,
    ri_impute,
    rubin_pool,
    single_fit_estimate,
)

TRUE_BETA = (1.0, 0.5, 1.0)

gen = RngStream(77, 0).generator
n = 1000
x2 = gen.normal(2.0, 2.0, n)
x3 = gen.normal(-1.0, 1.0, n)
x1 = TRUE_BETA[0] + TRUE_BETA[1] * x2 + TRUE_BETA[2] * x3 + gen.standard_normal(n)

selection = NonresponseParams(-2.0, 1.5, [0.0])
observed = generate_missingness(x1, x2[:, None], selection, RngStream(77, 1))
target = x1.copy()
target[observed == 0] = np.nan
data = IncompleteDataset(target, np.column_stack([x2, x3]), target_name="x1",
                         covariate_names=("x2", "x3"))
print(f"n = {n}, missing fraction = {data.n_missing / n:.2f}, true beta = {TRUE_BETA}")
print()


def show(label, estimate):
    cells = "  ".join(
        f"{estimate.q_bar[j]:+.3f} [{estimate.ci_low[j]:+.3f}, {estimate.ci_high[j]:+.3f}]"
        for j in range(3)
    )
    print(f"  {label:<18} {cells}")


print("analysis-model estimates (intercept, x2, x3) with 95% intervals")
print("-" * 76)
show("complete case", single_fit_estimate(fit_analysis(*complete_case(data))))

mi = mar_impute(data, 5, RngStream(77, 2))
show("ignorable MI", rubin_pool([fit_analysis(data.covariates, c) for c in mi], 5))

# selection model restricted to x2: the generating mechanism involves x2 only,
# and near-proxies of the target (x3 here) weaken the shift identification
ri = ri_impute(data, RiConfig(seed=77), nonresponse_columns=(0,))
show("random indicator", rubin_pool([fit_analysis(data.covariates, c) for c in ri], 5))
print()

# where did the imputations land? compare centers of the imputed-row values
mis = ~data.observed_mask
truth_center = x1[mis].mean()
mi_center = np.mean([c[mis].mean() for c in mi])
ri_center = np.mean([c[mis].mean() for c in ri])
print("mean of the (actually known) missing target values vs imputations")
print("-" * 76)
print(f"  truth:             {truth_center:+.3f}")
print(f"  ignorable MI:      {mi_center:+.3f}   (biased up: imputes like the observed part)")
print(f"  random indicator:  {ri_center:+.3f}")
print()

imputed = density_summary(ri[0][mis], group_label="imputed")
reference = density_summary(x1[~mis], group_label="observed")
imputed_center = np.trapezoid(imputed.grid * imputed.observed_density, imputed.grid)
observed_center = np.trapezoid(reference.grid * reference.observed_density, reference.grid)
print("density mass centers (first completed dataset)")
print(f"  imputed rows:  {imputed_center:+.3f}")
print(f"  observed rows: {observed_center:+.3f}   (imputed sit below observed, as they should)")
