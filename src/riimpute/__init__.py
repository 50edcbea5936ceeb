"""Multiple imputation of a single incomplete variable under nonignorable
missingness.

The random-indicator imputer estimates the location shift between observed
and missing parts of the variable directly from the data, by drawing a pseudo
response indicator from a fitted logistic selection model and regressing the
observed values on it. Comparators (complete-case analysis, imputation under
an ignorable mechanism), pooling rules for multiply imputed estimates, and a
Monte Carlo harness for bias and coverage studies are included.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateRdot,
    DegenerateSample,
    DimensionMismatch,
    InvalidParameter,
    NonConvergence,
    RankDeficient,
    RiImputeError,
    Separation,
    TooFewRows,
)
from .fitters import LinearFit, LogisticFit, logistic_fit, ols_fit
from .imputation import (
    CellMeans,
    IncompleteDataset,
    RiConfig,
    cell_means,
    complete_case,
    draw_psi_posterior,
    estimate_adjustment,
    impute_given_rdot,
    mar_impute,
    ri_impute,
)
from .mechanism import (
    NonresponseParams,
    delta_from_psi,
    generate_missingness,
    response_probability,
    sample_selection_population,
)
from .pooling import (
    AnalysisFit,
    PooledEstimate,
    coverage,
    fit_analysis,
    rubin_pool,
    single_fit_estimate,
)
from .rng import (
    RngStream,
    mix_stream_id,
    sample_bernoulli,
    sample_mvnormal,
    sample_normal,
    sample_scaled_inv_chi2,
)
from .simulation import (
    BETA_SETTINGS,
    NONRESPONSE_SETTINGS,
    DensitySummary,
    MethodSummary,
    ScenarioConfig,
    ScenarioResult,
    builtin_scenario,
    density_summary,
    format_result_table,
    generate_complete_data,
    parse_scenario_file,
    run_replication,
    run_scenario,
    silverman_bandwidth,
)

__all__ = [
    "__version__",
    "AnalysisFit",
    "BETA_SETTINGS",
    "CellMeans",
    "DegenerateRdot",
    "DegenerateSample",
    "DensitySummary",
    "DimensionMismatch",
    "IncompleteDataset",
    "InvalidParameter",
    "LinearFit",
    "LogisticFit",
    "MethodSummary",
    "NONRESPONSE_SETTINGS",
    "NonConvergence",
    "NonresponseParams",
    "PooledEstimate",
    "RankDeficient",
    "RiConfig",
    "RiImputeError",
    "RngStream",
    "ScenarioConfig",
    "ScenarioResult",
    "Separation",
    "TooFewRows",
    "builtin_scenario",
    "cell_means",
    "complete_case",
    "coverage",
    "delta_from_psi",
    "density_summary",
    "draw_psi_posterior",
    "estimate_adjustment",
    "fit_analysis",
    "format_result_table",
    "generate_complete_data",
    "generate_missingness",
    "impute_given_rdot",
    "logistic_fit",
    "mar_impute",
    "mix_stream_id",
    "ols_fit",
    "parse_scenario_file",
    "response_probability",
    "ri_impute",
    "rubin_pool",
    "run_replication",
    "run_scenario",
    "sample_bernoulli",
    "sample_mvnormal",
    "sample_normal",
    "sample_scaled_inv_chi2",
    "sample_selection_population",
    "silverman_bandwidth",
    "single_fit_estimate",
]
