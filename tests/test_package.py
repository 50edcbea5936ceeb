"""Package-level checks: the public names and the narrative demos."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import riimpute

REPO = Path(__file__).resolve().parents[1]

# The public API. A change here is a change to what users may import, so it
# should be deliberate and visible in review.
PUBLIC_NAMES = [
    "AnalysisFit", "BETA_SETTINGS", "DegenerateRdot", "DegenerateSample",
    "DensitySummary", "DimensionMismatch", "IncompleteDataset", "InvalidParameter",
    "LinearFit", "LogisticFit", "MethodSummary", "NONRESPONSE_SETTINGS",
    "NonConvergence", "NonresponseParams", "PooledEstimate", "RankDeficient",
    "RiConfig", "RiImputeError", "RngStream", "ScenarioConfig", "ScenarioResult",
    "Separation", "TooFewRows", "__version__", "builtin_scenario", "complete_case",
    "coverage", "density_summary", "draw_psi_posterior", "estimate_adjustment",
    "fit_analysis", "format_result_table", "generate_complete_data",
    "generate_missingness", "impute_given_rdot", "logistic_fit", "mar_impute",
    "mix_stream_id", "ols_fit", "parse_scenario_file", "response_probability",
    "ri_impute", "rubin_pool", "run_replication", "run_scenario", "sample_bernoulli",
    "sample_mvnormal", "sample_scaled_inv_chi2", "silverman_bandwidth",
    "single_fit_estimate",
]


def test_public_names_are_pinned():
    assert sorted(riimpute.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(riimpute, name) is not None


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about 0.8 s per interpreter, and every CLI command starts one
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, riimpute, riimpute.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# demos/03_simulation_study.py is left out: it runs a Monte Carlo grid (about
# 90 s on a 2-CPU machine), too slow for the default run.
@pytest.mark.parametrize(
    "demo", ["01_nonresponse_mechanism.py", "02_random_indicator_imputation.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
