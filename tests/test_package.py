"""Package-level checks: the public names and the narrative demos."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riimpute
from riimpute.cli import main

REPO = Path(__file__).resolve().parents[1]

# The public API. A change here is a change to what users may import, so it
# should be deliberate and visible in review.
PUBLIC_NAMES = [
    "AnalysisFit", "BETA_SETTINGS", "DegenerateSample", "DensitySummary",
    "DimensionMismatch", "IncompleteDataset", "InvalidParameter", "LinearFit",
    "LogisticFit", "MethodSummary", "NONRESPONSE_SETTINGS", "NonConvergence",
    "NonresponseParams", "PooledEstimate", "RankDeficient", "RiConfig",
    "RiImputeError", "RngStream", "ScenarioConfig", "ScenarioResult", "Separation",
    "TooFewRows", "__version__", "builtin_scenario", "complete_case", "coverage",
    "density_summary", "fit_analysis", "format_result_table", "generate_complete_data",
    "generate_missingness", "logistic_fit", "mar_impute", "mix_stream_id", "ols_fit",
    "parse_scenario_file", "response_probability", "ri_impute", "rubin_pool",
    "run_replication", "run_scenario", "sample_bernoulli", "sample_mvnormal",
    "sample_scaled_inv_chi2", "silverman_bandwidth", "single_fit_estimate",
]


def test_public_names_are_pinned():
    assert sorted(riimpute.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(riimpute, name) is not None


def test_public_namespace_is_all():
    # a name imported into the package but left out of __all__, or the
    # reverse, is a public name nobody decided on
    namespace = {name for name, value in vars(riimpute).items()
                 if not name.startswith("_") and not inspect.ismodule(value)}
    assert namespace == set(riimpute.__all__) - {"__version__"}


def _names(path: Path) -> set[str]:
    """Every name a module defines, imports or reads, attribute names included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_only_fitters_lays_out_designs():
    # fitters alone picks a C-order array for BLAS or an F-order _Columns for
    # einsum: the imputers take their designs from _design and _with_own, the
    # analysis model from _with_intercept, and only the chains' thread rule
    # reads the row threshold
    modules = {path.name: _names(path) for path in (REPO / "src" / "riimpute").glob("*.py")}
    assert {"fitters.py", "imputation.py", "pooling.py"} <= set(modules)
    for name, names in modules.items():
        if name != "fitters.py":
            assert "_Columns" not in names, name
            assert "_with_intercept" not in names or name == "pooling.py", name
            assert "_EINSUM_ROWS" not in names or name == "imputation.py", name


def test_logistic_fit_takes_a_design_and_an_indicator():
    assert list(inspect.signature(riimpute.logistic_fit).parameters) == ["design", "indicator"]


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_python(code: str, cwd=None) -> str:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_stats_out():
    # every CLI command starts an interpreter: scipy.stats costs about 0.8 s of
    # it, and scipy.special, which the package imports on first use, about 0.25 s
    assert run_python(f"import sys, riimpute, riimpute.cli; print({SCIPY_MODULES})") == "[]"


def test_density_loads_no_scipy_and_impute_loads_it_on_first_use(tmp_path, monkeypatch):
    gen = np.random.default_rng(15)
    z = gen.normal(0.0, 1.0, 300)
    y = 1.0 + 0.5 * z + gen.normal(0.0, 1.0, 300)
    rows = zip(y.tolist(), z.tolist())
    lines = ["y,z"] + [f"{'' if i % 4 == 0 else repr(a)},{b!r}" for i, (a, b) in enumerate(rows)]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    impute = ["impute", "data.csv", "--target", "y", "--covariates", "z", "--method", "mar",
              "-m", "2", "--seed", "5", "--output-prefix", "out"]

    def run_main(argv):
        return run_python(f"import sys; from riimpute.cli import main; "
                          f"print(main({argv!r}), {SCIPY_MODULES})", cwd=tmp_path)

    assert "'scipy.special'" in run_main(impute)
    assert run_main(["density", "out_imp1.csv", "--column", "y", "--only-missing-from",
                     "data.csv", "--output", "density.csv"]) == "0 []"
    # the same command in this process, with scipy.special imported up front
    # as the package's modules once did, writes the same bytes
    import scipy.special  # noqa: F401

    subprocess_bytes = (tmp_path / "out_pooled.json").read_bytes()
    (tmp_path / "here").mkdir()
    (tmp_path / "here" / "data.csv").write_bytes((tmp_path / "data.csv").read_bytes())
    monkeypatch.chdir(tmp_path / "here")
    assert main(impute) == 0
    assert (tmp_path / "here" / "out_pooled.json").read_bytes() == subprocess_bytes


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
