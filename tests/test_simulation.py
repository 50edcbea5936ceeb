import numpy as np
import pytest

from riimpute import (
    BETA_SETTINGS,
    NONRESPONSE_SETTINGS,
    DegenerateSample,
    InvalidParameter,
    RngStream,
    builtin_scenario,
    density_summary,
    format_result_table,
    generate_complete_data,
    parse_scenario_file,
    run_replication,
    run_scenario,
    silverman_bandwidth,
)
from riimpute.simulation import ScenarioConfig


def test_builtin_settings_tables():
    assert BETA_SETTINGS["strong"] == (1.0, 0.5, 1.0)
    assert BETA_SETTINGS["moderate"] == (3.0, -0.25, 0.5)
    assert NONRESPONSE_SETTINGS["mcar"] == (-0.75, 0.00, 0.00)
    assert NONRESPONSE_SETTINGS["mnar3"] == (-2.00, 1.50, 0.00)
    config = builtin_scenario("mnar3", "strong")
    assert config.psi.psi0 == -2.0 and config.psi.psi1 == 1.5
    assert config.psi.psi_z.tolist() == [0.0]
    with pytest.raises(InvalidParameter):
        builtin_scenario("mnar9")


def test_generate_complete_data_moments():
    x1, covs = generate_complete_data((1.0, 0.5, 1.0), 100_000, RngStream(81, 0))
    assert covs.shape == (100_000, 2)
    # population mean of the target is 1 + 0.5*2 + 1*(-1) = 1
    assert abs(x1.mean() - 1.0) < 4.0 / np.sqrt(100_000) * np.sqrt(3.0)
    assert abs(covs[:, 0].mean() - 2.0) < 0.03
    assert abs(covs[:, 0].std() - 2.0) < 0.03
    assert abs(covs[:, 1].mean() + 1.0) < 0.02


def test_generate_complete_data_explained_variance():
    # strong set: explained share 2/3; moderate set: 1/3
    x1, covs = generate_complete_data((1.0, 0.5, 1.0), 100_000, RngStream(82, 0))
    design = np.column_stack([np.ones(len(x1)), covs])
    beta = np.linalg.lstsq(design, x1, rcond=None)[0]
    r2 = 1.0 - (x1 - design @ beta).var() / x1.var()
    assert abs(r2 - 2.0 / 3.0) < 0.01

    x1m, covm = generate_complete_data((3.0, -0.25, 0.5), 100_000, RngStream(82, 1))
    designm = np.column_stack([np.ones(len(x1m)), covm])
    betam = np.linalg.lstsq(designm, x1m, rcond=None)[0]
    r2m = 1.0 - (x1m - designm @ betam).var() / x1m.var()
    assert abs(r2m - 1.0 / 3.0) < 0.01


def test_run_replication_is_deterministic():
    config = builtin_scenario("mnar1", "strong", n=300, replications=5, master_seed=11)
    a = run_replication(config, 2)
    b = run_replication(config, 2)
    for method in ("cc", "mi", "ri"):
        assert np.array_equal(a.estimates[method].q_bar, b.estimates[method].q_bar)
    c = run_replication(config, 3)
    assert not np.array_equal(a.estimates["cc"].q_bar, c.estimates["cc"].q_bar)


def test_methods_agree_under_constant_response_probability():
    config = builtin_scenario("mcar", "strong", n=500, replications=25, master_seed=13)
    result = run_scenario(config)
    se = {m: result.methods[m].mc_se for m in ("cc", "mi", "ri")}
    for a, b in (("cc", "mi"), ("cc", "ri"), ("mi", "ri")):
        gap = result.methods[a].mean_estimate - result.methods[b].mean_estimate
        bound = 3.0 * np.hypot(se[a], se[b])
        assert np.all(np.abs(gap) < np.maximum(bound, 0.02))


def test_single_replication_extreme_bias_in_complete_case():
    config = builtin_scenario("mnar3", "strong", n=1000, replications=1, master_seed=17)
    rep = run_replication(config, 0)
    assert rep.estimates["cc"].q_bar[0] > 1.4


def test_single_replication_coverage_is_binary():
    config = builtin_scenario("mcar", "strong", n=200, replications=1, master_seed=19)
    result = run_scenario(config)
    for method in ("cc", "mi", "ri"):
        assert set(result.methods[method].coverage_rate.tolist()) <= {0.0, 1.0}


def test_run_scenario_thread_count_invariance():
    config = builtin_scenario("mnar2", "moderate", n=300, replications=12, master_seed=23)
    serial = run_scenario(config, n_jobs=1)
    threaded = run_scenario(config, n_jobs=4)
    assert format_result_table([serial]) == format_result_table([threaded])


def test_run_scenario_rejects_n_jobs_below_one():
    config = builtin_scenario("mcar", "strong", n=200, replications=1, master_seed=23)
    for n_jobs in (0, -3):
        with pytest.raises(InvalidParameter):
            run_scenario(config, n_jobs=n_jobs)


def test_monte_carlo_se_shrinks_with_replications():
    small = run_scenario(builtin_scenario("mar", "strong", n=200, replications=80, master_seed=29))
    large = run_scenario(builtin_scenario("mar", "strong", n=200, replications=160, master_seed=29))
    ratio = large.methods["cc"].mc_se / small.methods["cc"].mc_se
    assert np.all(np.abs(ratio - 1.0 / np.sqrt(2.0)) < 0.2 * 1.0 / np.sqrt(2.0))


def test_scenario_validation():
    with pytest.raises(InvalidParameter):
        builtin_scenario("mcar", n=10)
    with pytest.raises(InvalidParameter):
        builtin_scenario("mcar", replications=0)


def test_result_table_layout():
    config = builtin_scenario("mcar", "strong", n=200, replications=2, master_seed=31)
    table = format_result_table([run_scenario(config)], header_lines=("hello",))
    lines = table.strip().splitlines()
    assert lines[0] == "# hello"
    assert lines[1] == "mechanism,method,coefficient,true,mean_estimate,coverage,mc_se,missing_rate"
    assert len(lines) == 2 + 9
    first = lines[2].split(",")
    assert first[0] == "mcar" and first[1] == "cc" and first[2] == "beta1"
    assert float(first[3]) == 1.0


# ---------------------------------------------------------------------------
# density summaries


def test_density_peak_matches_standard_normal():
    values = RngStream(83, 0).generator.standard_normal(100_000)
    summary = density_summary(values, "norm")
    peak = summary.observed_density.max()
    assert abs(peak - 0.3989) / 0.3989 < 0.05
    assert len(summary.grid) == 512


def test_density_integrates_to_one():
    values = RngStream(84, 0).generator.exponential(2.0, 5000)
    summary = density_summary(values, "exp")
    integral = np.trapezoid(summary.observed_density, summary.grid)
    assert abs(integral - 1.0) < 1e-3
    assert np.all(summary.observed_density >= 0)


def test_density_degenerate_sample():
    with pytest.raises(DegenerateSample):
        density_summary(np.ones(10), "flat")
    with pytest.raises(DegenerateSample):
        density_summary(np.array([1.0]), "single")


def test_silverman_bandwidth_scale():
    values = RngStream(86, 0).generator.standard_normal(100_000)
    h = silverman_bandwidth(values)
    assert abs(h - 0.9 * 100_000 ** (-0.2)) < 0.01


# ---------------------------------------------------------------------------
# scenario files


def test_parse_scenario_file_roundtrip(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(
        """
        # comment line
        mechanism = mnar3
        beta = strong
        n = 400
        replications = 7
        m = 4
        iterations = 6
        seed = 99
        """,
        encoding="utf-8",
    )
    config = parse_scenario_file(path)
    assert config.mechanism_label == "mnar3"
    assert config.beta == (1.0, 0.5, 1.0)
    assert config.psi.psi1 == 1.5
    assert (config.n, config.replications, config.m, config.iterations) == (400, 7, 4, 6)
    assert config.master_seed == 99


def test_parse_scenario_file_custom_psi(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(
        "mechanism = custom\npsi = -1.0, 0.6, 0.1\nbeta = 2.0 0.3 -0.4\nn = 250\n",
        encoding="utf-8",
    )
    config = parse_scenario_file(path)
    assert config.mechanism_label == "custom"
    assert config.psi.psi0 == -1.0 and config.psi.psi1 == 0.6
    assert config.beta == (2.0, 0.3, -0.4)


def test_parse_scenario_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("mechanism = custom\n", encoding="utf-8")
    with pytest.raises(InvalidParameter):
        parse_scenario_file(bad)
    worse = tmp_path / "worse.txt"
    worse.write_text("mechanism = mcar\nbogus = 1\n", encoding="utf-8")
    with pytest.raises(InvalidParameter):
        parse_scenario_file(worse)


def test_scenario_config_accepts_plain_construction():
    from riimpute import NonresponseParams

    config = ScenarioConfig(
        beta=(1.0, 0.5, 1.0),
        psi=NonresponseParams(-0.75, 0.0, [0.0]),
        n=100,
        replications=2,
        mechanism_label="mcar",
    )
    assert config.m == 5 and config.iterations == 10
