import os
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from riimpute import (
    BETA_SETTINGS,
    NONRESPONSE_SETTINGS,
    DegenerateSample,
    InvalidParameter,
    NonConvergence,
    RiImputeError,
    RngStream,
    Separation,
    TooFewRows,
    builtin_scenario,
    density_summary,
    format_result_table,
    generate_complete_data,
    parse_scenario_file,
    run_replication,
    run_scenario,
    silverman_bandwidth,
)
from riimpute import simulation
from riimpute.simulation import ScenarioConfig, _kde_on_grid


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
    with pytest.raises(InvalidParameter, match="unknown beta set 'weak'"):
        builtin_scenario("mnar3", "weak")


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
    b = run_replication(config, np.int64(2))  # a numpy index keys the same streams
    for method in ("cc", "mi", "ri"):
        assert np.array_equal(a.estimates[method].q_bar, b.estimates[method].q_bar)
    c = run_replication(config, 3)
    assert not np.array_equal(a.estimates["cc"].q_bar, c.estimates["cc"].q_bar)


@pytest.mark.parametrize("index", [1.5, np.float64(1.0), True, "x", -1])
def test_run_replication_refuses_an_index_that_is_no_non_negative_integer(index):
    # 1.5 and True would otherwise rerun replication 1, and "x" key a stream by the string
    config = builtin_scenario("mnar1", "strong", n=300, replications=5, master_seed=11)
    with pytest.raises(InvalidParameter, match="replication_index must be a non-negative integer"):
        run_replication(config, index)


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


def _assert_same_result(a, b):
    """Every field of two ScenarioResults equal bit for bit."""
    assert a.config is b.config
    assert a.failed_replications == b.failed_replications
    assert a.failures_by_type == b.failures_by_type
    assert np.float64(a.mean_missing_fraction).tobytes() == (
        np.float64(b.mean_missing_fraction).tobytes()
    )
    assert a.methods.keys() == b.methods.keys()
    for method, summary in a.methods.items():
        for field in ("mean_estimate", "coverage_rate", "mc_se"):
            assert getattr(summary, field).tobytes() == getattr(b.methods[method], field).tobytes()


@pytest.mark.parametrize("replications", [1, 7])
def test_run_scenario_worker_count_invariance(replications):
    config = builtin_scenario("mnar2", "moderate", n=300, replications=replications,
                              master_seed=23)
    serial = run_scenario(config, n_jobs=1)
    assert (serial.failed_replications, serial.failures_by_type) == (0, {})
    for n_jobs in (2, 3):
        _assert_same_result(serial, run_scenario(config, n_jobs=n_jobs))


def _fail_at(monkeypatch, errors):
    """Make ``run_replication`` raise ``errors[i]`` for each index ``i`` in ``errors``.

    Forked workers inherit the patched module global.
    """
    original = simulation.run_replication

    def patched(config, i):
        if i in errors:
            raise errors[i](f"injected failure at replication {i}")
        return original(config, i)

    monkeypatch.setattr(simulation, "run_replication", patched)


def test_run_scenario_workers_skip_failures_under_five_percent(monkeypatch):
    config = builtin_scenario("mcar", "strong", n=100, replications=20, m=2, iterations=2,
                              master_seed=37)
    _fail_at(monkeypatch, {13: RiImputeError})
    serial = run_scenario(config, n_jobs=1)
    assert serial.failed_replications == 1
    _assert_same_result(serial, run_scenario(config, n_jobs=2))


def test_run_scenario_counts_failures_by_type(monkeypatch):
    config = builtin_scenario("mcar", "strong", n=100, replications=60, m=2, iterations=2,
                              master_seed=37)
    _fail_at(monkeypatch, {41: TooFewRows, 5: TooFewRows, 22: NonConvergence})
    serial = run_scenario(config, n_jobs=1)
    assert serial.failed_replications == 3
    assert list(serial.failures_by_type.items()) == [("NonConvergence", 1), ("TooFewRows", 2)]
    parallel = run_scenario(config, n_jobs=2)
    _assert_same_result(serial, parallel)
    assert format_result_table([parallel]) == format_result_table([serial])


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_run_scenario_workers_raise_over_five_percent(monkeypatch, n_jobs):
    config = builtin_scenario("mcar", "strong", n=100, replications=20, m=2, iterations=2,
                              master_seed=37)
    _fail_at(monkeypatch, {3: TooFewRows, 17: Separation, 9: TooFewRows})
    with pytest.raises(RiImputeError, match=r"^3 of 20 replications failed in scenario 'mcar' "
                                            r"\(Separation: 1, TooFewRows: 2\)$"):
        run_scenario(config, n_jobs=n_jobs)


def test_run_scenario_worker_propagates_non_library_error(monkeypatch):
    config = builtin_scenario("mcar", "strong", n=100, replications=6, m=2, iterations=2,
                              master_seed=37)
    _fail_at(monkeypatch, {4: ZeroDivisionError})
    with pytest.raises(ZeroDivisionError, match="replication 4"):
        run_scenario(config, n_jobs=2)


def test_run_scenario_rejects_n_jobs_below_one():
    config = builtin_scenario("mcar", "strong", n=200, replications=1, master_seed=23)
    for n_jobs in (0, -3, 1.5, True):
        with pytest.raises(InvalidParameter, match="^n_jobs must be"):
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
    with pytest.raises(InvalidParameter, match="beta must have three entries"):
        replace(builtin_scenario("mcar"), beta=(1.0, 0.5))
    with pytest.raises(InvalidParameter, match="n must be >= 1"):
        generate_complete_data((1.0, 0.5, 1.0), 0, RngStream(81, 0))


@pytest.mark.parametrize("field, value", [
    ("n", 100.5), ("replications", 2.5), ("m", 2.5), ("m", True), ("iterations", 1.5),
    ("iterations", "3"),
])
def test_scenario_counts_that_are_no_integers_are_rejected_up_front(field, value):
    config = builtin_scenario("mcar", "strong", n=50, replications=3, master_seed=1)
    with pytest.raises(InvalidParameter, match=re.escape(f"{field} must be an integer, got {value!r}")):
        replace(config, **{field: value})


def test_scenario_counts_may_be_numpy_integers():
    config = builtin_scenario("mcar", "strong", n=50, replications=2, master_seed=3, m=2,
                              iterations=2)
    numpy_config = replace(config, n=np.int64(50), replications=np.int32(2), m=np.int64(2),
                           iterations=np.int16(2), master_seed=np.uint64(3))
    assert (format_result_table([run_scenario(numpy_config, n_jobs=np.int64(1))])
            == format_result_table([run_scenario(config)]))


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_out_of_range_master_seed_is_rejected_up_front(seed):
    # not counted as failed replications one by one
    with pytest.raises(InvalidParameter, match="master_seed"):
        builtin_scenario("mcar", "strong", n=50, replications=40, master_seed=seed)
    config = builtin_scenario("mcar", "strong", n=50, replications=2, master_seed=2**64 - 1)
    with pytest.raises(InvalidParameter, match="master_seed"):
        replace(config, master_seed=seed)


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


def _kde_reference(values, grid, bandwidth):
    """The blockwise kernel sum with a fresh temporary for every step."""
    density = np.zeros_like(grid)
    norm_const = 1.0 / (len(values) * bandwidth * np.sqrt(2.0 * np.pi))
    for start in range(0, len(values), 8192):
        block = values[start : start + 8192]
        z = (grid[:, None] - block[None, :]) / bandwidth
        density += np.exp(-0.5 * z * z).sum(axis=1)
    return density * norm_const


@pytest.mark.parametrize("n", [1000, 8193, 100_000])
def test_kde_matches_reference_bytes(n):
    # 8193 and 100 000 leave a last block shorter than 8192 values
    values = RngStream(87, n).generator.normal(1.0, 3.0, n)
    h = silverman_bandwidth(values)
    grid = np.linspace(values.min() - 4.0 * h, values.max() + 4.0 * h, 512)
    expected = _kde_reference(values, grid, h)
    tracemalloc.start()
    try:
        density = _kde_on_grid(values, grid, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert density.tobytes() == expected.tobytes()
    # one 512 x 8192 float64 buffer is 33.5 MB
    assert peak < 40e6


def _kde_untiled(values, grid, bandwidth):
    """The kernel sum before tiling: one 512 x 8192 buffer, one thread."""
    density = np.zeros_like(grid)
    norm_const = 1.0 / (len(values) * bandwidth * np.sqrt(2.0 * np.pi))
    buffer = np.empty((len(grid), min(len(values), 8192)))
    for start in range(0, len(values), 8192):
        block = values[start : start + 8192]
        kernel = buffer[:, : len(block)]
        np.subtract(grid[:, None], block[None, :], out=kernel)
        kernel /= bandwidth
        kernel *= kernel
        kernel *= -0.5
        np.exp(kernel, out=kernel)
        density += kernel.sum(axis=1)
    return density * norm_const


def _check_tiled_kde(monkeypatch, values, cpus):
    """The tiled curve of ``values`` on ``cpus`` threads, checked against the
    untiled bytes and the memory bound; returns it."""
    monkeypatch.setattr(simulation, "_available_cpus", lambda: cpus)
    h = silverman_bandwidth(values)
    grid = np.linspace(values.min() - 4.0 * h, values.max() + 4.0 * h, 512)
    tracemalloc.start()
    try:
        density = _kde_on_grid(values, grid, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert density.tobytes() == _kde_untiled(values, grid, h).tobytes()
    # per thread a 7 x 8192 float64 buffer and its mask (0.52 MB), and the
    # kernel exp's scratch: a mask's temporary, then at most 64 KB packed
    assert peak < cpus * 0.6e6 + 0.2e6
    return density


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("n", [2, 3, 8191, 8192, 8193, 56_000])
def test_tiled_kde_matches_untiled_bytes_for_any_cpu_count(monkeypatch, n, cpus):
    _check_tiled_kde(monkeypatch, RngStream(88, n).generator.normal(1.0, 3.0, n), cpus)


def test_kde_in_a_worker_process_runs_every_tile_on_the_calling_thread(monkeypatch):
    # run_scenario's workers share the CPUs out already, so a curve drawn in
    # one takes no pool thread, whatever CPUs the process may use
    values = RngStream(88, 20_000).generator.normal(1.0, 3.0, 20_000)
    h = silverman_bandwidth(values)
    grid = np.linspace(values.min() - 4.0 * h, values.max() + 4.0 * h, 512)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    expected = _kde_on_grid(values, grid, h)
    monkeypatch.setattr(simulation.multiprocessing, "parent_process", lambda: object())
    submitted = []

    class CountingPool(simulation.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(args)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(simulation, "ThreadPoolExecutor", CountingPool)
    assert simulation._available_cpus() == 1
    assert _kde_on_grid(values, grid, h).tobytes() == expected.tobytes()
    assert submitted == []


def _gapped(n):
    """Nine tenths of the values around 0, a tenth around 25, the last one among
    them: a gap of about 100 bandwidths."""
    gen = RngStream(89, n).generator
    values = np.r_[gen.normal(0.0, 1.0, n - n // 10), gen.normal(25.0, 1.0, n // 10)]
    gen.shuffle(values)
    values[-1] = 25.0
    return values


def _outliers(n):
    """A normal bulk with three far outliers, two of them in the last block."""
    values = RngStream(90, n).generator.normal(0.0, 1.0, n)
    values[[0, -2, -1]] = [-18.0, 12.0, 20.0]
    return values


def _tied(n):
    """Eight tenths exact zeros, the rest widely spread: the IQR is 0, and a
    grid point about 38 bandwidths from 0 puts every zero lane of a block in
    the band between the fast and the zero bound."""
    values = RngStream(92, n).generator.normal(0.0, 50.0, n)
    values[: n - n // 5] = 0.0
    return values


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("n", [8193, 56_000])
@pytest.mark.parametrize("sample", [_gapped, _outliers, _tied])
def test_tiled_kde_matches_untiled_bytes_past_the_fast_bound(monkeypatch, sample, n, cpus):
    # lanes whose exp is subnormal or 0, also in the short last block, and the
    # same memory bound however many lanes the band holds
    density = _check_tiled_kde(monkeypatch, sample(n), cpus)
    if sample is _gapped:  # grid points in the gap sum to 0 or to a subnormal
        assert (density == 0.0).any() and ((0.0 < density) & (density < 2.0**-1022)).any()


@pytest.mark.parametrize("band_lanes", [4096, 1000])
def test_kernel_exp_writes_the_bits_of_a_plain_exp(monkeypatch, band_lanes):
    # about 3000 lanes lie in the band between the fast and the zero bound and
    # 3000 past it: 4096 exponentiates the band apart and zeroes the rest, and
    # 1000 is fewer than the band, so every lane takes one plain pass
    monkeypatch.setattr(simulation, "_BAND_LANES", band_lanes)
    gen = np.random.default_rng(91)
    bounds = [simulation._FAST_Z2, simulation._ZERO_Z2]
    z2 = np.r_[gen.uniform(0.0, 1400.0, 3000), gen.uniform(1400.0, 1492.0, 3000),
               gen.uniform(1492.0, 4000.0, 3000), 0.0, 1e300, bounds, np.nextafter(bounds, 2000.0)]
    gen.shuffle(z2)
    expected = np.exp(-0.5 * z2)
    simulation._kernel_exp(z2, np.empty(len(z2), dtype=bool))
    assert z2.tobytes() == expected.tobytes()


@pytest.mark.parametrize("values", [[np.nan, np.nan, np.nan], [np.inf, np.inf], [-np.inf, -np.inf],
                                    [np.nan], [1.0, np.nan], [np.nan, 1.0]])
def test_density_checks_finiteness_before_the_distinct_values(values):
    # a sample that is both non-finite and degenerate is refused as non-finite
    with pytest.raises(InvalidParameter, match="^bandwidth needs finite values$"):
        density_summary(values)


def test_density_degenerate_sample():
    with pytest.raises(DegenerateSample):
        density_summary(np.ones(10), "flat")
    with pytest.raises(DegenerateSample):
        density_summary(np.array([1.0]), "single")
    with pytest.raises(DegenerateSample, match="no spread"):
        silverman_bandwidth(np.full(10, 2.5))


@pytest.mark.parametrize("values", [[1.0], [], [[1.0, 2.0], [3.0, 4.0]]],
                         ids=["one-value", "empty", "2-d"])
def test_bandwidth_refuses_a_sample_that_is_not_1d_with_two_values(values):
    with pytest.raises(DegenerateSample, match="1-d sample of at least two values"):
        silverman_bandwidth(values)
    with pytest.raises(DegenerateSample, match="1-d sample of at least two values"):
        density_summary(values)


def test_density_collapsed_bandwidth_raises_before_the_kernel_sum():
    # the IQR term gives h of about 1e-300 against a range of 1e6
    values = np.array([0.0, 0.0, 0.0, 1e-300, 1e6])
    with np.errstate(all="raise"), pytest.raises(DegenerateSample, match="grid step"):
        density_summary(values, "collapsed")


def test_silverman_bandwidth_scale():
    values = RngStream(86, 0).generator.standard_normal(100_000)
    h = silverman_bandwidth(values)
    assert abs(h - 0.9 * 100_000 ** (-0.2)) < 0.01


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bandwidth_rejects_non_finite_values(bad):
    with pytest.raises(InvalidParameter, match="^bandwidth needs finite values$"):
        silverman_bandwidth([1.0, 2.0, 4.0, bad])
    with pytest.raises(InvalidParameter, match="^bandwidth needs finite values$"):
        density_summary([1.0, 2.0, bad])


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


def test_readme_scenario_file_example_parses(tmp_path):
    # the fenced block under "simulate --scenario-file FILE", trailing comments and all
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    after = readme.split("`simulate --scenario-file FILE`", 1)[1]
    block = after.split("```\n", 2)[1]
    path = tmp_path / "scenario.txt"
    path.write_text(block, encoding="utf-8")
    config = parse_scenario_file(path)
    assert config.mechanism_label == "mnar3"
    assert config.beta == BETA_SETTINGS["strong"]
    assert (config.psi.psi0, config.psi.psi1, list(config.psi.psi_z)) == (-2.0, 1.5, [0.0])
    assert (config.n, config.replications, config.m, config.iterations) == (1000, 200, 5, 10)
    assert config.master_seed == 7


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


def test_parse_scenario_file_refuses_a_key_set_twice(tmp_path):
    # keys compare lower-cased, so "N" repeats "n"
    path = tmp_path / "twice.txt"
    path.write_text("mechanism = mcar\nn = 100\nN = 200\n", encoding="utf-8")
    with pytest.raises(InvalidParameter, match=f"^{re.escape(str(path))}:3: key 'n' is set twice$"):
        parse_scenario_file(path)


def test_scenario_config_refuses_more_selection_coefficients_than_covariates():
    from riimpute import NonresponseParams

    with pytest.raises(InvalidParameter, match="psi has 3 covariate coefficients"):
        ScenarioConfig(beta=(1, 0.5, 1), psi=NonresponseParams(0, 0.5, [1, 2, 3]), n=100,
                       replications=3, mechanism_label="x")
    config = ScenarioConfig(beta=(1, 0.5, 1), psi=NonresponseParams(0, 0.5, [1, 2]), n=100,
                            replications=3, mechanism_label="x")
    assert len(config.psi.psi_z) == 2


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
