import json
import logging

import numpy as np
import pytest

from riimpute import NonresponseParams, RngStream, generate_missingness
from riimpute.cli import main, read_csv_columns


def write_csv(path, header, columns):
    lines = [",".join(header)]
    n = len(next(iter(columns.values())))
    for i in range(n):
        cells = []
        for name in header:
            v = columns[name][i]
            cells.append("" if np.isnan(v) else repr(float(v)))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def mnar_csv(path, seed=5, n=1000, psi=(-2.0, 1.5, 0.0)):
    gen_rng = RngStream(seed, 0)
    gen = gen_rng.generator
    x2 = gen.normal(2, 2, n)
    x3 = gen.normal(-1, 1, n)
    x1 = 1.0 + 0.5 * x2 + 1.0 * x3 + gen.standard_normal(n)
    params = NonresponseParams(psi[0], psi[1], [psi[2]])
    r = generate_missingness(x1, x2[:, None], params, RngStream(seed, 1))
    target = x1.copy()
    target[r == 0] = np.nan
    write_csv(path, ["x1", "x2", "x3"], {"x1": target, "x2": x2, "x3": x3})
    return x1, target


def test_impute_roundtrip_and_pooled_json(tmp_path):
    csv_path = tmp_path / "data.csv"
    x1, target = mnar_csv(csv_path, n=400)
    prefix = tmp_path / "out"
    code = main([
        "impute", str(csv_path), "--target", "x1", "--covariates", "x2,x3",
        "--method", "ri", "-m", "3", "--iterations", "4", "--seed", "11",
        "--output-prefix", str(prefix),
    ])
    assert code == 0
    observed = ~np.isnan(target)
    for k in (1, 2, 3):
        header, cols = read_csv_columns(tmp_path / f"out_imp{k}.csv")
        assert header == ["x1", "x2", "x3"]
        assert not np.isnan(cols["x1"]).any()
        # observed values and covariates survive the write/read cycle exactly
        assert np.allclose(cols["x1"][observed], target[observed], atol=1e-12, rtol=0)
        assert np.allclose(cols["x2"], read_csv_columns(csv_path)[1]["x2"], atol=1e-12, rtol=0)

    payload = json.loads((tmp_path / "out_pooled.json").read_text())
    assert payload["method"] == "ri"
    names = [row["coefficient"] for row in payload["analysis"]]
    assert names == ["intercept", "x2", "x3"]
    for row in payload["analysis"]:
        assert set(row) == {"coefficient", "estimate", "se", "ci_low", "ci_high", "df"}
        assert row["ci_low"] < row["estimate"] < row["ci_high"]
    assert payload["run"]["seed"] == 11


def test_impute_no_missing_emits_warning_and_identical_copies(tmp_path, capsys):
    csv_path = tmp_path / "full.csv"
    gen = RngStream(6, 0).generator
    z = gen.normal(0, 1, 50)
    x = 1.0 + z + gen.standard_normal(50)
    write_csv(csv_path, ["y", "z"], {"y": x, "z": z})
    code = main([
        "impute", str(csv_path), "--target", "y", "--covariates", "z",
        "--method", "ri", "-m", "2", "--seed", "3",
        "--output-prefix", str(tmp_path / "full_out"),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "no missing" in err
    _, c1 = read_csv_columns(tmp_path / "full_out_imp1.csv")
    _, c2 = read_csv_columns(tmp_path / "full_out_imp2.csv")
    assert np.array_equal(c1["y"], c2["y"])
    assert np.allclose(c1["y"], x, atol=1e-12, rtol=0)


def test_impute_too_few_rows_exits_2(tmp_path):
    csv_path = tmp_path / "tiny.csv"
    write_csv(csv_path, ["y", "z"], {"y": np.array([1.0, np.nan]), "z": np.array([0.5, 1.5])})
    code = main([
        "impute", str(csv_path), "--target", "y", "--covariates", "z",
        "--method", "ri", "--seed", "1", "--output-prefix", str(tmp_path / "t"),
    ])
    assert code == 2


def test_impute_malformed_csv_exits_2(tmp_path):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("y,z\n1.0,oops\n", encoding="utf-8")
    code = main([
        "impute", str(csv_path), "--target", "y", "--covariates", "z",
        "--method", "mar", "--seed", "1", "--output-prefix", str(tmp_path / "b"),
    ])
    assert code == 2


@pytest.mark.parametrize("method", ["ri", "mar", "cc"])
def test_impute_non_finite_target_exits_2(tmp_path, capsys, method):
    csv_path = tmp_path / "inf.csv"
    x1, _ = mnar_csv(csv_path, n=100)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    lines[5] = "inf" + lines[5][lines[5].index(","):]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main([
        "impute", str(csv_path), "--target", "x1", "--covariates", "x2,x3",
        "--method", method, "--seed", "1", "--output-prefix", str(tmp_path / "o"),
    ])
    assert code == 2
    assert f"{csv_path}:6: non-finite value 'inf'" in capsys.readouterr().err
    assert list(tmp_path.glob("o_*")) == []


@pytest.mark.parametrize("cell", ["-inf", "nan", "Infinity", " NaN "])
def test_impute_non_finite_covariate_exits_2(tmp_path, capsys, cell):
    csv_path = tmp_path / "inf.csv"
    csv_path.write_text(
        "y,z\n" + "".join(f"{i},{0.5 * i}\n" for i in range(8)) + f",{cell}\n",
        encoding="utf-8",
    )
    code = main([
        "impute", str(csv_path), "--target", "y", "--covariates", "z",
        "--method", "cc", "--seed", "1", "--output-prefix", str(tmp_path / "o"),
    ])
    assert code == 2
    assert f"{csv_path}:10: non-finite value {cell.strip()!r}" in capsys.readouterr().err
    assert list(tmp_path.glob("o_*")) == []


def test_csv_error_names_physical_line(tmp_path, capsys):
    csv_path = tmp_path / "ln.csv"
    csv_path.write_text("# a\n# b\n\nx,y\n1,2\n3,abc\n4,5\n", encoding="utf-8")
    code = main([
        "impute", str(csv_path), "--target", "x", "--covariates", "y",
        "--method", "mar", "--seed", "1", "--output-prefix", str(tmp_path / "o"),
    ])
    assert code == 2
    assert f"{csv_path}:6: non-numeric value 'abc'" in capsys.readouterr().err


def test_density_error_in_cli_output_names_physical_line(tmp_path, capsys):
    # every CLI output file starts with comment lines, which count
    csv_path = tmp_path / "data.csv"
    mnar_csv(csv_path, n=200)
    assert main([
        "impute", str(csv_path), "--target", "x1", "--covariates", "x2,x3",
        "--method", "mar", "-m", "2", "--seed", "1", "--output-prefix", str(tmp_path / "o"),
    ]) == 0
    out_csv = tmp_path / "o_imp1.csv"
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[4].startswith("x1,")  # four comment lines, then the header
    lines[9] = lines[9] + ",1"
    out_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["density", str(out_csv), "--column", "x1",
                 "--output", str(tmp_path / "d.csv")]) == 2
    assert f"{out_csv}:10: expected 3 fields, got 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["impute", "{bad}", "--target", "x1", "--covariates", "x2", "--output-prefix", "{out}"],
        ["density", "{bad}", "--column", "x1", "--output", "{out}"],
    ],
    ids=["impute", "density"],
)
def test_non_utf8_csv_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x1,x2\n1.0,2.0\n\xff\xfe,3.0\n")
    out = tmp_path / "out"
    assert main([arg.format(bad=bad, out=out) for arg in argv]) == 2
    assert f"error: {bad}: not valid UTF-8" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


def test_impute_single_imputation_writes_no_pooled_json(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    mnar_csv(csv_path, n=300)
    for method in ("ri", "mar"):
        code = main([
            "impute", str(csv_path), "--target", "x1", "--covariates", "x2,x3",
            "--method", method, "-m", "1", "--iterations", "3", "--seed", "4",
            "--output-prefix", str(tmp_path / method),
        ])
        assert code == 0
        assert (tmp_path / f"{method}_imp1.csv").exists()
        assert not (tmp_path / f"{method}_pooled.json").exists()
        assert "writes no pooled JSON" in capsys.readouterr().err


def test_impute_statistical_failure_exits_3(tmp_path):
    # response indicator perfectly separated by the covariate
    csv_path = tmp_path / "sep.csv"
    gen = RngStream(8, 0).generator
    n = 60
    z = np.r_[gen.normal(-4, 0.3, n // 2), gen.normal(4, 0.3, n // 2)]
    y = 1.0 + 0.1 * z + gen.standard_normal(n)
    y[: n // 2] = np.nan
    write_csv(csv_path, ["y", "z"], {"y": y, "z": z})
    code = main([
        "impute", str(csv_path), "--target", "y", "--covariates", "z",
        "--method", "ri", "--seed", "1", "--output-prefix", str(tmp_path / "s"),
    ])
    assert code == 3


def test_impute_collinear_selection_covariates_exits_3(tmp_path, capsys):
    # b = 2a makes the selection model's information matrix singular
    csv_path = tmp_path / "col.csv"
    gen = RngStream(3, 0).generator
    a = gen.normal(0, 1, 60)
    x = 1.0 + a + gen.standard_normal(60)
    x[::4] = np.nan
    write_csv(csv_path, ["x", "a", "b"], {"x": x, "a": a, "b": 2.0 * a})
    code = main([
        "impute", str(csv_path), "--target", "x", "--covariates", "a,b",
        "--method", "ri", "--seed", "1", "--output-prefix", str(tmp_path / "c"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "statistical failure: RankDeficient" in err
    assert "Traceback" not in err


def test_simulate_all_replications_failed_exits_3(tmp_path, capsys):
    # psi0 = -6 leaves almost no row missing, so every replication fails
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "mechanism = custom\npsi = -6, 0, 0\nn = 50\nreplications = 5\n", encoding="utf-8"
    )
    out = tmp_path / "table.csv"
    assert main(["simulate", "--scenario-file", str(scenario), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert "statistical failure: RiImputeError: 5 of 5 replications failed" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_impute_separated_selection_fit_exits_0_with_warning(tmp_path, caplog):
    # 3 of 20 rows missing: the selection fit separates in most sweeps, which
    # take the zero-shift fallback instead of failing the command
    csv_path = tmp_path / "small.csv"
    gen = RngStream(0, 20).generator
    z = gen.standard_normal(20)
    y = 1.0 + 0.5 * z + gen.standard_normal(20)
    y[[2, 9, 15]] = np.nan
    write_csv(csv_path, ["y", "z"], {"y": y, "z": z})
    with caplog.at_level(logging.WARNING, logger="riimpute.imputation"):
        code = main([
            "impute", str(csv_path), "--target", "y", "--covariates", "z",
            "--method", "ri", "--seed", "0", "--output-prefix", str(tmp_path / "s"),
        ])
    assert code == 0
    assert (tmp_path / "s_pooled.json").exists()
    assert any("separated" in record.message for record in caplog.records)


def test_impute_cc_writes_filtered_rows(tmp_path):
    csv_path = tmp_path / "data.csv"
    x1, target = mnar_csv(csv_path, n=200)
    code = main([
        "impute", str(csv_path), "--target", "x1", "--covariates", "x2,x3",
        "--method", "cc", "--seed", "2", "--output-prefix", str(tmp_path / "cc"),
    ])
    assert code == 0
    _, cols = read_csv_columns(tmp_path / "cc_cc.csv")
    assert len(cols["x1"]) == int((~np.isnan(target)).sum())
    assert not np.isnan(cols["x1"]).any()


def test_impute_byte_identical_reruns(tmp_path):
    csv_path = tmp_path / "data.csv"
    mnar_csv(csv_path, n=300)
    args = [
        "impute", str(csv_path), "--target", "x1", "--covariates", "x2,x3",
        "--method", "ri", "-m", "2", "--iterations", "3", "--seed", "21",
    ]
    assert main(args + ["--output-prefix", str(tmp_path / "a")]) == 0
    assert main(args + ["--output-prefix", str(tmp_path / "b")]) == 0
    for suffix in ("_imp1.csv", "_imp2.csv"):
        a = (tmp_path / f"a{suffix}").read_bytes()
        b = (tmp_path / f"b{suffix}").read_bytes()
        assert a.replace(b"/a", b"/b") == b or a == b  # paths differ only in the header


def test_seed_env_var_override(tmp_path, monkeypatch):
    csv_path = tmp_path / "data.csv"
    mnar_csv(csv_path, n=300)
    monkeypatch.setenv("RIIMPUTE_SEED", "77")
    assert main([
        "impute", str(csv_path), "--target", "x1", "--covariates", "x2,x3",
        "--method", "mar", "-m", "2", "--output-prefix", str(tmp_path / "env"),
    ]) == 0
    payload = json.loads((tmp_path / "env_pooled.json").read_text())
    assert payload["run"]["seed"] == 77


def test_ri_beats_mar_across_seeded_runs(tmp_path):
    # one strongly nonignorable dataset, 50 reruns with fresh seeds:
    # the shift-corrected estimate should be closer to the truth nearly always
    csv_path = tmp_path / "data.csv"
    mnar_csv(csv_path, seed=12, n=1000)
    wins = 0
    runs = 50
    for seed in range(runs):
        for method in ("ri", "mar"):
            assert main([
                "impute", str(csv_path), "--target", "x1", "--covariates", "x2,x3",
                "--nonresponse-covariates", "x2",
                "--method", method, "-m", "5", "--iterations", "10",
                "--seed", str(seed), "--output-prefix", str(tmp_path / f"{method}{seed}"),
            ]) == 0
        ri_b1 = json.loads((tmp_path / f"ri{seed}_pooled.json").read_text())["analysis"][0]["estimate"]
        mar_b1 = json.loads((tmp_path / f"mar{seed}_pooled.json").read_text())["analysis"][0]["estimate"]
        if abs(ri_b1 - 1.0) < abs(mar_b1 - 1.0):
            wins += 1
    assert wins >= int(0.9 * runs)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_builtin_provenance_and_single_replication(tmp_path):
    out = tmp_path / "table.csv"
    code = main([
        "simulate", "--scenario", "mnar3", "--beta", "strong", "-n", "200",
        "--replications", "1", "--seed", "13", "--output", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert "# psi: -2, 1.5, 0" in text
    assert "# beta: 1, 0.5, 1" in text
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    for row in rows[1:]:
        assert row.split(",")[5] in ("0.0000", "1.0000")


def test_simulate_mcar_header_shows_zero_slopes(tmp_path):
    out = tmp_path / "mcar.csv"
    assert main([
        "simulate", "--scenario", "mcar", "-n", "200", "--replications", "2",
        "--seed", "3", "--output", str(out),
    ]) == 0
    assert "# psi: -0.75, 0, 0" in out.read_text()


def test_simulate_unknown_scenario_exits_2(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--scenario", "mnar9", "--output", str(tmp_path / "x.csv")])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_simulate_jobs_below_one_exits_2(tmp_path, jobs):
    out = tmp_path / "table.csv"
    code = main([
        "simulate", "--scenario", "mcar", "-n", "200", "--replications", "1",
        "--seed", "4", "--jobs", jobs, "--output", str(out),
    ])
    assert code == 2
    assert not out.exists()


def test_simulate_scenario_file(tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "mechanism = mcar\nbeta = strong\nn = 200\nreplications = 2\nseed = 4\n",
        encoding="utf-8",
    )
    out = tmp_path / "table.csv"
    assert main(["simulate", "--scenario-file", str(scenario), "--output", str(out)]) == 0
    body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(body) == 1 + 9


@pytest.mark.parametrize(
    "line",
    ["n = abc", "replications = 2.5", "m = five", "iterations = ten", "seed = 1e3",
     "beta = 1, x, 2", "psi = 1, x, 2"],
)
def test_simulate_scenario_file_non_numeric_value_exits_2(tmp_path, capsys, line):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(f"mechanism = mcar\n{line}\n", encoding="utf-8")
    out = tmp_path / "table.csv"
    assert main(["simulate", "--scenario-file", str(scenario), "--output", str(out)]) == 2
    key = line.split("=")[0].strip()
    assert f"error: InvalidParameter: {scenario}: {key} " in capsys.readouterr().err
    assert not out.exists()


def test_simulate_scenario_file_not_utf8_exits_2(tmp_path, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_bytes(b"mechanism = mcar\nn = \xff\n")
    out = tmp_path / "table.csv"
    assert main(["simulate", "--scenario-file", str(scenario), "--output", str(out)]) == 2
    assert f"error: InvalidParameter: {scenario}: not valid UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_byte_identical_across_job_counts(tmp_path):
    args = ["simulate", "--scenario", "mnar1", "--beta", "moderate", "-n", "300",
            "--replications", "6", "--seed", "9"]
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(args + ["--jobs", "1", "--output", str(out1)]) == 0
    assert main(args + ["--jobs", "3", "--output", str(out2)]) == 0
    body1 = [l for l in out1.read_text().splitlines() if not l.startswith("# command")]
    body2 = [l for l in out2.read_text().splitlines() if not l.startswith("# command")]
    assert body1 == body2


@pytest.mark.parametrize(
    "argv",
    [
        ["impute", "{missing}", "--target", "x1", "--output-prefix", "{out}"],
        ["density", "{missing}", "--column", "x1", "--output", "{out}"],
        ["simulate", "--scenario-file", "{missing}", "--output", "{out}"],
    ],
    ids=["impute", "density", "simulate"],
)
def test_missing_input_file_exits_2(tmp_path, capsys, argv):
    missing = tmp_path / "nonexistent.csv"
    out = tmp_path / "out"
    assert main([arg.format(missing=missing, out=out) for arg in argv]) == 2
    assert f"error: cannot read {missing}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# density


def test_density_standard_normal_peak(tmp_path):
    csv_path = tmp_path / "norm.csv"
    values = RngStream(91, 0).generator.standard_normal(50_000)
    write_csv(csv_path, ["v"], {"v": values})
    out = tmp_path / "density.csv"
    assert main(["density", str(csv_path), "--column", "v", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    dens = np.array([float(r[1]) for r in rows])
    assert abs(dens.max() - 0.3989) / 0.3989 < 0.05
    assert len(rows) == 512


def test_density_identical_groups_identical_curves(tmp_path):
    values = RngStream(92, 0).generator.standard_normal(2000)
    p1, p2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    write_csv(p1, ["v"], {"v": values})
    write_csv(p2, ["v"], {"v": values})
    out = tmp_path / "density.csv"
    assert main(["density", str(p1), str(p2), "--column", "v",
                 "--labels", "a,b", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    a = [(r[0], r[1]) for r in rows if r[2] == "a"]
    b = [(r[0], r[1]) for r in rows if r[2] == "b"]
    assert a == b


def test_density_constant_group_exits_3(tmp_path):
    csv_path = tmp_path / "flat.csv"
    write_csv(csv_path, ["v"], {"v": np.ones(30)})
    assert main(["density", str(csv_path), "--column", "v",
                 "--output", str(tmp_path / "d.csv")]) == 3


def test_density_imputed_group_left_shifted_under_selection(tmp_path):
    # positive selection slope: originally missing rows sit lower, so the
    # density of their imputations must center below the observed values
    csv_path = tmp_path / "data.csv"
    mnar_csv(csv_path, seed=14, n=1000)
    assert main([
        "impute", str(csv_path), "--target", "x1", "--covariates", "x2,x3",
        "--method", "ri", "-m", "1", "--seed", "15",
        "--output-prefix", str(tmp_path / "ri"),
    ]) == 0
    # imputed group: completed values of the rows that were originally missing
    out = tmp_path / "density.csv"
    assert main([
        "density", str(tmp_path / "ri_imp1.csv"),
        "--column", "x1", "--labels", "imputed",
        "--only-missing-from", str(csv_path), "--output", str(out),
    ]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    grid = np.array([float(r[0]) for r in rows])
    dens = np.array([float(r[1]) for r in rows])
    imputed_center = np.trapezoid(grid * dens, grid)

    out2 = tmp_path / "density_obs.csv"
    assert main(["density", str(csv_path), "--column", "x1",
                 "--labels", "observed", "--output", str(out2)]) == 0
    rows2 = [line.split(",") for line in out2.read_text().splitlines()
             if line and not line.startswith("#")][1:]
    grid2 = np.array([float(r[0]) for r in rows2])
    dens2 = np.array([float(r[1]) for r in rows2])
    observed_center = np.trapezoid(grid2 * dens2, grid2)
    assert imputed_center < observed_center
