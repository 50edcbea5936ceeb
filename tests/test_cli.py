import contextlib
import hashlib
import io
import json
import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riimpute import (
    BETA_SETTINGS,
    NONRESPONSE_SETTINGS,
    NonresponseParams,
    RngStream,
    generate_missingness,
)
from riimpute import cli
from riimpute.cli import build_parser, main, read_csv_columns


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


def test_impute_no_missing_emits_warning_and_identical_copies(tmp_path, capsys, caplog):
    csv_path = tmp_path / "full.csv"
    gen = RngStream(6, 0).generator
    z = gen.normal(0, 1, 50)
    x = 1.0 + z + gen.standard_normal(50)
    write_csv(csv_path, ["y", "z"], {"y": x, "z": z})
    with caplog.at_level(logging.WARNING, logger="riimpute.imputation"):
        code = main([
            "impute", str(csv_path), "--target", "y", "--covariates", "z",
            "--method", "ri", "-m", "2", "--seed", "3",
            "--output-prefix", str(tmp_path / "full_out"),
        ])
    assert code == 0
    # the imputer's warning is the only one; the command prints none of its own
    assert [record.getMessage() for record in caplog.records] == [
        "target has no missing values; returning 2 identical copies"]
    assert "warning" not in capsys.readouterr().err
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


# the reader's own exits; the line of a row is the physical line it ends on
TWO_FAULTS = b"y,z\n1,zz\n" + b"".join(b"%d,%d\n" % (i, i) for i in range(3000)) + b"\xff\n"


@pytest.mark.parametrize("content, message", [
    (b"", "{path}: empty file"),
    (b"# one\n\n# two\n", "{path}: empty file"),
    (b"y,z, y\n1,2,3\n", "{path}: duplicate column names in header"),
    (b"# c\ny,z\n", "{path}: no data rows"),
    (b'# c\ny,z\n1,"2\n\n"\n3,4,5\n', "{path}:6: expected 2 fields, got 3"),
    # the first fault in file order wins over a UTF-8 fault past the first decoded chunk
    (TWO_FAULTS, "{path}:2: non-numeric value 'zz'"),
    # ... and over one in the same block, read after the lines before it
    (b"y,z\n1,zz\n2,3\n\xff\n", "{path}:2: non-numeric value 'zz'"),
], ids=["empty", "comments-only", "duplicate-header", "header-only",
        "fields-after-multi-line-cell", "first-fault-wins", "first-fault-wins-same-block"])
def test_reader_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "in.csv"
    path.write_bytes(content)
    assert main(["impute", str(path), "--target", "y", "--covariates", "z", "--method", "cc",
                 "--seed", "1", "--output-prefix", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("env, argv, message", [
    ("abc", ["impute", "{data}", "--target", "y", "--covariates", "z", "--method", "mar",
             "--output-prefix", "{out}"], "RIIMPUTE_SEED must be an integer, got 'abc'"),
    (None, ["density", "{data}", "--column", "y", "--labels", "a,b", "--output", "{out}.csv"],
     "need exactly one label per input file"),
    (None, ["density", "{data}", "--column", "y", "--only-missing-from", "{short}",
            "--output", "{out}.csv"], "--only-missing-from file must have the same row count"),
    (None, ["impute", "{data}", "--target", "w", "--covariates", "z", "--output-prefix", "{out}"],
     "{data}: missing columns ['w']; available: ['y', 'z']"),
    (None, ["impute", "{holes}", "--target", "y", "--covariates", "z", "--output-prefix", "{out}"],
     "InvalidParameter: covariates must be fully observed; 'z' has 1 missing cell"),
    (None, ["simulate", "--scenario-file", "{no_mechanism}", "--output", "{out}.csv"],
     "InvalidParameter: scenario file must set 'mechanism'"),
    (None, ["simulate", "--scenario-file", "{no_equals}", "--output", "{out}.csv"],
     "InvalidParameter: {no_equals}:2: expected 'key = value', got 'replications 2'"),
    (None, ["simulate", "--scenario-file", "{key_twice}", "--output", "{out}.csv"],
     "InvalidParameter: {key_twice}:3: key 'n' is set twice"),
    # a file with no data rows is refused by the reader, before any warning
    *[(None, ["impute", "{no_rows}", "--target", "y", "--covariates", "z", "--method", method,
              "--output-prefix", "{out}"], "{no_rows}: no data rows") for method in ("ri", "mar")],
    (None, ["density", "{no_rows}", "--column", "y", "--output", "{out}.csv"],
     "{no_rows}: no data rows"),
    (None, ["density", "{data}", "--column", "y", "--only-missing-from", "{no_rows}",
            "--output", "{out}.csv"], "{no_rows}: no data rows"),
    # density converts only --column, and names a missing one after the read
    (None, ["density", "{data}", "--column", "w", "--output", "{out}.csv"],
     "{data}: missing columns ['w']; available: ['y', 'z']"),
    (None, ["density", "{no_rows}", "--column", "w", "--output", "{out}.csv"],
     "{no_rows}: no data rows"),
    # pooling needs two imputations and a chain one sweep: refused before any replication runs
    *[(None, ["simulate", "--scenario", "mcar", "-n", "50", "--replications", "3", *flag,
              "--output", "{out}.csv"], f"InvalidParameter: {message}")
      for flag, message in [(["-m", "1"], "m must be >= 2 to pool the imputations, got 1"),
                            (["-m", "0"], "m must be >= 2 to pool the imputations, got 0"),
                            (["--iterations", "0"], "iterations must be >= 1, got 0")]],
    *[(None, ["simulate", "--scenario-file", "{%s}" % name, "--output", "{out}.csv"],
       f"InvalidParameter: {message}")
      for name, message in [("one_imputation", "m must be >= 2 to pool the imputations, got 1"),
                            ("no_sweeps", "iterations must be >= 1, got 0")]],
    # the file sets the scenario, so its options on the command line are refused
    *[(None, ["simulate", "--scenario-file", "{plain}", *flag, "--output", "{out}.csv"],
       f"{flag[0]} cannot be combined with --scenario-file, which sets the scenario")
      for flag in (["-n", "60"], ["--beta", "moderate"], ["--replications", "3"], ["-m", "3"],
                   ["--iterations", "2"])],
    # impute checks -m and --iterations for every method, before it reads its input
    *[(None, ["impute", "{no_rows}", "--target", "y", "--covariates", "z", "--method", method,
              *flag, "--output-prefix", "{out}"],
       f"InvalidParameter: iterations and num_imputations must be >= 1 and integers, got {got}")
      for method, flag, got in [("cc", ["-m", "-3"], "10 and -3"),
                                ("mar", ["--iterations", "-1"], "-1 and 5"),
                                ("ri", ["-m", "0"], "10 and 0")]],
], ids=["seed-env", "label-count", "only-missing-from-rows", "unknown-target",
        "covariate-holes", "scenario-mechanism", "scenario-equals", "scenario-key-twice",
        "no-rows-ri", "no-rows-mar",
        "no-rows-density", "no-rows-only-missing-from", "unknown-density-column",
        "no-rows-unknown-density-column", "simulate-m-1", "simulate-m-0",
        "simulate-iterations-0", "scenario-file-m-1", "scenario-file-iterations-0",
        "scenario-file-with-n", "scenario-file-with-beta", "scenario-file-with-replications",
        "scenario-file-with-m", "scenario-file-with-iterations",
        "impute-cc-m-3", "impute-mar-iterations-1", "impute-ri-m-0"])
def test_input_exits_2(tmp_path, capsys, caplog, monkeypatch, env, argv, message):
    files = {
        "data": "y,z\n1,0.5\n,1.5\n3,2.5\n4,3.5\n5,4\n",
        "no_rows": "# c\ny,z\n",
        "short": "y,z\n1,0.5\n,1.5\n",
        "holes": "y,z\n1,0.5\n,1.5\n3,\n4,3.5\n5,4\n",
        "no_mechanism": "n = 100\n",
        "no_equals": "mechanism = mcar\nreplications 2\n",
        "key_twice": "mechanism = mcar\nn = 100\nn = 200\n",
        "one_imputation": "mechanism = mcar\nn = 50\nreplications = 3\nm = 1\n",
        "no_sweeps": "mechanism = mcar\nn = 50\nreplications = 3\niterations = 0\n",
        "plain": "mechanism = mcar\nn = 50\nreplications = 1\n",
    }
    names = {"out": tmp_path / "out"}
    for name, text in files.items():
        names[name] = tmp_path / name
        names[name].write_text(text, encoding="utf-8")
    if env is None:
        monkeypatch.delenv("RIIMPUTE_SEED", raising=False)
    else:
        monkeypatch.setenv("RIIMPUTE_SEED", env)
    with caplog.at_level(logging.WARNING):
        assert main([arg.format(**names) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message.format(**names)}\n"
    assert caplog.records == []
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("argv, output", [
    (["impute", "{data}", "--target", "y", "--covariates", "z", "--method", "mar",
      "--output-prefix", "{missing}/o"], "{missing}/o_imp1.csv"),
    (["simulate", "--scenario", "mcar", "-n", "50", "--replications", "1", "-m", "2",
      "--iterations", "1", "--output", "{missing}/t.csv"], "{missing}/t.csv"),
    (["density", "{data}", "--column", "y", "--output", "{missing}/d.csv"], "{missing}/d.csv"),
], ids=["impute", "simulate", "density"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv, output):
    data = tmp_path / "data.csv"
    data.write_text("y,z\n1,0.5\n,1.5\n3,2.5\n4,3.5\n5,4\n", encoding="utf-8")
    names = {"data": data, "missing": tmp_path / "no-such-dir"}
    assert main([arg.format(**names) for arg in argv + ["--seed", "3"]]) == 2
    path = output.format(**names)
    assert capsys.readouterr().err.endswith(
        f"error: cannot write {path}: [Errno 2] No such file or directory: '{path}'\n")


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


def test_impute_non_converging_selection_fit_falls_back(tmp_path, caplog):
    # the response indicator is perfectly separated by the covariate: every
    # sweep's selection fit runs out of iterations and takes the zero-shift
    # fallback, so the command completes
    csv_path = tmp_path / "sep.csv"
    gen = RngStream(8, 0).generator
    n = 60
    z = np.r_[gen.normal(-4, 0.3, n // 2), gen.normal(4, 0.3, n // 2)]
    y = 1.0 + 0.1 * z + gen.standard_normal(n)
    y[: n // 2] = np.nan
    write_csv(csv_path, ["y", "z"], {"y": y, "z": z})
    with caplog.at_level(logging.WARNING, logger="riimpute.imputation"):
        code = main([
            "impute", str(csv_path), "--target", "y", "--covariates", "z",
            "--method", "ri", "--seed", "1", "--output-prefix", str(tmp_path / "s"),
        ])
    assert code == 0
    assert [record.getMessage() for record in caplog.records] == [
        "selection model did not converge; sweep uses zero shift"] * 50
    assert sorted(path.name for path in tmp_path.glob("s_*")) == [
        *(f"s_imp{k}.csv" for k in range(1, 6)), "s_pooled.json"]


def collinear_csv(path):
    gen = RngStream(3, 0).generator
    a = gen.normal(0, 1, 60)
    x = 1.0 + a + gen.standard_normal(60)
    x[::4] = np.nan
    write_csv(path, ["x", "a", "b"], {"x": x, "a": a, "b": 2.0 * a})


@pytest.mark.parametrize("method", ["ri", "mar", "cc"])
def test_impute_collinear_selection_covariates_exits_3(tmp_path, capsys, method):
    # b = 2a makes every fit on [1, a, b] singular; the command fails before
    # it writes any file
    csv_path = tmp_path / "col.csv"
    collinear_csv(csv_path)
    code = main([
        "impute", str(csv_path), "--target", "x", "--covariates", "a,b",
        "--method", method, "--seed", "1", "--output-prefix", str(tmp_path / "c"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "statistical failure: RankDeficient" in err
    assert "Traceback" not in err
    assert list(tmp_path.glob("c_*")) == []


@pytest.mark.parametrize("method", ["ri", "mar", "cc"])
@pytest.mark.parametrize("options", [
    ["--covariates", "a,a"],
    ["--covariates", "a, b,a"],
    ["--covariates", "a", "--nonresponse-covariates", "a,a"],
], ids=["covariates", "covariates-apart", "nonresponse-covariates"])
def test_impute_repeated_covariate_name_exits_2(tmp_path, capsys, method, options):
    csv_path = tmp_path / "col.csv"
    collinear_csv(csv_path)
    code = main([
        "impute", str(csv_path), "--target", "x", *options,
        "--method", method, "--seed", "1", "--output-prefix", str(tmp_path / "c"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {options[-2]} names a more than once" in err
    assert list(tmp_path.glob("c_*")) == []


@pytest.mark.parametrize("method", ["ri", "mar", "cc"])
@pytest.mark.parametrize("complete", [False, True], ids=["missing-target", "complete-target"])
def test_impute_covariates_naming_the_target_exit_2(tmp_path, capsys, method, complete):
    # refused before any fit, whether the target has missing cells or not
    csv_path = tmp_path / "data.csv"
    x1, _ = mnar_csv(csv_path, n=200)
    if complete:
        write_csv(csv_path, ["x1", "x2"], {"x1": x1, "x2": read_csv_columns(csv_path)[1]["x2"]})
    code = main([
        "impute", str(csv_path), "--target", "x1", "--covariates", "x2,x1",
        "--method", method, "--seed", "1", "--output-prefix", str(tmp_path / "c"),
    ])
    assert code == 2
    assert "error: --covariates must not name the target 'x1'" in capsys.readouterr().err
    assert list(tmp_path.glob("c_*")) == []


@pytest.mark.parametrize("method", ["ri", "mar", "cc"])
def test_impute_unknown_nonresponse_covariate_exits_2(tmp_path, capsys, method):
    csv_path = tmp_path / "col.csv"
    collinear_csv(csv_path)
    code = main([
        "impute", str(csv_path), "--target", "x", "--covariates", "a",
        "--nonresponse-covariates", "a,zzz", "--method", method, "--seed", "1",
        "--output-prefix", str(tmp_path / "c"),
    ])
    assert code == 2
    assert ("error: --nonresponse-covariates must be a subset of --covariates; "
            "unknown: ['zzz']") in capsys.readouterr().err
    assert list(tmp_path.glob("c_*")) == []


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


def test_input_digest_is_the_sha256_of_the_inputs(tmp_path, monkeypatch):
    # the inputs are hashed in chunks; 1000 bytes splits each file many times
    monkeypatch.setattr(cli, "_READ_BYTES", 1000)
    csv_path, other = tmp_path / "data.csv", tmp_path / "other.csv"
    mnar_csv(csv_path, n=300)
    mnar_csv(other, seed=6, n=200)

    def digest_line(path):
        return next(line for line in path.read_text().splitlines()
                    if line.startswith("# input-sha256: "))

    assert main(["impute", str(csv_path), "--target", "x1", "--covariates", "x2,x3",
                 "--method", "mar", "-m", "2", "--output-prefix", str(tmp_path / "out")]) == 0
    expected = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    for k in (1, 2):
        assert digest_line(tmp_path / f"out_imp{k}.csv") == f"# input-sha256: {expected}"
    out = tmp_path / "density.csv"
    assert main(["density", str(csv_path), str(other), "--column", "x2",
                 "--labels", "a,b", "--output", str(out)]) == 0
    expected = hashlib.sha256(csv_path.read_bytes() + other.read_bytes()).hexdigest()
    assert digest_line(out) == f"# input-sha256: {expected}"
    # the --only-missing-from file is read too, so its bytes follow the inputs'
    assert main(["density", str(tmp_path / "out_imp1.csv"), "--column", "x1",
                 "--only-missing-from", str(csv_path), "--output", str(out)]) == 0
    expected = hashlib.sha256((tmp_path / "out_imp1.csv").read_bytes()
                              + csv_path.read_bytes()).hexdigest()
    assert digest_line(out) == f"# input-sha256: {expected}"


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


def test_simulate_choices_are_the_settings_tables():
    simulate = build_parser()._subparsers._group_actions[0].choices["simulate"]
    choices = {action.dest: action.choices for action in simulate._actions}
    assert choices["scenario"] == sorted(NONRESPONSE_SETTINGS)
    assert choices["beta"] == tuple(BETA_SETTINGS)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_simulate_jobs_below_one_exits_2(tmp_path, jobs):
    out = tmp_path / "table.csv"
    code = main([
        "simulate", "--scenario", "mcar", "-n", "200", "--replications", "1",
        "--seed", "4", "--jobs", jobs, "--output", str(out),
    ])
    assert code == 2
    assert not out.exists()


def test_simulate_scenario_file(tmp_path, monkeypatch):
    # seed precedence: --seed, then the file's seed (0 included), then
    # RIIMPUTE_SEED, then the default; the header cites the seed the run used,
    # and the table is the builtin scenario's at that seed; --jobs works with a file too
    scenario = tmp_path / "scenario.txt"
    out = tmp_path / "table.csv"

    def run(*argv):
        assert main(["simulate", *argv, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        seeds = [line for line in lines if line.startswith("# seed:")]
        return seeds, [line for line in lines if not line.startswith("#")]

    cases = [(4, [], None, 4), (7, [], None, 7), (0, [], None, 0),
             (7, ["--seed", "3", "--jobs", "2"], None, 3),
             (7, [], "12", 7), (None, [], "12", 12), (None, [], None, 54321)]
    for file_seed, options, env, used in cases:
        if env is None:
            monkeypatch.delenv("RIIMPUTE_SEED", raising=False)
        else:
            monkeypatch.setenv("RIIMPUTE_SEED", env)
        seed_line = "" if file_seed is None else f"seed = {file_seed}\n"
        scenario.write_text(
            "mechanism = mcar\nbeta = strong\nn = 200\nreplications = 2\n" + seed_line,
            encoding="utf-8",
        )
        seeds, body = run("--scenario-file", str(scenario), *options)
        assert seeds == [f"# seed: {used}"]
        assert len(body) == 1 + 9
        builtin = run("--scenario", "mcar", "-n", "200", "--replications", "2", "--seed", str(used))
        assert body == builtin[1]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_exits_2(tmp_path, capsys, monkeypatch, seed):
    # checked once where the seed is resolved, for every command and method,
    # before any replication or imputation could swallow it
    monkeypatch.delenv("RIIMPUTE_SEED", raising=False)
    csv_path = tmp_path / "data.csv"
    mnar_csv(csv_path, n=200)
    impute = ["impute", str(csv_path), "--target", "x1", "--covariates", "x2,x3",
              "-m", "2", "--iterations", "2", "--output-prefix", str(tmp_path / "o")]
    commands = [impute + ["--method", method, "--seed", seed] for method in ("ri", "mar", "cc")]
    commands.append(["simulate", "--scenario", "mcar", "-n", "50", "--replications", "2",
                     "--seed", seed, "--output", str(tmp_path / "t.csv")])
    for argv in commands:
        assert main(argv) == 2
        assert (f"error: --seed must be an integer in [0, 2**64), got {seed}"
                in capsys.readouterr().err)
    monkeypatch.setenv("RIIMPUTE_SEED", seed)
    assert main(impute + ["--method", "cc"]) == 2
    assert (f"error: RIIMPUTE_SEED must be an integer in [0, 2**64), got {seed}"
            in capsys.readouterr().err)
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(f"mechanism = mcar\nn = 50\nreplications = 2\nseed = {seed}\n",
                        encoding="utf-8")
    monkeypatch.delenv("RIIMPUTE_SEED")
    assert main(["simulate", "--scenario-file", str(scenario),
                 "--output", str(tmp_path / "t.csv")]) == 2
    assert "error: InvalidParameter: master_seed must be" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv", "scenario.txt"]


def test_largest_seed_is_accepted(tmp_path):
    csv_path = tmp_path / "data.csv"
    mnar_csv(csv_path, n=200)
    assert main(["impute", str(csv_path), "--target", "x1", "--covariates", "x2,x3",
                 "--method", "mar", "-m", "2", "--seed", str(2**64 - 1),
                 "--output-prefix", str(tmp_path / "o")]) == 0


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


def test_density_labels_are_a_name_list(tmp_path, capsys):
    """--labels is stripped and its empty labels dropped, like the column
    lists, and a label named twice exits 2, since its two curves could not be
    told apart in the output."""
    values = RngStream(93, 0).generator.standard_normal(500)
    p1, p2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
    write_csv(p1, ["v"], {"v": values})
    write_csv(p2, ["v"], {"v": values + 1.0})
    out = tmp_path / "density.csv"
    assert main(["density", str(p1), str(p2), "--column", "v",
                 "--labels", " ri , mar ", "--output", str(out)]) == 0
    groups = [line.split(",")[2] for line in out.read_text().splitlines()
              if line and not line.startswith("#")][1:]
    assert groups == ["ri"] * 512 + ["mar"] * 512
    out.unlink()
    capsys.readouterr()
    assert main(["density", str(p1), str(p2), "--column", "v",
                 "--labels", "ri, ri", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: --labels names ri more than once\n"
    # an empty label is dropped: two labels for two files, one for three
    assert main(["density", str(p1), str(p2), "--column", "v",
                 "--labels", "ri,,mar,", "--output", str(out)]) == 0
    out.unlink()
    assert main(["density", str(p1), str(p2), str(p1), "--column", "v",
                 "--labels", "ri,,mar", "--output", str(out)]) == 2
    assert capsys.readouterr().err.endswith("error: need exactly one label per input file\n")
    assert not out.exists()


def test_density_repeated_default_labels_exit_2_before_any_read(tmp_path, capsys):
    """Each file's default label is its stem; two files with one stem would
    share one group, so they exit 2 unless --labels names them. The labels
    are checked before any file is read."""
    paths = [tmp_path / "a" / "out.csv", tmp_path / "b" / "out.csv"]
    for path in paths:
        path.parent.mkdir()
        write_csv(path, ["v"], {"v": RngStream(94, 0).generator.standard_normal(200)})
    out = tmp_path / "density.csv"
    message = "error: input files share the default label out; name each one with --labels\n"
    assert main(["density", *map(str, paths), "--column", "v", "--output", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert main(["density", str(paths[0]), str(tmp_path / "absent" / "out.csv"),
                 "--column", "v", "--output", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert main(["density", str(paths[0]), "--column", "v", "--labels", "a,b",
                 "--only-missing-from", str(tmp_path / "absent.csv"), "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: need exactly one label per input file\n"
    assert not out.exists()
    assert main(["density", *map(str, paths), "--column", "v", "--labels", "a,b",
                 "--output", str(out)]) == 0


def _respell(path, line, field, text):
    """Set field ``field`` of physical line ``line`` (from 1) of ``path`` to
    ``text``, or drop it for None."""
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[line - 1].split(",")
    if text is None:
        del cells[field]
    else:
        cells[field] = text
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def density_files(tmp_path):
    """An input file (header on line 1), its imputed file (header on line 5,
    after four comment lines), and the density command over them."""
    data = tmp_path / "data.csv"
    mnar_csv(data, n=200)
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["impute", str(data), "--target", "x1", "--covariates", "x2,x3",
                     "--method", "mar", "-m", "1", "--seed", "1",
                     "--output-prefix", str(tmp_path / "o")]) == 0
    files = {"imputed": (tmp_path / "o_imp1.csv", 5), "only-missing-from": (data, 1)}
    argv = ["density", str(files["imputed"][0]), "--column", "x1", "--labels", "imputed",
            "--only-missing-from", str(data), "--output", str(tmp_path / "d.csv")]
    return files, argv, tmp_path / "d.csv"


def _curve_lines(path):
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]


@pytest.mark.parametrize("which", ["imputed", "only-missing-from"])
@pytest.mark.parametrize("text", ["abc", "inf"])
def test_density_does_not_convert_unused_columns(density_files, which, text):
    """density converts only --column: a cell of another column that is no
    finite number leaves the curve's bytes as they were."""
    files, argv, out = density_files
    assert main(argv) == 0
    clean = _curve_lines(out)
    path, header_line = files[which]
    _respell(path, header_line + 3, 2, text)
    assert main(argv) == 0
    assert _curve_lines(out) == clean


@pytest.mark.parametrize("which", ["imputed", "only-missing-from"])
@pytest.mark.parametrize("field, text, message", [
    (0, "abc", "non-numeric value 'abc'"),
    (0, "inf", "non-finite value 'inf'"),
    (2, None, "expected 3 fields, got 2"),
    (1, "1,2", "expected 3 fields, got 4"),
])
def test_density_still_checks_its_column_and_every_field_count(density_files, capsys, which,
                                                               field, text, message):
    files, argv, out = density_files
    path, header_line = files[which]
    _respell(path, header_line + 3, field, text)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}:{header_line + 3}: {message}\n"
    assert not out.exists()


def test_density_constant_group_exits_3(tmp_path):
    csv_path = tmp_path / "flat.csv"
    write_csv(csv_path, ["v"], {"v": np.ones(30)})
    assert main(["density", str(csv_path), "--column", "v",
                 "--output", str(tmp_path / "d.csv")]) == 3


def test_density_collapsed_bandwidth_exits_3_without_warning(tmp_path, capsys):
    csv_path = tmp_path / "outlier.csv"
    csv_path.write_text("v\n0\n0\n0\n1e-300\n1e6\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["density", str(csv_path), "--column", "v",
                     "--output", str(tmp_path / "d.csv")]) == 3
    assert "DegenerateSample" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


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


# ---------------------------------------------------------------------------
# any small finite input


@st.composite
def small_csvs(draw):
    """``(covariate names, CSV text)``: 0-12 rows of a target ``y`` and 0-2
    covariates, finite cells with |v| <= 1e6, some target cells missing."""
    k = draw(st.integers(0, 2))
    n = draw(st.integers(0, 12))
    value = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    # a lone empty cell would be a blank line, which the reader skips
    missing = st.sampled_from(["", "NA"] if k else ["NA"])
    names = [f"z{j + 1}" for j in range(k)]
    rows = draw(st.lists(st.tuples(st.one_of(value, missing), st.lists(value, min_size=k,
                                                                        max_size=k)),
                         min_size=n, max_size=n))
    lines = [",".join(["y", *names])] + [",".join([y, *zs]) for y, zs in rows]
    return names, "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(small_csvs())
def test_small_inputs_exit_0_2_or_3(tmp_path_factory, csv):
    names, text = csv
    tmp = tmp_path_factory.mktemp("small")
    path = tmp / "in.csv"
    path.write_text(text, encoding="utf-8")
    commands = [["impute", str(path), "--target", "y", "--covariates", ",".join(names),
                 "--method", method, "-m", "2", "--iterations", "2", "--seed", "1",
                 "--output-prefix", str(tmp / method)] for method in ("ri", "mar", "cc")]
    commands.append(["density", str(path), "--column", "y", "--output", str(tmp / "d.csv")])
    for argv in commands:
        before = sorted(tmp.iterdir())
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3)
        if code != 0:
            assert sorted(tmp.iterdir()) == before
