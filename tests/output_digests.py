"""Print sha256 digests of riimpute's outputs on fixed inputs.

Not a test module (no ``test_`` prefix, so pytest does not collect it). Run it
on two checkouts and compare the printed lines to show that a change leaves
the draws and the output files bit for bit as they were:

    PYTHONPATH=src python tests/output_digests.py

The lines of the current tree are recorded in ``output_digests.txt``, which
``test_output_digests.py`` (marked ``slow``) compares with this script's
output byte for byte; a change that moves a line updates that file.

It covers ``ri_impute`` (n = 9 to 20 000, printing how many sweeps took the
zero-shift fallback because the pseudo indicator was degenerate or the
selection-model fit separated; the n = 20 near-separated dataset takes it
twice; one more n = 200 line selects on the target alone,
``nonresponse_columns=()``, while the imputation model keeps both
covariates), ``mar_impute`` (also on one dataset with its covariates in units
of 1e-6 and 1e5, and with a collinear pair, which prints ``raised
RankDeficient``), ``run_scenario`` + ``format_result_table`` for all ten
builtin scenarios (serially and in two worker processes, which must print the
same digest), and the files written by the CLI commands ``impute`` (ri, mar
and cc at m = 5), ``simulate`` and ``density``, plus the table of a ``simulate
--scenario-file`` run whose file sets ``seed = 7`` and whose command line sets
no seed (its header must cite seed 7), and two more ``impute`` layouts: the
same input with its target second in the header (``x2,x1,x3,x4``), and an
intercept-only run on a one-column file. The CLI input carries an incomplete
column ``x4`` that is no covariate, so ``impute`` copies its empty cells and edge values
(-0.0, a subnormal, the largest float) through the CSV writer. It uses only
names that are public in every version of the package and draws its data with
numpy directly. Takes about 8 s on a two-core machine.

After the ``all`` line, which they do not enter (so that line compares with
checkouts that lack them), comes one line for the large-n sweep kernels:
``ri_impute`` (``nonresponse_columns=(0,)``, m = 5, 10 sweeps) and
``mar_impute`` on 100 000 rows of the mnar3/strong design, then one line
for the CSV writer: the digest of the files ``impute --method mar -m 5`` and
``impute --method ri -m 2`` write for those rows, with a pass-through column
that holds every case of the writer (values across its fixed range, values
either side of it, -0.0, 0.0, a subnormal, empty cells). Then come the
``ri_impute`` and ``mar_impute`` lines of the library cases at 9 999 and
10 000 rows, either side of the row count from which ``ri_impute`` runs its
chains on a thread pool. Then come two lines for the CSV reader: the digest of
the columns ``read_csv_columns`` returns for a file with comment and blank
lines, ``NA`` and empty cells, padded and quoted cells and edge values, and
the digest of its messages, path removed, for three faulty files. Then come
the lines of the failure rules: ``ri_impute`` on the test suite's perfectly
separated 60-row data (drawn from ``RngStream(8, 0)``), where no selection fit
converges and every sweep takes the zero-shift fallback, and the exit code and
stderr of ``impute`` (ri, mar and cc) and ``density`` (as input and as
``--only-missing-from``) on a file with a header and no data rows. Last, after
the ``density_summary`` lines, comes the digest of the columns
``read_csv_columns`` returns for a 24 000-row file that spans several of its
read blocks. The very last line pins the analysis fits on their own:
``fit_analysis`` on each of the 100 000-row ``mar_impute`` completions of
the large-n line, then ``rubin_pool`` (its ``beta_hat`` and ``variances``,
and the pooled ``q_bar``, ``t`` and ``df``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import logging
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy.special import expit

from riimpute import (
    IncompleteDataset,
    RiConfig,
    RiImputeError,
    RngStream,
    builtin_scenario,
    density_summary,
    fit_analysis,
    format_result_table,
    mar_impute,
    ri_impute,
    rubin_pool,
    run_scenario,
)
from riimpute.cli import main, read_csv_columns

RI_SIZES = (9, 12, 15, 30, 100, 1000, 20_000)
# either side of 10 000 rows, from which ri_impute runs its chains on a thread
# pool and sums its n-long products with einsum
POOL_SIZES = (9_999, 10_000)
DENSITY_SIZES = (2, 3, 8191, 8192, 8193, 56_000)
LARGE_N = 100_000
SCENARIO_N = 1000
SCENARIO_REPLICATIONS = 10


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return digest.hexdigest()


def mnar_data(seed: int, n: int) -> IncompleteDataset:
    """Two covariates, a linear target, and selection on the target itself."""
    gen = np.random.default_rng([seed, n])
    z = np.column_stack([gen.normal(2.0, 2.0, n), gen.normal(-1.0, 1.0, n)])
    x = 1.0 + 0.5 * z[:, 0] + z[:, 1] + gen.standard_normal(n)
    observed = gen.random(n) < expit(-1.0 + 0.75 * x - 0.5 * z[:, 0])
    observed[:3] = True  # at least three observed rows
    observed[-1] = False  # at least one missing row
    target = np.where(observed, x, np.nan)
    return IncompleteDataset(target, z)


def mnar3_strong_data(n: int) -> IncompleteDataset:
    """The mnar3/strong design: ``beta = (1, 0.5, 1)``, selection on the target alone."""
    gen = np.random.default_rng([14, n])
    z = np.column_stack([gen.normal(2.0, 2.0, n), gen.normal(-1.0, 1.0, n)])
    x = 1.0 + 0.5 * z[:, 0] + z[:, 1] + gen.standard_normal(n)
    observed = gen.random(n) < expit(-2.0 + 1.5 * x)
    return IncompleteDataset(np.where(observed, x, np.nan), z)


def near_separated_data() -> IncompleteDataset:
    """Intercept-only data whose response is almost determined by the target.

    The fitted response probabilities of the observed rows are close to one,
    so the pseudo indicator is often constant among them and some sweeps fall
    back to zero shift.
    """
    gen = np.random.default_rng([1, 20, 10, 20])
    x = 10.0 * gen.standard_normal(20)
    observed = gen.random(20) < expit(2.0 + x)
    return IncompleteDataset(np.where(observed, x, np.nan), np.zeros((20, 0)))


def passthrough_column(n: int) -> np.ndarray:
    """Every third cell missing, plus values whose formatting is easy to get wrong."""
    values = np.random.default_rng([5, n, 4]).normal(0.0, 1e3, n)
    values[::3] = np.nan
    values[1:12] = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e-300, 2.0, -7.0, 1e16,
                    0.1, -2.5e-8, 123456789.0]
    return values


class _FallbackCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "zero shift" in record.getMessage():
            self.count += 1


@contextlib.contextmanager
def _ri_lines(lines: list[str]):
    """Yield ``ri_line(label, data, seed, columns)``, which appends one ``ri_impute`` line
    to ``lines``: its fallback sweeps, counted from the imputer's warnings, and the
    digest of its completions or the error it raised."""
    counter = _FallbackCounter()
    logger = logging.getLogger("riimpute.imputation")
    logger.addHandler(counter)
    logger.propagate = False

    def ri_line(label, data, seed, columns):
        before = counter.count
        try:
            completions = ri_impute(data, RiConfig(iterations=10, num_imputations=5, seed=seed),
                                    nonresponse_columns=columns)
            digest = _sha(*completions)
        except RiImputeError as exc:  # a failure is an outcome to compare too
            digest = f"raised {type(exc).__name__}: {exc}"
        lines.append(f"ri_impute {label} fallback_sweeps={counter.count - before} {digest}")

    try:
        yield ri_line
    finally:
        logger.removeHandler(counter)
        logger.propagate = True


def library_digests() -> list[str]:
    lines = []
    with _ri_lines(lines) as ri_line:
        cases = [(f"n={n}", mnar_data(3, n), n, (0,)) for n in RI_SIZES]
        cases.append(("n=20 near-separated", near_separated_data(), 1, None))
        for label, data, seed, columns in cases:
            ri_line(label, data, seed, columns)
            completions = mar_impute(data, 5, RngStream(data.n, 1))
            lines.append(f"mar_impute {label} {_sha(*completions)}")
        # selection on the target alone while the imputation model keeps both covariates
        ri_line("n=200 selection-on-target-only", mnar_data(3, 200), 200, ())

    # the same data with its covariates in other units, and with a collinear pair
    base = mnar_data(3, 200)
    z = base.covariates
    for label, covariates in (("n=200 badly-scaled", z * [1e-6, 1e5]),
                              ("n=200 collinear", np.column_stack([z[:, 0], 2.0 * z[:, 0]]))):
        data = IncompleteDataset(base.target, covariates)
        try:
            digest = _sha(*mar_impute(data, 5, RngStream(data.n, 1)))
        except RiImputeError as exc:
            digest = f"raised {type(exc).__name__}"
        lines.append(f"mar_impute {label} {digest}")

    for n_jobs in (1, 2):
        results = []
        for beta_set in ("strong", "moderate"):
            for mechanism in ("mcar", "mar", "mnar1", "mnar2", "mnar3"):
                config = builtin_scenario(mechanism, beta_set, n=SCENARIO_N,
                                          replications=SCENARIO_REPLICATIONS, master_seed=7)
                results.append(run_scenario(config, n_jobs=n_jobs))
        table = format_result_table(results, ("output digests",))
        label = "" if n_jobs == 1 else f" n_jobs={n_jobs}"
        lines.append(f"run_scenario+format_result_table x10{label} "
                     f"{hashlib.sha256(table.encode()).hexdigest()}")
    return lines


def large_line() -> str:
    """One line: the ``ri_impute`` line of ``mnar3_strong_data(LARGE_N)``, then its
    ``mar_impute`` digest."""
    data = mnar3_strong_data(LARGE_N)
    lines: list[str] = []
    with _ri_lines(lines) as ri_line:
        ri_line(f"n={LARGE_N} mnar3/strong", data, LARGE_N, (0,))
    return f"{lines[0]} mar_impute {_sha(*mar_impute(data, 5, RngStream(LARGE_N, 1)))}"


def pool_size_lines() -> list[str]:
    """The library cases' ``ri_impute`` and ``mar_impute`` lines at ``POOL_SIZES``."""
    lines: list[str] = []
    with _ri_lines(lines) as ri_line:
        for n in POOL_SIZES:
            data = mnar_data(3, n)
            ri_line(f"n={n}", data, n, (0,))
            lines.append(f"mar_impute n={n} {_sha(*mar_impute(data, 5, RngStream(n, 1)))}")
    return lines


def wide_passthrough_column(n: int) -> np.ndarray:
    """``passthrough_column`` with every other row of its second half drawn
    log-uniformly over [1e-6, 1e18), both signs: every exponent of the CSV
    writer's fixed range and values either side of it."""
    values = passthrough_column(n)
    gen = np.random.default_rng([5, n, 6])
    rows = np.arange(n // 2, n, 2)
    values[rows] = np.exp(gen.uniform(np.log(1e-6), np.log(1e18), len(rows))) * gen.choice(
        [-1.0, 1.0], len(rows))
    values[rows[::3]] = np.nan
    return values


def _write_input(path: str, header: list[str], data: IncompleteDataset,
                 passthrough=passthrough_column) -> None:
    """The CLI input: target x1, covariates x2 and x3, pass-through x4, in ``header`` order."""
    columns = {"x1": data.target, "x2": data.covariates[:, 0], "x3": data.covariates[:, 1],
               "x4": passthrough(data.n)}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in zip(*(columns[name] for name in header)):
            handle.write(",".join("" if np.isnan(v) else repr(float(v)) for v in row) + "\n")


def cli_digests() -> list[str]:
    lines = []
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            data = mnar_data(5, 400)
            _write_input("input.csv", ["x1", "x2", "x3", "x4"], data)
            commands = [
                ["impute", "input.csv", "--target", "x1", "--covariates", "x2,x3",
                 "--nonresponse-covariates", "x2", "--method", method, "-m", "5",
                 "--seed", "11", "--output-prefix", method]
                for method in ("ri", "mar", "cc")
            ]
            commands.append(["simulate", "--scenario", "mnar2", "--beta", "moderate",
                             "-n", "300", "--replications", "4", "--seed", "9",
                             "--output", "table.csv"])
            commands.append(["density", "ri_imp1.csv", "mar_imp1.csv", "--column", "x1",
                             "--labels", "ri,mar", "--only-missing-from", "input.csv",
                             "--output", "density.csv"])
            for argv in commands:
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main(list(argv))
                lines.append(f"cli {argv[0]} {' '.join(argv[1:4])} exit={code}")
            for path in sorted(Path(".").iterdir()):
                lines.append(f"file {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
            # after the listing above, so the files it names are unchanged
            Path("scenario.txt").write_text(
                "mechanism = mnar2\nbeta = moderate\nn = 300\nreplications = 4\nseed = 7\n",
                encoding="utf-8")
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(["simulate", "--scenario-file", "scenario.txt", "--output", "s.csv"])
            table = hashlib.sha256(Path("s.csv").read_bytes()).hexdigest()
            lines.append(f"cli simulate --scenario-file seed=7 exit={code} {table}")
            # two more impute layouts for the CSV writer: the target in the middle
            # of the header, and a one-column file imputed from the intercept
            _write_input("reordered.csv", ["x2", "x1", "x3", "x4"], data)
            _write_input("one.csv", ["x1"], data)
            for label, argv in (
                ("reordered x2,x1,x3,x4", ["reordered.csv", "--covariates", "x2,x3",
                                            "--method", "mar", "-m", "3", "--output-prefix", "re"]),
                ("one-column intercept-only", ["one.csv", "--method", "ri", "-m", "2",
                                               "--iterations", "3", "--output-prefix", "one"]),
            ):
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main(["impute", *argv, "--target", "x1", "--seed", "11"])
                digest = hashlib.sha256()
                for path in sorted(Path(".").glob(f"{argv[-1]}_*")):
                    digest.update(path.name.encode() + path.read_bytes())
                lines.append(f"cli impute {label} exit={code} {digest.hexdigest()}")
        finally:
            os.chdir(previous)
    return lines


def large_cli_line() -> str:
    """One line: the digest of the files that ``impute --method mar -m 5`` and
    ``impute --method ri -m 2`` write for ``mnar3_strong_data(LARGE_N)`` with
    the pass-through column ``wide_passthrough_column``."""
    previous = os.getcwd()
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            _write_input("input.csv", ["x1", "x2", "x3", "x4"], mnar3_strong_data(LARGE_N),
                         wide_passthrough_column)
            codes = []
            for method, m in (("mar", "5"), ("ri", "2")):
                with contextlib.redirect_stderr(io.StringIO()):
                    codes.append(main(["impute", "input.csv", "--target", "x1", "--covariates",
                                       "x2,x3", "--method", method, "-m", m, "--seed", "11",
                                       "--output-prefix", method]))
            for path in sorted(Path(".").glob("*_*")):
                digest.update(path.name.encode() + path.read_bytes())
        finally:
            os.chdir(previous)
    return f"cli impute n={LARGE_N} mar -m 5, ri -m 2 exit={codes} {digest.hexdigest()}"


READER_INPUT = (
    "# a comment line, then a blank one\n"
    "\n"
    'a, b ,"c"\n'
    "1.5,NA,\n"
    ' -0.0 , 5e-324 ,"1.7976931348623157e308"\n'
    "# between rows\n"
    "1_000,,  NA\n"
    '"\n 2.25\n",-1e-300, 7\n'
)
READER_FAULTS = (
    "x,y\n1,2\n3,abc\n",
    'x,y\n# c\n\n1,"2\n"\n3,4,5\n',  # a multi-line quoted cell, then a row of 3 fields
    "x,y\n\n1,-inf\n",
)


def reader_digests() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(READER_INPUT.encode())
        header, columns = read_csv_columns(path)
        lines = [f"read_csv_columns {','.join(header)} {_sha(*(columns[name] for name in header))}"]
        messages = []
        for text in READER_FAULTS:
            path.write_bytes(text.encode())
            try:
                read_csv_columns(path)
                messages.append("accepted")
            except RiImputeError as exc:
                messages.append(str(exc).replace(str(path), "<path>"))
    digest = hashlib.sha256("\n".join(messages).encode()).hexdigest()
    lines.append(f"read_csv_columns faults={len(messages)} {digest}")
    return lines


def separated_data() -> IncompleteDataset:
    """The test suite's 60 rows whose response is perfectly separated by the covariate."""
    gen = RngStream(8, 0).generator
    z = np.r_[gen.normal(-4, 0.3, 30), gen.normal(4, 0.3, 30)]
    target = 1.0 + 0.1 * z + gen.standard_normal(60)
    target[:30] = np.nan
    return IncompleteDataset(target, z[:, None])


def failure_rule_lines() -> list[str]:
    """``ri_impute`` on ``separated_data``, whose selection fits never converge, and
    each command's exit code and stderr, path removed, on a file with no data rows."""
    lines = []
    with _ri_lines(lines) as ri_line:
        ri_line("n=60 separated", separated_data(), 1, None)
    with tempfile.TemporaryDirectory() as tmp:
        data, no_rows, out = (str(Path(tmp) / name) for name in ("data.csv", "no_rows.csv", "out"))
        Path(data).write_text("y,z\n1,0.5\n,1.5\n3,2.5\n4,3.5\n5,4\n", encoding="utf-8")
        Path(no_rows).write_text("# c\ny,z\n", encoding="utf-8")
        commands = {
            f"impute --method {method}": ["impute", no_rows, "--target", "y", "--covariates", "z",
                                          "--method", method, "--output-prefix", out]
            for method in ("ri", "mar", "cc")
        }
        commands["density"] = ["density", no_rows, "--column", "y", "--output", out]
        commands["density --only-missing-from"] = ["density", data, "--column", "y",
                                                   "--only-missing-from", no_rows, "--output", out]
        for label, argv in commands.items():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            text = " | ".join(err.getvalue().replace(tmp, "<dir>").splitlines())
            lines.append(f"cli no-data-rows {label} exit={code} {text}")
    return lines


def large_reader_line() -> str:
    """The columns ``read_csv_columns`` returns for a file of several read
    blocks (about 1.4 MB): comment, blank and padded lines, ``NA`` and empty
    cells, ``%.15g`` and ``%.17g`` cells, and \\n and \\r\\n line ends."""
    rng = np.random.default_rng(18)
    n = 24_000
    values = rng.normal(0.0, 1.0, (n, 3)) * 10.0 ** rng.integers(-6, 7, (n, 3))
    lines = ["# several blocks", "a,b,c"]
    for i, row in enumerate(values.tolist()):
        cells = [f"{v:.17g}" if (i + j) % 2 else f"{v:.15g}" for j, v in enumerate(row)]
        if i % 5 == 0:
            cells[i % 3] = "NA" if i % 10 else ""
        if i % 7 == 0:
            cells = [f"  {cell} " for cell in cells]
        lines.append(",".join(cells) + ("\r" if i % 3 == 0 else ""))
        if i % 11 == 0:
            lines.append("# comment, 1, 2" if i % 22 else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "large.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
        header, columns = read_csv_columns(path)
    return (f"read_csv_columns n={n} {','.join(header)} "
            f"{_sha(*(columns[name] for name in header))}")


def large_analysis_line() -> str:
    """``fit_analysis`` on each ``mar_impute`` completion of the large-n line, then
    ``rubin_pool``: the fits' ``beta_hat`` and ``variances``, and ``q_bar``, ``t`` and ``df``."""
    data = mnar3_strong_data(LARGE_N)
    fits = [fit_analysis(data.covariates, completed)
            for completed in mar_impute(data, 5, RngStream(LARGE_N, 1))]
    pooled = rubin_pool(fits, len(fits))
    digest = _sha(*(array for fit in fits for array in (fit.beta_hat, fit.variances)),
                  pooled.q_bar, pooled.t, pooled.df)
    return f"fit_analysis+rubin_pool n={LARGE_N} mar_impute {digest}"


def density_lines() -> list[str]:
    lines = []
    for n in DENSITY_SIZES:
        summary = density_summary(np.random.default_rng([15, n]).normal(1.0, 3.0, n))
        lines.append(f"density_summary n={n} {_sha(summary.grid, summary.observed_density)}")
    return lines


if __name__ == "__main__":
    all_lines = library_digests() + cli_digests()
    for line in all_lines:
        print(line)
    total = hashlib.sha256("\n".join(all_lines).encode()).hexdigest()
    print(f"all {total}")
    print(large_line())
    print(large_cli_line())
    for line in pool_size_lines() + reader_digests() + failure_rule_lines() + density_lines():
        print(line)
    print(large_reader_line())
    print(large_analysis_line())
    sys.exit(0)
