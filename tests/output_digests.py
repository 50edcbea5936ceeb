"""Print sha256 digests of riimpute's outputs on fixed inputs.

Not a test module (no ``test_`` prefix, so pytest does not collect it). Run it
on two checkouts and compare the printed lines to show that a change leaves
the draws and the output files bit for bit as they were:

    PYTHONPATH=src python tests/output_digests.py

It covers ``ri_impute`` (n = 9 to 20 000, printing how many sweeps took the
zero-shift fallback; the n = 20 near-separated dataset takes it twice),
``mar_impute``,
``run_scenario`` + ``format_result_table`` for all ten builtin scenarios, and
the files written by the CLI commands ``impute`` (ri, mar and cc at m = 5),
``simulate`` and ``density``. It uses only names that are public in every
version of the package and draws its data with numpy directly. Takes about a
minute on one core.
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
    format_result_table,
    mar_impute,
    ri_impute,
    run_scenario,
)
from riimpute.cli import main

RI_SIZES = (9, 12, 15, 30, 100, 1000, 20_000)
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


class _FallbackCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "zero shift" in record.getMessage():
            self.count += 1


def library_digests() -> list[str]:
    lines = []
    counter = _FallbackCounter()
    logger = logging.getLogger("riimpute.imputation")
    logger.addHandler(counter)
    logger.propagate = False
    try:
        cases = [(f"n={n}", mnar_data(3, n), n, (0,)) for n in RI_SIZES]
        cases.append(("n=20 near-separated", near_separated_data(), 1, None))
        for label, data, seed, columns in cases:
            before = counter.count
            try:
                completions = ri_impute(data, RiConfig(iterations=10, num_imputations=5, seed=seed),
                                        nonresponse_columns=columns)
                digest = _sha(*completions)
            except RiImputeError as exc:  # a failure is an outcome to compare too
                digest = f"raised {type(exc).__name__}: {exc}"
            lines.append(f"ri_impute {label} fallback_sweeps={counter.count - before} {digest}")
            completions = mar_impute(data, 5, RngStream(data.n, 1))
            lines.append(f"mar_impute {label} {_sha(*completions)}")
    finally:
        logger.removeHandler(counter)
        logger.propagate = True

    results = []
    for beta_set in ("strong", "moderate"):
        for mechanism in ("mcar", "mar", "mnar1", "mnar2", "mnar3"):
            config = builtin_scenario(mechanism, beta_set, n=SCENARIO_N,
                                      replications=SCENARIO_REPLICATIONS, master_seed=7)
            results.append(run_scenario(config))
    table = format_result_table(results, ("output digests",))
    lines.append(f"run_scenario+format_result_table x10 "
                 f"{hashlib.sha256(table.encode()).hexdigest()}")
    return lines


def cli_digests() -> list[str]:
    lines = []
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            data = mnar_data(5, 400)
            with open("input.csv", "w", encoding="utf-8") as handle:
                handle.write("x1,x2,x3\n")
                for x, (a, b) in zip(data.target, data.covariates):
                    cells = ["" if np.isnan(v) else repr(float(v)) for v in (x, a, b)]
                    handle.write(",".join(cells) + "\n")
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
        finally:
            os.chdir(previous)
    return lines


if __name__ == "__main__":
    all_lines = library_digests() + cli_digests()
    for line in all_lines:
        print(line)
    total = hashlib.sha256("\n".join(all_lines).encode()).hexdigest()
    print(f"all {total}")
    sys.exit(0)
