"""Layer scaling: isolated calls of one function per layer at growing n.

Each function runs on seed-generated inputs at every n. A call that takes
under ``MIN_SECONDS`` is repeated until the repeats add up to it, and the
median is reported as ``<layer>.<function>.n<size>_s``.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

import riimpute
import riimpute.cli as cli
import riimpute.fitters as fitters
import riimpute.imputation as imputation
import riimpute.mechanism as mechanism
import riimpute.rng as rng
import riimpute.simulation as simulation

from workloads import PSI, Ledger, Sizes, incomplete_dataset, selection_data

MIN_SECONDS = 0.2
MAX_REPEATS = 100


class _Record:
    """Provenance lines for a CSV written outside a command."""

    def header_lines(self) -> tuple[str, ...]:
        return (f"command: ribench layer scaling (riimpute {riimpute.__version__})",)


def size_tag(n: int) -> str:
    exponent = round(math.log10(n))
    return f"1e{exponent}" if 10**exponent == n else str(n)


def _calls(seed: int, n: int, sizes: Sizes, work: Path):
    x1, covariates, observed = selection_data(seed, n)
    gen = np.random.default_rng([seed, n, 1])
    stream = rng.RngStream(seed, rng.mix_stream_id("ribench-scaling", n))
    ones = np.ones(n)
    logistic_design = np.column_stack([ones, x1, covariates[:, 0]])
    ols_design = np.column_stack([ones, covariates, gen.integers(0, 2, n) - 1.0])
    root = gen.standard_normal((4, 4))
    covariance = root @ root.T / 4.0 + np.eye(4)
    psi = mechanism.NonresponseParams(PSI[0], PSI[1], np.array([PSI[2]]))
    data = incomplete_dataset(seed, n)
    config = imputation.RiConfig(iterations=sizes.sweeps, num_imputations=sizes.m, seed=seed)
    columns = {"x1": data.target, "x2": covariates[:, 0], "x3": covariates[:, 1]}
    return {
        "rng.sample_mvnormal": lambda: [rng.sample_mvnormal(np.zeros(4), covariance, stream) for _ in range(n)],
        "fitters.logistic_fit": lambda: fitters.logistic_fit(logistic_design, observed.astype(np.int8)),
        "fitters.ols_fit": lambda: fitters.ols_fit(ols_design, x1),
        "mechanism.generate_missingness": lambda: mechanism.generate_missingness(
            x1, covariates[:, :1], psi, stream
        ),
        "imputation.ri_impute": lambda: imputation.ri_impute(data, config, nonresponse_columns=(0,)),
        "cli.write_csv_columns": lambda: cli.write_csv_columns(
            work / f"scaling-{n}.csv", ["x1", "x2", "x3"], columns, _Record()
        ),
        "simulation.density_summary": lambda: simulation.density_summary(x1, group_label="x1"),
    }


def layer_scaling(seed: int, sizes: Sizes, ledger: Ledger, work: Path) -> dict[str, float]:
    """Median seconds per call, keyed ``<layer>.<function>.n<size>_s``; ``sample_mvnormal`` makes n draws."""
    out = {}
    for n in sizes.scaling_ns:
        for name, call in _calls(seed, n, sizes, work).items():
            key = f"{name}.n{size_tag(n)}_s"
            times: list[float] = []
            while len(times) < MAX_REPEATS:
                seconds, _ = ledger.run(f"scaling/{key}", call)
                if seconds is None:
                    break
                times.append(seconds)
                if sum(times) >= MIN_SECONDS:
                    break
            if times:
                out[key] = float(np.median(times))
    return out
