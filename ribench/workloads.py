"""The benchmark's three workloads, their inputs and their output checks.

Each workload is a closed loop: one client, one operation at a time, until
the deadline passes (and at least the rounds its checks need have run).
Inputs come from the ``--seed`` argument through numpy's own generator; the
library receives only the generated inputs. Library functions are always
looked up as module attributes at call time, so the tracer's wrappers (and a
test's substitutes) see every call.

- ``sim-grid``: ``run_scenario`` over the five builtin mechanisms, one serial
  and one parallel pass per round. Thousands of small fits, so per-call
  overhead in the samplers, fitters, mechanism and pooling dominates. The
  only workload that uses the scenario worker pool; no I/O.
- ``ri-large``: one dataset of 100 000 rows; ``ri_impute`` plus analysis and
  pooling, then the ignorable (MAR) comparator on the same data. Vectorised
  O(n) kernels dominate; per-call overhead, I/O and the pool are bypassed.
- ``cli-csv``: the README's CSV workflow, each command in its own
  interpreter. CSV read/write, the KDE and interpreter start dominate; the RI
  sampler is bypassed.

This shared virtual machine changes speed by up to a factor of two for
seconds at a time. A fixed reference kernel (``SpeedReference``) is therefore
timed between every two timed operations, so that each operation's time can
be corrected for the machine's speed around it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

import riimpute.cli as cli
import riimpute.imputation as imputation
import riimpute.pooling as pooling
import riimpute.rng as rng
import riimpute.simulation as simulation

from tracing import Tracer

MECHANISMS = ("mcar", "mar", "mnar1", "mnar2", "mnar3")
# data model of the builtin "strong" setting and the mnar3 selection model
# (selection on the target; x2 enters the selection model with weight 0)
BETA = (1.0, 0.5, 1.0)
PSI = (-2.0, 1.5, 0.0)
# largest pooled RI coefficient error accepted at n = 100 000 (0.09 seen)
RI_COEF_TOLERANCE = 0.15
COMMAND_TIMEOUT_S = 150
# speed-corrected seconds are seconds on a machine where SpeedReference takes this long
REF_NOMINAL_S = 0.02
SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark's, tests shrink them."""

    sim_n: int = 1000
    sim_reps: int = 4
    ri_n: int = 100_000
    mar_repeats: int = 3
    cli_rows: int = 100_000
    m: int = 5
    sweeps: int = 10
    scaling_ns: tuple[int, ...] = (1_000, 10_000, 100_000)


@dataclass
class Ledger:
    """Operations attempted, and the ones that raised or failed an output check."""

    attempted: int = 0
    failures: dict[str, str] = field(default_factory=dict)

    def run(self, label: str, fn, *args, **kwargs):
        """Run one operation; returns (seconds, result), or (None, None) if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark must keep running and report the failure
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None, None
        return time.perf_counter() - start, result

    def fail(self, label: str, reason: str) -> None:
        self.failures.setdefault(label, reason)

    def check(self, label: str, ok, reason: str) -> None:
        if not ok:
            self.fail(label, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Outcome:
    """What one workload run measured.

    ``samples[key]`` holds wall seconds; where the reference kernel was timed
    around them, ``samples["ref:" + key]`` holds, per sample, the mean of its
    time just before and just after the operation.
    """

    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    values: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, seconds: float, ref: float | None = None) -> None:
        self.samples[key].append(seconds)
        if ref is not None:
            self.samples[f"ref:{key}"].append(ref)


class SpeedReference:
    """A fixed interpreter-plus-numpy kernel, timed between operations.

    It calls no BLAS routine and no riimpute code, so no library change and no
    BLAS thread setting changes its cost; only the machine's speed does.
    """

    def __init__(self) -> None:
        self._x = np.random.default_rng(20240421).standard_normal(100_000)
        self._last = self._time()

    def _time(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        for _ in range(6):
            w = np.exp(-np.abs(self._x))
            np.sort(w * self._x)
            float((w * self._x).sum())
        return time.perf_counter() - start

    def gap(self) -> float:
        """Time the kernel once more; returns the mean of this and the previous time."""
        now = self._time()
        mean, self._last = (self._last + now) / 2.0, now
        return mean


def identical(a, b) -> bool:
    """Field-for-field, bit-for-bit equality of results."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            identical(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, (np.ndarray, np.generic, float)):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def _rounds(deadline: float, minimum: int = 1):
    count = 0
    while count < minimum or time.perf_counter() < deadline:
        yield count
        count += 1


# ---------------------------------------------------------------------------
# sim-grid


def sim_grid(seed: int, sizes: Sizes, deadline: float, ledger: Ledger, work: Path,
             tracer: Tracer | None = None) -> Outcome:
    n_jobs = len(os.sched_getaffinity(0))
    configs = {
        mech: simulation.builtin_scenario(
            mech, "strong", n=sizes.sim_n, replications=sizes.sim_reps,
            master_seed=seed, m=sizes.m, iterations=sizes.sweeps,
        )
        for mech in MECHANISMS
    }
    out = Outcome(values={"n_jobs": n_jobs, "replications": 0, "failed_replications": 0})
    reference: dict = {}
    speed = SpeedReference()

    def run_pass(tag: str, jobs: int, timed: bool) -> list:
        """One ``run_scenario`` call per mechanism; a timed pass also times the reference after each."""
        done = []
        for mech, config in configs.items():
            seconds, result = ledger.run(f"{tag}/{mech}", simulation.run_scenario, config, n_jobs=jobs)
            done.append((mech, seconds, result, speed.gap() if timed else None))
        return done

    def check_pass(tag: str, done: list, key: str | None) -> bool:
        for mech, seconds, result, ref in done:
            if result is None:
                continue
            reference.setdefault(mech, result)
            _check_scenario(ledger, f"{tag}/{mech}", result, reference[mech])
            out.values["replications"] += sizes.sim_reps
            out.values["failed_replications"] += result.failed_replications
            if key is not None:
                out.add(key, seconds / sizes.sim_reps, ref)
        return all(result is not None for _, _, result, _ in done)

    for r in _rounds(deadline):
        done = run_pass(f"r{r}/serial", 1, timed=True)
        if check_pass(f"r{r}/serial", done, "serial_rep_s"):
            out.add("untraced:serial-pass", sum(seconds for _, seconds, _, _ in done))
        if tracer is not None:
            with tracer.operation(f"r{r}/serial-traced") as root:
                done = run_pass(f"r{r}/serial-traced", 1, timed=False)
            if check_pass(f"r{r}/serial-traced", done, None):
                out.add("traced:serial-pass", root.duration)
        done = run_pass(f"r{r}/parallel", n_jobs, timed=True)
        check_pass(f"r{r}/parallel", done, "parallel_rep_s")
    return out


def _check_scenario(ledger: Ledger, label: str, result, reference) -> None:
    summaries = list(result.methods.values())
    estimates = np.concatenate([s.mean_estimate for s in summaries])
    coverage = np.concatenate([s.coverage_rate for s in summaries])
    ledger.check(label, np.isfinite(estimates).all(), "non-finite estimate")
    ledger.check(label, ((coverage >= 0) & (coverage <= 1)).all(), "coverage outside [0, 1]")
    ledger.check(label, identical(result, reference), "result differs from the first serial result")


# ---------------------------------------------------------------------------
# ri-large


def selection_data(seed: int, n: int):
    """Complete target x1, covariates (x2, x3) and the mnar3 response indicator."""
    gen = np.random.default_rng([seed, n])
    x2 = gen.normal(2.0, 2.0, n)
    x3 = gen.normal(-1.0, 1.0, n)
    x1 = BETA[0] + BETA[1] * x2 + BETA[2] * x3 + gen.standard_normal(n)
    eta = PSI[0] + PSI[1] * x1 + PSI[2] * x2
    observed = gen.random(n) < 1.0 / (1.0 + np.exp(-eta))
    return x1, np.column_stack([x2, x3]), observed


def incomplete_dataset(seed: int, n: int):
    x1, covariates, observed = selection_data(seed, n)
    return imputation.IncompleteDataset(
        np.where(observed, x1, np.nan), covariates, covariate_names=("x2", "x3")
    )


def _pool(data, completions):
    fits = [pooling.fit_analysis(data.covariates, c) for c in completions]
    return pooling.rubin_pool(fits, len(fits))


def _ri_job(data, config):
    completions = imputation.ri_impute(data, config, nonresponse_columns=(0,))
    return completions, _pool(data, completions)


def _mar_job(data, m: int, seed: int):
    stream = rng.RngStream(seed, rng.mix_stream_id("ribench-mar"))
    completions = imputation.mar_impute(data, m, stream)
    return completions, _pool(data, completions)


def _check_job(ledger: Ledger, label: str, data, m: int, job, reference, beta_tolerance: float | None) -> None:
    completions, pooled = job
    obs = data.observed_mask
    ledger.check(label, len(completions) == m, f"{len(completions)} completions, expected {m}")
    for c in completions:
        ledger.check(label, c[obs].tobytes() == data.target[obs].tobytes(), "observed cell changed")
        ledger.check(label, np.isfinite(c[~obs]).all(), "non-finite imputed cell")
    if reference is not None:
        ledger.check(label, identical(list(completions), list(reference[0])),
                     "repeat call returned different completions")
    ordered = (pooled.ci_low <= pooled.q_bar) & (pooled.q_bar <= pooled.ci_high)
    ledger.check(label, np.isfinite(pooled.q_bar).all() and ordered.all(), "bad pooled interval")
    if beta_tolerance is not None:
        error = np.abs(pooled.q_bar - np.asarray(BETA)).max()
        ledger.check(label, error <= beta_tolerance, f"pooled RI coefficient off by {error:.3f}")


def ri_large(seed: int, sizes: Sizes, deadline: float, ledger: Ledger, work: Path,
             tracer: Tracer | None = None) -> Outcome:
    data = incomplete_dataset(seed, sizes.ri_n)
    config = imputation.RiConfig(iterations=sizes.sweeps, num_imputations=sizes.m, seed=seed)
    jobs = [("ri", _ri_job, (data, config), RI_COEF_TOLERANCE)]
    jobs += [("mar", _mar_job, (data, sizes.m, seed), None)] * sizes.mar_repeats
    out = Outcome(values={"n": sizes.ri_n, "missing_fraction": data.n_missing / data.n})
    references: dict[str, object] = {}
    speed = SpeedReference()

    def run_round(tag: str, timed: bool) -> list:
        """Every job once; a timed round also times the reference after each."""
        done = []
        for k, (kind, fn, args, tolerance) in enumerate(jobs):
            label = f"{tag}/{kind}{k}"
            seconds, job = ledger.run(label, fn, *args)
            done.append((label, kind, tolerance, seconds, job, speed.gap() if timed else None))
        return done

    def check_round(done: list, record: bool) -> bool:
        for label, kind, tolerance, seconds, job, ref in done:
            if job is None:
                continue
            _check_job(ledger, label, data, sizes.m, job, references.get(kind), tolerance)
            references.setdefault(kind, job)
            if record:
                out.add(f"{kind}_job_s", seconds, ref)
        return all(job is not None for *_, job, _ in done)

    # two rounds at least, so the repeat-call check always runs
    for r in _rounds(deadline, minimum=2 if tracer is None else 1):
        done = run_round(f"r{r}", timed=True)
        if check_round(done, record=True):
            out.add("untraced:round", sum(seconds for *_, seconds, _, _ in done))
        if tracer is not None:
            with tracer.operation(f"r{r}/traced") as root:
                done = run_round(f"r{r}/traced", timed=False)
            if check_round(done, record=False):
                out.add("traced:round", root.duration)
    return out


# ---------------------------------------------------------------------------
# cli-csv


def write_input_csv(path: Path, seed: int, n: int) -> None:
    x1, covariates, observed = selection_data(seed, n)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("x1,x2,x3\n")
        for a, b, c, seen in zip(x1.tolist(), covariates[:, 0].tolist(), covariates[:, 1].tolist(), observed.tolist()):
            handle.write(f"{a:.15g},{b:.15g},{c:.15g}\n" if seen else f",{b:.15g},{c:.15g}\n")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row and not row[0].startswith("#")]
    return rows[0], rows[1:]


def numeric_columns(path: Path) -> dict[str, np.ndarray]:
    header, rows = read_csv(path)
    return {
        name: np.array([float(row[j]) if row[j] not in ("", "NA") else np.nan for row in rows])
        for j, name in enumerate(header)
    }


def impute_argv(m: int, seed: int) -> list[str]:
    return ["impute", "../input.csv", "--target", "x1", "--covariates", "x2,x3",
            "--method", "mar", "-m", str(m), "--seed", str(seed), "--output-prefix", "out"]


DENSITY_ARGV = ["density", "out_imp1.csv", "--column", "x1", "--labels", "imputed",
                "--only-missing-from", "../input.csv", "--output", "density.csv"]


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first, no seed override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop(cli.SEED_ENV_VAR, None)
    return env


def run_subprocess(argv: list[str], cwd: Path, env: dict[str, str]) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "riimpute.cli", *argv], cwd=cwd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=COMMAND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")


def run_in_process(argv: list[str], cwd: Path) -> None:
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(list(argv))
    finally:
        os.chdir(previous)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()[-300:]}")


def _digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def check_cli_outputs(ledger: Ledger, label: str, directory: Path, source: dict[str, np.ndarray], m: int) -> None:
    """Round trip of the completed CSVs, and ordered intervals in the pooled JSON."""
    observed = ~np.isnan(source["x1"])
    for k in range(1, m + 1):
        out = numeric_columns(directory / f"out_imp{k}.csv")
        for name in ("x2", "x3"):
            ledger.check(label, out[name].tobytes() == source[name].tobytes(), f"imp{k}: {name} changed")
        ledger.check(label, out["x1"][observed].tobytes() == source["x1"][observed].tobytes(),
                     f"imp{k}: observed x1 changed")
        ledger.check(label, np.isfinite(out["x1"][~observed]).all(), f"imp{k}: imputed cell not finite")
    pooled = json.loads((directory / "out_pooled.json").read_text(encoding="utf-8"))
    for row in pooled["analysis"]:
        ok = row["ci_low"] <= row["estimate"] <= row["ci_high"]
        ledger.check(label, ok and np.isfinite(row["estimate"]), f"pooled {row['coefficient']}: bad interval")


def check_density(ledger: Ledger, label: str, path: Path) -> None:
    header, rows = read_csv(path)
    groups: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for row in rows:
        groups[row[2]].append((float(row[0]), float(row[1])))
    ledger.check(label, header == ["x", "density", "group"] and groups, "density file has no curves")
    for group, points in groups.items():
        x, d = np.array(points).T
        ledger.check(label, len(points) == 512, f"group {group}: {len(points)} rows, expected 512")
        area = float(np.sum(np.diff(x) * (d[1:] + d[:-1]) / 2.0))
        ledger.check(label, abs(area - 1.0) <= 1e-3, f"group {group}: density integrates to {area:.6f}")


def cli_csv(seed: int, sizes: Sizes, deadline: float, ledger: Ledger, work: Path,
            tracer: Tracer | None = None) -> Outcome:
    env = child_env()
    write_input_csv(work / "input.csv", seed, sizes.cli_rows)
    argv = {"impute": impute_argv(sizes.m, seed), "density": DENSITY_ARGV}
    out = Outcome()
    reference: dict[str, dict[str, str]] = {}

    def execute(tag: str, kind: str, directory: Path, how: str) -> tuple[float | None, float | None]:
        """Run one command; returns its seconds and, for a subprocess, the reference time around it."""
        label = f"{tag}/{kind}-{how}"
        ref = None
        if how == "subprocess":
            seconds, _ = ledger.run(label, run_subprocess, argv[kind], directory, env)
            ref = speed.gap()
        elif how == "traced":
            with tracer.operation(label) as root_span:
                seconds, _ = ledger.run(label, run_in_process, argv[kind], directory)
            seconds = root_span.duration if seconds is not None else None
        else:
            seconds, _ = ledger.run(label, run_in_process, argv[kind], directory)
        if seconds is None:
            return None, None
        files = _digests(directory)
        if kind == "density":
            files = {"density.csv": files.get("density.csv")}
        if kind not in reference:
            # later runs are checked byte for byte against this first one
            if kind == "impute":
                check_cli_outputs(ledger, label, directory, numeric_columns(work / "input.csv"), sizes.m)
            else:
                check_density(ledger, label, directory / "density.csv")
            reference[kind] = files
        ledger.check(label, files == reference[kind], "output files differ from the first run")
        return seconds, ref

    if tracer is None:
        ways, minimum = ("subprocess",), 2
        # density runs twice per impute so both commands get a similar share of the time
        kinds = ("impute", "density", "density")
    else:
        ways, minimum, kinds = ("subprocess", "untraced", "traced"), 1, ("impute", "density")
    speed = SpeedReference()
    for r in _rounds(deadline, minimum):
        dirs = {how: work / f"r{r}-{how}" for how in ways}
        for directory in dirs.values():
            directory.mkdir()
        for i, kind in enumerate(kinds):
            # a round may end after its impute command once time is up
            if i and r >= minimum and time.perf_counter() >= deadline:
                break
            for how in ways:
                seconds, ref = execute(f"r{r}/{i}", kind, dirs[how], how)
                if seconds is not None:
                    out.add(f"{kind}_s" if how == "subprocess" else f"{how}:{kind}", seconds, ref)
        for directory in dirs.values():
            shutil.rmtree(directory)
    return out


WORKLOADS = {"sim-grid": sim_grid, "ri-large": ri_large, "cli-csv": cli_csv}
