"""riimpute benchmark: one workload per run, end-to-end metrics or a traced per-layer run.

    python3 ribench/run.py --workload sim-grid --seed 1 --seconds 25 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory. ``--workload all`` runs the three workloads one after another in
this process. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name and unit, with provenance. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Results and spans are also written under ``.ribench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SETUP_CODE = "import time; t = time.perf_counter(); import riimpute.cli; print(time.perf_counter() - t)"

# Metrics on the last line; BENCHMARK.json lists the same names at the default sizes.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "main_op_s": "s", "alt_op_s": "s"}
SCALED = (
    "rng.sample_mvnormal", "fitters.logistic_fit", "fitters.ols_fit", "mechanism.generate_missingness",
    "imputation.ri_impute", "simulation.density_summary", "cli.write_csv_columns",
)
LAYER_TOTALS = [
    "rng.sample_mvnormal.calls", "rng.sample_mvnormal.self_s",
    "rng.sample_scaled_inv_chi2.calls", "rng.sample_scaled_inv_chi2.self_s",
    "fitters.ols_fit.calls", "fitters.ols_fit.self_s",
    "imputation.mar_impute.self_s",
    "pooling.fit_analysis.calls", "pooling.fit_analysis.self_s",
    "pooling.rubin_pool.calls", "pooling.rubin_pool.self_s",
    "trace.overhead_s", "trace.spans_per_round",
]


def per_layer_keys(sizes) -> list[str]:
    """The per-layer metrics on the last line of a traced run at these sizes."""
    from scaling import size_tag

    return [f"{name}.n{size_tag(n)}_s" for name in SCALED for n in sizes.scaling_ns] + LAYER_TOTALS


# Each workload's two timed operations, as (samples key, what it is).
OPERATIONS = {
    "sim-grid": (("serial_rep_s", "one replication, serial pass"),
                 ("parallel_rep_s", "one replication, parallel pass")),
    "ri-large": (("ri_job_s", "ri_impute + fit_analysis x m + rubin_pool"),
                 ("mar_job_s", "mar_impute + fit_analysis x m + rubin_pool")),
    "cli-csv": (("impute_s", "`riimpute impute --method mar` subprocess"),
                ("density_s", "`riimpute density` subprocess")),
}
COUNT_SUFFIXES = (".calls", "rdot_redraws", "fallback_sweeps", "iters_per_fit", "spans_per_round", "trace.rounds")


def unit_of(name: str) -> str:
    if name.endswith(".mb_per_s"):
        return "MB/s"
    if name.endswith(".mb"):
        return "MB"
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if "_ms" in name or ".ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def timing(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    out = {"p50": statistics.median(xs) if xs else math.nan, "n": len(xs)}
    for p in (99, 95, 90, 75):
        if len(xs) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = xs[min(len(xs) - 1, -(-len(xs) * p // 100) - 1)]
            break
    return out


def describe(stats: dict) -> str:
    extra = [f"{k} {v:.6g}" for k, v in stats.items() if k not in ("p50", "n")]
    return ", ".join([f"p50 of {stats['n']}"] + extra)


# ---------------------------------------------------------------------------
# provenance


def _blas_threads() -> int | None:
    import numpy

    base = Path(numpy.__file__).parent
    for lib in glob.glob(str(base.parent / "numpy.libs" / "*openblas*")) + glob.glob(str(base / ".libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance() -> dict:
    import numpy
    import scipy

    import riimpute

    sources = sorted((ROOT / "src" / "riimpute").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(path.read_bytes().count(b"\n") for path in sources),
        "public_names": len(riimpute.__all__),
    }


# ---------------------------------------------------------------------------
# metrics


def measure_setup(env: dict[str, str], outcome) -> None:
    """Seconds to import riimpute.cli in a fresh interpreter, several times, as samples of ``setup_s``."""
    from workloads import SpeedReference

    speed = SpeedReference()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outcome.add("setup_s", float(proc.stdout.strip().splitlines()[-1]), speed.gap())


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def corrected(samples: dict, key: str) -> tuple[list[float], str]:
    """Samples of ``key`` in speed-corrected seconds, and a note on the reference kernel."""
    from workloads import REF_NOMINAL_S

    refs = samples[f"ref:{key}"]
    scaled = [seconds * REF_NOMINAL_S / ref for seconds, ref in zip(samples[key], refs)]
    kernel = f"{1000 * statistics.median(refs):.2f} ms" if refs else "not timed"
    return scaled, f"speed-corrected (reference kernel {kernel}, nominal {1000 * REF_NOMINAL_S:g} ms)"


def end_to_end(workload: str, outcome, ledger) -> tuple[dict, list[str]]:
    """Every end-to-end metric: the gated ones plus the workload's named figures."""
    values, notes = {}, {}
    timed = {"setup_s": ("setup_s", "fresh-interpreter import of riimpute.cli")}
    timed.update(zip(("main_op_s", "alt_op_s"), OPERATIONS[workload]))
    for name, (key, what) in timed.items():
        scaled, how = corrected(outcome.samples, key)
        stats = timing(scaled)
        values[name] = stats["p50"]
        notes[name] = f"{what}; {how}; {describe(stats)}; wall p50 {statistics.median(outcome.samples[key]):.6g}"
    values["peak_rss_mb"] = peak_rss_mb()
    notes["peak_rss_mb"] = "max of this process and its largest child"
    values["op_error_frac"] = ledger.failed / ledger.attempted
    notes["op_error_frac"] = f"{ledger.failed} of {ledger.attempted} operations"
    # the named figures below are plain wall time
    main, alt = (timing(outcome.samples[key]) for key, _ in OPERATIONS[workload])
    units = dict(END_TO_END, op_error_frac="ratio")
    if workload == "sim-grid":
        reps = outcome.values["replications"]
        values["sim_reps_per_s"] = 1.0 / main["p50"]
        values["sim_reps_per_s_par"] = 1.0 / alt["p50"]
        values["sim_failed_frac"] = outcome.values["failed_replications"] / reps if reps else 0.0
        units.update(sim_reps_per_s="rep/s", sim_reps_per_s_par="rep/s", sim_failed_frac="ratio")
        notes["sim_reps_per_s_par"] = f"n_jobs={outcome.values['n_jobs']}"
        notes["sim_failed_frac"] = f"{outcome.values['failed_replications']} of {reps} replications"
    elif workload == "ri-large":
        values["ri_rows_per_s"] = outcome.values["n"] / main["p50"]
        units["ri_rows_per_s"] = "rows/s"
        notes["ri_rows_per_s"] = f"n={outcome.values['n']}, missing {outcome.values['missing_fraction']:.3f}"
    else:
        values["cli_impute_s"], values["cli_density_s"] = main["p50"], alt["p50"]
        units.update(cli_impute_s="s", cli_density_s="s")
        notes["cli_impute_s"], notes["cli_density_s"] = describe(main), describe(alt)
    lines = [f"{name:<24} {value:<14.6g} {units[name]:<7} {notes.get(name, '')}" for name, value in values.items()]
    return values, lines


def per_layer(outcome, tracer, scaling: dict[str, float], ledger) -> dict[str, float]:
    """Per-layer figures of a traced run, per traced round unless named otherwise."""
    from tracing import function_stats, uncovered_by_op

    ops = max(1, len({root.name.split("/")[0] for root in tracer.roots}))
    stats = function_stats(tracer)
    out = dict(scaling)
    for name, entry in stats.items():
        out[f"{name}.calls"] = entry["calls"] / ops
        out[f"{name}.self_s"] = entry["self_s"] / ops
    fits = stats["fitters.logistic_fit"]
    if fits["calls"]:
        out["fitters.logistic_fit.iters_per_fit"] = fits["iters"] / fits["calls"]
    sweeps = stats["imputation.draw_psi_posterior"]["calls"]
    if sweeps:
        out["imputation.sweep_ms"] = 1000.0 * stats["imputation.ri_impute"]["total_s"] / sweeps
        out["imputation.useful_sweep_ratio"] = 1.0 - tracer.fallback_sweeps / sweeps
    out["imputation.rdot_redraws"] = (stats["imputation.draw_rdot"]["calls"] - sweeps) / ops
    out["imputation.fallback_sweeps"] = tracer.fallback_sweeps / ops
    replications = [1000.0 * s.duration for s in tracer.spans if s.name == "simulation.run_replication"]
    if replications:
        for key, value in timing(replications).items():
            if key != "n":
                out[f"simulation.run_replication.ms_{key}"] = value
    samples = outcome.samples
    if samples.get("serial_rep_s") and samples.get("parallel_rep_s"):
        out["simulation.parallel_speedup"] = (
            statistics.median(samples["serial_rep_s"]) / statistics.median(samples["parallel_rep_s"])
        )
    for name in ("cli.read_csv_columns", "cli.write_csv_columns"):
        entry = stats[name]
        if entry["calls"]:
            out[f"{name}.mb"] = entry["bytes"] / 1e6 / ops
            out[f"{name}.mb_per_s"] = entry["bytes"] / 1e6 / entry["self_s"]
    kinds = sorted(key.split(":", 1)[1] for key in samples if key.startswith("traced:"))
    pairs = [(samples[f"traced:{k}"], samples[f"untraced:{k}"]) for k in kinds if samples.get(f"untraced:{k}")]
    overhead = sum(statistics.median(t) - statistics.median(u) for t, u in pairs if t)
    startup = [statistics.median(samples[f"{k}_s"]) - statistics.median(samples[f"untraced:{k}"])
               for k in kinds if samples.get(f"{k}_s")]
    if startup:
        out["cli.startup_s"] = statistics.median(startup)
    out["trace.overhead_s"] = overhead
    out["trace.rounds"] = ops
    out["trace.spans_per_round"] = len(tracer.spans) / ops
    # every library span's self time plus the uncovered gap must make up the
    # operation's wall time; the gap may not exceed the tracing overhead
    uncovered = uncovered_by_op(tracer)
    for root in tracer.roots:
        gap = uncovered[root.op]
        allowance = max(overhead, 0.0) + 0.01 * root.duration + 1e-3
        ledger.check(root.name, abs(gap) <= allowance,
                     f"self times miss {gap:.4f} s of the operation (allowed {allowance:.4f} s)")
    out["trace.uncovered_max_s"] = max(uncovered.values(), default=0.0)
    return out


# ---------------------------------------------------------------------------


def import_library():
    """Import riimpute from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "riimpute"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"ribench: no riimpute sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import riimpute

    if Path(riimpute.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"ribench: imported riimpute from {riimpute.__file__}, not {package}")
    return riimpute


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload; returns the result record (last-line JSON under "result")."""
    import workloads
    from scaling import layer_scaling
    from tracing import Tracer, write_spans

    sizes = sizes or workloads.Sizes()
    ledger = workloads.Ledger()
    out_dir = ROOT / ".ribench"
    work = out_dir / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        start = time.perf_counter()
        tracer = Tracer() if trace else None
        setup = workloads.Outcome()
        if not trace:
            measure_setup(workloads.child_env(), setup)
        scaling = layer_scaling(seed, sizes, ledger, work) if trace else {}
        # the workload itself gets the full --seconds
        deadline = time.perf_counter() + seconds
        outcome = workloads.WORKLOADS[workload](seed, sizes, deadline, ledger, work, tracer=tracer)
        outcome.samples.update(setup.samples)
        elapsed = time.perf_counter() - start
        if trace:
            values = per_layer(outcome, tracer, scaling, ledger)
            lines = [f"{k:<48} {v:<14.6g} {unit_of(k)}" for k, v in sorted(values.items())]
            keys = per_layer_keys(sizes)
            units = {k: unit_of(k) for k in keys}
            write_spans(tracer, out_dir / f"{tag}-spans.jsonl")
        else:
            values, lines = end_to_end(workload, outcome, ledger)
            keys, units = list(END_TO_END), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = [k for k in keys if math.isfinite(values.get(k, math.nan))]
    for key in set(keys) - set(measured):
        ledger.fail(f"metric/{key}", "not measured")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in measured},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "elapsed_s": elapsed, "provenance": provenance(), "all_metrics": values,
        "samples": dict(outcome.samples), "failures": ledger.failures, "result": result,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")
    record["lines"] = lines
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sim-grid", "ri-large", "cli-csv", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    names = ("sim-grid", "ri-large", "cli-csv") if args.workload == "all" else (args.workload,)
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"# workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
              f"  elapsed {record['elapsed_s']:.1f} s")
        print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
        for line in record["lines"]:
            print(line)
        for label, reason in list(record["failures"].items())[:20]:
            print(f"# FAILED {label}: {reason}")
        print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
