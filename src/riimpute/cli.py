"""Command line front end.

Three subcommands: ``impute`` completes a CSV with a chosen method, ``simulate``
runs a Monte Carlo scenario and writes the results table, ``density`` writes
kernel density curves for plotting elsewhere.

Exit codes: 0 on success, 2 for unusable input (parse failures, missing
columns, too few rows), 3 for statistical failure (any other library error:
rank deficiency, non-convergence, degenerate samples, too many failed
replications). Output files are byte-identical across
runs with the same command line and seed; each carries comment lines citing
the command, seed, package version and an input content digest.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    RiImputeError,
    TooFewRows,
)
from .imputation import IncompleteDataset, RiConfig, complete_case, mar_impute, ri_impute
from .pooling import fit_analysis, rubin_pool, single_fit_estimate
from .rng import RngStream, mix_stream_id
from .simulation import (
    builtin_scenario,
    density_summary,
    format_result_table,
    parse_scenario_file,
    run_scenario,
)

SEED_ENV_VAR = "RIIMPUTE_SEED"
DEFAULT_SEED = 54321

_INPUT_ERRORS = (InvalidParameter, DimensionMismatch, TooFewRows)


class CliInputError(RiImputeError):
    """Unusable command input (exit code 2)."""


@dataclass(frozen=True)
class CliRunRecord:
    """Provenance of one command invocation, cited in every output file.

    Every field is deterministic (no timestamp), so outputs stay
    byte-identical across reruns.
    """

    command: str
    seed: int
    version: str
    input_digest: str

    def header_lines(self) -> tuple[str, ...]:
        return (
            f"command: {self.command}",
            f"seed: {self.seed}",
            f"version: riimpute {self.version}",
            f"input-sha256: {self.input_digest}",
        )


def _make_record(argv: list[str], seed: int, input_paths: list[Path]) -> CliRunRecord:
    digest = hashlib.sha256()
    for path in input_paths:
        try:
            digest.update(path.read_bytes())
        except OSError as exc:
            raise CliInputError(f"cannot read {path}: {exc}") from exc
    return CliRunRecord(
        command="riimpute " + " ".join(argv),
        seed=seed,
        version=__version__,
        input_digest=digest.hexdigest() if input_paths else "none",
    )


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliInputError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


# ---------------------------------------------------------------------------
# CSV handling: comma separated, one header row, '.' decimal separator, UTF-8.
# Missing cells read as empty field or literal NA and written as empty fields;
# cells that parse to a non-finite float (inf, nan, ...) are rejected. Cells are
# written with %.17g, so a written file reads back bit for bit. Error messages
# give the physical line, comment and blank lines included.


def read_csv_columns(path: Path) -> tuple[list[str], dict[str, np.ndarray]]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = [row for row in csv.reader(handle) if row and not row[0].startswith("#")]
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliInputError(
            f"{path}: not valid UTF-8 (byte 0x{exc.object[exc.start]:02x})"
        ) from exc
    if not rows:
        raise CliInputError(f"{path}: empty file")
    header = [name.strip() for name in rows[0]]
    if len(set(header)) != len(header):
        raise CliInputError(f"{path}: duplicate column names in header")
    data = {name: np.empty(len(rows) - 1) for name in header}
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise CliInputError(f"{_where(path, i)}: expected {len(header)} fields, got {len(row)}")
        for name, cell in zip(header, row):
            cell = cell.strip()
            if cell == "" or cell == "NA":
                data[name][i - 1] = np.nan
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise CliInputError(f"{_where(path, i)}: non-numeric value {cell!r}") from exc
            if not math.isfinite(value):
                raise CliInputError(f"{_where(path, i)}: non-finite value {cell!r}")
            data[name][i - 1] = value
    return header, data


def _where(path: Path, index: int) -> str:
    """``path:line`` for ``read_csv_columns``'s row ``index`` (0 = header).

    The line is the physical line the row ends on. It is found by reading the
    file again, so only an error message pays for it.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        kept = (reader.line_num for row in reader if row and not row[0].startswith("#"))
        return f"{path}:{next(islice(kept, index, None))}"


# rows formatted per write: bounds the text held at once to a few hundred kB
_CSV_CHUNK_ROWS = 4096


def write_csv_columns(
    path: Path, header: list[str], columns: dict[str, np.ndarray], record: CliRunRecord
) -> None:
    """Write ``columns`` in ``header`` order, cells as ``%.17g`` and NaN as empty.

    Rows are formatted a chunk at a time with one ``%`` over the chunk's
    values; the bytes are those ``csv.writer`` gives row by row (numeric
    fields need no quoting, and a row of one empty field is written ``""``).
    """
    table = np.column_stack([columns[name] for name in header])
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    # "nan" is the only %.17g token containing "nan"
    empty = '""' if len(header) == 1 else ""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for line in record.header_lines():
            handle.write(f"# {line}\n")
        csv.writer(handle, lineterminator="\n").writerow(header)
        for start in range(0, len(table), _CSV_CHUNK_ROWS):
            chunk = table[start:start + _CSV_CHUNK_ROWS]
            text = (row_format * len(chunk)) % tuple(chunk.ravel().tolist())
            handle.write(text.replace("nan", empty))


def _require_columns(header: list[str], wanted: list[str], path: Path) -> None:
    missing = [name for name in wanted if name not in header]
    if missing:
        raise CliInputError(f"{path}: missing columns {missing}; available: {header}")


# ---------------------------------------------------------------------------
# impute


def _cmd_impute(args: argparse.Namespace, argv: list[str]) -> int:
    path = Path(args.input_csv)
    seed = _resolve_seed(args.seed)
    record = _make_record(argv, seed, [path])
    header, data = read_csv_columns(path)
    covariate_names = args.covariates.split(",") if args.covariates else []
    covariate_names = [name.strip() for name in covariate_names if name.strip()]
    _require_columns(header, [args.target, *covariate_names], path)

    target = data[args.target]
    if covariate_names:
        covariates = np.column_stack([data[name] for name in covariate_names])
    else:
        covariates = np.empty((len(target), 0))
    if np.isnan(covariates).any():
        raise CliInputError(f"{path}: covariates contain missing cells")
    # with no covariates the imputation model is intercept-only
    dataset = IncompleteDataset(target, covariates, target_name=args.target,
                                covariate_names=tuple(covariate_names))
    names = ["intercept", *covariate_names]

    if args.method == "cc":
        keep_covariates, keep_target = complete_case(dataset)
        keep = dataset.observed_mask
        out_cols = {name: data[name][keep] for name in header}
        out_path = Path(f"{args.output_prefix}_cc.csv")
        write_csv_columns(out_path, header, out_cols, record)
        print(f"wrote {out_path}", file=sys.stderr)
        if covariate_names:
            estimate = single_fit_estimate(fit_analysis(keep_covariates, keep_target))
            _write_pooled(args, names, estimate, record)
        return 0

    if dataset.n_missing == 0:
        print("warning: target column has no missing cells; copies will be identical",
              file=sys.stderr)

    nonresponse_columns = None
    if args.nonresponse_covariates:
        wanted = [name.strip() for name in args.nonresponse_covariates.split(",") if name.strip()]
        bad = [name for name in wanted if name not in covariate_names]
        if bad:
            raise CliInputError(
                f"--nonresponse-covariates must be a subset of --covariates; unknown: {bad}"
            )
        nonresponse_columns = tuple(covariate_names.index(name) for name in wanted)

    rng = RngStream(seed, mix_stream_id("cli-impute"))
    if args.method == "mar":
        completions = mar_impute(dataset, args.m, rng)
    else:
        config = RiConfig(iterations=args.iterations, num_imputations=args.m,
                          seed=mix_stream_id(seed, "cli-ri"))
        completions = ri_impute(dataset, config, nonresponse_columns=nonresponse_columns)

    for k, completed in enumerate(completions, start=1):
        out_cols = dict(data)
        out_cols[args.target] = completed
        out_path = Path(f"{args.output_prefix}_imp{k}.csv")
        write_csv_columns(out_path, header, out_cols, record)
        print(f"wrote {out_path}", file=sys.stderr)

    if covariate_names and len(completions) < 2:
        # one completed dataset has no between-imputation variance to pool
        print("note: -m 1 writes no pooled JSON; pooling needs at least 2 imputations",
              file=sys.stderr)
    elif covariate_names:
        fits = [fit_analysis(covariates, completed) for completed in completions]
        _write_pooled(args, names, rubin_pool(fits, len(fits)), record)
    return 0


def _pooled_payload(record: CliRunRecord, method: str, names: list[str], pooled) -> dict:
    return {
        "run": {
            "command": record.command,
            "seed": record.seed,
            "version": record.version,
            "input_sha256": record.input_digest,
        },
        "method": method,
        "analysis": [
            {
                "coefficient": name,
                "estimate": float(pooled.q_bar[j]),
                "se": float(np.sqrt(pooled.t[j])),
                "ci_low": float(pooled.ci_low[j]),
                "ci_high": float(pooled.ci_high[j]),
                "df": (None if np.isinf(pooled.df[j]) else float(pooled.df[j])),
            }
            for j, name in enumerate(names)
        ],
    }


def _write_pooled(args: argparse.Namespace, names: list[str], pooled, record: CliRunRecord) -> None:
    out_path = Path(f"{args.output_prefix}_pooled.json")
    payload = _pooled_payload(record, args.method, names, pooled)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out_path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args: argparse.Namespace, argv: list[str]) -> int:
    seed = _resolve_seed(args.seed)
    if args.scenario_file:
        record = _make_record(argv, seed, [Path(args.scenario_file)])
        config = parse_scenario_file(args.scenario_file)
        if args.seed is not None or config.master_seed == 0:
            config = replace(config, master_seed=seed)
    else:
        record = _make_record(argv, seed, [])
        config = builtin_scenario(
            args.scenario,
            beta_set=args.beta,
            n=args.n,
            replications=args.replications,
            master_seed=seed,
            m=args.m,
            iterations=args.iterations,
        )

    result = run_scenario(config, n_jobs=args.jobs)
    psi = config.psi
    header_lines = record.header_lines() + (
        f"mechanism: {config.mechanism_label}",
        f"beta: {config.beta[0]:g}, {config.beta[1]:g}, {config.beta[2]:g}",
        f"psi: {psi.psi0:g}, {psi.psi1:g}, {', '.join(f'{v:g}' for v in psi.psi_z)}",
        f"n: {config.n}  replications: {config.replications}  m: {config.m}  "
        f"iterations: {config.iterations}",
    )
    table = format_result_table([result], header_lines)
    Path(args.output).write_text(table, encoding="utf-8")
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# density


def _cmd_density(args: argparse.Namespace, argv: list[str]) -> int:
    paths = [Path(p) for p in args.input_csv]
    record = _make_record(argv, _resolve_seed(args.seed), paths)

    restrict_mask = None
    if args.only_missing_from:
        ref_path = Path(args.only_missing_from)
        ref_header, ref_data = read_csv_columns(ref_path)
        _require_columns(ref_header, [args.column], ref_path)
        restrict_mask = np.isnan(ref_data[args.column])

    labels = args.labels.split(",") if args.labels else [p.stem for p in paths]
    if len(labels) != len(paths):
        raise CliInputError("need exactly one label per input file")

    curves = []
    for path, label in zip(paths, labels):
        header, data = read_csv_columns(path)
        _require_columns(header, [args.column], path)
        values = data[args.column]
        if restrict_mask is not None:
            if len(restrict_mask) != len(values):
                raise CliInputError("--only-missing-from file must have the same row count")
            values = values[restrict_mask]
        values = values[~np.isnan(values)]
        curves.append(density_summary(values, group_label=label))

    out_path = Path(args.output)
    with open(out_path, "w", newline="", encoding="utf-8") as handle:
        for line in record.header_lines():
            handle.write(f"# {line}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "density", "group"])
        for curve in curves:
            for x, d in zip(curve.grid, curve.observed_density):
                writer.writerow([f"{x:.17g}", f"{d:.17g}", curve.group_label])
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riimpute",
        description="Impute a single incomplete variable, with or without assuming "
        "an ignorable missingness mechanism, and run Monte Carlo evaluations.",
    )
    parser.add_argument("--version", action="version", version=f"riimpute {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_imp = sub.add_parser("impute", help="complete an incomplete CSV column")
    p_imp.add_argument("input_csv")
    p_imp.add_argument("--target", required=True, help="name of the incomplete column")
    p_imp.add_argument("--covariates", default="", help="comma separated covariate columns")
    p_imp.add_argument(
        "--nonresponse-covariates",
        default="",
        help="covariate subset for the selection model (default: all covariates); "
        "prefer covariates related to the response process but not near-proxies "
        "of the target",
    )
    p_imp.add_argument("--method", choices=("ri", "mar", "cc"), default="ri")
    p_imp.add_argument("-m", type=int, default=5, help="number of imputations")
    p_imp.add_argument("--iterations", type=int, default=10)
    p_imp.add_argument("--seed", type=int, default=None)
    p_imp.add_argument("--output-prefix", required=True)
    p_imp.set_defaults(func=_cmd_impute)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", choices=sorted(("mcar", "mar", "mnar1", "mnar2", "mnar3")))
    group.add_argument("--scenario-file")
    p_sim.add_argument("--beta", choices=("strong", "moderate"), default="strong")
    p_sim.add_argument("-n", type=int, default=1000)
    p_sim.add_argument("--replications", type=int, default=200)
    p_sim.add_argument("-m", type=int, default=5)
    p_sim.add_argument("--iterations", type=int, default=10)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="forked worker processes for the replications (>= 1)")
    p_sim.add_argument("--output", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_den = sub.add_parser("density", help="write kernel density curves per input file")
    p_den.add_argument("input_csv", nargs="+")
    p_den.add_argument("--column", required=True)
    p_den.add_argument("--labels", default="", help="comma separated group labels")
    p_den.add_argument("--only-missing-from",
                       help="CSV whose missing target rows select the rows to summarise")
    p_den.add_argument("--seed", type=int, default=None)
    p_den.add_argument("--output", required=True)
    p_den.set_defaults(func=_cmd_density)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except RiImputeError as exc:
        # every other library error is a statistical failure
        print(f"statistical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
