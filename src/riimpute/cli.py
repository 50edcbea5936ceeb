"""Command line front end.

Three subcommands: ``impute`` completes a CSV with a chosen method, ``simulate``
runs a Monte Carlo scenario and writes the results table, ``density`` writes
kernel density curves for plotting elsewhere.

Exit codes: 0 on success, 2 for unusable input (parse failures, a file with no
data rows, missing or repeated columns, too few rows, an input that cannot be
read or an output that cannot be written), 3 for statistical
failure (any other library error: rank deficiency, degenerate samples, too
many failed replications). ``impute`` computes every estimate before it writes
its first file, so a failure leaves no output. Output files are byte-identical
across runs with the same command line and seed; each carries comment lines
citing the command, seed, package version and an input content digest.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
from array import array
from dataclasses import dataclass, replace
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
    BETA_SETTINGS,
    NONRESPONSE_SETTINGS,
    _scenario_keys,
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
    """``--seed``, else ``RIIMPUTE_SEED``, else the default; a seed must fit in 64 unsigned bits."""
    source = "--seed"
    if value is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return DEFAULT_SEED
        source = SEED_ENV_VAR
        try:
            value = int(env)
        except ValueError as exc:
            raise CliInputError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    if not 0 <= value < 2**64:
        raise CliInputError(f"{source} must be an integer in [0, 2**64), got {value}")
    return value


# ---------------------------------------------------------------------------
# CSV handling: comma separated, one header row, '.' decimal separator, UTF-8.
# Missing cells read as empty field or literal NA and written as empty fields;
# cells that parse to a non-finite float (inf, nan, ...) are rejected. Cells are
# written with %.17g, so a written file reads back bit for bit. The reader makes
# one pass and holds 8 bytes per cell. The first fault in the file raises at once,
# naming the physical line its row ends on: comment, blank and multi-line quoted
# lines count. A file with a header but no data rows is refused after the pass.


def read_csv_columns(path: Path) -> tuple[list[str], dict[str, np.ndarray]]:
    header = None
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            for row in reader:
                if not row or row[0].startswith("#"):
                    continue
                if header is None:
                    header = [name.strip() for name in row]
                    if len(set(header)) != len(header):
                        raise CliInputError(f"{path}: duplicate column names in header")
                    columns = [array("d") for _ in header]
                    continue
                if len(row) != len(header):
                    raise CliInputError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    )
                for column, cell in zip(columns, row):
                    cell = cell.strip()
                    if cell == "" or cell == "NA":
                        column.append(math.nan)
                        continue
                    try:
                        value = float(cell)
                    except ValueError as exc:
                        raise CliInputError(
                            f"{path}:{reader.line_num}: non-numeric value {cell!r}"
                        ) from exc
                    if not math.isfinite(value):
                        raise CliInputError(f"{path}:{reader.line_num}: non-finite value {cell!r}")
                    column.append(value)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:  # such as a cell over the csv module's field size limit
        raise CliInputError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliInputError(
            f"{path}: not valid UTF-8 (byte 0x{exc.object[exc.start]:02x})"
        ) from exc
    if header is None:
        raise CliInputError(f"{path}: empty file")
    if not columns[0]:
        raise CliInputError(f"{path}: no data rows")
    return header, {name: np.frombuffer(column) for name, column in zip(header, columns)}


@contextlib.contextmanager
def _writing(path: Path):
    """``path`` opened for writing UTF-8 text; a file that cannot be opened or
    written is unusable input (exit code 2), like one that cannot be read."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


# rows joined per write: bounds the text held at once to a few hundred kB
_CSV_CHUNK_ROWS = 4096


def _csv_cells(column) -> list[str]:
    """One column's CSV cells: ``%.17g``, NaN as an empty cell."""
    values = np.asarray(column, dtype=float).tolist()
    # "nan" is the only %.17g token containing "nan"
    text = ("%.17g\n" * len(values)) % tuple(values)
    return text.replace("nan", "").split("\n")[:-1]


def write_csv_columns(
    path: Path, header: list[str], columns: dict[str, np.ndarray | list[str]], record: CliRunRecord
) -> None:
    """Write ``columns`` in ``header`` order, cells as ``%.17g`` and NaN as empty.

    A column is an array, or the list ``_csv_cells`` made of it, so a caller
    writing one column to several files formats it once. Rows are joined and
    written a chunk at a time; the bytes are those ``csv.writer`` gives row
    by row (numeric fields need no quoting, and a row of one empty field is
    written ``""``).
    """
    ordered = [columns[name] for name in header]
    with _writing(path) as handle:
        for line in record.header_lines():
            handle.write(f"# {line}\n")
        csv.writer(handle, lineterminator="\n").writerow(header)
        for start in range(0, len(ordered[0]), _CSV_CHUNK_ROWS):
            stop = start + _CSV_CHUNK_ROWS
            chunk = [column[start:stop] if isinstance(column, list)
                     else _csv_cells(column[start:stop]) for column in ordered]
            rows = map(",".join, zip(*chunk))
            if len(header) == 1:
                rows = (row or '""' for row in rows)
            handle.write("\n".join(rows) + "\n")


def _require_columns(header: list[str], wanted: list[str], path: Path) -> None:
    missing = [name for name in wanted if name not in header]
    if missing:
        raise CliInputError(f"{path}: missing columns {missing}; available: {header}")


# ---------------------------------------------------------------------------
# impute


def _name_list(text: str, option: str) -> list[str]:
    """Column names of a comma separated option; a name given twice is unusable input."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise CliInputError(f"{option} names {', '.join(repeated)} more than once")
    return names


def _cmd_impute(args: argparse.Namespace, argv: list[str]) -> int:
    path = Path(args.input_csv)
    seed = _resolve_seed(args.seed)
    record = _make_record(argv, seed, [path])
    header, data = read_csv_columns(path)
    covariate_names = _name_list(args.covariates, "--covariates")
    _require_columns(header, [args.target, *covariate_names], path)

    target = data[args.target]
    if covariate_names:
        covariates = np.column_stack([data[name] for name in covariate_names])
    else:
        covariates = np.empty((len(target), 0))
    # with no covariates the imputation model is intercept-only
    dataset = IncompleteDataset(target, covariates, target_name=args.target,
                                covariate_names=tuple(covariate_names))

    nonresponse_columns = None
    if args.nonresponse_covariates:
        wanted = _name_list(args.nonresponse_covariates, "--nonresponse-covariates")
        bad = [name for name in wanted if name not in covariate_names]
        if bad:
            raise CliInputError(
                f"--nonresponse-covariates must be a subset of --covariates; unknown: {bad}"
            )
        nonresponse_columns = tuple(covariate_names.index(name) for name in wanted)

    # every estimate is computed before the first file is written, so a
    # failed fit leaves no output behind
    pooled = None
    if args.method == "cc":
        keep_covariates, keep_target = complete_case(dataset)
        if covariate_names:
            pooled = single_fit_estimate(fit_analysis(keep_covariates, keep_target))
        keep = dataset.observed_mask
        outputs = {"cc": {name: data[name][keep] for name in header}}
    else:
        rng = RngStream(seed, mix_stream_id("cli-impute"))
        if args.method == "mar":
            completions = mar_impute(dataset, args.m, rng)
        else:
            config = RiConfig(iterations=args.iterations, num_imputations=args.m,
                              seed=mix_stream_id(seed, "cli-ri"))
            completions = ri_impute(dataset, config, nonresponse_columns=nonresponse_columns)
        if covariate_names and len(completions) >= 2:
            fits = [fit_analysis(covariates, completed) for completed in completions]
            pooled = rubin_pool(fits, len(fits))
        # the m files differ only in the target column: format the others once
        shared = {name: _csv_cells(data[name]) for name in header if name != args.target}
        outputs = {f"imp{k}": {**shared, args.target: completed}
                   for k, completed in enumerate(completions, start=1)}

    for suffix, out_cols in outputs.items():
        out_path = Path(f"{args.output_prefix}_{suffix}.csv")
        write_csv_columns(out_path, header, out_cols, record)
        print(f"wrote {out_path}", file=sys.stderr)
    if pooled is not None:
        _write_pooled(args, ["intercept", *covariate_names], pooled, record)
    elif covariate_names:
        # one completed dataset has no between-imputation variance to pool
        print("note: -m 1 writes no pooled JSON; pooling needs at least 2 imputations",
              file=sys.stderr)
    return 0


def _write_pooled(args: argparse.Namespace, names: list[str], pooled, record: CliRunRecord) -> None:
    run = {"command": record.command, "seed": record.seed, "version": record.version,
           "input_sha256": record.input_digest}
    analysis = [
        {
            "coefficient": name,
            "estimate": float(pooled.q_bar[j]),
            "se": float(np.sqrt(pooled.t[j])),
            "ci_low": float(pooled.ci_low[j]),
            "ci_high": float(pooled.ci_high[j]),
            "df": (None if np.isinf(pooled.df[j]) else float(pooled.df[j])),
        }
        for j, name in enumerate(names)
    ]
    payload = {"run": run, "method": args.method, "analysis": analysis}
    out_path = Path(f"{args.output_prefix}_pooled.json")
    with _writing(out_path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args: argparse.Namespace, argv: list[str]) -> int:
    seed = _resolve_seed(args.seed)
    if args.scenario_file:
        path = Path(args.scenario_file)
        record = _make_record(argv, seed, [path])
        config = parse_scenario_file(path)
        # seed precedence: --seed, then the file's seed, then RIIMPUTE_SEED or the default
        if args.seed is not None or "seed" not in _scenario_keys(path):
            config = replace(config, master_seed=seed)
        record = replace(record, seed=config.master_seed)
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
    with _writing(Path(args.output)) as handle:
        handle.write(table)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# density


def _cmd_density(args: argparse.Namespace, argv: list[str]) -> int:
    paths = [Path(p) for p in args.input_csv]
    record = _make_record(argv, _resolve_seed(args.seed), paths)

    row_mask = None
    if args.only_missing_from:
        ref_path = Path(args.only_missing_from)
        ref_header, ref_data = read_csv_columns(ref_path)
        _require_columns(ref_header, [args.column], ref_path)
        row_mask = np.isnan(ref_data[args.column])

    labels = args.labels.split(",") if args.labels else [p.stem for p in paths]
    if len(labels) != len(paths):
        raise CliInputError("need exactly one label per input file")

    curves = []
    for path, label in zip(paths, labels):
        header, data = read_csv_columns(path)
        _require_columns(header, [args.column], path)
        values = data[args.column]
        if row_mask is not None:
            if len(row_mask) != len(values):
                raise CliInputError("--only-missing-from file must have the same row count")
            values = values[row_mask]
        values = values[~np.isnan(values)]
        curves.append(density_summary(values, group_label=label))

    out_path = Path(args.output)
    with _writing(out_path) as handle:
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
    group.add_argument("--scenario", choices=sorted(NONRESPONSE_SETTINGS))
    group.add_argument("--scenario-file")
    p_sim.add_argument("--beta", choices=tuple(BETA_SETTINGS), default="strong")
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
