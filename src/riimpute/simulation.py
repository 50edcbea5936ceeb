"""Monte Carlo harness comparing complete-case, ignorable, and random-indicator
analyses on synthetic data.

Complete data follow a linear model of the target on two normal covariates;
missingness in the target is then imposed by a logistic selection model. Five
builtin selection settings cover ignorable and increasingly nonignorable
mechanisms at two association strengths. Replications are deterministic given
the master seed: every random draw comes from a stream keyed by the scenario
and the replication index, so results do not depend on execution order or
the number of worker processes.
"""

from __future__ import annotations

import itertools
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateSample, InvalidParameter, RiImputeError
from .imputation import (IncompleteDataset, RiConfig, _available_cpus, complete_case, mar_impute,
                         ri_impute)
from .mechanism import NonresponseParams, generate_missingness
from .pooling import PooledEstimate, coverage, fit_analysis, rubin_pool, single_fit_estimate
from .rng import RngStream, _is_integer, _is_seed, mix_stream_id

BETA_SETTINGS: dict[str, tuple[float, float, float]] = {
    "strong": (1.0, 0.5, 1.0),
    "moderate": (3.0, -0.25, 0.5),
}

NONRESPONSE_SETTINGS: dict[str, tuple[float, float, float]] = {
    "mcar": (-0.75, 0.00, 0.00),
    "mar": (-2.00, 0.00, 0.50),
    "mnar1": (-0.50, 0.50, 0.25),
    "mnar2": (-1.00, 0.75, -0.50),
    "mnar3": (-2.00, 1.50, 0.00),
}

METHODS = ("cc", "mi", "ri")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: data model, selection model, and run sizes.

    ``psi.psi_z`` holds coefficients for the leading covariate columns; with
    the builtin settings that is the single coefficient on the first
    covariate. ``generate_complete_data`` draws two covariates, so more than
    two coefficients raise InvalidParameter.
    """

    beta: tuple[float, float, float]
    psi: NonresponseParams
    n: int
    replications: int
    mechanism_label: str
    m: int = 5
    iterations: int = 10
    master_seed: int = 0

    def __post_init__(self) -> None:
        if len(self.beta) != 3:
            raise InvalidParameter("beta must have three entries")
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if len(self.psi.psi_z) > 2:
            raise InvalidParameter(f"psi has {len(self.psi.psi_z)} covariate coefficients; "
                                   "the scenario data have 2 covariates")
        for name in ("n", "replications", "m", "iterations"):
            if not _is_integer(getattr(self, name)):
                raise InvalidParameter(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n < 50:
            raise InvalidParameter("n must be at least 50")
        if self.replications < 1:
            raise InvalidParameter("replications must be >= 1")
        if self.m < 2:
            raise InvalidParameter(f"m must be >= 2 to pool the imputations, got {self.m}")
        if self.iterations < 1:
            raise InvalidParameter(f"iterations must be >= 1, got {self.iterations}")
        if not _is_seed(self.master_seed):
            raise InvalidParameter("master_seed must be an integer in [0, 2**64), "
                                   f"got {self.master_seed}")


@dataclass(frozen=True)
class MethodSummary:
    """Aggregates for one method over the replications of a scenario."""

    mean_estimate: np.ndarray
    coverage_rate: np.ndarray
    mc_se: np.ndarray


@dataclass(frozen=True)
class ScenarioResult:
    """Aggregates of one scenario. ``failures_by_type`` counts the failed
    replications by the name of the error type that stopped them, sorted by
    name; its counts sum to ``failed_replications``."""

    config: ScenarioConfig
    methods: dict[str, MethodSummary]
    mean_missing_fraction: float
    failed_replications: int
    failures_by_type: dict[str, int]


@dataclass(frozen=True)
class ReplicationResult:
    estimates: dict[str, PooledEstimate]
    missing_fraction: float


@dataclass(frozen=True)
class DensitySummary:
    """Kernel density of one group."""

    grid: np.ndarray
    observed_density: np.ndarray
    group_label: str


def builtin_scenario(
    mechanism: str,
    beta_set: str = "strong",
    n: int = 1000,
    replications: int = 200,
    master_seed: int = 0,
    m: int = 5,
    iterations: int = 10,
) -> ScenarioConfig:
    """Construct one of the builtin mechanism x association scenarios."""
    mech = mechanism.lower()
    if mech not in NONRESPONSE_SETTINGS:
        raise InvalidParameter(
            f"unknown mechanism {mechanism!r}; choose from {sorted(NONRESPONSE_SETTINGS)}"
        )
    if beta_set not in BETA_SETTINGS:
        raise InvalidParameter(f"unknown beta set {beta_set!r}; choose from {sorted(BETA_SETTINGS)}")
    psi0, psi1, psi2 = NONRESPONSE_SETTINGS[mech]
    return ScenarioConfig(
        beta=BETA_SETTINGS[beta_set],
        psi=NonresponseParams(psi0, psi1, np.array([psi2])),
        n=n,
        replications=replications,
        mechanism_label=mech,
        m=m,
        iterations=iterations,
        master_seed=master_seed,
    )


def generate_complete_data(
    beta: tuple[float, float, float], n: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the complete data: two normal covariates and the linear target.

    First covariate ~ N(2, 4), second ~ N(-1, 1), residual ~ N(0, 1).
    """
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    gen = rng.generator
    x2 = gen.normal(2.0, 2.0, n)
    x3 = gen.normal(-1.0, 1.0, n)
    eps = gen.standard_normal(n)
    x1 = beta[0] + beta[1] * x2 + beta[2] * x3 + eps
    return x1, np.column_stack([x2, x3])


def _scenario_key(config: ScenarioConfig) -> int:
    parts: list[int | str] = [config.mechanism_label, config.n, config.m, config.iterations]
    for value in (*config.beta, config.psi.psi0, config.psi.psi1, *config.psi.psi_z):
        parts.append(int(np.float64(value).view(np.uint64)))  # the float's bits
    return mix_stream_id(*parts)


def run_replication(config: ScenarioConfig, replication_index: int) -> ReplicationResult:
    """One complete-data draw, one missingness draw, all three analyses.

    Deterministic given (master_seed, scenario, replication_index); the index
    must be a non-negative integer.
    """
    if not (_is_integer(replication_index) and replication_index >= 0):
        raise InvalidParameter(
            f"replication_index must be a non-negative integer, got {replication_index!r}")
    key = _scenario_key(config)
    data_rng = RngStream(config.master_seed, mix_stream_id("data", key, replication_index))
    x1, covariates = generate_complete_data(config.beta, config.n, data_rng)

    n_sel = len(config.psi.psi_z)
    selection_cols = tuple(range(n_sel))
    miss_rng = RngStream(config.master_seed, mix_stream_id("miss", key, replication_index))
    resp = generate_missingness(x1, covariates[:, :n_sel], config.psi, miss_rng)

    target = x1.copy()
    target[resp == 0] = np.nan
    data = IncompleteDataset(target, covariates, target_name="x1", covariate_names=("x2", "x3"))

    estimates: dict[str, PooledEstimate] = {}
    estimates["cc"] = single_fit_estimate(fit_analysis(*complete_case(data)))

    mar_rng = RngStream(config.master_seed, mix_stream_id("mar", key, replication_index))
    mi_completions = mar_impute(data, config.m, mar_rng)
    estimates["mi"] = rubin_pool(
        [fit_analysis(data.covariates, c) for c in mi_completions], config.m
    )

    ri_cfg = RiConfig(
        iterations=config.iterations,
        num_imputations=config.m,
        seed=mix_stream_id("ri", config.master_seed, key, replication_index),
    )
    ri_completions = ri_impute(data, ri_cfg, nonresponse_columns=selection_cols)
    estimates["ri"] = rubin_pool(
        [fit_analysis(data.covariates, c) for c in ri_completions], config.m
    )
    return ReplicationResult(estimates=estimates, missing_fraction=data.n_missing / config.n)


def _one(config: ScenarioConfig, i: int) -> ReplicationResult | str:
    """Replication ``i``, or the name of the library error type that stopped it."""
    try:
        return run_replication(config, i)
    except RiImputeError as exc:
        return type(exc).__name__


def run_scenario(config: ScenarioConfig, n_jobs: int = 1) -> ScenarioResult:
    """Aggregate all replications of one scenario.

    With ``n_jobs`` > 1 the replications run in that many forked worker
    processes (at most one per replication). Failed replications
    (non-convergence, too few rows and the like) are counted by error type
    and skipped; the run errors out, naming the counts, only when more than 5%
    of them fail. Results are identical for any ``n_jobs`` >= 1.
    """
    if not _is_integer(n_jobs):
        raise InvalidParameter(f"n_jobs must be an integer, got {n_jobs!r}")
    if n_jobs < 1:
        raise InvalidParameter(f"n_jobs must be >= 1, got {n_jobs}")
    indices = range(config.replications)
    workers = min(n_jobs, config.replications)
    if workers > 1:
        # fork: a spawned or forkserver worker re-imports numpy and riimpute
        # (about 0.4-0.5 s), longer than a small scenario takes to run.
        context = multiprocessing.get_context("fork")
        import scipy.special  # noqa: F401  (load the lazy import once here, not in every worker)
        chunksize = max(1, config.replications // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            outcomes = list(pool.map(_one, itertools.repeat(config), indices, chunksize=chunksize))
    else:
        outcomes = [_one(config, i) for i in indices]

    successes = [o for o in outcomes if not isinstance(o, str)]
    failures = dict(sorted(Counter(o for o in outcomes if isinstance(o, str)).items()))
    failed = config.replications - len(successes)
    if failed > 0.05 * config.replications:
        counts = ", ".join(f"{name}: {count}" for name, count in failures.items())
        raise RiImputeError(
            f"{failed} of {config.replications} replications failed in scenario "
            f"{config.mechanism_label!r} ({counts})"
        )

    truth = np.asarray(config.beta)
    methods: dict[str, MethodSummary] = {}
    for method in METHODS:
        points = np.vstack([o.estimates[method].q_bar for o in successes])
        covered = np.vstack([coverage(o.estimates[method], truth) for o in successes])
        methods[method] = MethodSummary(
            mean_estimate=points.mean(axis=0),
            coverage_rate=covered.mean(axis=0),
            mc_se=points.std(axis=0, ddof=1) / np.sqrt(len(successes))
            if len(successes) > 1
            else np.zeros(points.shape[1]),
        )
    return ScenarioResult(
        config=config,
        methods=methods,
        mean_missing_fraction=float(np.mean([o.missing_fraction for o in successes])),
        failed_replications=failed,
        failures_by_type=failures,
    )


def format_result_table(results: list[ScenarioResult], header_lines: tuple[str, ...] = ()) -> str:
    """Render scenario results as a comment-headed delimited table."""
    lines = [f"# {line}" for line in header_lines]
    lines.append("mechanism,method,coefficient,true,mean_estimate,coverage,mc_se,missing_rate")
    for result in results:
        truth = result.config.beta
        for method in METHODS:
            summary = result.methods[method]
            for j, true_value in enumerate(truth):
                lines.append(
                    f"{result.config.mechanism_label},{method},beta{j + 1},{true_value:.6f},"
                    f"{summary.mean_estimate[j]:.6f},{summary.coverage_rate[j]:.4f},"
                    f"{summary.mc_se[j]:.6f},{result.mean_missing_fraction:.6f}"
                )
    return "\n".join(lines) + "\n"


def _sample(values) -> np.ndarray:
    """``values`` as a float array; a NaN or an infinity raises InvalidParameter,
    then anything but a 1-d sample of at least two values DegenerateSample."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise InvalidParameter("bandwidth needs finite values")
    if values.ndim != 1 or values.size < 2:
        raise DegenerateSample("bandwidth needs a 1-d sample of at least two values, "
                               f"got shape {values.shape}")
    return values


def silverman_bandwidth(values: np.ndarray) -> float:
    """0.9 * min(sd, IQR / 1.34) * n^(-1/5), guarding the degenerate pieces.

    A NaN or an infinity raises InvalidParameter; a sample that is not 1-d or
    has fewer than two values raises DegenerateSample.
    """
    values = _sample(values)
    sd = float(values.std(ddof=1))
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread <= 0:
        raise DegenerateSample("sample has no spread; bandwidth undefined")
    return 0.9 * spread * len(values) ** (-0.2)


# numpy's float64 exp stays on its fast SIMD path for arguments down to about
# -708. Below, where the result is subnormal or 0, a lane takes a slow path (on
# an AVX-512 Xeon up to 0.1 us, against about 1 ns) that also slows the vector
# it shares with fast lanes. _kernel_exp hands the SIMD pass only arguments
# -0.5 * z**2 from -700 up:
_FAST_Z2 = 1400.0
# past this z**2, exp(-0.5 * z**2) is exactly +0.0 (-746 < log(2**-1075) = -745.13)
_ZERO_Z2 = 1492.0
# the most lanes of a block in the band between the two bounds that are
# exponentiated apart (64 KB of values and indices); a block with more, as tied
# values can give, takes one plain exp pass, so the scratch is bounded for any data
_BAND_LANES = 4096
# a block with at most this share of its lanes past _FAST_Z2 takes one plain
# exp: for a 7 x 8192 block with such lanes scattered, on an AVX-512 Xeon,
# _kernel_exp cost 0.22 ms at any share up to 2%, a plain exp 0.09 ms with
# none, 0.17 ms with 1% and 0.24 ms with 2%
_FAR_SHARE = 0.015
# lanes of a tile: each thread's float64 buffer and one-byte mask, about 0.52 MB
_TILE_LANES = 7 * 8192


def _kernel_exp(z2: np.ndarray, near: np.ndarray) -> None:
    """Overwrite the kernel lanes ``z2`` (squared scaled distances) with
    ``exp(-0.5 * z2)``, each with the bits of a plain ``np.exp``.

    ``near`` is boolean scratch of the same size. The lanes in the band from
    ``_FAST_Z2`` to ``_ZERO_Z2`` are exponentiated apart, packed together; the
    rest are clamped to ``_FAST_Z2`` for the pass over all of ``z2``, so that it
    sees only fast arguments, and those past the fast bound are then set to
    +0.0 before the band goes back. A block with more than ``_BAND_LANES``
    lanes in the band takes one plain pass instead.
    """
    np.greater(z2, _FAST_Z2, out=near)
    np.logical_and(near, z2 <= _ZERO_Z2, out=near)
    if np.count_nonzero(near) > _BAND_LANES:
        z2 *= -0.5
        np.exp(z2, out=z2)
        return
    lanes = np.flatnonzero(near)
    band = z2[lanes]
    band *= -0.5
    np.exp(band, out=band)
    np.less_equal(z2, _FAST_Z2, out=near)
    np.minimum(z2, _FAST_Z2, out=z2)
    z2 *= -0.5
    np.exp(z2, out=z2)
    np.multiply(z2, near.view(np.uint8), out=z2)  # +0.0 past the fast bound
    z2[lanes] = band


def _kde_on_grid(values: np.ndarray, grid: np.ndarray, bandwidth: float) -> np.ndarray:
    """Kernel sums over tiles of grid points, shared out to one thread per
    available CPU (``_available_cpus``: one in a worker process).

    The tile count is rounded up to a multiple of the thread count, and thread
    i (the calling thread for i = 0, pool threads for the rest) takes tiles
    i, i + threads, ... into one buffer (tile points x 8192 values at most,
    with its mask about 0.52 MB) that stays in cache through the passes over
    a block; numpy releases the GIL in each. A block with at
    most ``_FAR_SHARE`` of its lanes past the fast bound, as counted in the
    sorted block, takes a plain ``exp``, any other ``_kernel_exp``. Every grid
    point's sum adds the same 8192-value block sums in the same order as an
    untiled loop, and both paths write the bits of a plain ``exp``, so the
    curve is the same bytes for any tiling and any thread count.
    """
    density = np.zeros_like(grid)
    norm_const = 1.0 / (len(values) * bandwidth * np.sqrt(2.0 * np.pi))
    width = min(len(values), 8192)
    threads = min(_available_cpus(), len(grid))
    tiles = -(-len(grid) // max(1, _TILE_LANES // width))
    tile_points = -(-len(grid) // (-(-tiles // threads) * threads))
    blocks = [values[first : first + 8192] for first in range(0, len(values), 8192)]
    # each block's lanes within the fast bound of each grid point, counted in
    # the sorted block: a count that rounding puts off by a lane only moves a
    # block to the other path, and both write the bits of a plain exp
    edge = np.sqrt(_FAST_Z2) * bandwidth
    near_counts = [
        np.searchsorted(ordered, grid + edge, "right") - np.searchsorted(ordered, grid - edge)
        for ordered in map(np.sort, blocks)
    ]

    def run(thread: int) -> None:
        buffer = np.empty(tile_points * width)
        near = np.empty(len(buffer), dtype=bool)
        for start in range(thread * tile_points, len(grid), threads * tile_points):
            points = grid[start : start + tile_points, None]
            sums = density[start : start + tile_points]
            for block, counts in zip(blocks, near_counts):
                size = len(points) * len(block)
                # a contiguous prefix, not a strided view, so that _kernel_exp's
                # index assignments write into the buffer rather than to a copy
                kernel = buffer[:size].reshape(len(points), len(block))
                np.subtract(points, block[None, :], out=kernel)
                kernel /= bandwidth
                kernel *= kernel
                if size - counts[start : start + len(points)].sum() <= _FAR_SHARE * size:
                    kernel *= -0.5
                    np.exp(kernel, out=kernel)
                else:
                    _kernel_exp(buffer[:size], near[:size])
                sums += kernel.sum(axis=1)

    # the calling thread takes the first share: on a 2-CPU machine, a pool of
    # one thread less cut a 1 000-value curve from 3.5 to 2.8 ms
    with ThreadPoolExecutor(max_workers=max(1, threads - 1)) as pool:
        others = pool.map(run, range(1, threads))
        run(0)
        list(others)
    return density * norm_const


def density_summary(values, group_label: str = "") -> DensitySummary:
    """Gaussian kernel density on a 512-point grid.

    The grid runs from min - 4h to max + 4h with the plug-in bandwidth h, so
    the trapezoid integral of the curve is 1 to within a tenth of a percent.
    That needs a grid step no wider than h: a sample whose range is more than
    about 500 bandwidths (a few far outliers around a tight bulk) raises
    DegenerateSample instead, as does a sample that is not 1-d or has fewer
    than two distinct values. A NaN or an infinity raises InvalidParameter
    before any other check. The kernel sum is split over the available CPUs,
    and the curve is the same bytes for any CPU count.
    """
    values = _sample(values)
    if not values.min() < values.max():
        raise DegenerateSample("density needs at least two distinct values")
    h = silverman_bandwidth(values)
    grid = np.linspace(values.min() - 4.0 * h, values.max() + 4.0 * h, 512)
    step = grid[1] - grid[0]
    if not step <= h:
        raise DegenerateSample(
            f"bandwidth {h:.3g} is narrower than the grid step {step:.3g}; "
            f"the 512-point grid cannot resolve the kernels"
        )
    return DensitySummary(
        grid=grid, observed_density=_kde_on_grid(values, grid, h), group_label=group_label
    )


def _scenario_keys(path) -> dict[str, str]:
    """The ``key = value`` pairs of a scenario file, keys lower-cased; unknown or
    repeated keys raise."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParameter(
            f"{path}: not valid UTF-8 (byte 0x{exc.object[exc.start]:02x})"
        ) from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidParameter(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        if key in raw:
            raise InvalidParameter(f"{path}:{lineno}: key {key!r} is set twice")
        raw[key] = value.strip()

    known = {"mechanism", "beta", "psi", "n", "replications", "m", "iterations", "seed"}
    unknown = set(raw) - known
    if unknown:
        raise InvalidParameter(f"unknown scenario keys: {sorted(unknown)}")
    return raw


def parse_scenario_file(path) -> ScenarioConfig:
    """Read a key = value scenario description.

    Recognised keys: mechanism, beta (set name or three numbers), psi (three
    numbers), n, replications, m, iterations, seed. Omitted beta/psi fall back
    to the builtin values for the mechanism, an omitted seed to 0. A '#'
    starts a comment anywhere on a line.
    """
    return _scenario_config(_scenario_keys(path), path)


def _scenario_config(raw: dict[str, str], path) -> ScenarioConfig:
    """The scenario that the pairs ``raw`` of the file ``path`` describe."""
    if "mechanism" not in raw:
        raise InvalidParameter("scenario file must set 'mechanism'")
    mechanism = raw["mechanism"].lower()

    def _floats(text: str, count: int, key: str) -> tuple[float, ...]:
        parts = [p for chunk in text.split(",") for p in chunk.split()]
        try:
            values = tuple(float(p) for p in parts)
        except ValueError:
            values = ()
        if len(values) != count:
            raise InvalidParameter(f"{path}: {key} needs {count} numbers, got {text!r}")
        return values

    beta_text = raw.get("beta", "strong")
    if beta_text in BETA_SETTINGS:
        beta = BETA_SETTINGS[beta_text]
    else:
        beta = _floats(beta_text, 3, "beta")

    if "psi" in raw:
        psi0, psi1, psi2 = _floats(raw["psi"], 3, "psi")
    elif mechanism in NONRESPONSE_SETTINGS:
        psi0, psi1, psi2 = NONRESPONSE_SETTINGS[mechanism]
    else:
        raise InvalidParameter(
            f"mechanism {mechanism!r} is not builtin, so the file must set 'psi'"
        )

    def _int(key: str, default: int) -> int:
        try:
            return int(raw[key]) if key in raw else default
        except ValueError as exc:
            raise InvalidParameter(f"{path}: {key} must be an integer, got {raw[key]!r}") from exc

    return ScenarioConfig(
        beta=beta,
        psi=NonresponseParams(psi0, psi1, np.array([psi2])),
        n=_int("n", 1000),
        replications=_int("replications", 200),
        mechanism_label=mechanism,
        m=_int("m", 5),
        iterations=_int("iterations", 10),
        master_seed=_int("seed", 0),
    )
