"""Deterministic random number streams and the distribution samplers built on them.

A stream is identified by a ``(seed, stream_id)`` pair fed to a counter-based
Philox generator, so distinct pairs give statistically independent sequences
and equal pairs reproduce draws bit for bit. All samplers take the stream
explicitly; nothing in the package touches global random state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .fitters import _eigh

_U64 = 2**64
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> int:
    state = (state + _SPLITMIX_GAMMA) % _U64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % _U64
    return z ^ (z >> 31)


def _is_integer(value) -> bool:
    """Whether a count or index is an integer: a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_seed(value) -> bool:
    """Whether a seed or stream id is valid: an integer in [0, 2**64)."""
    return _is_integer(value) and 0 <= value < _U64


def mix_stream_id(*parts: int | str) -> int:
    """Fold integers and strings into one 64-bit stream id.

    Integers (Python or numpy, not bools) fold modulo 2**64; any other part
    raises InvalidParameter. Platform independent (does not use python's
    salted ``hash``), so derived stream ids are stable across runs and machines.
    """
    acc = 0
    for part in parts:
        if isinstance(part, str):
            for byte in part.encode("utf-8"):
                acc = _splitmix64(acc ^ byte)
        elif _is_integer(part):
            acc = _splitmix64(acc ^ (int(part) % _U64))
        else:
            raise InvalidParameter(f"stream id parts must be strings or integers, got {part!r}")
    return acc


@dataclass(frozen=True)
class RngStream:
    """A named random stream: ``(seed, stream_id)`` keys a Philox generator.

    The frozen key is two integers in [0, 2**64) (else InvalidParameter). The
    generator is built from it at construction and advances as draws are consumed,
    so streams built with equal keys, by ``dataclasses.replace`` too, draw alike.
    """

    seed: int
    stream_id: int = 0
    generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not _is_seed(value):
                raise InvalidParameter(f"{name} must be an unsigned 64-bit integer, got {value!r}")
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        object.__setattr__(self, "generator", np.random.Generator(np.random.Philox(key=key)))


def sample_mvnormal(mean, covariance, rng: RngStream) -> np.ndarray:
    """Draw one vector from a multivariate normal with PSD covariance.

    Uses a symmetric eigendecomposition so that singular covariances (including
    the zero matrix, which returns the mean exactly) are handled. A non-finite
    mean or covariance, an asymmetric covariance, and a draw that overflows
    (covariance entries near the float limit) raise InvalidParameter.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(covariance, dtype=float)
    p = mean.shape[0]
    if cov.shape != (p, p):
        raise DimensionMismatch(f"covariance shape {cov.shape} does not match mean length {p}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, or a difference past the limit
        symmetrized = 0.5 * cov + 0.5 * cov.T  # halving each term first cannot overflow
        if not (np.isfinite(mean).all() and np.isfinite(symmetrized).all()):
            raise InvalidParameter("mean and covariance must be finite")
        scale = max(1.0, float(np.abs(cov).max(initial=0.0)))
        if not np.allclose(cov, cov.T, rtol=0, atol=1e-8 * scale):
            raise InvalidParameter("covariance must be symmetric")
    draw = _mvnormal(mean, symmetrized, rng)
    if not np.isfinite(draw).all():
        raise InvalidParameter("the draw overflows: covariance entries too near the float limit")
    return draw


def _mvnormal(mean: np.ndarray, cov: np.ndarray, rng: RngStream) -> np.ndarray:
    """Kernel of ``sample_mvnormal`` for an exactly symmetric covariance, which
    its symmetrization leaves unchanged bit for bit unless an entry is below
    2**-1021 in magnitude, where halving can round."""
    p = mean.shape[0]
    eigvals, eigvecs = _eigh(cov)
    floor = -1e-8 * max(1.0, float(np.maximum.reduce(eigvals, initial=0.0)))
    if np.minimum.reduce(eigvals, initial=0.0) < floor:
        raise InvalidParameter("covariance must be positive semidefinite")
    root = eigvecs * np.sqrt(np.maximum(eigvals, 0.0))
    return mean + root @ rng.generator.standard_normal(p)


def sample_scaled_inv_chi2(df: float, scale: float, rng: RngStream, size: int | None = None):
    """Draw scale*df / chi2(df), the scaled inverse chi-square distribution."""
    if df <= 0 or not np.isfinite(df):
        raise InvalidParameter("df must be positive")
    if scale <= 0 or not np.isfinite(scale):
        raise InvalidParameter("scale must be positive")
    draw = scale * df / rng.generator.chisquare(df, size=size)
    return float(draw) if size is None else draw


def sample_bernoulli(p, rng: RngStream):
    """Draw 0/1 with success probability p; exact at p = 0 and p = 1."""
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):  # NaN fails both, so it is not drawn as 0
        raise InvalidParameter("p must lie in [0, 1]")
    out = _bernoulli(p, rng)
    return int(out) if out.ndim == 0 else out


def _bernoulli(p: np.ndarray, rng: RngStream, out: np.ndarray | None = None) -> np.ndarray:
    """Kernel of ``sample_bernoulli`` for probabilities in [0, 1]; the uniform
    draws are written to ``out`` when given."""
    return (rng.generator.random(p.shape, out=out) < p).astype(np.int8)
