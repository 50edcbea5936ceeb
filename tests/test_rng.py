import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from riimpute import (
    DimensionMismatch,
    InvalidParameter,
    RngStream,
    mix_stream_id,
    sample_bernoulli,
    sample_mvnormal,
    sample_scaled_inv_chi2,
)
from riimpute.rng import _mvnormal


def test_same_key_reproduces_byte_identical_sequences():
    a = RngStream(123, 45).generator.standard_normal(1000)
    b = RngStream(123, 45).generator.standard_normal(1000)
    assert a.tobytes() == b.tobytes()
    # the first draws of a key, pinned to the bytes the package has always drawn
    assert RngStream(1, 2).generator.integers(2**63, size=3).tolist() == [
        2852926502413645188, 3292340172822149525, 340384214355098341]


def test_mixed_draw_types_reproduce_exactly():
    def consume(stream):
        g = stream.generator
        return (g.standard_normal(5), g.random(5), g.chisquare(3.0, 5), g.choice(np.arange(50), 7))

    first = consume(RngStream(9, 2))
    second = consume(RngStream(9, 2))
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def test_distinct_stream_ids_are_uncorrelated():
    x = RngStream(7, 0).generator.standard_normal(100_000)
    y = RngStream(7, 1).generator.standard_normal(100_000)
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r) < 0.02


def test_stream_id_validation():
    # a float, bool or string is refused, not folded by int() into another key
    for value in (-1, 2**64, 1.5, True, "3", np.float64(2.0), np.int64(-1)):
        for field in ("seed", "stream_id"):
            with pytest.raises(InvalidParameter, match=f"{field} must be an unsigned 64-bit integer"):
                RngStream(**{"seed": 0, "stream_id": 0, field: value})
    top = RngStream(np.uint64(2**64 - 1), np.uint64(2**64 - 1)).generator.random(2)
    assert top.tolist() == [0.4268615279451663, 0.5715123063997486]
    assert top.tobytes() == RngStream(2**64 - 1, 2**64 - 1).generator.random(2).tobytes()


def test_stream_key_is_frozen_and_has_no_generator_option():
    stream = RngStream(1, 0)
    with pytest.raises(FrozenInstanceError):
        stream.seed = 2
    with pytest.raises(TypeError):
        RngStream(1, 0, _generator=np.random.default_rng(0))
    with pytest.raises(TypeError):
        RngStream(1, 0, generator=np.random.default_rng(0))


def test_replaced_stream_draws_as_a_fresh_one():
    used = RngStream(1, 0)
    used.generator.random(5)
    replaced = replace(used, stream_id=2)
    assert replaced.generator is not used.generator
    expected = RngStream(1, 2).generator.random(4)
    assert replaced.generator.random(4).tobytes() == expected.tobytes()
    assert replaced == RngStream(1, 2)


def test_mix_stream_id_is_stable_and_sensitive():
    assert mix_stream_id("ri", 3, 4) == mix_stream_id("ri", 3, 4)
    assert mix_stream_id("ri", 3, 4) != mix_stream_id("ri", 4, 3)
    assert mix_stream_id("a") != mix_stream_id("b")
    assert 0 <= mix_stream_id("anything", 10**12) < 2**64
    assert mix_stream_id("ri-chain", 0) == 1839546504585494042
    # integers fold modulo 2**64, numpy integers as their Python values
    assert mix_stream_id(-1) == mix_stream_id(2**64 - 1) == mix_stream_id(np.uint64(2**64 - 1))
    assert mix_stream_id(np.int64(7), "x") == mix_stream_id(7, "x")


@pytest.mark.parametrize("part", [1.5, True, np.float64(1.0), None, b"x"])
def test_mix_stream_id_refuses_parts_that_are_no_integers_or_strings(part):
    with pytest.raises(InvalidParameter, match="must be strings or integers"):
        mix_stream_id("ri", part)


def test_sample_bernoulli_degenerate_probabilities(rng):
    assert sample_bernoulli(0.0, rng) == 0
    assert sample_bernoulli(1.0, rng) == 1
    vec = sample_bernoulli(np.array([0.0, 1.0, 0.0, 1.0]), rng)
    assert vec.tolist() == [0, 1, 0, 1]


def test_sample_bernoulli_rate(rng):
    draws = sample_bernoulli(np.full(100_000, 0.3), rng)
    assert abs(draws.mean() - 0.3) < 0.01


def test_sample_bernoulli_rejects_out_of_range(rng):
    with pytest.raises(InvalidParameter):
        sample_bernoulli(1.5, rng)


def test_scaled_inv_chi2_moment(rng):
    # mean of the scaled inverse chi-square is df * scale / (df - 2) = 2.5 here
    draws = sample_scaled_inv_chi2(10.0, 2.0, rng, size=1_000_000)
    assert abs(draws.mean() - 2.5) / 2.5 < 0.01


def test_scaled_inv_chi2_domain(rng):
    with pytest.raises(InvalidParameter):
        sample_scaled_inv_chi2(0.0, 1.0, rng)
    with pytest.raises(InvalidParameter):
        sample_scaled_inv_chi2(3.0, 0.0, rng)


def test_mvnormal_zero_covariance_returns_mean(rng):
    mean = np.array([1.0, -2.0, 0.5])
    draw = sample_mvnormal(mean, np.zeros((3, 3)), rng)
    assert np.array_equal(draw, mean)


def test_eigenvalue_floor_keeps_the_bits_of_clip():
    # _mvnormal floors the eigenvalues with np.maximum(eigvals, 0.0), which is
    # what np.clip(eigvals, 0.0, None) computes: the same sign of zero, the same NaN
    eigvals = np.array([-0.0, 0.0, -1e-300, 1e-300, np.nan, -np.nan, 2.5, -3.0])
    floored = np.maximum(eigvals, 0.0)
    assert floored.tobytes() == np.clip(eigvals, 0.0, None).tobytes()
    assert np.sqrt(floored).tobytes() == np.sqrt(np.clip(eigvals, 0.0, None)).tobytes()


def test_mvnormal_covariance_recovery(rng):
    cov = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
    draws = np.vstack([sample_mvnormal(np.zeros(3), cov, rng) for _ in range(100_000)])
    sample_cov = np.cov(draws.T)
    rel = np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov)
    assert rel < 0.05


def test_mvnormal_rejects_bad_covariance(rng):
    with pytest.raises(InvalidParameter):
        sample_mvnormal(np.zeros(2), np.array([[1.0, 0.9], [0.2, 1.0]]), rng)
    with pytest.raises(InvalidParameter):
        sample_mvnormal(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), rng)
    with pytest.raises(DimensionMismatch, match="does not match mean length 2"):
        sample_mvnormal(np.zeros(2), np.eye(3), rng)


@pytest.mark.parametrize("mean, cov, message", [
    ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]], "must be finite"),
    ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]], "must be finite"),
    ([0.0, np.nan], [[1.0, 0.0], [0.0, 1.0]], "must be finite"),
    ([0.0, 0.0], [[1e308, 1e308], [1e308, 1e308]], "the draw overflows"),
    ([0.0, 0.0], [[1e308, 1e308], [-1e308, 1e308]], "must be symmetric"),
], ids=["inf-covariance", "nan-covariance", "nan-mean", "overflow", "asymmetric-near-limit"])
def test_mvnormal_rejects_non_finite_input_without_warnings(rng, mean, cov, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match=message):
            sample_mvnormal(np.array(mean), np.array(cov), rng)


def test_mvnormal_symmetrizes_by_halving_each_term_first():
    # in the normal range the halves sum to the bits of the halved sum; near the
    # float limit only halving first keeps the symmetrized covariance finite
    cov = np.array([[2.0, 0.6 + 1e-12, 0.1], [0.6, 1.0, -0.3], [0.1, -0.3 - 3e-13, 0.5]])
    expected = _mvnormal(np.ones(3), 0.5 * (cov + cov.T), RngStream(8, 1))
    assert sample_mvnormal(np.ones(3), cov, RngStream(8, 1)).tobytes() == expected.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draw = sample_mvnormal(np.zeros(2), np.array([[1e308, 0.0], [0.0, 1e308]]), RngStream(8, 1))
    assert np.isfinite(draw).all() and np.abs(draw).max() > 1e150
