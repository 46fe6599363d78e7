"""Stream keys against numpy's SeedSequence, the oracle they must equal.

``stream_key`` replays SeedSequence's mixing with the seed and every key
part but the last taken from a cache, so these tests cover seeds of every
word length (including one longer than the 4-word pool), replicates above
2^32, and the key shape of every stream the package draws from.
"""

import numpy as np
import pytest

from alphagraph.model import ModelParams, PowerLawKernel
from alphagraph.sampler import _class_tables, _fast_key, _fast_stream, _sample_indices
from alphagraph.streams import key_words, keyed_stream, rekey, stream, stream_key

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 7, 2**128, 2**128 + 2**70 + 3)
REPLICATES = (0, 1, 17, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1)
SPEC = PowerLawKernel(1.0).spec_string()
# The key shapes of every stream in src/: tag, kernel spec, n, c, replicate
# (and blocks:pairs' last part m, after the replicate).
PREFIXES = (
    ("sample:fast", SPEC, 64, 2.0),
    ("sample:naive", SPEC, 1024, 0.5),
    ("filtration", SPEC, 100_000, 1.5),
    ("blocks:pairs", SPEC, 4099, 30.0, 3),
)


def oracle_key(seed, *parts) -> tuple[int, int]:
    words = np.random.SeedSequence(seed, spawn_key=key_words(*parts)).generate_state(2, np.uint64)
    return int(words[0]), int(words[1])


def oracle_stream(seed, *parts) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=key_words(*parts))
    return np.random.Generator(np.random.Philox(ss))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", PREFIXES, ids=lambda p: p[0])
def test_key_equals_seed_sequence(seed, prefix):
    for rep in REPLICATES:
        assert stream_key(seed, *prefix, rep) == oracle_key(seed, *prefix, rep)


@pytest.mark.parametrize("parts", [(5,), ("x",), (0.25,), ("a", "b"), ("t", 2**40, -0.0, 2**64 - 1)])
def test_short_and_mixed_keys(parts):
    for seed in SEEDS:
        assert stream_key(seed, *parts) == oracle_key(seed, *parts)


def test_numpy_integer_seed_and_parts():
    parts = ("sample:fast", SPEC, np.int64(64), 2.0, np.uint64(2**33))
    assert stream_key(np.uint64(2**63), *parts) == oracle_key(2**63, *parts)


@pytest.mark.filterwarnings("error")
def test_array_last_part_equals_scalar_keys():
    reps = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
    for seed in SEEDS:
        for prefix in PREFIXES:
            for array in (reps, np.arange(3), reps[:0]):
                k0, k1 = stream_key(seed, *prefix, array)
                assert k0.dtype == k1.dtype == np.uint64
                got = list(zip(k0.tolist(), k1.tolist()))
                assert got == [stream_key(seed, *prefix, rep) for rep in array.tolist()]


@pytest.mark.parametrize(
    "array, error",
    [
        (np.array([0, -1]), ValueError),
        (np.array([0.0, 1.0]), TypeError),
        (np.array([True]), TypeError),
        (np.arange(4).reshape(2, 2), TypeError),
        (np.array(3), TypeError),
    ],
)
def test_invalid_array_parts_raise(array, error):
    with pytest.raises(error):
        stream_key(0, "sample:fast", array)


def test_stream_draws_equal_seed_sequence_philox():
    for seed in (0, 2**32, 2**128):
        for prefix in PREFIXES:
            got, want = stream(seed, *prefix, 9), oracle_stream(seed, *prefix, 9)
            np.testing.assert_array_equal(got.random(9), want.random(9))
            np.testing.assert_array_equal(got.integers(0, 2**40, 9), want.integers(0, 2**40, 9))


@pytest.mark.parametrize(
    "seed, parts, error",
    [
        (-1, ("sample:fast", 0), ValueError),
        (1.0, ("sample:fast", 0), TypeError),
        (None, ("sample:fast", 0), TypeError),
        (0, ("sample:fast", True), TypeError),
        (0, (True, 0), TypeError),
        (0, ("sample:fast", np.bool_(False), 0), TypeError),
        (0, ("sample:fast", -1), ValueError),
        (0, ("sample:fast", 2**64), ValueError),
        (0, (2**64, 0), ValueError),
        (0, ("sample:fast", object()), TypeError),
        (0, (), TypeError),
    ],
)
def test_invalid_keys_raise(seed, parts, error):
    with pytest.raises(error):
        stream_key(seed, *parts)
    with pytest.raises(error):
        stream(seed, *parts)


def test_stream_returns_independent_generators():
    a = stream(3, "sample:fast", SPEC, 64, 2.0, 0)
    b = stream(3, "sample:fast", SPEC, 64, 2.0, 0)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.random(5)
    a.random(100)  # advancing one leaves the other at its start
    np.testing.assert_array_equal(b.random(5), first)


def test_stream_generators_cannot_spawn():
    with pytest.raises(TypeError):
        stream(3, "sample:fast", 0).spawn(1)


def test_rekey_restarts_at_the_new_streams_first_draw():
    rng = keyed_stream(stream_key(1, "x", 0))
    rng.random(3)
    rng.integers(0, 7)  # a 32-bit draw leaves half a word buffered
    rng.standard_normal()
    rekey(rng, stream_key(1, "x", 1))
    fresh = stream(1, "x", 1)
    assert rng.bit_generator.state["state"]["key"].tolist() == list(stream_key(1, "x", 1))
    np.testing.assert_array_equal(rng.random(7), fresh.random(7))
    assert rng.integers(0, 2**32) == fresh.integers(0, 2**32)


def test_batch_rekeyed_generator_draws_like_a_fresh_fast_stream():
    # the sweep draws every replicate of a batch from one re-keyed generator
    params = ModelParams(n=1024, c=2.0, kernel=PowerLawKernel(1.0), seed=2**40 + 11)
    tables = _class_tables(params.n, params.c, params.kernel)
    rng = _fast_stream(params, 0)
    for rep in (0, 1, 2, 2**32 + 1):
        rekey(rng, _fast_key(params, rep))
        got = _sample_indices([rng], tables)
        want = _sample_indices([_fast_stream(params, rep)], tables)
        np.testing.assert_array_equal(got, want)
