"""Frozen digests of each numpy random call the samplers' bits rest on.

NEP 19 lets numpy change a Generator method's stream in a release.  The
sampler and sweep digests then fail without saying which method moved;
these name it.  Each case draws on a fresh generator under one fixed
``keyed_stream`` key, with the argument types and bound forms the samplers
use, and digests the values drawn plus the next raw Philox words, so a
method that consumes a different amount of the stream fails too.  The last
case pins the SeedSequence pool that ``streams._mixed_prefix`` reads.

The digests were made with numpy 2.4.6.  Never regenerate them to make a
change pass.
"""

import hashlib

import numpy as np
import pytest

from alphagraph.streams import keyed_stream

KEY = (0x0123456789ABCDEF, 0xFEDCBA9876543210)
N = 999_983  # odd: the samplers' bounds n and n // 2 differ


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _binomial(rng):
    # Class pair counts and probabilities, as _class_tables holds them: both
    # of BTPE's sides of p = 1/2, inversion below m*p = 30, and the clamps.
    m = np.full(8, N, dtype=np.int64)
    m[-1] = N // 2
    p = np.array([0.0, 1e-7, 2e-6, 3e-5, 0.01, 0.3, 0.7, 1.0])
    return rng.binomial(m, p)


CALLS = {
    "binomial": _binomial,
    "integers_n": lambda rng: rng.integers(0, N, size=1000),
    "integers_half_n": lambda rng: rng.integers(0, N // 2, size=1000),
    # a dense class: more than half its pairs, as np.int64 scalars.  Up to
    # 10,000 pairs choice runs Floyd's algorithm...
    "choice_dense": lambda rng: rng.choice(np.int64(4099), size=np.int64(3000), replace=False),
    # ...and above that, for a sample above 1/50 of them, a tail shuffle
    "choice_shuffle": lambda rng: rng.choice(np.int64(N), size=np.int64(3 * N // 4), replace=False),
    "random": lambda rng: rng.random(1000),
}
DIGESTS = {
    "binomial": "eaa1ae122fc0c85b6ceaffb4ed9ddd1c",
    "integers_n": "e4cb39b5d4b066f257713dbaf5f0ba33",
    "integers_half_n": "0a62e8bb7e3a9420138e29d6deecce0e",
    "choice_dense": "60151d61fb3c9668b89e49a783a79471",
    "choice_shuffle": "29125399b8c6db0bed0858c80f5b34b6",
    "random": "cdda0608cb5e2be6863016eb59852e2b",
}


@pytest.mark.parametrize("name", CALLS)
def test_generator_call_digest(name):
    rng = keyed_stream(KEY)
    values = CALLS[name](rng)
    assert _digest(values, rng.bit_generator.random_raw(4)) == DIGESTS[name]


# A prefix as streams.key_words folds four key parts: two words each.
PREFIX = (0x12345678, 0, 0xFFFFFFFF, 7, 2**31, 1, 0xDEADBEEF, 3)
POOL_DIGEST = "e5694a510b2ede77c4991b80f1b0fbf4"


def test_seed_sequence_pool_digest():
    pools = [
        np.random.SeedSequence(seed, spawn_key=PREFIX).pool
        for seed in (0, 20240607, 2**64 - 1, 2**128 + 2**70 + 3)
    ]
    assert _digest(*pools) == POOL_DIGEST
