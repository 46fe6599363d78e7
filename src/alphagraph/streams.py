"""Deterministic random-stream derivation.

Every stochastic routine derives its generator from a 64-bit master seed plus
a value-based key (purpose tag, kernel identity, n, c, replicate index).  The
key is folded into a numpy SeedSequence spawn key (NEP 19), and the
generator is a counter-based Philox (Salmon et al., SC'11) keyed with the
sequence's first 128 bits.  Streams are therefore independent of scheduling
and worker count: replicate 17 of a given model draws the same numbers
whether it runs first, last, or on another process.

SeedSequence mixes its entropy words in order: the master seed, zero-padded
to the 4-word pool, then two words per key part.  The last part, the
replicate index in every caller, comes last, so the mixer state after every
earlier word is shared by all replicates of a model.  ``stream_key`` keeps
that state in a bounded ``lru_cache`` and per call absorbs only the last
part's two words, then runs ``generate_state``'s output hash.  Its keys equal
``SeedSequence(seed, spawn_key=key_words(*parts)).generate_state(2,
np.uint64)``, which the tests use as the oracle.

The last part may also be a 1-d integer array, such as a run of replicate
indices: the same mixing code then runs on uint64 arrays (each word is
masked to 32 bits after every multiply, so wrapping at 2^64 changes
nothing), and ``stream_key`` returns the two key words as arrays, one entry
per element.  One call keys a whole batch of replicates.

``stream`` returns a fresh generator on every call, one that cannot
``spawn``.  ``rekey`` resets a generator in place to counter 0 under
another key, for a fraction of the cost of building one.  Re-key only a
generator that never leaves the batch of replicates that owns it: a caller
still holding it would silently draw from the next replicate's stream.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache

import numpy as np

__all__ = ["key_words", "keyed_stream", "rekey", "stream", "stream_key"]

_MASK32 = 0xFFFFFFFF

# SeedSequence's constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


# generate_state(2, uint64) hashes the 4 pool words with these constants:
# _INIT_B * _MULT_B**i (mod 2^32), i = 0..4.
_OUT_CONSTS = tuple(_INIT_B * pow(_MULT_B, i, 2**32) & _MASK32 for i in range(_POOL_SIZE + 1))


@lru_cache(maxsize=1024)
def _string_value(part: str) -> int:
    """64-bit blake2s value of a string key part (kernel specs recur per call)."""
    digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def key_words(*parts: object) -> tuple:
    """Fold strings/ints/floats into uint32 words for a SeedSequence spawn key.

    An integer array part folds into two uint64 arrays of words.
    """
    words: list = []
    for part in parts:
        if isinstance(part, str):
            value = _string_value(part)
        elif isinstance(part, np.ndarray):
            value = _array_value(part)
        elif isinstance(part, (bool, np.bool_)):
            raise TypeError("bool is not a valid stream key part")
        elif isinstance(part, (int, np.integer)):
            value = int(part)
            if not (0 <= value < 2**64):
                raise ValueError(f"integer key part out of 64-bit range: {part}")
        elif isinstance(part, float):
            value = struct.unpack("<Q", struct.pack("<d", part))[0]
        else:
            raise TypeError(f"unsupported stream key part: {part!r}")
        words.append(value & _MASK32)
        words.append(value >> 32)
    return tuple(words)


def _array_value(part: np.ndarray) -> np.ndarray:
    """A 1-d integer array key part as uint64, each entry checked like an int part."""
    if part.ndim != 1 or not np.issubdtype(part.dtype, np.integer):
        raise TypeError(f"an array key part must be 1-d integers, got {part.dtype} of shape {part.shape}")
    if part.size and np.issubdtype(part.dtype, np.signedinteger) and part.min() < 0:
        raise ValueError(f"integer key part out of 64-bit range: {part.min()}")
    return part.astype(np.uint64)


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """SeedSequence's hashmix: the hashed word and the next hash constant."""
    nxt = const * _MULT_A & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


@lru_cache(maxsize=256)
def _mixed_prefix(master_seed: int, prefix: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Mixer pool after SeedSequence has absorbed the seed and the prefix words.

    Returns (pool, const): the 4 pool words and the next hash constant.
    """
    if master_seed < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")
    words = []
    while True:  # little-endian uint32 words; 0 is one word
        words.append(master_seed & _MASK32)
        master_seed >>= 32
        if not master_seed:
            break
    words += [0] * (_POOL_SIZE - len(words))  # the spawn-key padding of gh-16539
    words += prefix

    const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    return tuple(pool), const


def stream_key(master_seed: int, *parts: object) -> tuple:
    """Philox key, two uint64 words, of the (master_seed, *parts) stream.

    Needs at least one part: the last part's words are absorbed per call, the
    rest come from the prefix cache.  If the last part is a 1-d integer
    array, the two words are uint64 arrays: entry i keys the stream whose
    last part is that array's entry i.
    """
    if not isinstance(master_seed, (int, np.integer)):
        raise TypeError(f"master seed must be an integer, got {master_seed!r}")
    if not parts:
        raise TypeError("a stream needs at least one key part")
    pool, const = _mixed_prefix(int(master_seed), key_words(*parts[:-1]))
    pool = list(pool)
    for word in key_words(parts[-1]):
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    out = []
    for i in range(_POOL_SIZE):
        hashed = (pool[i] ^ _OUT_CONSTS[i]) * _OUT_CONSTS[i + 1] & _MASK32
        out.append(hashed ^ hashed >> 16)
    return out[0] | out[1] << 32, out[2] | out[3] << 32


@lru_cache(maxsize=None)
def _key_seed_type() -> type:
    """The seed sequence that hands Philox a precomputed key.

    Philox reads its key from an ``ISeedSequence``; building one this way
    costs a fraction of ``Philox(key=...)``, which first draws OS entropy
    for a seed sequence it then drops.  The class is made on first use,
    since subclassing imports numpy.random, which importing this package
    does not.  It cannot spawn.
    """

    class KeySeed(np.random.bit_generator.ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: tuple[int, int]):
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a stream key is exactly two uint64 words")
            return np.array(self.key, dtype=np.uint64)

    return KeySeed


def keyed_stream(key: tuple[int, int]) -> np.random.Generator:
    """Fresh Philox generator at counter 0 under ``key`` (see ``stream_key``)."""
    return np.random.Generator(np.random.Philox(_key_seed_type()(key)))


def stream(master_seed: int, *parts: object) -> np.random.Generator:
    """Fresh Philox generator for the (master_seed, *parts) stream."""
    return keyed_stream(stream_key(master_seed, *parts))


def rekey(rng: np.random.Generator, key: tuple[int, int]) -> None:
    """Reset a Philox generator in place to the start of the stream with ``key``.

    Afterwards it draws exactly what ``keyed_stream(key)`` would.  Only for
    a generator that never leaves its owner (see the module notes).
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
