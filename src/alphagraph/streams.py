"""Deterministic random-stream derivation.

Every stochastic routine derives its generator from a 64-bit master seed plus
a value-based key (purpose tag, kernel identity, n, c, replicate index).  The
key is folded into a numpy SeedSequence spawn key, and the generator is a
counter-based Philox.  Streams are therefore independent of scheduling and
worker count: replicate 17 of a given model draws the same numbers whether it
runs first, last, or on another process.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache

import numpy as np

__all__ = ["key_words", "stream"]

_MASK32 = 0xFFFFFFFF


@lru_cache(maxsize=1024)
def _string_value(part: str) -> int:
    """64-bit blake2s value of a string key part (kernel specs recur per call)."""
    digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def key_words(*parts: object) -> tuple[int, ...]:
    """Fold strings/ints/floats into uint32 words for a SeedSequence spawn key."""
    words: list[int] = []
    for part in parts:
        if isinstance(part, str):
            value = _string_value(part)
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


def stream(master_seed: int, *parts: object) -> np.random.Generator:
    """Philox generator for the (master_seed, *parts) stream."""
    ss = np.random.SeedSequence(master_seed, spawn_key=key_words(*parts))
    return np.random.Generator(np.random.Philox(ss))
