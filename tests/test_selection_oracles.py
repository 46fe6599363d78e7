"""Oracles for the global pair index: its closed-form decode, and class
selection by merge-only rejection rounds with scalar-bound draws, each
against the offsets-table code it replaced, and lockstep batches against
independent rings.  A change in any of them would change sampled bits."""

import math

import numpy as np
import pytest

from alphagraph.model import ModelParams, distance_classes
from alphagraph.sampler import (
    _MERGE_MIN_CHOSEN,
    MAX_PAIR_KEY_N,
    _class_tables,
    _decode_batch,
    _decode_indices,
    _fast_stream,
    _sample_indices,
)


def offsets_of(m_pairs: np.ndarray) -> np.ndarray:
    """Start of each class in the global pair index, and the total at the end."""
    return np.concatenate([[0], np.cumsum(m_pairs)]).astype(np.int64)


def decode_by_search(n: int, offsets: np.ndarray, idx: np.ndarray):
    """The decode before the closed form: a searchsorted over the offsets."""
    j = np.searchsorted(offsets, idx, side="right") - 1
    u = idx - offsets[j]
    return j, u, (u + j + 1) % n


def select_by_resorting(rng, m_pairs, counts, offsets):
    """Class selection before merge-only rounds: every rejection round
    re-sorts the whole chosen set together with its draws."""
    nz = np.nonzero(counts)[0]
    k, m = counts[nz], m_pairs[nz]
    half = m // 2
    parts = []
    for j in nz[k == m]:
        parts.append(np.arange(offsets[j], offsets[j] + m_pairs[j], dtype=np.int64))
    for j in nz[(k > half) & (k < m)]:
        sel = rng.choice(m_pairs[j], size=counts[j], replace=False)
        parts.append(offsets[j] + np.sort(sel))
    sparse = nz[k <= half]
    cls = np.repeat(sparse, counts[sparse])
    chosen = np.empty(0, dtype=np.int64)
    while cls.size:
        chosen = np.concatenate([chosen, offsets[cls] + rng.integers(0, m_pairs[cls])])
        chosen.sort()
        repeat = np.zeros(chosen.shape, dtype=bool)
        np.equal(chosen[1:], chosen[:-1], out=repeat[1:])
        if not repeat.any():
            break
        cls = np.searchsorted(offsets, chosen[repeat], side="right") - 1
        chosen = chosen[~repeat]
    parts.append(chosen)
    return np.concatenate(parts)


class TestDecode:
    def test_closed_form_equals_search_and_covers_every_pair_once(self):
        for n in range(2, 258):
            offsets = offsets_of(distance_classes(n)[2])
            idx = np.arange(offsets[-1], dtype=np.int64)
            got = _decode_indices(n, idx)
            for a, b in zip(got, decode_by_search(n, offsets, idx)):
                np.testing.assert_array_equal(a, b)
            j, u, v = got
            assert (u != v).all()
            keys = np.minimum(u, v) * n + np.maximum(u, v)
            assert np.unique(keys).size == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [10**6, 10**6 + 1, MAX_PAIR_KEY_N])
    def test_large_rings_against_python_ints(self, n):
        total = n * (n - 1) // 2
        rng = np.random.default_rng(n)
        last = n // 2 - 1  # the last class; it holds n/2 pairs at even n
        edges = [0, n - 1, n, last * n - 1, last * n, total - 1]
        idx = np.concatenate([edges, rng.integers(0, total, 2000)]).astype(np.int64)
        for i, j, u, v in zip(*(a.tolist() for a in (idx, *_decode_indices(n, idx)))):
            size = n // 2 if n % 2 == 0 and j == last else n
            assert 0 <= j <= last and 0 <= u < size and j * n + u == i
            assert v == (u + j + 1) % n
            assert min(abs(u - v), n - abs(u - v)) == j + 1


# Both sides of _MERGE_MIN_CHOSEN: n=64 and n=1025 draw a few hundred sparse
# members at most, n=1e5 draws tens of thousands, and alpha=3, c=0.9 at 1e5
# takes 10-11 rejection rounds, all but the first merging.
SELECTION_GRID = [
    (n, alpha, c)
    for n in (64, 1025, 10**5)
    for alpha in (0.0, 1.0, 3.0, math.inf)
    for c in (0.5, 0.9, 2.0)
]


@pytest.mark.parametrize("n, alpha, c", SELECTION_GRID)
def test_merge_rounds_equal_resorting_rounds(n, alpha, c):
    params = ModelParams.make(n, alpha, c, seed=11)
    tables = _class_tables(n, params.c, params.kernel)
    _, m_pairs, probs = tables
    offsets = offsets_of(m_pairs)
    for rep in range(8 if n < 10**5 else 2):
        ours, ref = _fast_stream(params, rep), _fast_stream(params, rep)
        counts = ref.binomial(m_pairs, probs)
        got = _sample_indices([ours], tables)
        want = select_by_resorting(ref, m_pairs, counts, offsets)
        np.testing.assert_array_equal(np.sort(got), np.sort(want))
        assert got.size == counts.sum() == np.unique(got).size
        assert ours.integers(0, 2**62) == ref.integers(0, 2**62)
    if n == 10**5:
        assert got.size > _MERGE_MIN_CHOSEN  # the merge rounds ran


# Every class kind: n=2 rings are clamped whole, n=3 and the nearest-neighbour
# kernel at c=0.9 have dense classes, and c=0 draws no edge.  At n=1025 and
# c=2 a batch of 17 rings chooses ~17k keys, so its rounds merge.
LOCKSTEP_GRID = [(n, alpha, c) for n, alpha, c in SELECTION_GRID if n < 10**5] + [
    (n, alpha, c) for n in (2, 3) for alpha in (0.0, 3.0, math.inf) for c in (0.0, 0.5, 0.9, 2.0)
] + [(64, 1.0, 0.0), (1025, 3.0, 0.0)]


@pytest.mark.parametrize("rings", [1, 3, 17])
@pytest.mark.parametrize("n, alpha, c", LOCKSTEP_GRID)
def test_lockstep_batch_equals_independent_rings(n, alpha, c, rings):
    params = ModelParams.make(n, alpha, c, seed=5)
    tables = _class_tables(n, params.c, params.kernel)
    _, m_pairs, probs = tables
    offsets = offsets_of(m_pairs)
    ours = [_fast_stream(params, rep) for rep in range(rings)]
    got = _sample_indices(ours, tables)
    assert np.unique(got).size == got.size
    ring, idx = np.divmod(got, n * (n // 2))
    u, v = _decode_batch(n, got)
    _, want_u, want_v = _decode_indices(n, idx)
    np.testing.assert_array_equal(u, want_u + ring * n)
    np.testing.assert_array_equal(v, want_v + ring * n)
    for rep, rng in enumerate(ours):
        ref = _fast_stream(params, rep)
        want = select_by_resorting(ref, m_pairs, ref.binomial(m_pairs, probs), offsets)
        np.testing.assert_array_equal(np.sort(idx[ring == rep]), np.sort(want))
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


def test_batch_whose_index_overflows_int64_is_refused():
    n = 2**31  # one ring's n * (n // 2) = 2^61 pair indices fit; five rings' do not
    empty = np.empty(0)
    rngs = [np.random.default_rng(0) for _ in range(5)]
    with pytest.raises(ValueError, match="overflow"):
        _sample_indices(rngs, (n, empty, empty))
