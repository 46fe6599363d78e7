"""Graph sampling.

Three routes to a realization of the ring model:

* ``sample_naive``  — per-pair Bernoulli draws; the slow correctness oracle.
* ``sample_fast``   — translation invariance makes all m_d pairs at distance d
  share one probability p_d, so the edge count per distance class is
  Binomial(m_d, p_d) and the pairs are a uniform subset of the class.
  Expected work and memory are O(n + |E|).
* ``sample_filtration`` — coupled sample: each realized edge at level c_max
  carries the smallest c at which it would open, so the graph at every
  c' <= c_max can be read off one draw monotonically (sprinkling).

Edge lists are canonical: shape (m, 2) int64 arrays with u < v per row,
rows sorted lexicographically.  Every file (edge list, filtration, CSV,
sidecar) is written through atomic_write, floats at 17 significant digits.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import tempfile
import warnings
from functools import lru_cache
from itertools import chain
from pathlib import Path

import numpy as np

from .model import (
    Kernel,
    ModelParams,
    class_edge_probs,
    distance_classes,
    kernel_alpha,
    kernel_for_alpha,
    normalizer,
    parse_kernel,
)
from .streams import keyed_stream, stream, stream_key

__all__ = [
    "Graph",
    "Filtration",
    "sample_naive",
    "sample_fast",
    "sample_filtration",
    "subgraph_at",
    "write_edge_list",
    "read_edge_list",
    "write_filtration",
    "read_filtration",
]

NAIVE_GUARD_N = 10_000
# Largest n whose pair keys lo*n + hi < n^2 (and pair counts) fit in int64.
MAX_PAIR_KEY_N = math.isqrt(np.iinfo(np.int64).max)


class Graph:
    """Immutable undirected graph on vertex set {0, ..., n-1}."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: np.ndarray, _validated: bool = False):
        given = edges
        edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        if not _validated:
            if _canonical_fault(n, edges):
                edges = canonical_edges(n, edges[:, 0], edges[:, 1])
                if fault := _canonical_fault(n, edges):
                    raise ValueError(fault)
            elif isinstance(given, np.ndarray) and np.may_share_memory(edges, given):
                edges = edges.copy()  # the graph is frozen, the caller's array is not
        edges.setflags(write=False)
        self.n = int(n)
        self.edges = edges
        self._adj = None

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style adjacency: (indptr, neighbors) with sorted neighbor lists."""
        if self._adj is None:
            u = self.edges[:, 0]
            v = self.edges[:, 1]
            src = np.concatenate([u, v])
            keys = src * np.int64(self.n) + np.concatenate([v, u])
            keys.sort()
            neighbors = keys % self.n
            counts = np.bincount(src, minlength=self.n)
            indptr = np.concatenate([[0], np.cumsum(counts)])
            self._adj = (indptr, neighbors)
        return self._adj

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.edges, other.edges)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


def _check_vertex_count(n: int) -> None:
    """Reject n outside [1, MAX_PAIR_KEY_N], where pair keys fit in int64."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MAX_PAIR_KEY_N:
        raise ValueError(f"n={n} exceeds {MAX_PAIR_KEY_N}: int64 pair keys would overflow")


def _canonical_fault(n: int, edges: np.ndarray) -> str | None:
    """Why (m, 2) rows are not a canonical edge set on n vertices, or None.

    Canonical rows have u < v, and their keys lo*n + hi strictly increase.
    A bad vertex count or an endpoint outside [0, n) raises ValueError
    first: no reordering of the rows could mend it.
    """
    _check_vertex_count(n)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range")
    u, v = edges[:, 0], edges[:, 1]
    if not (u < v).all():
        return "edges must satisfy u < v (no self-loops)"
    keys = u * np.int64(n) + v
    if not (keys[1:] > keys[:-1]).all():
        return "edges must be sorted and duplicate-free"
    return None


def _pair_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Key lo*n + hi of each unordered pair; key order is canonical row order."""
    return np.minimum(u, v).astype(np.int64) * np.int64(n) + np.maximum(u, v)


def _keys_to_rows(n: int, keys: np.ndarray) -> np.ndarray:
    rows = np.empty((keys.shape[0], 2), dtype=np.int64)
    np.divmod(keys, np.int64(n), out=(rows[:, 0], rows[:, 1]))
    return rows


def canonical_edges(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sort endpoints within rows and rows lexicographically.

    Endpoints must lie in [0, n): rows are rebuilt from the keys lo*n + hi,
    so an out-of-range endpoint would decode to a different pair.
    """
    keys = _pair_keys(n, u, v)
    keys.sort()
    return _keys_to_rows(n, keys)


class Filtration:
    """Edges realized at level c_max, each with its activation level.

    An edge opens when a uniform variable U falls below c*f(d)/h; its
    activation is the smallest c at which that happens, i.e. U*h/f(d).
    ``subgraph_at(c)`` therefore has exactly the law of the model at
    parameter c, for every 0 < c <= c_max, and the subgraphs are nested.
    """

    __slots__ = ("n", "c_max", "kernel", "edges", "activation")

    def __init__(
        self,
        n: int,
        c_max: float,
        kernel: Kernel,
        edges: np.ndarray,
        activation: np.ndarray,
    ):
        edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        activation = np.ascontiguousarray(activation, dtype=np.float64)
        if not (math.isfinite(c_max) and c_max > 0):
            raise ValueError(f"need finite c_max > 0, got {c_max}")
        if fault := _canonical_fault(n, edges):
            raise ValueError(fault)
        if activation.shape[0] != edges.shape[0]:
            raise ValueError("one activation level per edge required")
        if activation.size and not (
            activation.min() > 0 and activation.max() <= c_max * (1 + 1e-15)
        ):
            raise ValueError("activation levels must lie in (0, c_max]")
        edges.setflags(write=False)
        activation.setflags(write=False)
        self.n = int(n)
        self.c_max = float(c_max)
        self.kernel = kernel
        self.edges = edges
        self.activation = activation

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def __repr__(self) -> str:
        return f"Filtration(n={self.n}, c_max={self.c_max}, edges={self.num_edges})"


def subgraph_at(filtration: Filtration, c: float) -> Graph:
    """Graph containing the edges with activation <= c.  Requires 0 < c <= c_max."""
    if not 0 < c <= filtration.c_max:
        raise ValueError(f"need 0 < c <= c_max={filtration.c_max}, got {c}")
    mask = filtration.activation <= c
    return Graph(filtration.n, filtration.edges[mask], _validated=True)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


# Pairs per sample_naive block.  A block's arrays take 24 bytes per pair,
# 1.5 MB, small enough to stay in a typical L2 cache; the block cache holds
# at most 16 blocks, 24 MB.  Every block of n <= 1024 stays cached, larger
# n rebuild theirs on each call.
_NAIVE_BLOCK_PAIRS = 1 << 16


@lru_cache(maxsize=16)
def _naive_block(n: int, r0: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (u, v), u < v, of rows u = r0..r1-1, in canonical order.

    Returns (r1, u, v, cls), cls = d - 1 being each pair's distance class;
    r1 is the largest row end that keeps the block within
    _NAIVE_BLOCK_PAIRS pairs, but at least r0 + 1.  Arrays are read-only.
    """
    sizes = np.arange(n - 1 - r0, 0, -1)  # pairs in rows r0, r0 + 1, ..., n - 2
    ends = np.cumsum(sizes)
    rows = max(1, int(np.searchsorted(ends, _NAIVE_BLOCK_PAIRS, side="right")))
    sizes, ends = sizes[:rows], ends[:rows]
    u = np.repeat(np.arange(r0, r0 + rows), sizes)
    a = np.arange(1, ends[-1] + 1) - np.repeat(ends - sizes, sizes)  # v - u
    v = u + a
    cls = np.minimum(a, n - a) - 1
    for arr in (u, v, cls):
        arr.setflags(write=False)
    return r0 + rows, u, v, cls


def sample_naive(params: ModelParams, replicate: int = 0) -> Graph:
    """Direct per-pair Bernoulli sampling; O(n^2) work, guarded by NAIVE_GUARD_N.

    One uniform per pair, drawn in canonical pair order, in row blocks of at
    most _NAIVE_BLOCK_PAIRS pairs.
    """
    n = params.n
    if n > NAIVE_GUARD_N:
        raise ValueError(f"sample_naive is O(n^2); n={n} exceeds guard {NAIVE_GUARD_N}")
    rng = stream(params.seed, "sample:naive", params.kernel.spec_string(), n, float(params.c), replicate)
    _, _, p_class = _class_tables(n, params.c, params.kernel)
    us, vs = [], []
    r0 = 0
    while r0 < n - 1:
        r0, u, v, cls = _naive_block(n, r0)
        hit = rng.random(u.shape[0]) < p_class[cls]
        us.append(u[hit])
        vs.append(v[hit])
    edges = np.column_stack([np.concatenate(us), np.concatenate(vs)])
    return Graph(n, edges, _validated=True)


def _repeat_mask(keys: np.ndarray) -> np.ndarray:
    """True where an entry of the sorted array ``keys`` equals its predecessor."""
    repeat = np.zeros(keys.shape, dtype=bool)
    np.equal(keys[1:], keys[:-1], out=repeat[1:])
    return repeat


def _draw_members(
    rngs: list[np.random.Generator], n: int, cls: np.ndarray, marks: np.ndarray
) -> np.ndarray:
    """One uniform member of batch class cls[i] per entry, as a batch pair index.

    The members are cls * n + a draw below the class's pair count (see
    _sample_indices).  cls ascends, so each ring's entries form one run,
    whose last-class entries come last; ``marks`` holds, per ring, its
    first batch class and the class where its draws switch bounds, then
    the end of the batch.  Each ring with entries draws from its own
    generator: rng.integers(0, n) for its run, except the entries of its
    last class at even n, which holds n/2 pairs; those take a second draw,
    rng.integers(0, n // 2).  numpy fills a scalar-bound draw with the
    routine it runs per element for an array of bounds, so the values and
    the generator's state after the draw are the same; the fill skips the
    per-element bound handling (at 10^6 draws, 8 ms against 25 ms).
    """
    at = cls.searchsorted(marks).tolist()
    draws = []
    for rng, start, last, stop in zip(rngs, at[::2], at[1::2], at[2::2]):
        if start < stop:
            draws.append(rng.integers(0, n, size=last - start))
            if last < stop:
                draws.append(rng.integers(0, n // 2, size=stop - last))
    members = np.concatenate(draws) if len(draws) > 1 else draws[0]
    members += cls * n
    return members


# Smallest chosen set that a rejection round merges its new draws into; a
# smaller one is re-sorted together with them.  One round's cost in us, by
# chosen-set size and draws per round (best of 7 timeit runs, 2 shared
# cores, numpy 2.4.6):
#     size                1024   2048   4096   8192  16384
#     re-sort,  8 draws     20     29     50     91    176
#     merge,    8 draws     35     36     37     47     51
#     re-sort, 32 draws     22     33     55     95    186
#     merge,   32 draws     39     42     44     48     58
# The merge's fixed cost (np.insert, searchsorted) loses below ~3000 keys.
_MERGE_MIN_CHOSEN = 4096


def _sample_indices(
    rngs: list[np.random.Generator], tables: tuple[int, np.ndarray, np.ndarray]
) -> np.ndarray:
    """Draw the edge sets of len(rngs) rings, one per generator, in lockstep.

    ``tables`` are the model's ``_class_tables``.  Returns the batch pair
    index of each edge, as a concatenation of sorted runs, not sorted as a
    whole.  The index space is the
    disjoint union of the rings: with h = n // 2 classes per ring, class j of
    ring i is the batch class g = i*h + j, which holds the indices
    [g*n, g*n + m_pairs[j]).  A batch of one is the global pair index of
    _decode_indices; _decode_batch decodes any batch.

    Each generator makes exactly the calls it would make alone, in the
    same order, so a ring's edges do not depend on the batch it is drawn
    in: Binomial counts per class, then a partial shuffle per dense class,
    in ascending class order, then one _draw_members per rejection round in
    which its ring still has repeats.  Clamped classes (count == m) are
    emitted whole.  The sparse classes of every ring are filled by one
    vectorized rejection, whose sorting, repeat masks and merges run once
    per round for the whole batch.  The first round draws every member
    with replacement; each later round redraws one member in the class of
    each repeat.  The chosen set stays sorted and unique:

    * below _MERGE_MIN_CHOSEN keys, a round re-sorts it together with its
      draws and drops repeats with an adjacent-difference mask;
    * from there on, a round sorts only its own draws, marks a draw as a
      repeat if it equals its predecessor or is already chosen (one
      searchsorted), and inserts the fresh ones.  At 4096 chosen keys this
      costs 37 us against 50 us for the re-sort, and its cost barely grows
      with the set (51 us against 176 us at 16384).  At n=1e6 every
      round after the first merges: 3 rounds at alpha=1, c=2 and 14 at
      alpha=3, c=0.9.

    Either way the repeats come out in ascending order and each value
    repeats as often, so the class list of the next round, and with it
    every draw, depends neither on which way a round went nor on the other
    rings of the batch.  The rounds end when one leaves no repeat, and make
    no draw if no class is sparse.  The per-class cost stays proportional
    to the number of selected pairs.  The batch index needs
    len(rngs) * n * h < 2^63; a batch of one always fits (n <= MAX_PAIR_KEY_N).
    """
    n, m_pairs, probs = tables
    r, h = len(rngs), n // 2
    if r * n * h >= 2**63:
        raise ValueError(f"{r} rings of n={n}: batch pair indices would overflow int64")
    counts = np.concatenate([rng.binomial(m_pairs, probs) for rng in rngs])
    sizes = np.tile(m_pairs, r) if r > 1 else m_pairs  # pair count per batch class
    nz = counts.nonzero()[0]
    k, m = counts[nz], sizes[nz]
    half = m // 2
    parts: list[np.ndarray] = []

    for g in nz[k == m].tolist():
        parts.append(np.arange(g * n, g * n + sizes[g], dtype=np.int64))

    for g in nz[(k > half) & (k < m)].tolist():
        sel = rngs[g // h].choice(sizes[g], size=counts[g], replace=False)
        parts.append(g * n + np.sort(sel))

    sparse = nz[k <= half]
    cls = np.repeat(sparse, counts[sparse])
    # Per ring: its first class, and the class where its draws switch to the
    # bound n // 2 (its last class at even n, its end at odd n); then the end.
    switch = h - 1 + n % 2
    marks = np.array([*chain.from_iterable((g, g + switch) for g in range(0, r * h, h)), r * h])
    chosen = np.empty(0, dtype=np.int64)
    while cls.size:
        draws = _draw_members(rngs, n, cls, marks)
        if chosen.size < _MERGE_MIN_CHOSEN:
            chosen = np.concatenate([chosen, draws]) if chosen.size else draws
            chosen.sort()
            repeat = _repeat_mask(chosen)
            if not repeat.any():
                break
            cls = chosen[repeat] // n
            chosen = chosen[~repeat]
        else:
            draws.sort()
            at = np.searchsorted(chosen, draws)
            repeat = _repeat_mask(draws) | (chosen.take(at, mode="clip") == draws)
            fresh = ~repeat
            cls = draws[repeat] // n
            chosen = np.insert(chosen, at[fresh], draws[fresh])
    parts.append(chosen)
    return np.concatenate(parts)


@lru_cache(maxsize=16)
def _class_tables(n: int, c: float, kernel: Kernel) -> tuple[int, np.ndarray, np.ndarray]:
    """Per-(n, c, kernel) class tables (n, m_pairs, probs), arrays read-only.

    m_pairs[j] and probs[j] are the pair count and edge probability of the
    distance class d = j + 1; n rides along, so the tables alone fix the
    global pair index space of _decode_indices.  An entry takes 16 bytes per
    class, about 8 MB at n=1e6, hence the small cache.
    """
    _check_vertex_count(n)
    _, _, m_pairs = distance_classes(n)
    probs = class_edge_probs(ModelParams(n=n, c=c, kernel=kernel))
    for table in (m_pairs, probs):
        table.setflags(write=False)
    return n, m_pairs, probs


def _decode_indices(n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(j, u, v) per global pair index: edge (u, v) is the pair (u, (u + d) mod n)
    of the class j = d - 1, which enumerates its pairs as u = 0..m_d-1 and so
    covers each unordered pair exactly once.

    Every class holds n pairs, except the last one at even n, which holds
    n/2; class j therefore starts at j*n, and j, u = divmod(idx, n) in
    closed form.  No clamp is needed: every index lies below n*(n//2).
    As u < n and d <= n/2, v = u + d wraps at most once.
    """
    j, u = np.divmod(idx, n)
    v = u + j + 1
    np.subtract(v, n, out=v, where=v >= n)
    return j, u, v


def _decode_batch(n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) per batch pair index of _sample_indices, as vertices of the
    disjoint union of the rings, in which ring i's vertex x is i*n + x."""
    ring, idx = np.divmod(idx, n * (n // 2))
    _, u, v = _decode_indices(n, idx)
    ring *= n
    u += ring
    v += ring
    return u, v


def _fast_key(params: ModelParams, replicate):
    """Key of the stream that sample_fast draws replicate ``replicate`` from.

    An integer array of replicates gives two arrays of key words (see
    ``stream_key``).
    """
    return stream_key(
        params.seed, "sample:fast", params.kernel.spec_string(), params.n, float(params.c), replicate
    )


def _fast_stream(params: ModelParams, replicate: int) -> np.random.Generator:
    """The stream that sample_fast draws replicate ``replicate`` from."""
    return keyed_stream(_fast_key(params, replicate))


def sample_fast(params: ModelParams, replicate: int = 0) -> Graph:
    """Distance-class sampler; same law as sample_naive, O(n + |E|) work."""
    n = params.n
    tables = _class_tables(n, params.c, params.kernel)
    idx = _sample_indices([_fast_stream(params, replicate)], tables)
    _, u, v = _decode_indices(n, idx)
    return Graph(n, canonical_edges(n, u, v), _validated=True)


def _draw_filtration(
    n: int, kernel: Kernel, c_max: float, seed: int, replicate: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, activation) of the edges open by c_max, in global-index order.

    The one draw behind sample_filtration, which sorts it into canonical
    rows, and behind the sprinkle replicates, which only label components
    and so need no edge order.  The pairs are not canonical rows: v may
    be below u.  _check_draw checks what Filtration would.
    """
    if not c_max > 0:
        raise ValueError(f"need c_max > 0, got {c_max}")
    params = ModelParams(n=n, c=c_max, kernel=kernel, seed=seed)
    rng = stream(seed, "filtration", kernel.spec_string(), n, float(c_max), replicate)
    tables = _class_tables(n, params.c, kernel)
    idx = _sample_indices([rng], tables)
    # Activations are drawn in increasing global-index order.  The indices
    # are a concatenation of sorted runs, so a stable (merging) sort is cheap.
    idx.sort(kind="stable")
    j, u, v = _decode_indices(n, idx)

    h = normalizer(n, kernel).value
    cap = np.minimum(c_max, h / kernel.values(n)[j])
    # 1 - U is uniform on (0, 1], keeping activations strictly positive.
    activation = (1.0 - rng.random(j.shape[0])) * cap
    _check_draw(n, c_max, idx, activation)
    return u, v, activation


def _check_draw(n: int, c_max: float, idx: np.ndarray, activation: np.ndarray) -> None:
    """Raise ValueError unless a draw holds distinct pairs with levels in (0, c_max].

    ``idx`` are the draw's sorted global pair indices.  Decoding is a
    bijection from [0, n*(n//2)) onto the unordered pairs, so in-range,
    strictly increasing indices are in-range, duplicate-free pairs: what
    Filtration checks of its canonical rows, checked in index space.
    """
    if idx.size and not (idx[0] >= 0 and idx[-1] < n * (n // 2)):
        raise ValueError("pair index out of range")
    if not (idx[1:] > idx[:-1]).all():
        raise ValueError("pair indices must be sorted and duplicate-free")
    if activation.size and not (
        activation.min() > 0 and activation.max() <= c_max * (1 + 1e-15)
    ):
        raise ValueError("activation levels must lie in (0, c_max]")


def sample_filtration(
    n: int, kernel: Kernel, c_max: float, seed: int, replicate: int = 0
) -> Filtration:
    """Coupled sample exposing the graph at every level c' <= c_max.

    Conditioned on opening by level c_max, an edge's uniform variable is
    uniform below its threshold, so its activation is uniform on
    (0, min(c_max, h/f(d))].  Unrealized pairs are never materialized.
    The edges are those of _draw_filtration, sorted into canonical rows.
    """
    u, v, activation = _draw_filtration(n, kernel, c_max, seed, replicate)
    keys = _pair_keys(n, u, v)
    order = np.argsort(keys)
    return Filtration(n, c_max, kernel, _keys_to_rows(n, keys[order]), activation[order])


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

_HEADER_MAGIC = "# alphagraph v1"


def _format_header(n: int, alpha, c: float, seed: int) -> str:
    return f"{_HEADER_MAGIC} n={n} alpha={alpha} c={repr(float(c))} seed={seed}"


def atomic_write(path: str | Path, write_body, mode: str = "w") -> None:
    """Call write_body(fh) on a temp file in the destination directory, then rename.

    The temp file is opened with ``mode``, "w" (text) or "wb" (bytes).
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, mode) as fh:
            write_body(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_float(x: float) -> str:
    """17 significant digits, as ``%.17g``: enough to round-trip any double exactly."""
    return format(float(x), ".17g")


def _csv_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format_float(x)
    return str(x)


def write_rows_csv(path: str | Path | None, fieldnames: list[str], rows: list[dict]) -> None:
    """CSV, floats at 17 significant digits, written atomically (to stdout if no path)."""

    def body(fh, lineterminator="\r\n"):
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_csv_value(row[k]) for k in fieldnames])

    if path:
        atomic_write(path, body)
    else:
        body(sys.stdout, "\n")


# Rows formatted per write; bounds the text buffer at a few MB.
_WRITE_CHUNK_ROWS = 1 << 16


def _write_rows(fh, row_format: str, columns: list[np.ndarray]) -> None:
    """Write row_format once per row, one % over each chunk of rows."""
    m = columns[0].shape[0]
    for start in range(0, m, _WRITE_CHUNK_ROWS):
        chunk = [col[start : start + _WRITE_CHUNK_ROWS].tolist() for col in columns]
        fh.write(row_format * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk))))


@lru_cache(maxsize=None)
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Lookup tables of _format_pairs, built on first use.

    ``words`` holds 4 ASCII bytes per uint32: entry k < 10^4 spells k with
    leading zeros; entries 10^4 + h and 10^4 + 100 + h spell h < 100 the same
    way, but with the first byte (always "0") replaced by a newline and by a
    space.  An id is written as a 12-byte field: one such separator word,
    then two words of 4 digits.  ``masks[c]`` (3 uint32s) keeps the
    separator and the last c + 1 digits of a field.
    """
    k = np.arange(10_000)
    digits = np.column_stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10]) + ord("0")
    seps = np.repeat(digits[:100][None], 2, axis=0)
    seps[:, :, 0] = [[ord("\n")], [ord(" ")]]
    words = np.concatenate([digits, *seps]).astype(np.uint8).view(np.uint32).ravel()
    pos = np.arange(12)
    keep = (pos == 0) | (pos >= 11 - np.arange(10)[:, None])
    masks = keep.astype(np.uint8).view(np.uint32)
    for table in (words, masks):
        table.setflags(write=False)
    return words, masks


# 10^1 .. 10^9: an id has one digit more than the number of these it reaches.
_POWERS_OF_TEN = [10**k for k in range(1, 10)]
# Offsets of the newline and space separator words in _digit_tables' words.
_SEPARATORS = np.array([10_000, 10_100], dtype=np.uint32)


def _format_pairs(rows: np.ndarray) -> bytes:
    """The text of (m, 2) rows of ids in [0, 10^10), row by row "\\n%d %d".

    Each row starts with its newline, so an edge-list file is the header
    without its newline, then these chunks, then one final newline.  Each
    id is split into groups of 4 digits, the groups' ASCII bytes are
    gathered from one table as uint32 words, and a keep-mask drops the
    leading zeros.  Ids must fit in uint32; every id below MAX_PAIR_KEY_N
    does.
    """
    words, masks = _digit_tables()
    x = rows.astype(np.uint32)
    q = x // np.uint32(10_000)
    hi = q // np.uint32(10_000)
    groups = np.stack([hi + _SEPARATORS, q - hi * np.uint32(10_000), x - q * np.uint32(10_000)], axis=2)
    powers = np.zeros(x.shape, dtype=np.uint8)
    for power in _POWERS_OF_TEN:
        np.add(powers, x >= power, out=powers, casting="unsafe")
    text = words.take(groups).view(np.uint8).ravel()
    return text[masks.take(powers, axis=0).view(bool).ravel()].tobytes()


def write_edge_list(path: str | Path, graph: Graph, params: ModelParams) -> None:
    """Write the v1 edge-list format: header line, then sorted "u v" rows."""
    header = _format_header(graph.n, _kernel_to_alpha_field(params.kernel), params.c, params.seed)

    def body(fh):
        fh.write(header.encode())
        for start in range(0, graph.num_edges, _WRITE_CHUNK_ROWS):
            fh.write(_format_pairs(graph.edges[start : start + _WRITE_CHUNK_ROWS]))
        fh.write(b"\n")

    atomic_write(path, body, "wb")


def _parse_header(line: str) -> dict:
    """n, alpha (as written), c and seed of a v1 header line.

    Each key appears once, and c is finite and >= 0.
    """
    if not line.startswith(_HEADER_MAGIC):
        raise ValueError(f"not an alphagraph v1 file (header {line!r})")
    fields: dict[str, str] = {}
    for tok in line[len(_HEADER_MAGIC) :].split():
        key, sep, value = tok.partition("=")
        if not sep:
            raise ValueError(f"bad header token {tok!r}")
        if key in fields:
            raise ValueError(f"header repeats {key} (header {line!r})")
        fields[key] = value
    missing = [key for key in ("n", "alpha", "c", "seed") if key not in fields]
    if missing:
        raise ValueError(f"header lacks {', '.join(missing)} (header {line!r})")
    c = float(fields["c"])
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"header needs finite c >= 0, got c={fields['c']} (header {line!r})")
    return {
        "n": int(fields["n"]),
        "alpha": fields["alpha"],
        "c": c,
        "seed": int(fields["seed"]),
    }


def read_edge_list(path: str | Path) -> tuple[Graph, dict]:
    """Read a v1 edge-list file; returns (graph, header fields)."""
    header, data = _read_file(path, np.int64, 2)
    return Graph(header["n"], data), header


def _read_file(path: str | Path, dtype, cols: int) -> tuple[dict, np.ndarray]:
    """(header fields, rows) of a v1 file; rows has shape (m, cols).

    np.loadtxt gets the path, not a file object: numpy's C reader then
    reads the file in blocks, where a file object would be read line by
    line in Python.
    """
    with open(path) as fh:
        header = _parse_header(fh.readline().rstrip("\n"))
    with warnings.catch_warnings():
        # A file without rows holds an empty graph.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, dtype=dtype, skiprows=1, ndmin=2)
    if data.size == 0:
        return header, np.empty((0, cols), dtype=dtype)
    if data.shape[1] != cols:
        raise ValueError(f"expected {cols} columns per row, got {data.shape[1]}")
    return header, data


def _kernel_to_alpha_field(kernel: Kernel) -> str:
    alpha = kernel_alpha(kernel)
    return kernel.spec_string() if alpha is None else repr(float(alpha))


def kernel_from_alpha_field(field: str) -> Kernel:
    """Inverse of the header alpha field: a float, "inf", or a kernel spec.

    A tabulated kernel is written as its content hash, "custom:<hash>";
    its table is not in the file, so it cannot be read back.
    """
    if field.startswith("custom:"):
        raise ValueError(
            f"header alpha={field} names a tabulated kernel; its table is not "
            "stored in the file, so the kernel cannot be read back"
        )
    try:
        return kernel_for_alpha(float(field))
    except ValueError:
        return parse_kernel(field)


def write_filtration(path: str | Path, filtration: Filtration, seed: int) -> None:
    """Edge-list format plus a third activation column (17 significant digits)."""
    alpha_field = _kernel_to_alpha_field(filtration.kernel)

    def body(fh):
        fh.write(_format_header(filtration.n, alpha_field, filtration.c_max, seed))
        fh.write("\n")
        edges = filtration.edges
        _write_rows(fh, "%d %d %.17g\n", [edges[:, 0], edges[:, 1], filtration.activation])

    atomic_write(path, body)


def read_filtration(path: str | Path) -> tuple[Filtration, dict]:
    """Read a filtration file; returns (filtration, header fields)."""
    header, data = _read_file(path, np.float64, 3)
    ids = data[:, :2]
    if not (np.isfinite(ids) & (np.trunc(ids) == ids)).all():
        raise ValueError("could not convert a vertex id to an integer")
    edges = ids.astype(np.int64)
    act = data[:, 2]
    kernel = kernel_from_alpha_field(header["alpha"])
    filt = Filtration(header["n"], header["c"], kernel, edges, act)
    return filt, header
