"""Experiment drivers: parameter sweeps and regime-specific measurements.

Each driver samples replicate graphs on deterministic value-derived streams,
so a given (spec, master_seed) always produces bit-identical results,
regardless of worker count or scheduling.

Every driver runs its replicates through one runner, _run_replicates.  It
cuts each cell's replicates into runs of consecutive replicates
(_replicate_jobs), maps the driver's run function over a process pool (or
serially, with one worker or one run) and returns each cell's results in
replicate order.  One failure policy holds for all of them: the first run
of a cell that raises, in replicate order, becomes the cell's error,
written "replicates [start, stop): Type: message".  The grid drivers
(run_sweep, conjecture_probe) record it in the failing cell and go on; the
single-parameter drivers (block_connectivity, sprinkling_experiment,
triangle_replicates) raise it as a RuntimeError.  Files are written by
sampler; write_sweep_csv only lays a grid result out as CSV rows.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .branching import rho_limit
from .components import _label_edges, omega_for
from .model import Kernel, ModelParams, kernel_alpha, kernel_for_alpha
from .sampler import (
    Graph,
    _class_tables,
    _decode_batch,
    _draw_filtration,
    _fast_key,
    _sample_indices,
    sample_fast,
    write_rows_csv,
)
from .streams import keyed_stream, rekey, stream

__all__ = [
    "SweepSpec",
    "CellResult",
    "SweepResult",
    "run_sweep",
    "conjecture_probe",
    "TriangleStats",
    "triangle_stats",
    "triangle_replicates",
    "BlockStats",
    "block_connectivity",
    "SprinkleRecord",
    "SprinklingResult",
    "sprinkling_experiment",
    "write_sweep_csv",
]


def resolve_workers(workers: int | None) -> int:
    """Worker count: ALPHAGRAPH_WORKERS if set, else workers, else the CPU count."""
    env = os.environ.get("ALPHAGRAPH_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(f"ALPHAGRAPH_WORKERS needs an integer >= 1, got {env!r}")
        return value
    if workers is None:
        return os.cpu_count() or 1
    return max(1, workers)


# ---------------------------------------------------------------------------
# The replicate runner
# ---------------------------------------------------------------------------

# A multi-worker run is cut into about this many jobs per worker or more, so
# that a one-cell run still spreads over every worker.
_JOBS_PER_WORKER = 8


def _replicate_jobs(ns: list[int], replicates: int, workers: int) -> list[tuple[int, int, int]]:
    """(cell, start, stop) per job: consecutive replicates of one cell.

    One job per cell with one worker.  With several, a job holds at most
    1/(_JOBS_PER_WORKER * workers) of the run's vertices, or one replicate.
    """
    if workers <= 1:
        return [(cell, 0, replicates) for cell in range(len(ns))]
    budget = -(-replicates * sum(ns) // (_JOBS_PER_WORKER * workers))
    jobs = []
    for cell, n in enumerate(ns):
        step = max(1, budget // n)
        jobs.extend((cell, s, min(s + step, replicates)) for s in range(0, replicates, step))
    return jobs


def _run_job(job) -> list | RuntimeError:
    """One run's results, or its exception named by its replicates."""
    run, cell, start, stop = job
    try:
        return run(*cell, start, stop)
    except Exception as exc:  # noqa: BLE001 - the drivers apply the failure policy
        return RuntimeError(f"replicates [{start}, {stop}): {type(exc).__name__}: {exc}")


def _run_replicates(run, cells: list[tuple], replicates: int, workers: int) -> list:
    """Each cell's run(*cell, start, stop) results, in replicate order.

    A cell is a tuple whose first item is its ModelParams; run returns a
    list with one result per replicate in [start, stop).  A cell with a
    failing run gets that run's RuntimeError instead of a list (the first
    one in replicate order), whatever the worker count.
    """
    if replicates < 1:
        raise ValueError("need replicates >= 1")
    spans = _replicate_jobs([cell[0].n for cell in cells], replicates, workers)
    jobs = [(run, cells[cell], start, stop) for cell, start, stop in spans]
    if workers <= 1 or len(jobs) <= 1:
        outputs = map(_run_job, jobs)
    else:
        # Imported here: the pool's modules cost a process ~30 ms to import,
        # and most commands never build one.
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(jobs) // (workers * _JOBS_PER_WORKER))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_run_job, jobs, chunksize=chunk))
    results: list = [[] for _ in cells]
    for (cell, _start, _stop), out in zip(spans, outputs):
        if isinstance(results[cell], list):  # else the cell's first error stands
            results[cell] = out if isinstance(out, RuntimeError) else results[cell] + out
    return results


def _run_one(run, cell: tuple, replicates: int, workers: int) -> list:
    """_run_replicates for a single cell, whose error is raised."""
    (out,) = _run_replicates(run, [cell], replicates, workers)
    if isinstance(out, RuntimeError):
        raise out
    return out


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Grid of (alpha, c, n) cells with replicate count and cutoff rule."""

    alphas: tuple[float, ...]
    cs: tuple[float, ...]
    ns: tuple[int, ...]
    replicates: int
    omega_rule: str = "log4"
    master_seed: int = 0

    def __post_init__(self):
        if not (self.alphas and self.cs and self.ns):
            raise ValueError("alphas, cs, and ns must be non-empty")
        if self.replicates < 1:
            raise ValueError("need replicates >= 1")


@dataclass
class CellResult:
    """Largest-component statistics for one (kernel, c, n) grid cell."""

    kernel: str
    alpha: float | None
    c: float
    n: int
    replicates: int
    omega: int
    mean_fraction: float
    std_fraction: float
    min_fraction: float
    max_fraction: float
    mean_second_fraction: float
    mean_b_fraction: float
    predicted_rho: float | None
    error: str | None = None


@dataclass
class SweepResult:
    spec: dict
    cells: list[CellResult] = field(default_factory=list)


# Vertices labelled in one pass (one replicate if n is larger).  It bounds
# the memory of a pass and keeps its arrays cache-sized: on a 2-core Xeon
# with 2 MiB of L2 per core, the decode-and-label work per replicate at
# n=1024 cost 115-140 us at 2^14 vertices and ~230 us at 2^18 or more.
# n=1e6 is one replicate per pass.
_BATCH_VERTICES = 1 << 14


def _batch_stats(
    tables: tuple[int, np.ndarray, np.ndarray], rngs: list[np.random.Generator], omega: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Largest, second-largest and b_count of the ring drawn on each generator.

    ``tables`` are the cell's ``_class_tables``.  The rings are drawn in
    lockstep (see _sample_indices) as one disjoint union, in which ring i's
    vertices are shifted by i*n, and a single labelling pass splits it into
    components.  Labels are component minima, so ring i's labels stay in
    row i of the (r, n) size table.
    """
    n = tables[0]
    r = len(rngs)
    u, v = _decode_batch(n, _sample_indices(rngs, tables))
    sizes = np.bincount(_label_edges(r * n, u, v), minlength=r * n).reshape(r, n)
    b_count = np.where(sizes >= omega, sizes, 0).sum(axis=1)
    # Largest, then the largest left once one entry of it is zeroed: equal
    # to the largest when two components tie for it.
    rows = np.arange(r)
    top = sizes.argmax(axis=1)
    largest = sizes[rows, top]
    sizes[rows, top] = 0
    return largest, sizes.max(axis=1), b_count


def _sweep_run(params: ModelParams, batch: int, omega: int, start: int, stop: int) -> list:
    """[largest, second-largest, b_count] per replicate, ``batch`` replicates per pass.

    Replicate i is drawn on its own sample_fast stream.  One call keys every
    replicate of the run, and one list of generators serves every batch:
    each is re-keyed to its next replicate's stream, which is safe because
    the list never leaves this call.
    """
    tables = _class_tables(params.n, params.c, params.kernel)
    k0, k1 = _fast_key(params, np.arange(start, stop))
    keys = list(zip(k0.tolist(), k1.tolist()))
    rngs: list[np.random.Generator] = []
    stats = []
    for s in range(0, len(keys), batch):
        chunk = keys[s : s + batch]
        for rng, key in zip(rngs, chunk):
            rekey(rng, key)
        rngs += [keyed_stream(key) for key in chunk[len(rngs) :]]
        stats.append(_batch_stats(tables, rngs[: len(chunk)], omega))
    return np.concatenate([np.stack(columns, axis=1) for columns in stats]).tolist()


def _run_cells(
    kernels: list[Kernel],
    cs: tuple[float, ...],
    ns: tuple[int, ...],
    replicates: int,
    omega_rule: str,
    master_seed: int,
    workers: int | None,
    predict: str = "alpha<=1",
) -> list[CellResult]:
    """Sample every replicate of every (kernel, c, n) cell, in batches, and
    summarize each cell, in that nested order.

    Each run of consecutive replicates of a cell works through them in
    batches of at most _BATCH_VERTICES vertices: each replicate is drawn on
    its own stream, and one labelling pass over the batch's disjoint union
    gives every replicate's statistics (see _batch_stats).  Results depend
    neither on the worker count nor on the batching.  A failing cell records
    its error and NaN statistics; other cells go on.
    """
    runs = [
        (ModelParams(n=n, c=c, kernel=kernel, seed=master_seed),
         max(1, _BATCH_VERTICES // n), omega_for(omega_rule, n))
        for kernel in kernels
        for c in cs
        for n in ns
    ]
    outputs = _run_replicates(_sweep_run, runs, replicates, resolve_workers(workers))
    results: list[CellResult] = []
    for (params, _batch, omega), out in zip(runs, outputs):
        alpha = kernel_alpha(params.kernel)
        predicted = None
        if predict == "always" or (predict == "alpha<=1" and alpha is not None and alpha <= 1):
            predicted = rho_limit(params.c) if params.c > 0 else 0.0
        error = str(out) if isinstance(out, RuntimeError) else None
        stats = np.full((1, 3), math.nan) if error else np.array(out, dtype=np.float64) / params.n
        fr, second, bfr = stats.T
        results.append(
            CellResult(
                kernel=params.kernel.spec_string(),
                alpha=alpha,
                c=params.c,
                n=params.n,
                replicates=replicates,
                omega=omega,
                mean_fraction=float(fr.mean()),
                std_fraction=float(fr.std()),
                min_fraction=float(fr.min()),
                max_fraction=float(fr.max()),
                mean_second_fraction=float(second.mean()),
                mean_b_fraction=float(bfr.mean()),
                predicted_rho=predicted,
                error=error,
            )
        )
    return results


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Sample every (alpha, c, n) cell and summarize largest components.

    Cells supercritical by the branching prediction carry the Poisson
    survival probability rho(c) for alpha <= 1.
    """
    kernels = [kernel_for_alpha(alpha) for alpha in spec.alphas]
    results = _run_cells(
        kernels, spec.cs, spec.ns, spec.replicates, spec.omega_rule, spec.master_seed, workers
    )
    echo = asdict(spec)
    return SweepResult(spec=echo, cells=results)


def conjecture_probe(
    kernel: Kernel,
    ns: tuple[int, ...],
    cs: tuple[float, ...],
    replicates: int,
    master_seed: int = 0,
    omega_rule: str = "log4",
    workers: int | None = None,
) -> SweepResult:
    """Sweep one explicit kernel over (c, n) to expose fraction trends.

    The Poisson survival probability rho(c) is attached to every cell as the
    reference value a "random-graph-like" kernel should approach; kernels
    whose normalizer stays bounded are expected to fall away from it as n
    grows.
    """
    results = _run_cells(
        [kernel], cs, ns, replicates, omega_rule, master_seed, workers, predict="always"
    )
    echo = dict(
        kernel=kernel.spec_string(),
        cs=list(cs),
        ns=list(ns),
        replicates=replicates,
        omega_rule=omega_rule,
        master_seed=master_seed,
    )
    return SweepResult(spec=echo, cells=results)


def write_sweep_csv(path: str | Path, result: SweepResult) -> None:
    """One row per grid cell, columns named after the CellResult fields."""
    fields = list(CellResult.__dataclass_fields__)
    rows = [asdict(cell) for cell in result.cells]
    write_rows_csv(path, fields, rows)


# ---------------------------------------------------------------------------
# Triangles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleStats:
    """Exact triangle and neighborhood statistics of one graph."""

    triangles_per_vertex: float
    mean_degree: float
    second_neighbors_per_vertex: float


def _two_path_keys(n: int, indptr: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Sorted keys a*n + b of the ordered 2-paths a - w - b with a != b.

    Per centre w these are the deg(w)^2 pairs of its neighbour slots minus
    the diagonal.  The temporaries, several arrays of sum_w deg(w)^2
    entries, are freed on return.
    """
    deg = np.diff(indptr)
    slot_deg = np.repeat(deg, deg)  # degree of the centre owning each slot
    # slot i pairs with every slot of its centre w: a run of slot_deg[i]
    # 2-paths whose k-th entry takes slot indptr[w] + k as its far end
    a = np.repeat(nbrs, slot_deg)
    run_start = np.cumsum(slot_deg) - slot_deg
    shift = np.repeat(indptr[:-1], deg) - run_start
    b = nbrs[np.arange(a.size) + np.repeat(shift, slot_deg)]
    keys = (a * np.int64(n) + b)[a != b]
    keys.sort()
    return keys


def triangle_stats(graph: Graph) -> TriangleStats:
    """Exact 3-cycle count per vertex plus first/second neighborhood sizes.

    Enumerates the ordered 2-paths a - w - b (a != b) from the CSR
    adjacency in numpy.  One sort of their keys a*n + b and an
    adjacent-difference mask give the distinct pairs (a, b) and their
    multiplicities; one searchsorted against the sorted adjacency keys
    src*n + dst marks the pairs that are edges.  Each triangle closes six
    2-paths, and the second neighbours of a are the distinct b that are not
    neighbours of a.  Time and memory are O(n + |E| + sum_w deg(w)^2).
    """
    n = graph.n
    indptr, nbrs = graph.adjacency()
    keys = _two_path_keys(n, indptr, nbrs)
    fresh = np.empty(keys.shape, dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    pairs = keys[fresh]
    multiplicity = np.diff(np.flatnonzero(fresh), append=keys.size)

    edge_keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * np.int64(n) + nbrs
    at = np.minimum(np.searchsorted(edge_keys, pairs), edge_keys.size - 1)
    is_edge = edge_keys[at] == pairs
    total_triangles = int(multiplicity[is_edge].sum()) / 6.0
    second = pairs.size - int(np.count_nonzero(is_edge))

    return TriangleStats(
        triangles_per_vertex=3.0 * total_triangles / n,
        mean_degree=2.0 * graph.num_edges / n,
        second_neighbors_per_vertex=second / n,
    )


def _triangle_run(params: ModelParams, start: int, stop: int) -> list[TriangleStats]:
    stats = []
    for rep in range(start, stop):
        # Keep the previous graph until this draw: freeing it first lets glibc
        # trim the heap top, and re-faulting those pages cost ~10% at n=1e5.
        graph = sample_fast(params, replicate=rep)
        stats.append(triangle_stats(graph))
    return stats


def triangle_replicates(params: ModelParams, replicates: int) -> list[TriangleStats]:
    """triangle_stats of replicates 0, ..., replicates-1, in one process."""
    return _run_one(_triangle_run, (params,), replicates, workers=1)


# ---------------------------------------------------------------------------
# Block renormalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockStats:
    """Block-to-block connectivity estimates at one block size m."""

    m: int
    n_blocks: int
    adjacent_connect_freq: float
    nonadjacent_connect_freq: float
    samples: int
    replicates: int


def _block_pair_index(bu: np.ndarray, bv: np.ndarray, dist: int, nb: int) -> np.ndarray:
    """Ring index i of block pairs (i, (i+dist) mod nb) among (bu, bv) rows."""
    forward = (bu + dist) % nb == bv
    backward = (bv + dist) % nb == bu
    return np.unique(np.concatenate([bu[forward], bv[backward]]))


def _block_run(
    params: ModelParams, ms: tuple[int, ...], pairs_cap: int, nonadj_dist: int, start: int, stop: int
) -> list[list[tuple[int, int, int, int]]]:
    """Per replicate, per m: (adjacent hits, nb, non-adjacent hits, sampled pairs)."""
    n = params.n
    out = []
    for rep in range(start, stop):
        u, v = sample_fast(params, replicate=rep).edges.T
        per_m = []
        for m in ms:
            nb = n // m
            bu = u // m
            bv = v // m
            off = bu != bv
            buo, bvo = bu[off], bv[off]
            # Adjacent pairs: all nb ring-adjacent block pairs.
            adj_present = _block_pair_index(buo, bvo, 1, nb)
            # Non-adjacent pairs at the probed circular block distance.
            non_present = _block_pair_index(buo, bvo, nonadj_dist, nb)
            if nb <= pairs_cap:
                sampled = np.arange(nb)
            else:
                srng = stream(params.seed, "blocks:pairs", params.kernel.spec_string(), n,
                              float(params.c), rep, m)
                sampled = srng.choice(nb, size=pairs_cap, replace=False)
            non_hits = int(np.isin(sampled, non_present).sum())
            per_m.append((adj_present.size, nb, non_hits, sampled.size))
        out.append(per_m)
    return out


def check_blocks(n: int, m: int, nonadjacent_distance: int) -> None:
    """Raise ValueError unless block size m cuts the n-ring into 4 or more whole
    blocks and nonadjacent_distance lies in [2, half their number]."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if n % m != 0:
        raise ValueError(f"block size {m} must divide n={n}")
    if m > n // 4:
        raise ValueError(f"block size {m} leaves fewer than 4 blocks (n={n})")
    if nonadjacent_distance < 2:
        raise ValueError("non-adjacent block distance must be >= 2")
    if nonadjacent_distance > n // m // 2:
        raise ValueError(f"block distance {nonadjacent_distance} exceeds half the "
                         f"{n // m} blocks of size {m}")


def block_connectivity(
    params: ModelParams,
    ms: tuple[int, ...],
    replicates: int,
    pairs_cap: int = 1000,
    nonadjacent_distance: int = 2,
    workers: int | None = None,
) -> list[BlockStats]:
    """Block-connection frequencies for several block sizes at once.

    Partitions the ring into n/m contiguous blocks and estimates, across
    replicates, the probability that two blocks are joined by at least one
    edge: for the nb ring-adjacent pairs exhaustively, and for pairs at
    circular block distance ``nonadjacent_distance`` (the nearest
    non-adjacent class, where block-to-block connectivity is strongest)
    over up to ``pairs_cap`` sampled ring positions.

    Each replicate graph is sampled once and analyzed at every m.
    """
    n = params.n
    for m in ms:
        check_blocks(n, m, nonadjacent_distance)
    if pairs_cap < 1:
        raise ValueError(f"need pairs_cap >= 1, got {pairs_cap}")
    cell = (params, tuple(ms), pairs_cap, nonadjacent_distance)
    counts = np.sum(_run_one(_block_run, cell, replicates, resolve_workers(workers)), axis=0)
    return [
        BlockStats(
            m=m,
            n_blocks=n // m,
            adjacent_connect_freq=adj_hits / adj_total,
            nonadjacent_connect_freq=non_hits / non_total,
            samples=non_total,
            replicates=replicates,
        )
        for m, (adj_hits, adj_total, non_hits, non_total) in zip(ms, counts.tolist())
    ]


# ---------------------------------------------------------------------------
# Sprinkling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SprinkleRecord:
    replicate: int
    b_fraction: float
    merged: bool
    fraction_before: float
    fraction_after: float
    nested_ok: bool


@dataclass
class SprinklingResult:
    n: int
    kernel: str
    c_prime: float
    delta: float
    omega: int
    records: list[SprinkleRecord]

    @property
    def merged_fraction(self) -> float:
        return sum(r.merged for r in self.records) / len(self.records)

    @property
    def nesting_fraction(self) -> float:
        return sum(r.nested_ok for r in self.records) / len(self.records)


def _sprinkle_run(
    params: ModelParams, c_prime: float, omega: int, start: int, stop: int
) -> list[SprinkleRecord]:
    """One record per replicate; params.c is the upper level c' + delta.

    Each replicate draws the pairs and activations of one filtration with
    c_max = c' + delta (_draw_filtration, the draw behind
    sample_filtration), and one mask splits its pairs into those open at c'
    and the later ones.  The pairs stay in the draw's order: labels are
    component minima, which no edge order changes, so no canonical
    Filtration is built.  The c' labels come from the early pairs alone;
    the c'+delta labels come from labelling only the later pairs on top of
    them, each pair joining the c' labels of its endpoints.  A merged
    component's minimum is the smallest of the c' minima it contains, so
    the composed labels equal a fresh labelling of the whole draw.  The
    whole draw is the c'+delta graph because every drawn edge opens by
    c_max.  nested_ok records that this held, i.e. no activation exceeds
    c'+delta; it is what makes the c' graph a subgraph of the c'+delta
    graph and the composed labels exact.
    """
    n = params.n
    records = []
    for rep in range(start, stop):
        u, v, activation = _draw_filtration(n, params.kernel, params.c, params.seed, rep)
        early = activation <= c_prime
        later = ~early

        labels1 = _label_edges(n, u[early], v[early])
        sizes1 = np.bincount(labels1, minlength=n)
        b_mask = sizes1[labels1] >= omega
        labels2 = _label_edges(n, labels1[u[later]], labels1[v[later]])[labels1]
        sizes2 = np.bincount(labels2, minlength=n)
        b_labels = labels2[b_mask]
        merged = bool((b_labels == b_labels[:1]).all())  # True for an empty B too
        records.append(
            SprinkleRecord(
                replicate=rep,
                b_fraction=float(b_mask.sum() / n),
                merged=merged,
                fraction_before=float(sizes1.max() / n),
                fraction_after=float(sizes2.max() / n),
                nested_ok=bool(activation.max(initial=0.0) <= params.c),
            )
        )
    return records


def sprinkling_experiment(
    n: int,
    kernel: Kernel,
    c_prime: float,
    delta: float,
    omega: int,
    replicates: int,
    master_seed: int = 0,
    workers: int | None = None,
) -> SprinklingResult:
    """Two-stage construction: sample at c', then raise the level to c'+delta.

    Each replicate draws the edges of one filtration up to c'+delta, those
    sample_filtration would return, and splits them once, at c'.  They are
    labelled in the order they are drawn, not sorted into a Filtration:
    component labels do not depend on edge order.  Stage one is the early
    edges; stage two is all of them, so it contains stage one's edges by
    construction.  nested_ok records per replicate that stage two is the
    c'+delta graph: no edge opens above c'+delta.  Stage two's labels are
    composed on stage one's: only the later edges are labelled, between the
    c' component minima they join, which gives exactly the labels of a
    fresh labelling at c'+delta.  For each replicate this reports the
    fraction of vertices in components of size >= omega at c', whether
    those vertices all land in a single component at c'+delta, and the
    largest-component fractions at both levels.
    """
    if not c_prime > 0:
        raise ValueError(f"need c' > 0, got {c_prime}")
    if delta < 0:
        raise ValueError(f"need delta >= 0, got {delta}")
    if omega < 1:
        raise ValueError(f"need omega >= 1, got {omega}")
    params = ModelParams(n=n, c=c_prime + delta, kernel=kernel, seed=master_seed)
    records = _run_one(_sprinkle_run, (params, c_prime, omega), replicates, resolve_workers(workers))
    return SprinklingResult(
        n=n,
        kernel=kernel.spec_string(),
        c_prime=c_prime,
        delta=delta,
        omega=omega,
        records=records,
    )
