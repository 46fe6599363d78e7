import concurrent.futures
import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import spearmanr

from alphagraph import experiments
from alphagraph.branching import rho_limit
from alphagraph.experiments import (
    SprinkleRecord,
    SweepSpec,
    TriangleStats,
    block_connectivity,
    conjecture_probe,
    run_sweep,
    sprinkling_experiment,
    triangle_stats,
    write_sweep_csv,
)
from alphagraph.model import (
    ModelParams,
    PowerLawKernel,
    PowerLogKernel,
    TabulatedKernel,
    class_edge_probs,
    parse_kernel,
)
from alphagraph.components import component_labels, components
from alphagraph.sampler import (
    Graph,
    _fast_batches,
    canonical_edges,
    format_float,
    sample_fast,
    sample_filtration,
    subgraph_at,
)

MASTER = 20260809


def cell_at(result, n: int):
    """The one cell of a one-kernel, one-c result with ring size n."""
    (hit,) = [c for c in result if c.n == n]
    return hit


class TestRunSweep:
    def test_grid_cardinality_and_fields(self):
        spec = SweepSpec(alphas=(0.0, 1.0), cs=(0.5, 1.0, 2.0), ns=(100, 200), replicates=3)
        result = run_sweep(spec, workers=1)
        assert len(result) == 12
        for cell in result:
            assert cell.error is None
            assert 0.0 <= cell.mean_fraction <= 1.0
            assert cell.min_fraction <= cell.mean_fraction <= cell.max_fraction

    def test_bit_identical_reproducibility_and_worker_invariance(self):
        spec = SweepSpec(alphas=(1.0,), cs=(2.0,), ns=(300, 500), replicates=4, master_seed=5)
        a = run_sweep(spec, workers=1)
        b = run_sweep(spec, workers=2)
        assert a == b

    def test_prediction_column(self):
        spec = SweepSpec(
            alphas=(0.0, 0.5, 1.0, 1.5, math.inf), cs=(0.8, 2.0), ns=(64,), replicates=1
        )
        result = run_sweep(spec, workers=1)
        for cell in result:
            if cell.alpha is not None and cell.alpha <= 1:
                assert cell.predicted_rho == rho_limit(cell.c)
            else:
                assert cell.predicted_rho is None

    def test_cell_failure_recorded_sweep_continues(self):
        # a kernel table too short for the requested n fails that cell only
        short = TabulatedKernel((1.0, 0.5))
        result = conjecture_probe(short, ns=(4, 1000), cs=(1.0,), replicates=2, master_seed=1)
        ok = cell_at(result, 4)
        bad = cell_at(result, 1000)
        assert ok.error is None
        assert bad.error is not None and "table" in bad.error
        assert math.isnan(bad.mean_fraction)

    @pytest.mark.parametrize("workers, failing", [(1, "[0, 2)"), (2, "[0, 1)")])
    def test_cell_error_names_the_failing_replicates(self, workers, failing):
        # two workers cut the n=1000 cell into one-replicate runs; the first fails
        short = TabulatedKernel((1.0, 0.5))
        result = conjecture_probe(short, ns=(4, 1000), cs=(1.0,), replicates=2, master_seed=1,
                                  workers=workers)
        assert cell_at(result, 4).error is None
        assert cell_at(result, 1000).error.startswith(f"replicates {failing}: ValueError: ")

    def test_no_environment_variable_overrides_workers(self, monkeypatch):
        # no environment variable overrides the caller's worker count
        monkeypatch.setenv("ALPHAGRAPH_WORKERS", "2")
        short = TabulatedKernel((1.0, 0.5))
        result = conjecture_probe(short, ns=(4, 1000), cs=(1.0,), replicates=2, master_seed=1,
                                  workers=1)
        assert cell_at(result, 1000).error.startswith("replicates [0, 2): ValueError: ")

    def test_omega_column_and_b_fraction(self):
        spec = SweepSpec(alphas=(0.0,), cs=(2.0,), ns=(256,), replicates=2, omega_rule="8")
        result = run_sweep(spec, workers=1)
        cell = result[0]
        assert cell.omega == 8
        assert 0.0 <= cell.mean_b_fraction <= 1.0
        assert cell.mean_b_fraction <= 1.0


class TestReplicateJobs:
    def test_one_job_per_cell_with_one_worker(self):
        assert experiments._replicate_jobs(2, 500, 1) == [(0, 0, 500), (1, 0, 500)]

    def test_one_cell_spreads_over_every_worker(self):
        assert experiments._replicate_jobs(1, 500, 2) == [(0, 0, 250), (0, 250, 500)]

    def test_no_more_runs_than_replicates(self):
        jobs = experiments._replicate_jobs(2, 2, 64)
        assert jobs == [(0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 1, 2)]

    @given(st.integers(1, 5), st.integers(1, 300), st.integers(1, 70))
    def test_runs_cover_each_cell_consecutively(self, cells, replicates, workers):
        jobs = experiments._replicate_jobs(cells, replicates, workers)
        assert [cell for cell, _, _ in jobs] == sorted(cell for cell, _, _ in jobs)
        for cell in range(cells):
            bounds = [b for c, start, stop in jobs if c == cell for b in (start, stop)]
            assert len(bounds) == 2 * min(workers, replicates)  # at most one run per worker
            assert bounds[0] == 0 and bounds[-1] == replicates
            assert bounds[1:-1:2] == bounds[2::2]  # consecutive, no gaps or overlaps
            lengths = np.diff(bounds)[::2]
            assert lengths.min() >= 1 and lengths.max() - lengths.min() <= 1

    def test_pool_is_no_larger_than_its_job_list(self, monkeypatch):
        # a stand-in pool records its size and starts no process
        sizes = []

        class StubPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
        kernel = PowerLawKernel(1.0)
        many = sprinkling_experiment(200, kernel, 1.5, 0.5, 8, replicates=2, workers=64)
        assert sizes == [2]
        assert many == sprinkling_experiment(200, kernel, 1.5, 0.5, 8, replicates=2, workers=1)
        assert sizes == [2]  # one worker runs serially, with no pool
        spec = SweepSpec(alphas=(1.0,), cs=(2.0,), ns=(16, 32, 64), replicates=2)
        assert run_sweep(spec, workers=64)== run_sweep(spec, workers=1)
        assert sizes == [2, 6]

    def test_batches_split_a_job_mid_cell(self, monkeypatch):
        # 128 vertices per pass at n=64: the job's 7 replicates are drawn and
        # labelled in batches of 2+2+2+1
        n, omega = 64, 8
        params = ModelParams.make(n, 1.0, 2.0, seed=MASTER)
        batches = []

        def recorded(*args):
            for batch in _fast_batches(*args):
                batches.append(batch)
                yield batch

        monkeypatch.setattr(experiments, "_BATCH_VERTICES", 2 * n)
        monkeypatch.setattr(experiments, "_fast_batches", recorded)
        (rows,) = experiments._run_replicates(experiments._sweep_run, [(params, omega)], 7, 1)
        assert [r for r, _, _ in batches] == [2, 2, 2, 1]
        graphs = [sample_fast(params, rep) for rep in range(7)]
        # each ring of a batch is its replicate's sample_fast graph...
        rings = [(u // n == i, u - i * n, v - i * n) for r, u, v in batches for i in range(r)]
        for graph, (mine, u, v) in zip(graphs, rings, strict=True):
            np.testing.assert_array_equal(canonical_edges(n, u[mine], v[mine]), graph.edges)
        # ...and gets that graph's own statistics
        want = [[s.largest, s.second_largest, s.b_count(omega)] for s in map(components, graphs)]
        assert rows == want


class TestGiantUniqueness:
    def test_second_largest_fraction_small_in_supercritical_cells(self):
        # c=2 at n=1e6: the giant component is unique; the runner-up stays
        # far below 1% of the vertices for both alpha=0 and alpha=1
        spec = SweepSpec(alphas=(0.0, 1.0), cs=(2.0,), ns=(10**6,), replicates=2,
                         master_seed=MASTER)
        result = run_sweep(spec, workers=2)
        for cell in result:
            assert cell.error is None
            assert cell.mean_second_fraction < 0.01


class TestConjectureProbe:
    def test_power_alpha0_matches_sweep_cell_exactly(self):
        spec = SweepSpec(alphas=(0.0,), cs=(2.0,), ns=(500,), replicates=5, master_seed=MASTER)
        sweep_cell = run_sweep(spec, workers=1)[0]
        probe_cell = conjecture_probe(
            PowerLawKernel(0.0), ns=(500,), cs=(2.0,), replicates=5, master_seed=MASTER
        )[0]
        assert probe_cell == sweep_cell

    @pytest.mark.parametrize("ns, cs", [((), (2.0,)), ((64,), ())])
    def test_empty_axis_raises_as_sweep_spec_does(self, ns, cs):
        with pytest.raises(ValueError, match="must be non-empty"):
            conjecture_probe(PowerLawKernel(1.0), ns=ns, cs=cs, replicates=3)

    def test_divergent_h_kernel_trend_increasing(self):
        # f(x) = 1/(x ln x): normalizer diverges, so supercritical behavior
        # should strengthen with n toward the Poisson survival value
        kernel = PowerLogKernel(1.0, 1.0)
        ns = (10**4, 31623, 10**5, 316228)
        result = conjecture_probe(kernel, ns=ns, cs=(2.0,), replicates=10, master_seed=MASTER)
        fr = [cell_at(result, n).mean_fraction for n in ns]
        corr = spearmanr(np.log(ns), fr).statistic
        assert corr > 0
        assert abs(fr[-1] - rho_limit(2.0)) < 0.02

    def test_convergent_h_kernel_trend_decreasing(self):
        # f(x) = 1/(x ln^2 x): bounded normalizer, no giant just above c=1
        kernel = PowerLogKernel(1.0, 2.0)
        ns = (10**4, 31623, 10**5, 316228)
        result = conjecture_probe(kernel, ns=ns, cs=(1.05,), replicates=10, master_seed=MASTER)
        fr = [cell_at(result, n).mean_fraction for n in ns]
        corr = spearmanr(np.log(ns), fr).statistic
        assert corr < 0
        assert fr[-1] < 0.01


def triangle_stats_sets(graph: Graph) -> TriangleStats:
    """Set-based reference for triangle_stats: common neighbours edge by
    edge, then each vertex's second neighbourhood as a union of sets."""
    n = graph.n
    indptr, nbrs = graph.adjacency()
    adj = [set(nbrs[indptr[v] : indptr[v + 1]].tolist()) for v in range(n)]
    triangle_ends = 0  # counts (triangle, vertex) incidences, = 3 * #triangles
    for u, v in graph.edges.tolist():
        triangle_ends += len(adj[u] & adj[v])  # each common w closes one triangle
    total_triangles = triangle_ends / 3.0  # each triangle found once per edge

    second = 0
    for v in range(n):
        direct = adj[v]
        reach = set()
        for u in direct:
            reach |= adj[u]
        reach.discard(v)
        second += len(reach - direct)

    return TriangleStats(
        triangles_per_vertex=3.0 * total_triangles / n,
        mean_degree=2.0 * graph.num_edges / n,
        second_neighbors_per_vertex=second / n,
    )


def dense_random_graph(n: int, p: float, seed: int) -> Graph:
    iu, ju = np.triu_indices(n, k=1)
    keep = np.random.default_rng(seed).random(iu.size) < p
    return Graph(n, np.column_stack([iu[keep], ju[keep]]))


def triangle_oracle_graphs():
    """(label, graph) pairs on which triangle_stats must equal the reference."""
    for n in (2, 3, 17, 64, 300, 4099):
        for alpha in (0.0, 1.0, 1.5, 3.0, math.inf):
            for c in (0.5, 2.0, 8.0):
                params = ModelParams.make(n, alpha, c, seed=MASTER)
                yield f"sample_fast n={n} alpha={alpha} c={c}", sample_fast(params)
    for seed, (n, p) in enumerate([(5, 0.5), (20, 0.3), (40, 0.6), (60, 0.9), (90, 0.2)]):
        yield f"dense n={n} p={p}", dense_random_graph(n, p, seed)
    yield "K_12", dense_random_graph(12, 1.0, 0)
    yield "star with 50 leaves", Graph(51, np.column_stack([np.zeros(50, int), np.arange(1, 51)]))
    yield "empty", Graph(5, np.empty((0, 2), dtype=np.int64))
    yield "isolated vertices", Graph(10, np.array([[0, 1], [1, 2], [0, 2], [5, 6], [6, 8]]))


class TestTriangles:
    def test_equals_set_reference(self):
        for label, graph in triangle_oracle_graphs():
            assert triangle_stats(graph) == triangle_stats_sets(graph), label

    def test_frozen_values_at_n_1e5(self):
        params = ModelParams.make(10**5, 1.5, 1.2, seed=MASTER)
        frozen = [
            TriangleStats(0.02262, 1.19664, 1.2549),
            TriangleStats(0.02442, 1.19896, 1.2562),
            TriangleStats(0.02358, 1.18864, 1.2242),
        ]
        for rep, expected in enumerate(frozen):
            assert triangle_stats(sample_fast(params, replicate=rep)) == expected

    def test_triangle_graph(self):
        g = Graph(3, np.array([[0, 1], [0, 2], [1, 2]]))
        st = triangle_stats(g)
        assert st.triangles_per_vertex == pytest.approx(1.0)
        assert st.mean_degree == pytest.approx(2.0)
        assert st.second_neighbors_per_vertex == 0.0

    def test_tree_has_no_triangles(self):
        g = Graph(7, np.array([[0, 1], [0, 2], [1, 3], [1, 4], [2, 5], [2, 6]]))
        st = triangle_stats(g)
        assert st.triangles_per_vertex == 0.0
        assert st.second_neighbors_per_vertex > 0

    def test_square_with_diagonal(self):
        g = Graph(4, np.array([[0, 1], [1, 2], [2, 3], [0, 3], [0, 2]]))
        st = triangle_stats(g)
        # two triangles: (0,1,2) and (0,2,3); vertex incidences 3*2/4
        assert st.triangles_per_vertex == pytest.approx(6 / 4)

    def test_second_neighbors_bounded_by_degree_product(self):
        # two-step growth is throttled by clustering: on average a vertex has
        # fewer second neighbors than (mean degree)^2 minus its triangles
        params = ModelParams.make(10**5, 1.5, 1.2, seed=MASTER)
        stats = [triangle_stats(sample_fast(params, replicate=r)) for r in range(5)]
        second = np.mean([s.second_neighbors_per_vertex for s in stats])
        deg = np.mean([s.mean_degree for s in stats])
        tri = np.mean([s.triangles_per_vertex for s in stats])
        assert second <= deg**2 - tri

    def test_monte_carlo_matches_direct_summation(self):
        # oracle: sum of p(i)p(j)p(i-j) over offset pairs within +-1000
        n, alpha, c = 10**5, 1.5, 1.2
        params = ModelParams.make(n, alpha, c, seed=MASTER)
        p = class_edge_probs(params)
        L = 1000
        offs = np.array([o for o in range(-L, L + 1) if o != 0], dtype=np.int64)
        pi = p[np.abs(offs) - 1]
        dij = np.abs(offs[:, None] - offs[None, :])
        dij = np.minimum(dij, n - dij)
        pij = np.where(dij > 0, p[np.maximum(dij, 1) - 1], 0.0)
        cross = (pi[:, None] * pi[None, :]) * pij
        oracle = float(np.triu(cross, k=1).sum())

        vals = [
            triangle_stats(sample_fast(params, replicate=rep)).triangles_per_vertex
            for rep in range(20)
        ]
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(float(np.mean(vals)) - oracle) <= 5 * se


class TestBlocks:
    def test_validation(self):
        params = ModelParams.make(1000, 3.0, 0.9, seed=1)
        with pytest.raises(ValueError):
            block_connectivity(params, (300,), 2)  # > n/4
        with pytest.raises(ValueError):
            block_connectivity(params, (7,), 2)  # does not divide n
        with pytest.raises(ValueError):
            block_connectivity(params, (10,), 2, nonadjacent_distance=1)
        with pytest.raises(ValueError, match="half"):
            block_connectivity(params, (10,), 2, nonadjacent_distance=600)  # 100 blocks
        with pytest.raises(ValueError, match="half"):
            block_connectivity(params, (10,), 2, nonadjacent_distance=51)
        with pytest.raises(ValueError, match="half"):
            block_connectivity(params, (10, 250), 2, nonadjacent_distance=3)  # 4 blocks
        (st,) = block_connectivity(params, (10,), 1, nonadjacent_distance=50)
        assert st.samples == 100

    def test_zero_c_all_zero(self):
        params = ModelParams.make(256, 3.0, 0.0, seed=2)
        (st,) = block_connectivity(params, (16,), 3)
        assert st.adjacent_connect_freq == 0.0
        assert st.nonadjacent_connect_freq == 0.0

    def test_full_ring_adjacent_only(self):
        # alpha=inf, c=2 clamps every nearest-neighbor edge open: adjacent
        # blocks always connect, non-adjacent never do
        params = ModelParams(n=256, c=2.0, kernel=PowerLawKernel(math.inf), seed=3)
        (st,) = block_connectivity(params, (16,), 4)
        assert st.adjacent_connect_freq == 1.0
        assert st.nonadjacent_connect_freq == 0.0
        assert st.n_blocks == 16

    def test_multi_m_shares_replicate_graphs(self):
        params = ModelParams.make(2**12, 3.0, 0.9, seed=4)
        multi = block_connectivity(params, (16, 32), replicates=5)
        (single16,) = block_connectivity(params, (16,), replicates=5)
        (single32,) = block_connectivity(params, (32,), replicates=5)
        assert multi[0] == single16
        assert multi[1] == single32

    @pytest.mark.parametrize("alpha", [0.0, 1.5, 3.0])
    @pytest.mark.parametrize(
        "n, ms, dist",
        [(1024, (16, 256), 2), (8192, (4, 64, 2048), 2), (20006, (2, 7, 1429), 3)],
    )
    def test_matches_brute_force_count(self, n, ms, dist, alpha):
        # An independent count: per replicate graph, the set of block pairs it
        # joins, and per ring position i, whether (i, i+1) and (i, i+dist)
        # are among them.  The grid has nb from 4 (n=1024, m=256) to 10003.
        params = ModelParams.make(n, alpha, 1.5, seed=6)
        reps = 3
        stats = block_connectivity(params, ms, reps, nonadjacent_distance=dist, workers=1)
        for m, st in zip(ms, stats):
            nb = n // m
            adj = non = 0
            for rep in range(reps):
                edges = sample_fast(params, rep).edges.tolist()
                joined = {frozenset((u // m, v // m)) for u, v in edges}
                adj += sum(frozenset((i, (i + 1) % nb)) in joined for i in range(nb))
                non += sum(frozenset((i, (i + dist) % nb)) in joined for i in range(nb))
            assert (st.m, st.n_blocks, st.replicates) == (m, nb, reps)
            assert st.adjacent_connect_freq == adj / (nb * reps)
            assert st.nonadjacent_connect_freq == non / (nb * reps)
            assert st.samples == nb * reps

    def test_nonadjacent_freq_falls_with_m(self):
        params = ModelParams.make(2**14, 3.0, 0.9, seed=5)
        stats = block_connectivity(params, (16, 64), replicates=40)
        assert stats[0].nonadjacent_connect_freq > 2 * stats[1].nonadjacent_connect_freq


class TestSprinkling:
    def test_monotone_fractions_and_nesting(self):
        res = sprinkling_experiment(
            20_000, PowerLawKernel(1.0), 1.5, 0.5, omega=200, replicates=5, master_seed=MASTER
        )
        for rec in res:
            assert rec.nested_ok
            assert rec.fraction_after >= rec.fraction_before

    def test_delta_zero_is_baseline(self):
        res = sprinkling_experiment(
            5000, PowerLawKernel(1.0), 1.5, 0.0, omega=50, replicates=5, master_seed=7
        )
        for rec in res:
            assert rec.fraction_after == rec.fraction_before
            # B is the union of components >= omega at c'; with no new edges it
            # is merged exactly when there is at most one such component
            assert rec.nested_ok

    def test_nested_ok_flags_edges_above_upper_level(self, monkeypatch):
        # A filtration drawn past c'+delta is not the c'+delta graph: the
        # replicates whose draw holds an edge above c'+delta are not nested.
        n, kernel, c_prime, delta, reps = 16, PowerLawKernel(1.0), 0.3, 0.2, 12
        draw = experiments._draw_filtration

        def wide(params, replicate):
            return draw(replace(params, c=1.25 * params.c), replicate)

        monkeypatch.setattr(experiments, "_draw_filtration", wide)
        res = sprinkling_experiment(n, kernel, c_prime, delta, 2, reps, master_seed=3, workers=1)
        params = ModelParams(n=n, c=c_prime + delta, kernel=kernel, seed=3)
        above = [wide(params, rep)[2].max(initial=0.0) > c_prime + delta for rep in range(reps)]
        assert any(above) and not all(above)
        assert [not rec.nested_ok for rec in res] == above

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize("spec", ["power:alpha=1", "nn", "powerlog:alpha=1.0,beta=1.0"])
    @pytest.mark.parametrize("n", [2, 3, 16, 3000])
    def test_records_match_the_canonical_route(self, n, spec, delta):
        # Each record recomputed from the public filtration, its subgraphs at
        # c' and c'+delta, and a fresh labelling of each.
        kernel, c_prime, omega, reps, seed = parse_kernel(spec), 1.5, 1 + n // 10, 6, 11
        expected = []
        for rep in range(reps):
            filt = sample_filtration(n, kernel, c_prime + delta, seed, replicate=rep)
            labels1, sizes1 = component_labels(subgraph_at(filt, c_prime))
            labels2, sizes2 = component_labels(subgraph_at(filt, c_prime + delta))
            b_mask = sizes1[labels1] >= omega
            expected.append(
                SprinkleRecord(
                    replicate=rep,
                    b_fraction=float(b_mask.sum() / n),
                    merged=len(set(labels2[b_mask].tolist())) <= 1,
                    fraction_before=float(sizes1.max() / n),
                    fraction_after=float(sizes2.max() / n),
                    nested_ok=bool(filt.activation.max(initial=0.0) <= c_prime + delta),
                )
            )
        for workers in (1, 2):
            res = sprinkling_experiment(n, kernel, c_prime, delta, omega, reps, seed, workers)
            assert res == expected

    def test_validation(self):
        k = PowerLawKernel(1.0)
        with pytest.raises(ValueError):
            sprinkling_experiment(100, k, 0.0, 0.5, 10, 2)
        with pytest.raises(ValueError):
            sprinkling_experiment(100, k, 1.5, -0.1, 10, 2)
        with pytest.raises(ValueError):
            sprinkling_experiment(100, k, 1.5, 0.5, 0, 2)


class TestOutputFiles:
    def test_sweep_csv_17_digit_roundtrip(self, tmp_path):
        spec = SweepSpec(alphas=(1.0,), cs=(2.0,), ns=(128,), replicates=3, master_seed=9)
        result = run_sweep(spec, workers=1)
        out = tmp_path / "sweep.csv"
        write_sweep_csv(out, result)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert float(row["mean_fraction"]) == result[0].mean_fraction
        assert row["kernel"] == "power:alpha=1.0"
        assert row["predicted_rho"] == format_float(rho_limit(2.0))

    def test_format_float_roundtrip(self):
        for x in (1 / 3, 0.7968121300200200, 1e-17, 123456.789):
            assert float(format_float(x)) == x
