import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphagraph.model import (
    ModelParams,
    PowerLawKernel,
    TabulatedKernel,
    class_edge_probs,
    distance_classes,
    edge_prob,
    marginal_degree_sum,
)
from alphagraph import model, sampler
from alphagraph.branching import finite_degree_pgf
from alphagraph.sampler import (
    Filtration,
    Graph,
    read_edge_list,
    read_filtration,
    sample_fast,
    sample_filtration,
    sample_naive,
    subgraph_at,
    write_edge_list,
    write_filtration,
)
from alphagraph.experiments import sprinkling_experiment
from alphagraph.streams import keyed_stream


BAD_VERTEX_COUNTS = [
    (0, "need n >= 1, got 0"),
    (-5, "need n >= 1, got -5"),
    (sampler.MAX_PAIR_KEY_N + 1, "int64 pair keys would overflow"),
]


def pair_distances(graph: Graph) -> np.ndarray:
    a = graph.edges[:, 1] - graph.edges[:, 0]
    return np.minimum(a, graph.n - a)


def assert_canonical_on_support(graph: Graph, params: ModelParams) -> None:
    """Rows u < v with strictly increasing keys u*n + v, endpoints in [0, n),
    and no pair from a distance class of edge probability 0."""
    n, u, v = graph.n, graph.edges[:, 0], graph.edges[:, 1]
    assert graph.edges.shape[1] == 2
    assert np.all((0 <= u) & (u < v) & (v < n))
    assert np.all(np.diff(u * n + v) > 0)
    assert np.all(class_edge_probs(params)[pair_distances(graph) - 1] > 0)


class TestGraphType:
    def test_validation(self):
        Graph(4, np.array([[0, 1], [1, 2]]))
        # reversed endpoints are canonicalized, not rejected
        g = Graph(4, np.array([[2, 1]]))
        assert g.edges.tolist() == [[1, 2]]
        with pytest.raises(ValueError):
            Graph(4, np.array([[1, 1]]))  # self loop
        with pytest.raises(ValueError):
            Graph(4, np.array([[0, 1], [0, 1]]))  # duplicate
        with pytest.raises(ValueError, match="out of range"):
            Graph(4, np.array([[0, 4]]))

    @pytest.mark.parametrize("row", [[0, 6], [6, 0], [-1, 2], [2, -3], [0, 15]])
    def test_out_of_range_endpoint_is_not_remapped(self, row):
        # Rows are rebuilt from pair keys lo*n + hi; an unchecked endpoint
        # outside [0, n) would decode to a different, valid pair.
        with pytest.raises(ValueError, match="out of range"):
            Graph(4, np.array([row]))

    @pytest.mark.parametrize("n", [2, 5, 64, 1000])
    def test_canonical_input_and_its_permutations_are_equal(self, n):
        canonical = sample_fast(ModelParams.make(n, 1.0, 3.0, seed=n)).edges.copy()
        rng = np.random.default_rng(n)
        for edges in (
            canonical,
            canonical[rng.permutation(len(canonical))],  # shuffled rows
            canonical[::-1],  # reversed rows
            canonical[:, ::-1],  # reversed pairs
            canonical[rng.permutation(len(canonical))][:, ::-1],
        ):
            g = Graph(n, edges)
            assert g == Graph(n, canonical, _validated=True)
            assert g.edges.flags.c_contiguous and not g.edges.flags.writeable

    def test_canonical_input_is_not_sorted_again(self, monkeypatch):
        edges = sample_fast(ModelParams.make(500, 1.0, 2.0, seed=1)).edges.copy()

        def no_sort(*args):
            raise AssertionError("canonical rows were sorted again")

        monkeypatch.setattr(sampler, "canonical_edges", no_sort)
        g = Graph(500, edges)
        assert np.array_equal(g.edges, edges)
        # the graph does not alias the caller's array, which stays writable
        assert not np.shares_memory(g.edges, edges) and edges.flags.writeable
        with pytest.raises(AssertionError, match="sorted again"):
            Graph(500, edges[::-1])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, 1], [0, 1]], "duplicate-free"),  # keys not strictly increasing
            ([[0, 2], [0, 1], [0, 1]], "duplicate-free"),
            ([[1, 1]], "self-loops"),
            ([[0, 1], [2, 2]], "self-loops"),
            ([[0, 1], [1, 4]], "out of range"),
            ([[-1, 1]], "out of range"),
        ],
    )
    def test_rejects_as_before(self, rows, message):
        with pytest.raises(ValueError, match=message):
            Graph(4, np.array(rows))

    @pytest.mark.parametrize("n, message", BAD_VERTEX_COUNTS)
    @pytest.mark.parametrize("rows", [[], [[2, 3], [0, 1]], [[2, 3], [0, 1], [2, 3]]])
    def test_rejects_vertex_count(self, n, message, rows):
        # checked with or without edges, before keys lo*n + hi could overflow
        with pytest.raises(ValueError, match=message):
            Graph(n, np.array(rows).reshape(-1, 2))

    @pytest.mark.parametrize("rows", [[[0.5, 1.7]], [[0, 1], [2, 3.5]], [[math.nan, 1]],
                                      [[0, math.inf]], [[0, 2.0**63]]])
    def test_rejects_non_integral_endpoints(self, rows):
        # int64 would truncate 0.5-1.7 into the edge 0-1, and NaN into any id
        with pytest.raises(ValueError, match="could not convert a vertex id"):
            Graph(5, np.array(rows))
        with pytest.raises(ValueError, match="could not convert a vertex id"):
            Graph(5, rows)

    def test_accepts_integral_floats(self):
        assert Graph(5, np.array([[3.0, 2.0], [0.0, 1.0]])).edges.tolist() == [[0, 1], [2, 3]]
        assert Graph(5, np.empty((0, 2))).num_edges == 0

    def test_adjacency_sorted_and_consistent(self):
        g = Graph(5, np.array([[0, 3], [1, 3], [2, 4], [0, 1]]))
        indptr, nbrs = g.adjacency()
        assert nbrs[indptr[3] : indptr[4]].tolist() == [0, 1]
        assert nbrs[indptr[0] : indptr[1]].tolist() == [1, 3]
        assert nbrs[indptr[4] : indptr[5]].tolist() == [2]
        assert nbrs.shape[0] == 2 * g.num_edges


class TestSampleNaive:
    def test_clamped_single_pair(self):
        params = ModelParams.make(2, 1.0, 5.0, seed=1)
        g = sample_naive(params)
        assert g.edges.tolist() == [[0, 1]]

    def test_zero_c_empty(self):
        g = sample_naive(ModelParams.make(100, 0.0, 0.0, seed=1))
        assert g.num_edges == 0

    def test_guard(self):
        with pytest.raises(ValueError):
            sample_naive(ModelParams.make(20_000, 1.0, 1.0))

    def test_many_blocks_edge_count_matches_expectation(self):
        # n=3000 spans dozens of row blocks; the edge count of one draw
        # must match its exact expectation n * (sum of p from a vertex) / 2
        params = ModelParams.make(3000, 1.0, 2.0, seed=9)
        g = sample_naive(params)
        mds = marginal_degree_sum(params)
        expected = params.n * mds / 2
        sd = math.sqrt(expected)
        assert abs(g.num_edges - expected) < 6 * sd

    @pytest.mark.parametrize("block_pairs", [1, 5, 64, 1000])
    def test_bits_independent_of_block_size(self, monkeypatch, block_pairs):
        # blocks only partition the canonical pair order, so the per-pair
        # uniforms and hence the graph must not depend on the block size
        def draw():
            return [
                sample_naive(ModelParams.make(n, 1.0, 2.0, seed=4), replicate=rep)
                for n in (2, 3, 17, 64, 130)
                for rep in (0, 5)
            ]

        expected = draw()
        sampler._naive_block.cache_clear()
        monkeypatch.setattr(sampler, "_NAIVE_BLOCK_PAIRS", block_pairs)
        try:
            got = draw()
        finally:
            sampler._naive_block.cache_clear()
        assert got == expected

    def test_per_pair_frequency_matches_edge_prob(self):
        # 1e5 replicates at n=64: every pair within 4 binomial sd of its p
        n, reps = 64, 100_000
        params = ModelParams.make(n, 1.0, 2.0, seed=11)
        counts = np.zeros((n, n), dtype=np.int64)
        for rep in range(reps):
            g = sample_naive(params, replicate=rep)
            counts[g.edges[:, 0], g.edges[:, 1]] += 1
        p_class = class_edge_probs(params)
        bad = 0
        total = 0
        for u in range(n):
            for v in range(u + 1, n):
                p = p_class[min(v - u, n - (v - u)) - 1]
                sd = math.sqrt(p * (1 - p) / reps)
                total += 1
                if abs(counts[u, v] / reps - p) > 4 * sd:
                    bad += 1
        # 4 sd two-sided: expect ~6e-5 * 2016 = 0.13 outliers
        assert bad <= 0.01 * total


class TestSampleFast:
    def test_zero_c_empty(self):
        g = sample_fast(ModelParams.make(5000, 1.0, 0.0, seed=3))
        assert g.num_edges == 0

    def test_determinism_and_replicates(self):
        params = ModelParams.make(500, 1.0, 2.0, seed=21)
        g1 = sample_fast(params, replicate=4)
        g2 = sample_fast(params, replicate=4)
        g3 = sample_fast(params, replicate=5)
        assert g1 == g2
        assert g1 != g3

    def test_edge_count_expectation_large_n(self):
        params = ModelParams.make(10**6, 1.0, 2.0, seed=2)
        g = sample_fast(params)
        expected = params.n * marginal_degree_sum(params) / 2
        sd = math.sqrt(expected)  # binomial variance sum, p small
        assert abs(g.num_edges - expected) < 5 * sd

    def test_nearest_neighbor_distance_one_only(self):
        hits = []
        for rep in range(200):
            g = sample_fast(ModelParams.make(100, math.inf, 1.0, seed=5), replicate=rep)
            assert np.all(pair_distances(g) == 1)
            hits.append(g.num_edges)
        mean = np.mean(hits)
        sd = math.sqrt(100 * 0.25 / 200)
        assert abs(mean - 50.0) < 5 * sd

    def test_clamped_classes_emitted_fully(self):
        # c large enough that several inner classes clamp to p=1
        params = ModelParams.make(50, 2.0, 60.0, seed=8)
        p = class_edge_probs(params)
        clamped = np.nonzero(p == 1.0)[0]
        assert clamped.size > 0
        g = sample_fast(params)
        d = pair_distances(g)
        _, _, m_pairs = distance_classes(params.n)
        for j in clamped:
            assert np.sum(d == j + 1) == m_pairs[j]

    def test_mean_edge_count_over_replicates(self):
        params = ModelParams.make(1000, 1.5, 3.0, seed=13)
        counts = [sample_fast(params, replicate=r).num_edges for r in range(200)]
        _, _, m_pairs = distance_classes(params.n)
        p = class_edge_probs(params)
        expected = float((m_pairs * p).sum())
        sd = math.sqrt(float((m_pairs * p * (1 - p)).sum()) / 200)
        assert abs(np.mean(counts) - expected) < 5 * sd

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_fast_matches_exact_probabilities(self, alpha):
        # moderate-size version of the distributional equivalence check;
        # the full 1e5-replicate version runs in the acceptance suite
        n, reps = 32, 30_000
        params = ModelParams.make(n, alpha, 2.0, seed=17)
        counts = np.zeros((n, n), dtype=np.int64)
        for rep in range(reps):
            g = sample_fast(params, replicate=rep)
            counts[g.edges[:, 0], g.edges[:, 1]] += 1
        p_class = class_edge_probs(params)
        bad = 0
        total = 0
        for u in range(n):
            for v in range(u + 1, n):
                p = p_class[min(v - u, n - (v - u)) - 1]
                sd = math.sqrt(p * (1 - p) / reps)
                total += 1
                if abs(counts[u, v] / reps - p) > 4.5 * sd:
                    bad += 1
        assert bad <= 0.01 * total


class TestPairKeyRange:
    def test_limit_is_largest_n_with_int64_keys(self):
        limit = sampler.MAX_PAIR_KEY_N
        assert limit**2 <= np.iinfo(np.int64).max < (limit + 1) ** 2

    @pytest.mark.parametrize("draw", ["fast", "filtration"])
    def test_overflowing_n_raises_before_allocating(self, monkeypatch, draw):
        def must_not_run(*args, **kwargs):
            raise AssertionError("allocated per-class arrays for an overflowing n")

        monkeypatch.setattr(sampler, "distance_classes", must_not_run)
        monkeypatch.setattr(sampler, "class_edge_probs", must_not_run)
        n = sampler.MAX_PAIR_KEY_N + 1
        params = ModelParams.make(n, 1.0, 2.0, seed=1)
        with pytest.raises(ValueError, match="int64 pair keys would overflow"):
            if draw == "fast":
                sample_fast(params)
            else:
                sample_filtration(n, params.kernel, 2.0, seed=1)


class TestMemoryRefusal:
    # One n=1000, alpha=1, c=2 ring expects 1000 edges: ~240 kB at 120 bytes
    # per vertex and edge.  No test here allocates that much for real.
    @pytest.mark.parametrize(
        "draw, error",
        [
            (lambda: sample_fast(ModelParams.make(1000, 1.0, 2.0)), ValueError),
            (lambda: sample_filtration(1000, PowerLawKernel(1.0), 2.0, seed=3), ValueError),
            (lambda: list(sampler._fast_batches(ModelParams.make(1000, 1.0, 2.0), 0, 5, 4)),
             ValueError),
            # the driver raises the refusal, named by its replicates, as a RuntimeError
            (lambda: sprinkling_experiment(1000, PowerLawKernel(1.0), 1.5, 0.5, 50, 2, workers=1),
             RuntimeError),
        ],
        ids=["sample_fast", "sample_filtration", "fast_batches", "sprinkling_experiment"],
    )
    def test_refused_before_any_draw(self, monkeypatch, draw, error):
        made = []

        def recording_stream(key):
            rng = keyed_stream(key)
            made.append((key, rng))
            return rng

        monkeypatch.setattr(model, "_PHYSICAL_MEMORY", 200_000)
        monkeypatch.setattr(sampler, "keyed_stream", recording_stream)
        with pytest.raises(error, match=r"expect \d+ edges and need ~\S+ bytes, more than the "
                                        r"200000 bytes of physical memory"):
            draw()
        # the draw's generators were made, and each still sits at its first draw
        assert made
        for key, rng in made:
            np.testing.assert_array_equal(rng.integers(0, 2**62, 4), keyed_stream(key).integers(0, 2**62, 4))

    @pytest.mark.parametrize(
        "build",
        [
            sample_fast,
            lambda params: sample_filtration(params.n, params.kernel, params.c, seed=3),
            lambda params: list(sampler._fast_batches(params, 0, 5, 4)),
            finite_degree_pgf,
        ],
        ids=["sample_fast", "sample_filtration", "fast_batches", "finite_degree_pgf"],
    )
    def test_law_refused_before_it_is_built(self, monkeypatch, build):
        # The n=1e6 law needs ~28 MB at 56 bytes per class: refused with a
        # peak far below that.  A cached law would skip the refusal.
        sampler._class_tables.cache_clear()
        monkeypatch.setattr(model, "_PHYSICAL_MEMORY", 1_000_000)
        params = ModelParams.make(10**6, 1.0, 2.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^the degree law of n=1000000 needs ~2\.8e\+07 "
                                                 r"bytes, more than the 1000000 bytes of physical memory$"):
                build(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_batch_counts_every_ring(self, monkeypatch):
        # one n=500 ring needs ~120 kB; a batch of two, twice that
        monkeypatch.setattr(model, "_PHYSICAL_MEMORY", 200_000)
        params = ModelParams.make(500, 1.0, 2.0)
        assert len(list(sampler._fast_batches(params, 0, 3, 1))) == 3
        with pytest.raises(ValueError, match="2 ring"):
            list(sampler._fast_batches(params, 0, 3, 2))

    def test_a_run_that_fits_keeps_its_bits(self, monkeypatch):
        params = ModelParams.make(1000, 1.0, 2.0, seed=4)
        graph = sample_fast(params)
        monkeypatch.setattr(model, "_PHYSICAL_MEMORY", 240_001)
        assert sample_fast(params) == graph


class TestFiltration:
    def test_type_validation(self):
        with pytest.raises(ValueError):
            Filtration(4, 1.0, PowerLawKernel(1.0), np.array([[0, 1]]), np.array([1.5]))
        with pytest.raises(ValueError):
            Filtration(4, 1.0, PowerLawKernel(1.0), np.array([[0, 1]]), np.array([0.5, 0.6]))

    @pytest.mark.parametrize("rows", [[[0.5, 1.0]], [[0, 1.7]], [[0, math.nan]]])
    def test_rejects_non_integral_endpoints(self, rows):
        with pytest.raises(ValueError, match="could not convert a vertex id"):
            Filtration(4, 1.0, PowerLawKernel(1.0), np.array(rows), np.array([0.5]))
        f = Filtration(4, 1.0, PowerLawKernel(1.0), np.array([[0.0, 1.0]]), np.array([0.5]))
        assert f.edges.tolist() == [[0, 1]] and f.edges.dtype == np.int64

    def test_does_not_alias_the_callers_arrays(self):
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        act = np.array([0.5, 0.75])
        f = Filtration(4, 1.0, PowerLawKernel(1.0), edges, act)
        # the caller's arrays stay writable, and writing them leaves f as it was
        edges[0, 1] = 3
        act[0] = 0.25
        assert f.edges.tolist() == [[0, 1], [1, 2]] and f.activation.tolist() == [0.5, 0.75]
        assert not (f.edges.flags.writeable or f.activation.flags.writeable)

    @pytest.mark.parametrize("c_max", [0.0, -3.0, math.nan, math.inf])
    def test_rejects_c_max_without_rows(self, c_max):
        with pytest.raises(ValueError, match="c_max > 0"):
            Filtration(4, c_max, PowerLawKernel(1.0), np.empty((0, 2)), np.empty(0))

    def test_boundaries(self):
        f = sample_filtration(64, PowerLawKernel(1.0), 2.0, seed=5)
        full = subgraph_at(f, 2.0)
        assert full.num_edges == f.num_edges
        tiny = subgraph_at(f, 1e-12)
        assert tiny.num_edges == 0
        with pytest.raises(ValueError):
            subgraph_at(f, 2.5)
        with pytest.raises(ValueError):
            subgraph_at(f, 0.0)

    def test_nesting_ten_levels(self):
        f = sample_filtration(256, PowerLawKernel(1.0), 3.0, seed=6)
        prev = set()
        for c in np.linspace(0.3, 3.0, 10):
            cur = {tuple(e) for e in subgraph_at(f, float(c)).edges.tolist()}
            assert prev <= cur
            prev = cur

    def test_full_level_distribution_matches_sampler(self):
        # edge marginal at c_max agrees with the direct sampler's law
        n, reps = 48, 20_000
        kernel = PowerLawKernel(1.0)
        params = ModelParams(n=n, c=2.0, kernel=kernel)
        counts = np.zeros((n, n), dtype=np.int64)
        for rep in range(reps):
            f = sample_filtration(n, kernel, 2.0, seed=31, replicate=rep)
            counts[f.edges[:, 0], f.edges[:, 1]] += 1
        p_class = class_edge_probs(params)
        for u in range(n):
            for v in range(u + 1, n):
                p = p_class[min(v - u, n - (v - u)) - 1]
                sd = math.sqrt(p * (1 - p) / reps)
                assert abs(counts[u, v] / reps - p) <= 5 * sd

    def test_intermediate_marginal_matches_smaller_c(self):
        # subgraph_at(1) of a c_max=2 filtration is distributed as the c=1 law
        n, reps = 64, 100_000
        kernel = PowerLawKernel(1.0)
        at_c1 = ModelParams(n=n, c=1.0, kernel=kernel)
        counts = np.zeros((n, n), dtype=np.int64)
        for rep in range(reps):
            f = sample_filtration(n, kernel, 2.0, seed=37, replicate=rep)
            g = subgraph_at(f, 1.0)
            counts[g.edges[:, 0], g.edges[:, 1]] += 1
        p_class = class_edge_probs(at_c1)
        bad = 0
        total = 0
        for u in range(n):
            for v in range(u + 1, n):
                p = p_class[min(v - u, n - (v - u)) - 1]
                sd = math.sqrt(p * (1 - p) / reps)
                total += 1
                if abs(counts[u, v] / reps - p) > 4 * sd:
                    bad += 1
        assert bad <= 0.01 * total

    def test_activation_positive_and_bounded(self):
        f = sample_filtration(512, PowerLawKernel(0.5), 2.5, seed=8)
        assert f.activation.min() > 0
        assert f.activation.max() <= 2.5


class TestFiltrationDraw:
    """The draw behind sample_filtration, and the checks it makes itself."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 64),
        alpha=st.sampled_from([0.0, 1.0, 3.0, math.inf]),
        c_max=st.floats(0.0, 4.0, exclude_min=True),
        seed=st.integers(0, 2**64 - 1),
        replicate=st.integers(0, 5),
    )
    def test_sorted_draw_is_the_filtration(self, n, alpha, c_max, seed, replicate):
        params = ModelParams.make(n, alpha, c_max, seed)
        u, v, activation = sampler._draw_filtration(params, replicate)
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        order = np.argsort(keys)
        filt = sample_filtration(n, params.kernel, c_max, seed, replicate)
        rows = np.column_stack([keys[order] // n, keys[order] % n])
        assert np.array_equal(rows, filt.edges)
        assert np.array_equal(activation[order], filt.activation)

    @pytest.mark.parametrize(
        "idx, activation, message",
        [
            ([1, 3, 3], [0.5, 0.5, 0.5], "duplicate-free"),
            ([3, 1], [0.5, 0.5], "duplicate-free"),
            ([1, 3, 5], [0.5, 0.0, 0.5], r"\(0, c_max\]"),
            ([1, 3], [0.5, 2.5], r"\(0, c_max\]"),
            ([-1, 3], [0.5, 0.5], "out of range"),
            ([3, 32], [0.5, 0.5], "out of range"),  # n * (n // 2) = 32 at n = 8
        ],
    )
    def test_check_rejects(self, idx, activation, message):
        with pytest.raises(ValueError, match=message):
            sampler._check_draw(8, 2.0, np.array(idx), np.array(activation))
        sampler._check_draw(8, 2.0, np.array([0, 1, 31]), np.array([1e-300, 1.0, 2.0]))

    def test_draw_runs_its_check(self, monkeypatch):
        sample_indices = sampler._sample_indices

        def repeat_first(rngs, tables):
            idx = sample_indices(rngs, tables)
            return np.concatenate([idx, idx[:1]])

        monkeypatch.setattr(sampler, "_sample_indices", repeat_first)
        with pytest.raises(ValueError, match="duplicate-free"):
            sampler._draw_filtration(ModelParams.make(64, 1.0, 2.0, seed=5), 0)


class TestEdgeListFiles:
    def test_roundtrip(self, tmp_path):
        params = ModelParams.make(200, 1.0, 2.0, seed=77)
        g = sample_fast(params)
        path = tmp_path / "g.edges"
        write_edge_list(path, g, params)
        g2, header = read_edge_list(path)
        assert g2 == g
        assert header == {"n": 200, "alpha": "1.0", "c": 2.0, "seed": 77}
        first = path.read_text().splitlines()[0]
        assert first == "# alphagraph v1 n=200 alpha=1.0 c=2.0 seed=77"

    def test_rows_sorted(self, tmp_path):
        params = ModelParams.make(100, 1.0, 2.0, seed=3)
        g = sample_fast(params)
        path = tmp_path / "g.edges"
        write_edge_list(path, g, params)
        rows = [tuple(map(int, line.split())) for line in path.read_text().splitlines()[1:]]
        assert rows == sorted(rows)
        assert all(u < v for u, v in rows)

    def test_empty_graph_roundtrip(self, tmp_path):
        params = ModelParams.make(10, 1.0, 0.0, seed=1)
        g = sample_fast(params)
        path = tmp_path / "empty.edges"
        write_edge_list(path, g, params)
        g2, header = read_edge_list(path)
        assert g2.num_edges == 0 and g2.n == 10

    def test_filtration_roundtrip_exact(self, tmp_path):
        f = sample_filtration(100, PowerLawKernel(1.0), 2.0, seed=5)
        path = tmp_path / "f.filt"
        write_filtration(path, f, seed=5)
        f2, header = read_filtration(path)
        assert np.array_equal(f.edges, f2.edges)
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(f.activation, f2.activation)
        assert header["c"] == 2.0

    @pytest.mark.parametrize(
        "kernel",
        [PowerLawKernel(0.0), PowerLawKernel(1.0), PowerLawKernel(math.inf), PowerLawKernel(1.0, 2.0)],
    )
    def test_filtration_roundtrip_kernel(self, tmp_path, kernel):
        f = sample_filtration(100, kernel, 2.0, seed=5)
        path = tmp_path / "f.filt"
        write_filtration(path, f, seed=5)
        assert read_filtration(path)[0].kernel == kernel

    def test_tabulated_filtration_not_read_back(self, tmp_path, monkeypatch):
        kernel = TabulatedKernel(tuple(1.0 / d for d in range(1, 51)))
        f = sample_filtration(100, kernel, 2.0, seed=5)
        path = tmp_path / "f.filt"
        write_filtration(path, f, seed=5)
        # a file named like the table's hash must not be loaded as the kernel
        monkeypatch.chdir(tmp_path)
        (tmp_path / kernel.spec_string().partition(":")[2]).write_text("1 1.0\n")
        with pytest.raises(ValueError, match="table is not stored in the file"):
            read_filtration(path)

    def test_out_of_range_endpoint_rejected(self, tmp_path):
        path = tmp_path / "big.edges"
        path.write_text("# alphagraph v1 n=5 alpha=1.0 c=2.0 seed=1\n0 1\n0 7\n")
        with pytest.raises(ValueError, match="out of range"):
            read_edge_list(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n")
        with pytest.raises(ValueError):
            read_edge_list(path)


HEADER = "# alphagraph v1 n=5 alpha=1.0 c=2.0 seed=1\n"


class TestFileBodies:
    """What the readers accept and reject, row by row."""

    @pytest.mark.parametrize("body", ["", "\n", "\n\n  \n"])
    @pytest.mark.parametrize("reader", [read_edge_list, read_filtration])
    def test_no_rows_is_an_empty_graph_without_warning(self, tmp_path, reader, body):
        path = tmp_path / "f"
        path.write_text(HEADER + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obj, header = reader(path)
        assert obj.n == 5 and obj.num_edges == 0 and obj.edges.shape == (0, 2)
        assert header["seed"] == 1

    def test_header_without_newline(self, tmp_path):
        path = tmp_path / "f"
        path.write_text(HEADER.rstrip("\n"))
        assert read_edge_list(path)[0] == Graph(5, np.empty((0, 2)))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0 1\n2\n", "number of columns"),  # ragged
            ("0 1\n1 2 3\n", "number of columns"),
            ("0 x\n", "could not convert"),  # non-integer token
            ("0 1.5\n", "could not convert"),
            ("0 1.0\n", "could not convert"),
            ("-1 2\n", "out of range"),  # negative id
            ("0 5\n", "out of range"),
            ("0 1\n0 1\n", "duplicate-free"),  # duplicate row
            ("0 1\n1 0\n", "duplicate-free"),  # duplicate pair, once reversed
            ("1 1\n", "self-loops"),
        ],
    )
    def test_edge_list_rejects(self, tmp_path, body, message):
        path = tmp_path / "f"
        path.write_text(HEADER + body)
        with pytest.raises(ValueError, match=message):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "body",
        [
            "2 3\n0 1\n",  # unsorted rows
            "1 0\n3 2\n",  # reversed pairs
            "3 2\n1 0\n",
            "0 1\n\n2 3\n\n",  # blank lines
            "0 1\n# comment\n2 3\n",
            "0\t1\n2  3",  # tabs, runs of blanks, no final newline
        ],
    )
    def test_edge_list_accepts_and_canonicalizes(self, tmp_path, body):
        path = tmp_path / "f"
        path.write_text(HEADER + body)
        graph, _ = read_edge_list(path)
        assert graph.edges.tolist() == [[0, 1], [2, 3]]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0 1 0.5\n1 2\n", "number of columns"),
            ("0 1 x\n", "could not convert"),
            ("0.5 1 0.3\n", "could not convert"),
            ("1 2 0.5\n0 1 0.5\n", "sorted"),  # filtrations are not re-sorted
            ("0 4 2.5\n", "c_max"),
        ],
    )
    def test_filtration_rejects(self, tmp_path, body, message):
        path = tmp_path / "f"
        path.write_text(HEADER + body)
        with pytest.raises(ValueError, match=message):
            read_filtration(path)

    @pytest.mark.parametrize("n, message", BAD_VERTEX_COUNTS)
    @pytest.mark.parametrize("reader", [read_edge_list, read_filtration])
    def test_rejects_vertex_count(self, tmp_path, reader, n, message):
        path = tmp_path / "f"
        path.write_text(HEADER.replace("n=5", f"n={n}"))
        with pytest.raises(ValueError, match=message):
            reader(path)

    @pytest.mark.parametrize("field", ["n", "alpha", "c", "seed"])
    @pytest.mark.parametrize("reader", [read_edge_list, read_filtration])
    def test_rejects_header_without_field(self, tmp_path, reader, field):
        path = tmp_path / "f"
        path.write_text(" ".join(t for t in HEADER.split() if not t.startswith(f"{field}=")))
        with pytest.raises(ValueError, match=f"header lacks {field} "):
            reader(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("n=5 n=7 alpha=1.0 c=nan seed=1", "header repeats n "),  # once read as n=7
            ("n=5 alpha=1.0 c=2.0 c=3.0 seed=1", "header repeats c "),
            ("n=5 alpha=1.0 c=nan seed=1", "finite c >= 0, got c=nan"),
            ("n=5 alpha=1.0 c=inf seed=1", "finite c >= 0, got c=inf"),
            ("n=5 alpha=1.0 c=-3 seed=1", "finite c >= 0, got c=-3"),
            ("n=5 alpha=1.0 c=2.0 seed=-1", r"seed=-1 lies outside \[0, 2\^64\)"),
            ("n=5 alpha=1.0 c=2.0 seed=18446744073709551616", "seed=18446744073709551616 lies"),
        ],
    )
    @pytest.mark.parametrize("reader", [read_edge_list, read_filtration])
    def test_rejects_header_fields(self, tmp_path, reader, header, message):
        path = tmp_path / "f"
        path.write_text(f"# alphagraph v1 {header}\n")
        with pytest.raises(ValueError, match=message):
            reader(path)

    def test_filtration_at_c_0_without_rows_rejected(self, tmp_path):
        path = tmp_path / "f"
        path.write_text(HEADER.replace("c=2.0", "c=0.0"))
        assert read_edge_list(path)[0] == Graph(5, np.empty((0, 2)))  # a graph at c=0 is empty
        with pytest.raises(ValueError, match="c_max > 0"):
            read_filtration(path)

    @pytest.mark.parametrize(
        "reader, body",
        [
            (read_edge_list, "0 1 2\n3 4 1\n"),  # once reshaped into the pairs 0-1, 2-3, 4-1
            (read_edge_list, "0\n1\n"),
            (read_filtration, "0 1\n1 2\n"),
        ],
    )
    def test_wrong_column_count_rejected(self, tmp_path, reader, body):
        path = tmp_path / "f"
        path.write_text(HEADER + body)
        with pytest.raises(ValueError, match="columns per row"):
            reader(path)

    def test_filtration_rows(self, tmp_path):
        path = tmp_path / "f"
        path.write_text(HEADER + "0 1 0.5\n1 2 1.25\n")
        filt, _ = read_filtration(path)
        assert filt.edges.tolist() == [[0, 1], [1, 2]]
        assert filt.activation.tolist() == [0.5, 1.25]


class TestCanonicalSupportProperty:
    """Every sampler yields canonical rows on the law's support, at small n."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 64),
        alpha=st.sampled_from([0.0, 1.0, 3.0, math.inf]),
        c=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_all_three_samplers(self, n, alpha, c, seed):
        params = ModelParams.make(n, alpha, c, seed=seed)
        graphs = [sample_fast(params), sample_naive(params)]
        if c > 0:
            filt = sample_filtration(n, params.kernel, 4.0, seed)
            graphs.append(subgraph_at(filt, c))
        for graph in graphs:
            assert graph.n == n
            assert_canonical_on_support(graph, params)
            if alpha == math.inf:
                assert np.all(pair_distances(graph) == 1)
