import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphagraph.branching import rho_limit
from alphagraph.components import (
    ComponentSummary,
    _label_edges,
    component_labels,
    components,
    omega_for,
)
from alphagraph.model import ModelParams, kernel_for_alpha
from alphagraph.sampler import Graph, sample_fast, sample_filtration, sample_naive, subgraph_at


def ring_graph(n: int) -> Graph:
    edges = [[i, i + 1] for i in range(n - 1)] + [[0, n - 1]]
    return Graph(n, np.array(edges))


def empty_graph(n: int) -> Graph:
    return Graph(n, np.empty((0, 2), dtype=np.int64))


def oracle_graphs():
    """Oracle inputs: tiny naive graphs (at most 3 hooking rounds), sampled
    graphs at n=1024 and 4099 (up to 4) and a permuted path (7)."""
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(2, 64))
        c = float(rng.uniform(0, 3))
        yield sample_naive(ModelParams.make(n, 0.0, c, seed=trial), replicate=trial)
    for n in (1024, 4099):
        for alpha in (0.0, 1.0, 3.0, math.inf):
            for c in (0.5, 2.0):
                yield sample_fast(ModelParams.make(n, alpha, c, seed=7))
    perm = np.random.default_rng(0).permutation(4099)
    yield Graph(4099, np.stack([perm[:-1], perm[1:]], axis=1))


def bfs_min_and_size(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex smallest vertex and size of its component, by BFS."""
    indptr, nbrs = graph.adjacency()
    comp_min = np.full(graph.n, -1, dtype=np.int64)
    comp_size = np.zeros(graph.n, dtype=np.int64)
    for start in range(graph.n):
        if comp_min[start] >= 0:
            continue
        comp_min[start] = start  # ascending scan: first unseen is the minimum
        members = [start]
        for x in members:
            for y in nbrs[indptr[x] : indptr[x + 1]].tolist():
                if comp_min[y] < 0:
                    comp_min[y] = start
                    members.append(y)
        comp_size[members] = len(members)
    return comp_min, comp_size


def components_bfs(graph: Graph) -> ComponentSummary:
    """Independent BFS partition, largest first: the component engine's oracle."""
    comp_min, comp_size = bfs_min_and_size(graph)
    sizes = np.sort(comp_size[comp_min == np.arange(graph.n)])[::-1]
    return ComponentSummary(n=graph.n, sizes=sizes)


class TestComponents:
    def test_empty(self):
        s = components(empty_graph(10))
        assert s.largest == 1
        assert s.n_components == 10
        assert s.sizes.sum() == 10

    def test_cycle_single_component(self):
        s = components(ring_graph(17))
        assert s.n_components == 1
        assert s.largest == 17
        assert s.second_largest == 0

    def test_path_plus_isolated(self):
        g = Graph(4, np.array([[0, 1]]))
        s = components(g)
        assert sorted(s.sizes.tolist(), reverse=True) == [2, 1, 1]
        assert s.largest == 2
        assert s.fraction == 0.5

    def test_sizes_sorted_and_sum(self):
        g = sample_fast(ModelParams.make(2000, 1.0, 1.5, seed=3))
        s = components(g)
        assert np.all(np.diff(s.sizes) <= 0)
        assert s.sizes.sum() == 2000
        assert s.largest >= s.second_largest >= 0

    def test_summaries_compare_like_graphs(self):
        g = sample_fast(ModelParams.make(500, 1.0, 1.5, seed=3))
        assert components(g) == components(g) == components_bfs(g)
        assert not components(g) != components(g)
        assert components(g) != components(ring_graph(500))
        assert components(empty_graph(3)) != components(empty_graph(4))
        assert components(g) != components(g).sizes.tolist()
        with pytest.raises(TypeError):
            hash(components(g))

    def test_engine_equals_bfs_on_random_graphs(self):
        for g in oracle_graphs():
            assert components(g).sizes.tolist() == components_bfs(g).sizes.tolist()

    def test_labels_consistent_with_sizes(self):
        graphs = [sample_fast(ModelParams.make(500, 1.0, 2.0, seed=9)), *oracle_graphs()]
        for g in graphs:
            labels, sizes = component_labels(g)
            comp_min, comp_size = bfs_min_and_size(g)
            bfs_sizes = components_bfs(g).sizes.tolist()
            assert sorted(sizes[sizes > 0].tolist(), reverse=True) == bfs_sizes
            assert np.array_equal(labels[g.edges[:, 0]], labels[g.edges[:, 1]])
            assert np.array_equal(labels, comp_min)
            assert np.array_equal(sizes[labels], comp_size)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
    def test_engine_takes_loops_duplicates_and_reversed_rows(self, n):
        # The first hooking round runs on the raw endpoints, so it must
        # tolerate every row the canonical form would have removed.
        rng = np.random.default_rng(n)
        for m in (0, 1, 3, n // 2, 2 * n):
            u, v = rng.integers(0, n, m), rng.integers(0, n, m)
            k = m // 3
            loops = rng.integers(0, n, k)
            uu = np.concatenate([u, v[:k], u[:k], loops])  # reversed rows, duplicates,
            vv = np.concatenate([v, u[:k], v[:k], loops])  # self-loops
            pairs = np.unique(np.sort(np.stack([u, v], axis=1), axis=1), axis=0)
            graph = Graph(n, pairs[pairs[:, 0] < pairs[:, 1]])
            strided = np.stack([uu, vv], axis=1)
            labels = _label_edges(n, strided[:, 0], strided[:, 1])
            np.testing.assert_array_equal(labels, bfs_min_and_size(graph)[0])


def composed_labels(n: int, labels: np.ndarray, later: np.ndarray) -> np.ndarray:
    """Labels after adding the edges `later` to a graph labelled `labels`:
    the later edges join the labels of their endpoints."""
    return _label_edges(n, labels[later[:, 0]], labels[later[:, 1]])[labels]


class TestComposedLabels:
    def test_prefix_then_remainder_equals_fresh_labelling(self):
        # on the permuted path both passes take up to 7 hooking rounds
        rng = np.random.default_rng(12)
        for g in oracle_graphs():
            n, m = g.n, g.num_edges
            edges = g.edges[rng.permutation(m)]
            fresh = _label_edges(n, *edges.T)
            comp_min, _ = bfs_min_and_size(g)
            np.testing.assert_array_equal(fresh, comp_min)
            for k in (0, int(rng.integers(0, m + 1)), m):  # empty prefix, random, empty rest
                labels = composed_labels(n, _label_edges(n, *edges[:k].T), edges[k:])
                np.testing.assert_array_equal(labels, comp_min)

    @given(
        n=st.integers(2, 40),
        alpha=st.sampled_from([0.0, 1.0, 3.0, math.inf]),
        c_max=st.floats(0.05, 6.0),
        levels=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_filtration_levels_nest_and_compose(self, n, alpha, c_max, levels, seed):
        filt = sample_filtration(n, kernel_for_alpha(alpha), c_max, seed)
        c1, c2 = (max(x * c_max, 1e-9) for x in sorted(levels))
        g1, g2 = subgraph_at(filt, c1), subgraph_at(filt, c2)
        assert set(map(tuple, g1.edges.tolist())) <= set(map(tuple, g2.edges.tolist()))
        later = filt.edges[(filt.activation > c1) & (filt.activation <= c2)]
        labels = composed_labels(n, _label_edges(n, *g1.edges.T), later)
        np.testing.assert_array_equal(labels, _label_edges(n, *g2.edges.T))
        np.testing.assert_array_equal(labels, bfs_min_and_size(g2)[0])


class TestBFraction:
    def test_omega_one_is_total(self):
        g = sample_fast(ModelParams.make(300, 1.0, 1.0, seed=2))
        assert components(g).b_count(1) / g.n == 1.0

    def test_monotone_in_omega(self):
        g = sample_fast(ModelParams.make(1000, 1.0, 2.0, seed=4))
        values = [components(g).b_count(w) / g.n for w in (1, 2, 4, 8, 16, 64, 256, 2000)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_above_largest_is_zero(self):
        g = sample_fast(ModelParams.make(500, 1.0, 1.5, seed=6))
        s = components(g)
        assert s.b_count(s.largest + 1) / g.n == 0.0

    def test_complete_graph(self):
        n = 20
        edges = [[u, v] for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, np.array(edges))
        assert components(g).b_count(n) / g.n == 1.0

    def test_empty_graph(self):
        assert components(empty_graph(50)).b_count(2) / 50 == 0.0

    def test_giant_component_fraction_at_log4_cutoff(self):
        # alpha=0, c=2: vertices in components >= log^4(n) are the giant one
        n = 10**5
        omega = omega_for("log4", n)
        vals = []
        for rep in range(3):
            g = sample_fast(ModelParams.make(n, 0.0, 2.0, seed=11), replicate=rep)
            vals.append(components(g).b_count(omega) / n)
        assert abs(np.mean(vals) - rho_limit(2.0)) < 0.02

    def test_loglog_cutoff_fraction_approaches_survival_probability(self):
        # At alpha=1, c=2 the share of vertices in components of at least
        # ceil(ln ln n) = 3 vertices approximates the branching survival
        # probability plus the few finite components of size >= omega.
        rho = rho_limit(2.0)
        n = 10**5
        omega = omega_for("loglog", n)
        assert omega == 3
        for rep in range(20):
            g = sample_fast(ModelParams.make(n, 1.0, 2.0, seed=303), replicate=rep)
            assert abs(components(g).b_count(omega) / n - rho) < 0.05


class TestTrivialClamping:
    def test_alpha2_at_clamp_threshold_is_connected(self):
        # once c reaches the alpha=2 normalizer, every ring edge is open with
        # probability 1 and the graph is trivially a single component
        from alphagraph.model import PowerLawKernel, normalizer

        n = 512
        h = normalizer(n, PowerLawKernel(2.0))
        g = sample_fast(ModelParams(n=n, c=h, kernel=PowerLawKernel(2.0), seed=1))
        assert components(g).n_components == 1


class TestOmegaRules:
    def test_named_rules(self):
        n = 10**5
        assert omega_for("log4", n) == math.ceil(math.log(n) ** 4)
        assert omega_for("loglog", n) == math.ceil(math.log(math.log(n)))
        assert omega_for("137", n) == 137
        with pytest.raises(ValueError):
            omega_for("nope", n)
        with pytest.raises(ValueError):
            omega_for("0", n)
