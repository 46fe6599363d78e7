"""Property tests of the edge-list and filtration files at small n."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alphagraph.model import ModelParams, PowerLawKernel
from alphagraph.sampler import (
    MAX_PAIR_KEY_N,
    Filtration,
    Graph,
    read_edge_list,
    read_filtration,
    write_edge_list,
    write_filtration,
)

PARAMS = ModelParams.make(10, 1.0, 2.0, seed=3)
HEADER = "# alphagraph v1 n={n} alpha=1.0 c=2.0 seed=3\n"
# Ids at the digit-count and 4-digit-group boundaries, up to the largest allowed.
EDGE_IDS = [0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, MAX_PAIR_KEY_N - 1]
ids = st.one_of(st.sampled_from(EDGE_IDS), st.integers(0, MAX_PAIR_KEY_N - 1))
# Each example overwrites the one file it writes, so sharing tmp_path is safe.
reuse_tmp_path = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


def graph_of(n, pairs) -> Graph:
    pairs = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    return Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def percent_d_text(graph: Graph) -> bytes:
    rows = "".join("%d %d\n" % (u, v) for u, v in graph.edges.tolist())
    return (HEADER.format(n=graph.n) + rows).encode()


class TestEdgeListBytes:
    @reuse_tmp_path
    @given(st.lists(st.tuples(ids, ids), max_size=40))
    def test_rows_are_percent_d(self, tmp_path, pairs):
        graph = graph_of(MAX_PAIR_KEY_N, pairs)
        path = tmp_path / "g.edges"
        write_edge_list(path, graph, PARAMS)
        assert path.read_bytes() == percent_d_text(graph)

    def test_every_boundary_id_as_both_endpoints(self, tmp_path):
        graph = graph_of(MAX_PAIR_KEY_N, [(a, b) for a in EDGE_IDS for b in EDGE_IDS])
        path = tmp_path / "g.edges"
        write_edge_list(path, graph, PARAMS)
        assert path.read_bytes() == percent_d_text(graph)

    @pytest.mark.parametrize("m", [0, 1, 2**16 - 1, 2**16, 2**16 + 1])
    def test_chunk_boundaries(self, tmp_path, m):
        rng = np.random.default_rng(m)
        u = np.unique(rng.integers(0, MAX_PAIR_KEY_N - 1, size=m + 100))[:m]
        v = u + 1 + rng.integers(0, MAX_PAIR_KEY_N - 1 - u)
        graph = Graph(MAX_PAIR_KEY_N, np.column_stack([u, v]))
        assert graph.num_edges == m
        path = tmp_path / "g.edges"
        write_edge_list(path, graph, PARAMS)
        assert path.read_bytes() == percent_d_text(graph)


class TestRoundTrip:
    @reuse_tmp_path
    @given(st.integers(2, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                                           st.integers(0, n - 1))))
    ))
    def test_edge_list(self, tmp_path, case):
        n, pairs = case
        graph = graph_of(n, pairs)
        path = tmp_path / "g.edges"
        write_edge_list(path, graph, PARAMS)
        back, header = read_edge_list(path)
        assert back == graph
        assert header == {"n": n, "alpha": "1.0", "c": 2.0, "seed": 3}

    @reuse_tmp_path
    @given(st.integers(2, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                                           st.integers(0, n - 1)))),
    ), st.data())
    def test_filtration(self, tmp_path, case, data):
        n, pairs = case
        edges = graph_of(n, pairs).edges
        c_max = data.draw(st.floats(1e-3, 10.0))
        levels = st.floats(0.0, c_max, exclude_min=True)
        activation = np.array(data.draw(st.lists(levels, min_size=len(edges), max_size=len(edges))))
        filt = Filtration(n, c_max, PowerLawKernel(1.0), edges, activation)
        path = tmp_path / "f.filt"
        write_filtration(path, filt, seed=3)
        back, header = read_filtration(path)
        assert np.array_equal(back.edges, filt.edges)
        assert back.activation.tobytes() == filt.activation.tobytes()
        assert (back.n, back.c_max, back.kernel) == (n, c_max, filt.kernel)
        assert header["seed"] == 3
