"""Connectivity analysis: components, largest cluster, the set B.

The full partition is computed by vectorized hook-and-compress rounds
(Shiloach & Vishkin, J. Algorithms 3:57-67, 1982): every root with an edge
to a smaller root is hooked onto the smallest such root, then labels are
compressed by pointer jumping until each points at its root.  Labels end as
component minima.  This is the package's one component engine; the tests
check it against an independent BFS.  ``ComponentSummary.b_count`` measures
the set B of vertices living in components of size at least omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _refuse_over_memory
from .sampler import Graph

__all__ = [
    "ComponentSummary",
    "component_labels",
    "components",
    "omega_for",
]


@dataclass(frozen=True, eq=False)
class ComponentSummary:
    """Connected-component sizes of one graph, largest first.  Equal, like
    Graph, when n and the sizes are equal; unhashable, like Graph."""

    n: int
    sizes: np.ndarray  # sorted descending, sums to n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ComponentSummary)
            and self.n == other.n
            and np.array_equal(self.sizes, other.sizes)
        )

    @property
    def largest(self) -> int:
        return int(self.sizes[0]) if self.sizes.size else 0

    @property
    def second_largest(self) -> int:
        return int(self.sizes[1]) if self.sizes.size > 1 else 0

    @property
    def fraction(self) -> float:
        return self.largest / self.n

    @property
    def n_components(self) -> int:
        return int(self.sizes.size)

    def b_count(self, omega: int) -> int:
        """Number of vertices in components of size >= omega."""
        big = self.sizes[self.sizes >= omega]
        return int(big.sum())


def _label_edges(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component label of each of n vertices joined by the edges (u[i], v[i]).

    Each label is the smallest vertex id in its component.  Edges need no
    order and may repeat; self-loops are allowed.  A round hooks the larger
    endpoint root of each live edge onto the smaller one, then compresses
    every label to its root.  Every vertex is its own root before the first
    round, so that round hooks the endpoints themselves, with no gather or
    live mask; a self-loop hooks a vertex onto itself, which changes nothing.
    Between rounds only the roots (lu, lv) of the edges whose endpoints
    still have different roots are kept: the next round's roots are
    label[lu] and label[lv].  Hooking and jumping only lower labels
    (label[x] <= x throughout), so a compression pass that leaves the sum
    of the labels unchanged has changed no label.
    """
    label = np.arange(n, dtype=np.int64)
    lu, lv = u, v
    while True:
        # Labels are roots here (label[r] == r), so hooking each larger root
        # onto its smallest neighbouring root merges whole trees at once.
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        total = label.sum()
        while True:
            hop = label[label]
            hop_total = hop.sum()
            if hop_total == total:
                break
            label, total = hop, hop_total
        lu, lv = label[lu], label[lv]
        live = lu != lv
        if not live.any():
            return label
        lu, lv = lu[live], lv[live]


# Peak bytes per vertex and edge of components() (tracemalloc at n = 1e6: at
# most 20 on sampled graphs, alpha in {0, 1, 3}, and 25 on an edgeless one).
_LABEL_BYTES_PER_ITEM = 25


def component_labels(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex component labels plus per-label sizes.

    Each label is the smallest vertex id in its component, so labels are
    deterministic; sizes[labels] gives each vertex's component size.  This
    wraps the package's one component engine, ``_label_edges``, which the
    sweep also runs on the disjoint union of a batch of replicate graphs.
    Labels that cannot fit in physical memory, at _LABEL_BYTES_PER_ITEM per
    vertex and edge, are refused first: a file header may name 3e9 vertices.
    """
    n, m = graph.n, graph.num_edges
    _refuse_over_memory(_LABEL_BYTES_PER_ITEM * (n + m), lambda: f"labelling n={n} vertices and {m} edges needs")
    label = _label_edges(n, graph.edges[:, 0], graph.edges[:, 1])
    return label, np.bincount(label, minlength=n)


def components(graph: Graph) -> ComponentSummary:
    """Exact partition into connected components, largest first."""
    _, sizes = component_labels(graph)
    sizes = sizes[sizes > 0]
    sizes[::-1].sort()
    return ComponentSummary(n=graph.n, sizes=sizes)


def omega_for(rule: str, n: int) -> int:
    """Resolve a named cutoff rule: "log4" -> ceil(ln(n)^4), "loglog" ->
    ceil(ln ln n), or a literal positive integer."""
    if rule == "log4":
        return max(1, math.ceil(math.log(n) ** 4))
    if rule == "loglog":
        return max(1, math.ceil(math.log(math.log(n))))
    try:
        value = int(rule)
    except ValueError:
        raise ValueError(f"unknown omega rule {rule!r}; use log4, loglog or an integer") from None
    if value < 1:
        raise ValueError(f"omega must be >= 1, got {value}")
    return value
