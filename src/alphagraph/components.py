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

from .sampler import Graph

__all__ = [
    "ComponentSummary",
    "component_labels",
    "components",
    "omega_for",
]


@dataclass(frozen=True)
class ComponentSummary:
    """Connected-component sizes of one graph, largest first."""

    n: int
    sizes: np.ndarray  # sorted descending, sums to n

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
    endpoint label of each live edge onto the smaller one, then compresses
    every label to its root.  Every vertex is its own root before the first
    round, so that round hooks the endpoints themselves, with no gather or
    live mask; a self-loop hooks a vertex onto itself, which changes nothing.
    Later rounds keep only the edges whose endpoints still have different
    roots.
    """
    label = np.arange(n, dtype=np.int64)
    lu, lv = u, v
    while True:
        # Labels are roots here (label[r] == r), so hooking each larger root
        # onto its smallest neighbouring root merges whole trees at once.
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            hop = label[label]
            if not (hop != label).any():
                break
            label = hop
        lu, lv = label[u], label[v]
        live = lu != lv
        if not live.any():
            return label
        u, v, lu, lv = u[live], v[live], lu[live], lv[live]


def component_labels(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex component labels plus per-label sizes.

    Each label is the smallest vertex id in its component, so labels are
    deterministic; sizes[labels] gives each vertex's component size.  This
    wraps the package's one component engine, ``_label_edges``, which the
    sweep also runs on the disjoint union of a batch of replicate graphs.
    """
    label = _label_edges(graph.n, graph.edges[:, 0], graph.edges[:, 1])
    return label, np.bincount(label, minlength=graph.n)


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
