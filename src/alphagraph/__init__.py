"""Random graphs on a ring with distance-decaying edge probabilities.

Edge probability min(1, c*f(d)/h) between vertices at ring distance d, with
the normalizer h chosen so the expected degree is c.  The power-law kernel
f(d) = 1/d**alpha spans classical Erdos-Renyi graphs (alpha=0) through
long-range percolation to nearest-neighbor bond percolation (alpha=inf).
"""

from .branching import (
    DegreePGF,
    GWResult,
    PoissonPGF,
    extinction,
    extinction_bisection,
    finite_degree_pgf,
    rho_limit,
)
from .components import (
    ComponentSummary,
    component_labels,
    components,
    omega_for,
)
from .experiments import (
    BlockStats,
    SprinklingResult,
    SweepResult,
    SweepSpec,
    TriangleStats,
    block_connectivity,
    conjecture_probe,
    run_sweep,
    sprinkling_experiment,
    triangle_stats,
)
from .model import (
    Kernel,
    ModelParams,
    NearestNeighborKernel,
    Normalizer,
    PowerLawKernel,
    PowerLogKernel,
    TabulatedKernel,
    distance_classes,
    edge_prob,
    kernel_alpha,
    kernel_for_alpha,
    load_tabulated_kernel,
    marginal_degree_sum,
    normalizer,
    parse_kernel,
    ring_distance,
)
from .sampler import (
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

__version__ = "0.1.0"
