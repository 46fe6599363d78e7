"""Random graphs on a ring with distance-decaying edge probabilities.

Edge probability min(1, c*f(d)/h) between vertices at ring distance d, with
the normalizer h chosen so the expected degree is c.  The power-law kernel
f(d) = 1/d**alpha spans classical Erdos-Renyi graphs (alpha=0) through
long-range percolation to nearest-neighbor bond percolation (alpha=inf).
"""


def _start_openblas_with_one_thread() -> None:
    """Load numpy with OpenBLAS limited to one thread, unless told otherwise.

    No alphagraph code path calls BLAS, so the thread count cannot change a
    result; it only spares every process the pool that OpenBLAS starts at
    load, one thread per core, each spinning ~0.1 s of CPU before it sleeps.
    OpenBLAS reads the variable once, when numpy loads it, so it is removed
    again and child processes see the caller's environment.  A thread count
    the user set (in any variable OpenBLAS reads), or an earlier numpy
    import, wins.
    """
    import os
    import sys

    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "numpy" in sys.modules or any(v in os.environ for v in blas_vars):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_start_openblas_with_one_thread()

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
from .model import (
    Kernel,
    ModelParams,
    PowerLawKernel,
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

# The experiment drivers load on first use (PEP 562), so that commands that
# run none of them never import alphagraph.experiments.
_EXPERIMENT_NAMES = {
    "BlockStats", "SweepSpec", "TriangleStats", "block_connectivity", "conjecture_probe",
    "run_sweep", "sprinkling_experiment", "triangle_stats",
}


def __getattr__(name: str):
    if name in _EXPERIMENT_NAMES:
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
