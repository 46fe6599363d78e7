"""Frozen driver outputs, and a per-replicate oracle for every sweep cell.

The digests are blake2b hashes of the CSV bytes that ``alphagraph sweep``
and ``alphagraph probe`` write for a fixed grid.  They were computed once,
while the sweep still sampled and labelled one replicate per job, so they
pin the determinism contract for the sweep drivers: the CSV must not change
with the worker count or with how replicates are grouped into jobs.  The
``blocks``, ``sprinkle`` and ``triangles`` digests were computed while each
of those drivers still ran one job per replicate (triangles serially, in the
CLI), and pin them the same way.  Never regenerate them to make a change
pass; a change that alters bits on purpose must say so and justify it.

The oracle tests recompute every ``CellResult`` from ``sample_fast`` and
``components`` one replicate at a time, with the reductions the sweep uses.
They run with the default batch budget and with one so small that batch
boundaries fall inside cells.
"""

import hashlib
import math

import numpy as np
import pytest

from alphagraph.branching import rho_limit
from alphagraph import experiments
from alphagraph.cli import main
from alphagraph.components import components, omega_for
from alphagraph.experiments import CellResult, SweepSpec, conjecture_probe, run_sweep
from alphagraph.model import ModelParams, kernel_for_alpha, parse_kernel
from alphagraph.sampler import sample_fast

SEED = 20261018
GRID = ["--cs", "0,0.5,2", "--ns", "2,3,64,1024,3000", "--reps", "40", "--seed", str(SEED)]
SWEEP_ARGV = ["sweep", "--alphas", "0,1,3,inf", *GRID]
PROBE_ARGV = ["probe", "--kernel", "powerlog:alpha=1.0,beta=1.0", *GRID]

SWEEP_DIGEST = "ee4da9f501bedb84a67c9b0cde26bbd0"
PROBE_DIGEST = "6d5b4af63f227c525d00f5cd706dc410"

# n=20011 rounds down to 20006 for m=7 and to 20000 for the other sizes; the
# counts run over 2858 ring positions per replicate at m=7 and 40 at m=500.
BLOCKS_ARGV = ["blocks", "--n", "20011", "--alpha", "1.5", "--c", "1.5", "--ms", "7,16,25,500",
               "--reps", "8", "--block-distance", "3", "--seed", str(SEED)]
SPRINKLE_ARGV = ["sprinkle", "--n", "3000", "--alpha", "1", "--cprime", "1.5", "--delta", "0.5",
                 "--omega", "20", "--reps", "6", "--seed", str(SEED)]
TRIANGLES_ARGV = ["triangles", "--n", "2000", "--alpha", "1.5", "--c", "1.2", "--reps", "4",
                  "--seed", str(SEED)]

BLOCKS_DIGEST = "7e9e283792068becf109019a1be0fd3a"
SPRINKLE_DIGEST = "88f8c8af3bb0dc7d42dadbbb99fb626b"
TRIANGLES_DIGEST = "543bca35ee8833e1a039fe29ecd77de1"


def _csv_digest(tmp_path, argv, workers=None):
    out = tmp_path / f"{argv[0]}-w{workers}.csv"
    flags = [] if workers is None else ["--workers", str(workers)]
    assert main([*argv, *flags, "--out", str(out)]) == 0
    return hashlib.blake2b(out.read_bytes(), digest_size=16).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_csv_digest(tmp_path, workers):
    assert _csv_digest(tmp_path, SWEEP_ARGV, workers) == SWEEP_DIGEST


@pytest.mark.parametrize("workers", [1, 2])
def test_probe_csv_digest(tmp_path, workers):
    assert _csv_digest(tmp_path, PROBE_ARGV, workers) == PROBE_DIGEST


@pytest.mark.parametrize("workers", [1, 2])
def test_blocks_csv_digest(tmp_path, workers):
    assert _csv_digest(tmp_path, BLOCKS_ARGV, workers) == BLOCKS_DIGEST


@pytest.mark.parametrize("workers", [1, 2])
def test_sprinkle_csv_digest(tmp_path, workers):
    assert _csv_digest(tmp_path, SPRINKLE_ARGV, workers) == SPRINKLE_DIGEST


def test_triangles_csv_digest(tmp_path):
    assert _csv_digest(tmp_path, TRIANGLES_ARGV) == TRIANGLES_DIGEST


def _reference_cell(kernel, alpha, c, n, reps, omega_rule, seed, predicted) -> CellResult:
    """One sample_fast + components call per replicate, reduced as the sweep does."""
    omega = omega_for(omega_rule, n)
    params = ModelParams(n=n, c=c, kernel=kernel, seed=seed)
    summaries = [components(sample_fast(params, replicate=rep)) for rep in range(reps)]
    fr = np.array([s.largest for s in summaries], dtype=np.float64) / n
    second = np.array([s.second_largest for s in summaries], dtype=np.float64) / n
    bfr = np.array([s.b_count(omega) for s in summaries], dtype=np.float64) / n
    return CellResult(
        kernel=kernel.spec_string(),
        alpha=alpha,
        c=c,
        n=n,
        replicates=reps,
        omega=omega,
        mean_fraction=float(fr.mean()),
        std_fraction=float(fr.std()),
        min_fraction=float(fr.min()),
        max_fraction=float(fr.max()),
        mean_second_fraction=float(second.mean()),
        mean_b_fraction=float(bfr.mean()),
        predicted_rho=predicted,
    )


ORACLE_ALPHAS = (0.0, 1.0, 3.0, math.inf)
ORACLE_CS = (0.0, 0.5, 2.0)
ORACLE_NS = (2, 3, 64, 300)
ORACLE_REPS = 7


@pytest.fixture
def batch_budget(request, monkeypatch):
    """Vertices per labelling pass; 150 labels n=64 cells in passes of 2+2+2+1
    replicates and n=300 cells one replicate at a time."""
    if request.param is not None:
        monkeypatch.setattr(experiments, "_BATCH_VERTICES", request.param)


@pytest.mark.parametrize("batch_budget", [None, 150], indirect=True)
@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_cells_equal_per_replicate_reference(workers, batch_budget):
    spec = SweepSpec(alphas=ORACLE_ALPHAS, cs=ORACLE_CS, ns=ORACLE_NS,
                     replicates=ORACLE_REPS, omega_rule="8", master_seed=SEED)
    result = run_sweep(spec, workers=workers)
    expected = []
    for alpha in ORACLE_ALPHAS:
        for c in ORACLE_CS:
            for n in ORACLE_NS:
                predicted = (rho_limit(c) if c > 0 else 0.0) if alpha <= 1 else None
                expected.append(_reference_cell(kernel_for_alpha(alpha), alpha, c, n,
                                                ORACLE_REPS, "8", SEED, predicted))
    assert result == expected


@pytest.mark.parametrize("batch_budget", [None, 150], indirect=True)
@pytest.mark.parametrize("workers", [1, 2])
def test_probe_cells_equal_per_replicate_reference(workers, batch_budget):
    kernel = parse_kernel("powerlog:alpha=1.0,beta=2.0")
    result = conjecture_probe(kernel, ns=ORACLE_NS, cs=ORACLE_CS, replicates=ORACLE_REPS,
                              master_seed=SEED, workers=workers)
    expected = [
        _reference_cell(kernel, None, c, n, ORACLE_REPS, "log4", SEED,
                        rho_limit(c) if c > 0 else 0.0)
        for c in ORACLE_CS
        for n in ORACLE_NS
    ]
    assert result == expected
