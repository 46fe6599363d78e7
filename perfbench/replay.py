"""Traced replay of alphagraph's public calls, one job per fresh process.

``run.py --trace 1`` starts this file once per job:

    python3 perfbench/replay.py JOB_JSON OUT_JSON

A ``cli.<command>`` job makes the public calls that CLI command makes, in
the same order and with the same arguments, so that its spans can be set
against the command's untraced wall time.  The ``probes`` job times the
layers no command isolates: other exponents at n=1e6, per-call costs at
n=64, the serial sweep, the filtration path and the tracer's own cost.

Each public call gets one span ``[id, parent, name, start_ns, end_ns]``;
spans stay in memory and are written to OUT_JSON with the counts the job
measured.  Only names the package keeps public are called, so that the
replay keeps working while the code behind them changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from alphagraph import (
    ModelParams,
    SweepSpec,
    component_labels,
    components,
    extinction,
    finite_degree_pgf,
    kernel_for_alpha,
    normalizer,
    omega_for,
    read_edge_list,
    read_filtration,
    run_sweep,
    sample_fast,
    sample_filtration,
    sprinkling_experiment,
    subgraph_at,
    triangle_stats,
    write_edge_list,
    write_filtration,
)
from alphagraph.experiments import write_sweep_csv
from alphagraph.model import class_edge_probs
from alphagraph.streams import stream


class Tracer:
    """Spans kept in memory; a span's parent is the span open around it."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[list] = []

    def _start(self, name: str) -> list:
        parent = self._open[-1][0] if self._open else None
        rec = [len(self.spans), parent, name, 0, 0]
        self.spans.append(rec)
        self._open.append(rec)
        rec[3] = time.perf_counter_ns()
        return rec

    def _end(self, rec: list) -> None:
        rec[4] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._start(name)
        try:
            yield
        finally:
            self._end(rec)

    def call(self, name: str, fn, *args, **kwargs):
        rec = self._start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(rec)


def edge_digest(edges) -> str:
    return hashlib.blake2b(edges.tobytes(), digest_size=16).hexdigest()


def _alpha(text) -> float:
    return math.inf if text == "inf" else float(text)


def cli_sample(t: Tracer, job: dict) -> dict:
    with t.span("cli.sample"):
        kernel = t.call("model.kernel_for_alpha", kernel_for_alpha, job["alpha"])
        params = t.call(
            "model.ModelParams", ModelParams, n=job["n"], c=job["c"], kernel=kernel, seed=job["seed"]
        )
        # The first normalizer call of a fresh process, split out of sample_fast.
        t.call("model.normalizer", normalizer, job["n"], kernel)
        graph = t.call("sampler.sample_fast", sample_fast, params)
        t.call("sampler.write_edge_list", write_edge_list, job["out"], graph, params)
    return {
        "edges": graph.num_edges,
        "edge_file_bytes": os.path.getsize(job["out"]),
        "digest": edge_digest(graph.edges),
    }


def cli_components(t: Tracer, job: dict) -> dict:
    with t.span("cli.components"):
        graph, _header = t.call("sampler.read_edge_list", read_edge_list, job["in"])
        t.call("components.components", components, graph)
    return {}


def cli_gw_rho(t: Tracer, job: dict) -> dict:
    with t.span("cli.gw-rho"):
        kernel = t.call("model.kernel_for_alpha", kernel_for_alpha, job["alpha"])
        params = t.call("model.ModelParams", ModelParams, n=job["n"], c=job["c"], kernel=kernel)
        pgf = t.call("branching.finite_degree_pgf", finite_degree_pgf, params)
        result = t.call("branching.extinction", extinction, pgf)
    return {"iterations": result.iterations}


def _sweep_spec(t: Tracer, job: dict) -> SweepSpec:
    return t.call(
        "experiments.SweepSpec",
        SweepSpec,
        alphas=tuple(_alpha(a) for a in job["alphas"]),
        cs=tuple(job["cs"]),
        ns=tuple(job["ns"]),
        replicates=job["reps"],
        master_seed=job["seed"],
    )


def cli_sweep(t: Tracer, job: dict) -> dict:
    with t.span("cli.sweep"):
        spec = _sweep_spec(t, job)
        result = t.call("experiments.run_sweep", run_sweep, spec, workers=job["workers"])
        t.call("experiments.write_sweep_csv", write_sweep_csv, job["out"], result)
    return {}


def cli_sprinkle(t: Tracer, job: dict) -> dict:
    with t.span("cli.sprinkle"):
        kernel = t.call("model.kernel_for_alpha", kernel_for_alpha, job["alpha"])
        omega = t.call("components.omega_for", omega_for, "log4", job["n"])
        t.call(
            "experiments.sprinkling_experiment",
            sprinkling_experiment,
            n=job["n"],
            kernel=kernel,
            c_prime=job["cprime"],
            delta=job["delta"],
            omega=omega,
            replicates=job["reps"],
            master_seed=job["seed"],
            workers=job["workers"],
        )
    return {}


def cli_triangles(t: Tracer, job: dict) -> dict:
    digests = []
    with t.span("cli.triangles"):
        kernel = t.call("model.kernel_for_alpha", kernel_for_alpha, job["alpha"])
        params = t.call(
            "model.ModelParams", ModelParams, n=job["n"], c=job["c"], kernel=kernel, seed=job["seed"]
        )
        for rep in range(job["reps"]):
            graph = t.call("sampler.sample_fast", sample_fast, params, replicate=rep)
            # Built here so that triangle_stats' span excludes the CSR build.
            t.call("sampler.Graph.adjacency", graph.adjacency)
            t.call("experiments.triangle_stats", triangle_stats, graph)
            digests.append(edge_digest(graph.edges))
    return {"digests": digests}


def _sample_probe(t: Tracer, n: int, alpha: float, c: float, seed: int):
    kernel = t.call("model.kernel_for_alpha", kernel_for_alpha, alpha)
    params = t.call("model.ModelParams", ModelParams, n=n, c=c, kernel=kernel, seed=seed)
    t.call("model.normalizer", normalizer, n, kernel)
    return t.call("sampler.sample_fast", sample_fast, params)


def probes(t: Tracer, job: dict) -> dict:
    values: dict = {"digests": {}}
    n, seed = job["big_n"], job["seed"]
    for tag, alpha, c in job["alpha_probes"]:
        with t.span(f"probe.sample_fast.{tag}"):
            graph = _sample_probe(t, n, _alpha(alpha), c, seed)
        values["digests"][tag] = edge_digest(graph.edges)

    # Criterion 12's ratio: tracemalloc peak of sample_fast over (n + |E|).
    with t.span("probe.peak"):
        alpha, c = job["big_alpha_c"]
        kernel = kernel_for_alpha(alpha)
        normalizer(n, kernel)
        params = ModelParams(n=n, c=c, kernel=kernel, seed=seed)
        tracemalloc.start()
        try:
            graph = t.call("sampler.sample_fast", sample_fast, params, replicate=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    values["peak_bytes_per_item"] = peak / (n + graph.num_edges)

    # Per-call costs on the small-replicates grid at n=64, warm caches.
    with t.span("probe.n64"):
        for alpha in job["alphas"]:
            for c in job["cs"]:
                params = ModelParams(n=64, c=c, kernel=kernel_for_alpha(_alpha(alpha)), seed=seed)
                spec = params.kernel.spec_string()
                class_edge_probs(params)
                for rep in range(job["micro_reps"]):
                    t.call("streams.stream", stream, seed, "perfbench", spec, 64, float(c), rep)
                    t.call("model.class_edge_probs", class_edge_probs, params)
                    graph = t.call("sampler.sample_fast", sample_fast, params, replicate=rep)
                    t.call("components.components", components, graph)

    with t.span("probe.sweep_w1"):
        spec = _sweep_spec(t, job["sweep"])
        t.call("experiments.run_sweep", run_sweep, spec, workers=1)

    # The sprinkle replicate's layers, one public call at a time.
    spr = job["sprinkle"]
    with t.span("probe.sprinkle_layers"):
        kernel = kernel_for_alpha(spr["alpha"])
        c_max = spr["cprime"] + spr["delta"]
        for rep in range(job["decomposed_reps"]):
            filt = t.call(
                "sampler.sample_filtration", sample_filtration, spr["n"], kernel, c_max, spr["seed"], rep
            )
            before = t.call("sampler.subgraph_at", subgraph_at, filt, spr["cprime"])
            after = t.call("sampler.subgraph_at", subgraph_at, filt, c_max)
            t.call("components.component_labels", component_labels, before)
            t.call("components.component_labels", component_labels, after)
        t.call("sampler.write_filtration", write_filtration, job["filtration_out"], filt, spr["seed"])
        back, _ = t.call("sampler.read_filtration", read_filtration, job["filtration_out"])
    values["filtration_roundtrip"] = np.array_equal(back.edges, filt.edges) and np.array_equal(
        back.activation, filt.activation
    )
    values["digests"]["filtration"] = edge_digest(filt.edges)

    # Cost of one span, to price the tracing done by every job.
    scratch = Tracer()
    calls = 20000
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        scratch.call("noop", int)
    values["span_cost_ns"] = (time.perf_counter_ns() - t0) / calls
    return values


JOBS = {
    "cli.sample": cli_sample,
    "cli.components": cli_components,
    "cli.gw-rho": cli_gw_rho,
    "cli.sweep": cli_sweep,
    "cli.sprinkle": cli_sprinkle,
    "cli.triangles": cli_triangles,
    "probes": probes,
}


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    tracer = Tracer()
    values = JOBS[job["kind"]](tracer, job)
    with open(argv[2], "w") as fh:
        json.dump({"kind": job["kind"], "spans": tracer.spans, "values": values}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
