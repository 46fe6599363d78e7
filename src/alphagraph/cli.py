"""Command-line interface.

Subcommands: sample, components, gw-rho, sweep, blocks, triangles, sprinkle,
probe.  All outputs are written atomically (temp file + rename) and every
file output gets a ``<out>.json`` sidecar echoing the exact run
configuration.  ALPHAGRAPH_WORKERS overrides --workers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import branching, experiments
from .components import components, omega_for
from .model import Kernel, ModelParams, kernel_for_alpha, parse_kernel
from .sampler import read_edge_list, sample_fast, write_edge_list

__all__ = ["main"]


def _int_arg(text: str) -> int:
    """Integer flag accepting scientific notation (1e5, 2.5e3)."""
    try:
        return int(text)
    except ValueError:
        pass
    value = _float_arg(text)
    if value != int(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(value)


def _float_arg(text: str) -> float:
    """Finite float flag; nan and +-inf are malformed arguments."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _nonneg_float_arg(text: str) -> float:
    """Finite float flag >= 0, for edge densities and density increments."""
    value = _float_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _int_at_least(low: int):
    """Integer flag >= low."""

    def parse(text: str) -> int:
        value = _int_arg(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    parse.__name__ = f"integer >= {low}"
    return parse


_pos_int_arg = _int_at_least(1)  # replicate and worker counts, block sizes, pair caps
_ring_size_arg = _int_at_least(2)  # vertex counts n, non-adjacent block distances


def _omega_arg(text: str) -> str:
    """Cutoff rule flag: "log4", "loglog", or an integer >= 1; kept as text.

    The rule is resolved once per ring size n; resolving it at any n checks it.
    """
    try:
        omega_for(text, 2)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{exc}; expected log4, loglog or an integer >= 1"
        ) from None
    return text


def _alpha_arg(text: str) -> float:
    """Exponent flag: a float >= 0, or inf for the nearest-neighbor kernel."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"alpha must be >= 0 or inf, got {text!r}")
    return value


def _list_arg(item):
    """Comma-separated list flag whose entries are parsed by item."""

    def parse(text: str) -> tuple:
        return tuple(item(t) for t in text.split(","))

    parse.__name__ = f"list of {item.__name__}"
    return parse


def _kernel_from_args(args) -> Kernel:
    if getattr(args, "kernel", None):
        return parse_kernel(args.kernel)
    if getattr(args, "alpha", None) is None:
        raise ValueError("one of --alpha or --kernel is required")
    return kernel_for_alpha(args.alpha)


def _sidecar(out: str, config: dict) -> None:
    experiments.write_json_sidecar(str(out) + ".json", {"config": config})


def _config_echo(args, command: str) -> dict:
    skip = {"func"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip}
    cfg["command"] = command
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphagraph",
        description="Ring random graphs with distance-decaying edge probabilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample one graph and write an edge-list file")
    p.add_argument("--n", type=_ring_size_arg, required=True)
    p.add_argument("--alpha", type=_alpha_arg)
    p.add_argument("--kernel", type=str, help="kernel spec, e.g. powerlog:alpha=1.0,beta=1.0")
    p.add_argument("--c", type=_nonneg_float_arg, required=True)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("components", help="component summary of an edge-list file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="write the CSV row here instead of stdout")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("gw-rho", help="Galton-Watson extinction/survival probabilities")
    p.add_argument("--c", type=_nonneg_float_arg, required=True)
    p.add_argument("--n", type=_ring_size_arg, help="use the exact finite-n degree law")
    p.add_argument("--alpha", type=_alpha_arg, help="exponent for the finite-n law")
    p.add_argument("--tol", type=_float_arg, default=branching.DEFAULT_TOL)
    p.set_defaults(func=cmd_gw_rho)

    p = sub.add_parser("sweep", help="largest-component sweep over an (alpha, c, n) grid")
    p.add_argument("--alphas", type=_list_arg(_alpha_arg), required=True)
    p.add_argument("--cs", type=_list_arg(_nonneg_float_arg), required=True)
    p.add_argument("--ns", type=_list_arg(_ring_size_arg), required=True)
    p.add_argument("--reps", type=_pos_int_arg, default=10)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--omega-rule", type=_omega_arg, default="log4")
    p.add_argument("--workers", type=_pos_int_arg, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("blocks", help="block-to-block connectivity frequencies")
    p.add_argument("--n", type=_ring_size_arg, required=True)
    p.add_argument("--alpha", type=_alpha_arg)
    p.add_argument("--kernel", type=str)
    p.add_argument("--c", type=_nonneg_float_arg, required=True)
    p.add_argument("--ms", type=_list_arg(_pos_int_arg), required=True)
    p.add_argument("--reps", type=_pos_int_arg, default=20)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--pairs-cap", type=_pos_int_arg, default=1000)
    p.add_argument("--block-distance", type=_ring_size_arg, default=2,
                   help="circular block distance probed for non-adjacent pairs")
    p.add_argument("--workers", type=_pos_int_arg, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("triangles", help="triangle statistics over replicates")
    p.add_argument("--n", type=_ring_size_arg, required=True)
    p.add_argument("--alpha", type=_alpha_arg)
    p.add_argument("--kernel", type=str)
    p.add_argument("--c", type=_nonneg_float_arg, required=True)
    p.add_argument("--reps", type=_pos_int_arg, default=20)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_triangles)

    p = sub.add_parser("sprinkle", help="two-stage (c' then c'+delta) connectivity check")
    p.add_argument("--n", type=_ring_size_arg, required=True)
    p.add_argument("--alpha", type=_alpha_arg)
    p.add_argument("--kernel", type=str)
    p.add_argument("--cprime", type=_nonneg_float_arg, required=True)
    p.add_argument("--delta", type=_nonneg_float_arg, required=True)
    p.add_argument("--omega", type=_omega_arg, default="log4",
                   help='cutoff: integer, "log4", or "loglog"')
    p.add_argument("--reps", type=_pos_int_arg, default=20)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--workers", type=_pos_int_arg, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sprinkle)

    p = sub.add_parser("probe", help="fraction trends for an explicit kernel over (c, n)")
    p.add_argument("--kernel", type=str, required=True)
    p.add_argument("--cs", type=_list_arg(_nonneg_float_arg), required=True)
    p.add_argument("--ns", type=_list_arg(_ring_size_arg), required=True)
    p.add_argument("--reps", type=_pos_int_arg, default=10)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--omega-rule", type=_omega_arg, default="log4")
    p.add_argument("--workers", type=_pos_int_arg, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_probe)

    return parser


def cmd_sample(args) -> int:
    kernel = _kernel_from_args(args)
    params = ModelParams(n=args.n, c=args.c, kernel=kernel, seed=args.seed)
    graph = sample_fast(params)
    write_edge_list(args.out, graph, params)
    _sidecar(args.out, _config_echo(args, "sample"))
    print(f"sample: n={graph.n} edges={graph.num_edges} -> {args.out}")
    return 0


def cmd_components(args) -> int:
    graph, header = read_edge_list(args.infile)
    summary = components(graph)
    fields = ["seed", "n", "alpha", "c", "largest", "second_largest", "fraction", "n_components"]
    row = {
        "seed": header["seed"],
        "n": header["n"],
        "alpha": header["alpha"],
        "c": header["c"],
        "largest": summary.largest,
        "second_largest": summary.second_largest,
        "fraction": summary.fraction,
        "n_components": summary.n_components,
    }
    if args.out:
        experiments.write_rows_csv(args.out, fields, [row])
        _sidecar(args.out, _config_echo(args, "components"))
    else:
        print(",".join(fields))
        print(",".join(experiments._csv_value(row[k]) for k in fields))
    print(
        f"components: largest={summary.largest} fraction={summary.fraction:.6g} "
        f"n_components={summary.n_components}"
    )
    return 0


def cmd_gw_rho(args) -> int:
    if args.n is not None:
        if args.alpha is None:
            raise ValueError("--n requires --alpha for the finite-n degree law")
        params = ModelParams(n=args.n, c=args.c, kernel=kernel_for_alpha(args.alpha))
        pgf = branching.finite_degree_pgf(params)
        result = branching.extinction(pgf, args.tol)
    elif args.c <= 1.0:
        result = branching.GWResult(1.0, 0.0, 0, 0.0)
    else:
        result = branching.extinction(branching.PoissonPGF(args.c), args.tol)
    payload = {
        "q": result.extinction_q,
        "rho": result.survival_rho,
        "iterations": result.iterations,
        "residual": result.residual,
        "config": _config_echo(args, "gw-rho"),
    }
    print(json.dumps(payload))
    return 0


def cmd_sweep(args) -> int:
    spec = experiments.SweepSpec(
        alphas=args.alphas,
        cs=args.cs,
        ns=args.ns,
        replicates=args.reps,
        omega_rule=args.omega_rule,
        master_seed=args.seed,
    )
    result = experiments.run_sweep(spec, workers=args.workers)
    experiments.write_sweep_csv(args.out, result)
    experiments.write_json_sidecar(
        str(args.out) + ".json",
        {"spec": result.spec, "config": _config_echo(args, "sweep")},
    )
    print(f"sweep: {len(result.cells)} cells x {args.reps} replicates -> {args.out}")
    return 0


def cmd_blocks(args) -> int:
    kernel = _kernel_from_args(args)
    fields = ["m", "n", "n_blocks", "adjacent_connect_freq", "nonadjacent_connect_freq",
              "samples", "replicates"]
    # Block algebra requires m | n: round n down per block size and record it.
    groups: dict[int, list[int]] = {}
    for m in args.ms:
        n_adj = (args.n // m) * m
        groups.setdefault(n_adj, []).append(m)
    rows = []
    for n_adj, ms in sorted(groups.items()):
        params = ModelParams(n=n_adj, c=args.c, kernel=kernel, seed=args.seed)
        stats = experiments.block_connectivity(
            params, tuple(ms), replicates=args.reps, pairs_cap=args.pairs_cap,
            nonadjacent_distance=args.block_distance, workers=args.workers,
        )
        rows.extend({"n": n_adj, **asdict(st)} for st in stats)
    rows.sort(key=lambda r: r["m"])
    experiments.write_rows_csv(args.out, fields, rows)
    _sidecar(args.out, _config_echo(args, "blocks"))
    print(f"blocks: {len(rows)} block sizes -> {args.out}")
    return 0


def cmd_triangles(args) -> int:
    kernel = _kernel_from_args(args)
    params = ModelParams(n=args.n, c=args.c, kernel=kernel, seed=args.seed)
    fields = ["replicate", "triangles_per_vertex", "mean_degree", "second_neighbors_per_vertex"]
    stats = experiments.triangle_replicates(params, args.reps)
    rows = [{"replicate": rep, **asdict(st)} for rep, st in enumerate(stats)]
    experiments.write_rows_csv(args.out, fields, rows)
    _sidecar(args.out, _config_echo(args, "triangles"))
    mean_t = sum(r["triangles_per_vertex"] for r in rows) / len(rows)
    print(f"triangles: mean triangles/vertex {mean_t:.6g} over {args.reps} replicates -> {args.out}")
    return 0


def cmd_sprinkle(args) -> int:
    kernel = _kernel_from_args(args)
    omega = omega_for(args.omega, args.n)
    result = experiments.sprinkling_experiment(
        n=args.n, kernel=kernel, c_prime=args.cprime, delta=args.delta, omega=omega,
        replicates=args.reps, master_seed=args.seed, workers=args.workers,
    )
    fields = ["replicate", "b_fraction", "merged", "fraction_before", "fraction_after", "nested_ok"]
    rows = [asdict(r) for r in result.records]
    experiments.write_rows_csv(args.out, fields, rows)
    _sidecar(args.out, _config_echo(args, "sprinkle"))
    print(
        f"sprinkle: merged {result.merged_fraction:.0%}, nesting {result.nesting_fraction:.0%} "
        f"over {args.reps} replicates -> {args.out}"
    )
    return 0


def cmd_probe(args) -> int:
    kernel = parse_kernel(args.kernel)
    result = experiments.conjecture_probe(
        kernel,
        ns=args.ns,
        cs=args.cs,
        replicates=args.reps,
        master_seed=args.seed,
        omega_rule=args.omega_rule,
        workers=args.workers,
    )
    experiments.write_sweep_csv(args.out, result)
    experiments.write_json_sidecar(
        str(args.out) + ".json",
        {"spec": result.spec, "config": _config_echo(args, "probe")},
    )
    print(f"probe: {len(result.cells)} cells -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
