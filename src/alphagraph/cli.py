"""Command-line interface.

Subcommands: sample, components, gw-rho, sweep, blocks, triangles, sprinkle,
probe.  build_parser decides whether an argv is well formed, before any
sampling; a malformed argv exits 2.  sampler writes every output file
atomically (temp file + rename), and _sidecar gives each one a ``<out>.json``
echoing the exact run configuration.  Only the commands that run a driver
import experiments.  --workers alone sets a driver's worker count (the CPU
count if omitted).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict

from . import branching, sampler
from .components import components, omega_for
from .model import Kernel, ModelParams, kernel_for_alpha, parse_kernel
from .sampler import MAX_PAIR_KEY_N, read_edge_list, sample_fast, write_edge_list

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


def _at_least(parse, low, kind: str, strict: bool = False, below=None):
    """Flag parsed by parse, then checked >= low (> low if strict) and, if
    below is given, < below; nan fails."""
    name = f"{kind} {'>' if strict else '>='} {low}"
    if below is not None:
        name += f" and < {below}"

    def check(text: str):
        value = parse(text)
        above_low = value > low or value == low and not strict
        if not (above_low and (below is None or value < below)):
            raise argparse.ArgumentTypeError(f"expected {name}, got {text!r}")
        return value

    check.__name__ = name
    return check


def _text_checked(rule):
    """Flag kept as text and checked by a library rule, whose ValueError
    message becomes the usage error."""

    def check(text: str) -> str:
        try:
            rule(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return check


_alpha_arg = _at_least(float, 0, "alpha")  # inf selects the nearest-neighbor kernel
_nonneg_float_arg = _at_least(_float_arg, 0, "number")  # edge densities, increments
_pos_float_arg = _at_least(_float_arg, 0, "number", strict=True)  # solver tolerance, c'
_pos_int_arg = _at_least(_int_arg, 1, "integer")  # counts, block sizes, pair caps
_int_from_2_arg = _at_least(_int_arg, 2, "integer")  # block distances, gw-rho's finite-n law
_seed_arg = _at_least(_int_arg, 0, "integer", below=2**64)  # master seeds are 64-bit unsigned
# A cutoff rule is resolved per ring size n, and resolving it at any n checks
# it.  A custom:<path> table is read when the command runs (exit 1 if unreadable).
_omega_arg = _text_checked(lambda rule: omega_for(rule, 2))
_kernel_arg = _text_checked(lambda spec: spec.startswith("custom:") or parse_kernel(spec))


def _ring_size_arg(text: str) -> int:
    """Ring size of a sampled graph: an integer >= 2 whose pair keys fit in int64."""
    value = _int_from_2_arg(text)
    if value > MAX_PAIR_KEY_N:
        raise argparse.ArgumentTypeError(
            f"ring size {text!r} exceeds {MAX_PAIR_KEY_N}: int64 pair keys would overflow"
        )
    return value


_ring_size_arg.__name__ = _int_from_2_arg.__name__  # argparse names the type in its messages


def _list_arg(item):
    """Comma-separated list flag whose entries are parsed by item."""

    def parse(text: str) -> tuple:
        return tuple(item(t) for t in text.split(","))

    parse.__name__ = f"list of {item.__name__}"
    return parse


def _kernel_from_args(args) -> Kernel:
    return parse_kernel(args.kernel) if args.kernel else kernel_for_alpha(args.alpha)


def _echo_value(value):
    """A parsed flag as strict JSON takes it: an infinite --alpha as "inf",
    the text the flag accepts, and a list flag's tuple entry by entry."""
    if isinstance(value, tuple):
        return [_echo_value(v) for v in value]
    if value == math.inf:
        return "inf"
    return value


def _config_echo(args) -> dict:
    return {k: _echo_value(v) for k, v in vars(args).items() if k != "func"}


def _sidecar(args) -> None:
    """<out>.json: {"config": the parsed argv}, strict JSON."""
    text = json.dumps({"config": _config_echo(args)}, indent=2, allow_nan=False) + "\n"
    sampler.atomic_write(f"{args.out}.json", lambda fh: fh.write(text))


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that runs check(parser, args), a command's cross-flag rules."""

    check = staticmethod(lambda parser, args: None)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-0,2" and "-1e-3" for options; no option of ours
        # starts with a digit, so each is a value for its flag's type to judge.
        self._negative_number_matcher = re.compile(r"^-\d")

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        self.check(self, parsed)
        return parsed, extras


def _check_gw_rho(parser, args) -> None:
    """The finite-n degree law takes --n and a finite --alpha together."""
    if (args.n is None) != (args.alpha is None):
        flag = "--alpha" if args.n is None else "--n"
        parser.error(f"argument {flag}: the finite-n law needs both --n and --alpha")


def _check_blocks(parser, args) -> None:
    """block_connectivity's rules, for every block size at its rounded n."""
    from . import experiments
    for m in args.ms:
        try:
            experiments.check_blocks(args.n // m * m, m, args.block_distance)
        except ValueError as exc:
            parser.error(f"argument --ms: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="alphagraph",
        description="Ring random graphs with distance-decaying edge probabilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The ring size and exactly one graph law, for every ring-model command;
    # all but sprinkle then take the edge density --c.
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--n", type=_ring_size_arg, required=True)
    law = model.add_mutually_exclusive_group(required=True)
    law.add_argument("--alpha", type=_alpha_arg, help="power-law exponent, or inf")
    law.add_argument("--kernel", type=_kernel_arg, help="e.g. powerlog:alpha=1.0,beta=1.0")
    density = argparse.ArgumentParser(add_help=False, parents=[model])
    density.add_argument("--c", type=_nonneg_float_arg, required=True)

    p = sub.add_parser("sample", parents=[density], help="sample one graph to an edge-list file")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("components", help="component summary of an edge-list file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="write the CSV row here instead of stdout")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("gw-rho", help="Galton-Watson extinction/survival probabilities")
    p.check = _check_gw_rho
    p.add_argument("--c", type=_nonneg_float_arg, required=True)
    p.add_argument("--n", type=_int_from_2_arg, help="use the exact finite-n degree law")
    p.add_argument("--alpha", type=_nonneg_float_arg, help="exponent for the finite-n law")
    p.add_argument("--tol", type=_pos_float_arg, default=branching.DEFAULT_TOL)
    p.set_defaults(func=cmd_gw_rho)

    p = sub.add_parser("sweep", help="largest-component sweep over an (alpha, c, n) grid")
    p.add_argument("--alphas", type=_list_arg(_alpha_arg), required=True)
    p.add_argument("--cs", type=_list_arg(_nonneg_float_arg), required=True)
    p.add_argument("--ns", type=_list_arg(_ring_size_arg), required=True)
    p.add_argument("--reps", type=_pos_int_arg, default=10)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--omega-rule", type=_omega_arg, default="log4")
    p.add_argument("--workers", type=_pos_int_arg, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("blocks", parents=[density], help="block-to-block connectivity frequencies")
    p.check = _check_blocks
    p.add_argument("--ms", type=_list_arg(_pos_int_arg), required=True)
    p.add_argument("--reps", type=_pos_int_arg, default=20)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--block-distance", type=_int_from_2_arg, default=2,
                   help="circular block distance probed for non-adjacent pairs")
    p.add_argument("--workers", type=_pos_int_arg, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("triangles", parents=[density], help="triangle statistics over replicates")
    p.add_argument("--reps", type=_pos_int_arg, default=20)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_triangles)

    p = sub.add_parser("sprinkle", parents=[model], help="connectivity at c', then at c'+delta")
    p.add_argument("--cprime", type=_pos_float_arg, required=True)
    p.add_argument("--delta", type=_nonneg_float_arg, required=True)
    p.add_argument("--omega", type=_omega_arg, default="log4",
                   help='cutoff: integer, "log4", or "loglog"')
    p.add_argument("--reps", type=_pos_int_arg, default=20)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--workers", type=_pos_int_arg, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sprinkle)

    p = sub.add_parser("probe", help="fraction trends for an explicit kernel over (c, n)")
    p.add_argument("--kernel", type=_kernel_arg, required=True)
    p.add_argument("--cs", type=_list_arg(_nonneg_float_arg), required=True)
    p.add_argument("--ns", type=_list_arg(_ring_size_arg), required=True)
    p.add_argument("--reps", type=_pos_int_arg, default=10)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--omega-rule", type=_omega_arg, default="log4")
    p.add_argument("--workers", type=_pos_int_arg, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_probe)

    return parser


def cmd_sample(args) -> int:
    params = ModelParams(n=args.n, c=args.c, kernel=_kernel_from_args(args), seed=args.seed)
    graph = sample_fast(params)
    write_edge_list(args.out, graph, params)
    _sidecar(args)
    print(f"sample: n={graph.n} edges={graph.num_edges} -> {args.out}")
    return 0


def cmd_components(args) -> int:
    graph, header = read_edge_list(args.infile)
    summary = components(graph)
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
    sampler.write_rows_csv(args.out, list(row), [row])  # stdout without --out
    if args.out:
        _sidecar(args)
    print(
        f"components: largest={summary.largest} fraction={summary.fraction:.6g} "
        f"n_components={summary.n_components}"
    )
    return 0


def cmd_gw_rho(args) -> int:
    if args.n is not None:
        params = ModelParams(n=args.n, c=args.c, kernel=kernel_for_alpha(args.alpha))
        result = branching.extinction(branching.finite_degree_pgf(params), args.tol)
    else:
        result = branching.extinction(branching.PoissonPGF(args.c), args.tol)
    payload = {
        "q": result.extinction_q,
        "rho": result.survival_rho,
        "iterations": result.iterations,
        "residual": result.residual,
        "config": _config_echo(args),
    }
    print(json.dumps(payload))
    return 0


def cmd_sweep(args) -> int:
    from . import experiments
    spec = experiments.SweepSpec(
        alphas=args.alphas,
        cs=args.cs,
        ns=args.ns,
        replicates=args.reps,
        omega_rule=args.omega_rule,
        master_seed=args.seed,
    )
    cells = experiments.run_sweep(spec, workers=args.workers)
    experiments.write_sweep_csv(args.out, cells)
    _sidecar(args)
    print(f"sweep: {len(cells)} cells x {args.reps} replicates -> {args.out}")
    return 0


def cmd_blocks(args) -> int:
    from . import experiments
    kernel = _kernel_from_args(args)
    fields = ["m", "n", "n_blocks", "adjacent_connect_freq", "nonadjacent_connect_freq",
              "samples", "replicates"]
    # Block algebra requires m | n: round n down per block size and record it.
    groups: dict[int, list[int]] = {}
    for m in args.ms:
        groups.setdefault(args.n // m * m, []).append(m)
    rows = []
    for n_adj, ms in sorted(groups.items()):
        params = ModelParams(n=n_adj, c=args.c, kernel=kernel, seed=args.seed)
        stats = experiments.block_connectivity(
            params, tuple(ms), args.reps, args.block_distance, workers=args.workers
        )
        rows.extend({"n": n_adj, **asdict(st)} for st in stats)
    rows.sort(key=lambda r: r["m"])
    sampler.write_rows_csv(args.out, fields, rows)
    _sidecar(args)
    print(f"blocks: {len(rows)} block sizes -> {args.out}")
    return 0


def cmd_triangles(args) -> int:
    from . import experiments
    params = ModelParams(n=args.n, c=args.c, kernel=_kernel_from_args(args), seed=args.seed)
    stats = experiments.triangle_replicates(params, args.reps)
    rows = [{"replicate": rep, **asdict(st)} for rep, st in enumerate(stats)]
    sampler.write_rows_csv(args.out, list(rows[0]), rows)
    _sidecar(args)
    mean_t = sum(r["triangles_per_vertex"] for r in rows) / len(rows)
    print(f"triangles: mean triangles/vertex {mean_t:.6g} over {args.reps} replicates -> {args.out}")
    return 0


def cmd_sprinkle(args) -> int:
    from . import experiments
    records = experiments.sprinkling_experiment(
        n=args.n, kernel=_kernel_from_args(args), c_prime=args.cprime, delta=args.delta,
        omega=omega_for(args.omega, args.n), replicates=args.reps, master_seed=args.seed,
        workers=args.workers,
    )
    rows = [asdict(r) for r in records]
    sampler.write_rows_csv(args.out, list(rows[0]), rows)
    _sidecar(args)
    merged = sum(r.merged for r in records) / len(records)
    nesting = sum(r.nested_ok for r in records) / len(records)
    print(
        f"sprinkle: merged {merged:.0%}, nesting {nesting:.0%} "
        f"over {args.reps} replicates -> {args.out}"
    )
    return 0


def cmd_probe(args) -> int:
    from . import experiments
    cells = experiments.conjecture_probe(
        _kernel_from_args(args),
        ns=args.ns,
        cs=args.cs,
        replicates=args.reps,
        master_seed=args.seed,
        omega_rule=args.omega_rule,
        workers=args.workers,
    )
    experiments.write_sweep_csv(args.out, cells)
    _sidecar(args)
    print(f"probe: {len(cells)} cells -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
