"""Benchmark of the alphagraph CLI and of its layers.

Run from the repository root:

    python3 perfbench/run.py --workload big-graph --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Workloads (their reasons are in BENCHMARK.json):

* ``big-graph``: ``sample --n 1e6 --alpha 1 --c 2``, ``components`` on that
  file, ``gw-rho --c 2 --n 1e6 --alpha 1``.
* ``small-replicates``: ``sweep --alphas 0,1,3,inf --cs 0.5,2 --ns 64,1024
  --reps 500 --workers 2``.
* ``mid-drivers``: ``sprinkle --n 1e5 --alpha 1 --cprime 1.5 --delta 0.5
  --reps 20 --workers 2``, then ``triangles --n 1e5 --alpha 1.5 --c 1.2
  --reps 3``.

Replicate counts are sized so that one iteration takes 2-9 s on two cores
and a 40 s run holds 3-18 iterations.

With ``--trace 0`` the workload's commands run as subprocesses, one at a
time (a closed loop with one client), with tracing off, for ``--seconds``
seconds; every output is checked.  Timings are medians over the
iterations.  ``setup_s`` is the median of nine fresh processes that import
the package and build the CLI parser, taken between iterations.

With ``--trace 1`` one traced pass gives the per-layer metrics, whichever
workload is named, so that every traced run emits every per-layer metric:
every command of the three workloads runs once untraced (smaller replicate
counts), then ``replay.py`` replays each command's public calls in a fresh
process, then one process runs the layer probes.  The pass takes about
45 s on two cores and does not use ``--seconds``.
Per-layer metrics are listed with the end-to-end metric each should move in
``perfbench/layers.json``.

The last line of standard output is the result: ``correct``, ``attempted``
and ``failed`` operations (a command or an output check is one operation)
and the metrics BENCHMARK.json declares for the mode.  The line before it
is a report with every metric named in layers.json, sample counts, and the
run record (versions, CPU, working-set bytes, seeds, edge digests).  Run
files go to ``.perfbench_out/<run id>/``.

Exit status 2 means the package source is missing; 1 means a declared
metric could not be produced.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_DEADLINE_S = 170  # the whole run must end within 180 s

# One workload iteration and one traced pass; --smoke shrinks them.
FULL = dict(
    big_n=10**6,
    sweep_reps=500,
    mid_n=10**5,
    sprinkle_reps=20,
    triangle_reps=3,
    trace_sweep_reps=250,
    trace_sprinkle_reps=4,
    trace_triangle_reps=2,
    micro_reps=250,
    decomposed_reps=2,
)
SMOKE = dict(
    big_n=2 * 10**5,
    sweep_reps=20,
    mid_n=2 * 10**4,
    sprinkle_reps=4,
    triangle_reps=2,
    trace_sweep_reps=10,
    trace_sprinkle_reps=2,
    trace_triangle_reps=1,
    micro_reps=10,
    decomposed_reps=1,
)
BIG = dict(alpha=1.0, c=2.0)
GRID = dict(alphas=("0", "1", "3", "inf"), cs=(0.5, 2.0), ns=(64, 1024))
SPRINKLE = dict(alpha=1.0, cprime=1.5, delta=0.5)
TRIANGLES = dict(alpha=1.5, c=1.2)
ALPHA_PROBES = (("a0", "0", 0.9), ("a3", "3", 0.9), ("ainf", "inf", 1.5))
SETUP_REPEATS = 9


def derive_seed(seed: int, *parts: object) -> int:
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(), "little")


def metric(values: list[float], unit: str) -> dict:
    return {
        "value": statistics.median(values),
        "unit": unit,
        "n": len(values),
        "min": min(values),
        "max": max(values),
    }


def per_call(values_s: list[float], name: str, unit_scale: float, unit: str) -> dict:
    """p50 and p90 of per-call times, in the given unit."""
    scaled = [v * unit_scale for v in values_s]
    p90 = statistics.quantiles(scaled, n=10)[8] if len(scaled) > 1 else scaled[0]
    return {
        f"{name}.p50": {"value": statistics.median(scaled), "unit": unit, "n": len(scaled)},
        f"{name}.p90": {"value": p90, "unit": unit, "n": len(scaled)},
    }


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Bench:
    """Runs commands and checks, counting operations and failures."""

    def __init__(self, out: Path):
        self.out = out
        self.attempted = 0
        self.failures: list[str] = []
        self.env = {k: v for k, v in os.environ.items() if k != "ALPHAGRAPH_WORKERS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = str(out)
        self.workers = min(2, os.cpu_count() or 1)
        self.cpu_s = 0.0
        self.peak_rss_kib = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}".strip())
        return ok

    def check(self, name: str, fn) -> None:
        """One output check; fn returns (ok, detail)."""
        try:
            ok, detail = fn()
        except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.op(name, ok, detail)

    def proc(self, argv: list[str]) -> tuple[float, int, str, str]:
        """Run a subprocess in its own session; kill the session on timeout.

        Waits with wait4 so that the child's CPU time and peak RSS, its own
        pool workers included, are added to this run's totals.
        """
        out_path, err_path = self.out / "proc.out", self.out / "proc.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(
                argv, cwd=self.out, env=self.env, stdout=out, stderr=err, start_new_session=True
            )
            timeout = max(1.0, self.deadline - time.monotonic())
            timer = threading.Timer(timeout, _kill_session, (p.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s += usage.ru_utime + usage.ru_stime
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        stderr = err_path.read_text()
        if p.returncode == -signal.SIGKILL:
            stderr += "\nkilled at the run deadline"
        return wall, p.returncode, out_path.read_text(), stderr

    def cli(self, *args: object) -> tuple[float, str]:
        """One alphagraph CLI command: (wall seconds, stdout)."""
        argv = [sys.executable, "-m", "alphagraph.cli", *map(str, args)]
        wall, code, stdout, stderr = self.proc(argv)
        self.op(f"{args[0]} exits 0", code == 0, stderr[-400:])
        return wall, stdout

    def setup_time(self) -> float:
        """One fresh process that imports the package and builds the CLI parser."""
        code = "import alphagraph.cli as cli; cli.build_parser()"
        wall, rc, _, stderr = self.proc([sys.executable, "-c", code])
        self.op("setup exits 0", rc == 0, stderr[-400:])
        return wall

    def replay(self, job: dict) -> dict:
        path = self.out / f"replay-{job['kind']}.json"
        argv = [sys.executable, str(HERE / "replay.py"), json.dumps(job), str(path)]
        _, rc, _, stderr = self.proc(argv)
        if not self.op(f"replay {job['kind']} exits 0", rc == 0, stderr[-400:]):
            raise RuntimeError(f"replay {job['kind']} failed:\n{stderr}")
        return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# Model expectations used by the output checks
# ---------------------------------------------------------------------------


def edge_count_law(n: int, alpha: float, c: float) -> tuple[float, float]:
    """Mean and standard deviation of |E|: sum of m_d p_d and m_d p_d (1 - p_d)."""
    from alphagraph import ModelParams, distance_classes
    from alphagraph.model import class_edge_probs

    _, _, m_pairs = distance_classes(n)
    p = class_edge_probs(ModelParams.make(n, alpha, c))
    mean = math.fsum((m_pairs * p).tolist())
    var = math.fsum((m_pairs * p * (1.0 - p)).tolist())
    return mean, math.sqrt(var)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Workloads: one iteration each, returning per-command wall times
# ---------------------------------------------------------------------------


def big_graph(bench: Bench, sizes: dict, seed: int, record: dict) -> dict:
    from alphagraph import read_edge_list

    n, alpha, c = sizes["big_n"], BIG["alpha"], BIG["c"]
    path = bench.out / "big.edges"
    walls = {}
    walls["sample"], _ = bench.cli(
        "sample", "--n", n, "--alpha", alpha, "--c", c, "--seed", seed, "--out", path
    )
    walls["components"], comp_out = bench.cli("components", "--in", path)
    walls["gw-rho"], gw_out = bench.cli("gw-rho", "--c", c, "--n", n, "--alpha", alpha)

    def roundtrip():
        graph, header = read_edge_list(path)
        rows = path.read_bytes().count(b"\n") - 1
        record.setdefault("edge_digests", []).append(
            hashlib.blake2b(graph.edges.tobytes(), digest_size=16).hexdigest()
        )
        record["big_graph_edges"] = graph.num_edges
        given = (n, alpha, c, seed, rows)
        got = (header["n"], float(header["alpha"]), header["c"], header["seed"], graph.num_edges)
        return given == got, f"given {given} and {rows} rows, read back {got}"

    def edge_count():
        mean, sd = edge_count_law(n, alpha, c)
        edges = record["big_graph_edges"]
        return abs(edges - mean) <= 6 * sd, f"|E|={edges}, mean {mean:.1f}, sd {sd:.1f}"

    def giant_vs_rho():
        row = next(csv.DictReader(io.StringIO(comp_out)))
        gw = json.loads(gw_out.splitlines()[0])
        fraction, rho = float(row["fraction"]), gw["rho"]
        return abs(fraction - rho) <= 0.01, f"fraction {fraction} vs rho {rho}"

    def residual():
        gw = json.loads(gw_out.splitlines()[0])
        return gw["residual"] <= 1e-12, f"residual {gw['residual']}"

    bench.check("edge file round-trips", roundtrip)
    bench.check("|E| within 6 sd", edge_count)
    bench.check("giant within 0.01 of finite-n rho", giant_vs_rho)
    bench.check("GW residual <= 1e-12", residual)
    return walls


def small_replicates(bench: Bench, sizes: dict, seed: int, record: dict, reps=None) -> dict:
    reps = reps or sizes["sweep_reps"]
    path = bench.out / "sweep.csv"
    wall, _ = bench.cli(
        "sweep",
        "--alphas", ",".join(GRID["alphas"]),
        "--cs", ",".join(map(str, GRID["cs"])),
        "--ns", ",".join(map(str, GRID["ns"])),
        "--reps", reps,
        "--seed", seed,
        "--workers", bench.workers,
        "--out", path,
    )  # fmt: skip
    cells = len(GRID["alphas"]) * len(GRID["cs"]) * len(GRID["ns"])
    fraction_fields = (
        "mean_fraction", "min_fraction", "max_fraction", "mean_second_fraction", "mean_b_fraction"
    )  # fmt: skip
    done = {}

    def grid():
        rows = read_csv(path)
        done["replicates"] = sum(int(r["replicates"]) for r in rows)
        return len(rows) == cells, f"{len(rows)} cells, expected {cells}"

    def no_errors():
        bad = [r["error"] for r in read_csv(path) if r["error"]]
        return not bad, "; ".join(bad[:3])

    def fractions():
        vals = [float(r[f]) for r in read_csv(path) for f in fraction_fields]
        return all(0.0 <= v <= 1.0 for v in vals), f"range [{min(vals)}, {max(vals)}]"

    def counts():
        got = sorted({int(r["replicates"]) for r in read_csv(path)})
        return got == [reps], f"replicate counts {got}, expected {reps}"

    bench.check("sweep grid complete", grid)
    bench.check("sweep cells without error", no_errors)
    bench.check("sweep fractions in [0, 1]", fractions)
    bench.check("sweep replicate counts", counts)
    return {"sweep": wall, "replicates": done.get("replicates", 0)}


def mid_drivers(
    bench: Bench, sizes: dict, seed: int, record: dict, sprinkle_reps=None, triangle_reps=None,
    workers=None,
) -> dict:  # fmt: skip
    n = sizes["mid_n"]
    sprinkle_reps = sprinkle_reps or sizes["sprinkle_reps"]
    triangle_reps = triangle_reps or sizes["triangle_reps"]
    spr_path, tri_path = bench.out / "sprinkle.csv", bench.out / "triangles.csv"
    walls = {}
    walls["sprinkle"], _ = bench.cli(
        "sprinkle", "--n", n, "--alpha", SPRINKLE["alpha"], "--cprime", SPRINKLE["cprime"],
        "--delta", SPRINKLE["delta"], "--reps", sprinkle_reps, "--seed", seed,
        "--workers", workers or bench.workers, "--out", spr_path,
    )  # fmt: skip
    walls["triangles"], _ = bench.cli(
        "triangles", "--n", n, "--alpha", TRIANGLES["alpha"], "--c", TRIANGLES["c"],
        "--reps", triangle_reps, "--seed", seed, "--out", tri_path,
    )  # fmt: skip

    def nested():
        rows = read_csv(spr_path)
        ok = len(rows) == sprinkle_reps and all(r["nested_ok"] == "True" for r in rows)
        return ok, f"{sum(r['nested_ok'] == 'True' for r in rows)}/{len(rows)} nested"

    def mean_degree():
        rows = read_csv(tri_path)
        _, sd_edges = edge_count_law(n, TRIANGLES["alpha"], TRIANGLES["c"])
        sd = 2.0 * sd_edges / n
        degrees = [float(r["mean_degree"]) for r in rows]
        ok = len(rows) == triangle_reps and all(
            abs(d - TRIANGLES["c"]) <= 5 * sd for d in degrees
        )
        return ok, f"mean degrees {degrees}, c {TRIANGLES['c']}, sd {sd:.3g}"

    bench.check("sprinkle nested on every replicate", nested)
    bench.check("triangles mean degree within 5 sd of c", mean_degree)
    return walls


WORKLOADS = {
    "big-graph": big_graph,
    "small-replicates": small_replicates,
    "mid-drivers": mid_drivers,
}


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(seed: int, sizes: dict) -> dict:
    """Versions, hardware, seeds and the computed working set of each workload."""

    def working_set(n, alpha, c):
        edges, _ = edge_count_law(n, alpha, c)
        return int(24 * edges)  # 16 B per edge row plus an 8 B pair key

    grid = [
        working_set(n, math.inf if a == "inf" else float(a), c)
        for a in GRID["alphas"] for c in GRID["cs"] for n in GRID["ns"]
    ]  # fmt: skip
    c_max = SPRINKLE["cprime"] + SPRINKLE["delta"]
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "seed": seed,
        "heldout_seed": derive_seed(seed, "heldout"),
        "working_set_bytes": {
            "big-graph": working_set(sizes["big_n"], BIG["alpha"], BIG["c"]),
            "small-replicates": max(grid),
            "mid-drivers": max(
                working_set(sizes["mid_n"], SPRINKLE["alpha"], c_max),
                working_set(sizes["mid_n"], TRIANGLES["alpha"], TRIANGLES["c"]),
            ),
        },
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def untraced(bench: Bench, workload: str, sizes: dict, seed: int, seconds: float, record) -> dict:
    """Closed loop over whole workload iterations until the next would overrun.

    Set-up samples are taken between the first iterations, outside the
    measured time, so that they see the same machine as the iterations.
    """
    iterate = WORKLOADS[workload]
    samples: dict[str, list[float]] = {}
    setup: list[float] = []
    measured = 0.0
    i = 0
    while True:
        if len(setup) < SETUP_REPEATS:
            setup.append(bench.setup_time())
        t0 = time.perf_counter()
        cpu0 = bench.cpu_s
        walls = iterate(bench, sizes, derive_seed(seed, workload, i), record)
        replicates = walls.pop("replicates", None)
        for cmd, wall in walls.items():
            samples.setdefault(f"{cmd.replace('-', '_')}_s", []).append(wall)
        samples.setdefault("wall_s", []).append(sum(walls.values()))
        samples.setdefault("cpu_s", []).append(bench.cpu_s - cpu0)
        if replicates is not None:
            samples.setdefault("replicates_per_s", []).append(replicates / walls["sweep"])
        i += 1
        last = time.perf_counter() - t0
        measured += last
        if measured + last > seconds:
            break
    setup += [bench.setup_time() for _ in range(SETUP_REPEATS - len(setup))]

    units = {"replicates_per_s": "1/s"}
    metrics = {name: metric(vals, units.get(name, "s")) for name, vals in samples.items()}
    metrics["setup_s"] = metric(setup, "s")
    metrics["peak_rss_mb"] = {"value": bench.peak_rss_kib * 1024 / 1e6, "unit": "MB", "n": 1}
    return metrics


def traced(bench: Bench, sizes: dict, seed: int, record: dict) -> tuple[dict, dict]:
    """Untraced CLI pass, traced replay of the same calls, then layer probes."""
    s_big, s_sweep, s_mid = (derive_seed(seed, "trace", k) for k in range(3))
    sweep_reps = sizes["trace_sweep_reps"]
    cli_walls = {}
    cli_walls.update(big_graph(bench, sizes, s_big, record))
    cli_walls.update(small_replicates(bench, sizes, s_sweep, record, reps=sweep_reps))
    cli_walls.pop("replicates")
    cli_walls.update(
        mid_drivers(
            bench, sizes, s_mid, record, sprinkle_reps=sizes["trace_sprinkle_reps"],
            triangle_reps=sizes["trace_triangle_reps"], workers=1,
        )
    )  # fmt: skip

    n, mid_n = sizes["big_n"], sizes["mid_n"]
    sweep = dict(alphas=GRID["alphas"], cs=GRID["cs"], ns=GRID["ns"], reps=sweep_reps, seed=s_sweep)
    sprinkle = dict(SPRINKLE, n=mid_n, seed=s_mid)
    out = str(bench.out)
    jobs = [
        dict(kind="cli.sample", n=n, seed=s_big, out=f"{out}/replay.edges", **BIG),
        dict(kind="cli.components", **{"in": f"{out}/replay.edges"}),
        dict(kind="cli.gw-rho", n=n, **BIG),
        dict(kind="cli.sweep", workers=bench.workers, out=f"{out}/replay-sweep.csv", **sweep),
        dict(kind="cli.sprinkle", reps=sizes["trace_sprinkle_reps"], workers=1, **sprinkle),
        dict(kind="cli.triangles", n=mid_n, reps=sizes["trace_triangle_reps"], seed=s_mid, **TRIANGLES),
        dict(
            kind="probes", big_n=n, seed=s_big, big_alpha_c=(BIG["alpha"], BIG["c"]),
            alpha_probes=ALPHA_PROBES, alphas=GRID["alphas"], cs=GRID["cs"],
            micro_reps=sizes["micro_reps"], sweep=sweep, sprinkle=sprinkle,
            decomposed_reps=sizes["decomposed_reps"], filtration_out=f"{out}/replay.filtration",
        ),
    ]  # fmt: skip
    results = {job["kind"]: bench.replay(job) for job in jobs}
    bench.op("filtration file round-trips", results["probes"]["values"]["filtration_roundtrip"])
    return layer_metrics(results, cli_walls, record), results


def layer_metrics(results: dict, cli_walls: dict, record: dict) -> dict:
    """Per-layer metrics from the replay spans and the untraced CLI walls."""
    durations: dict[tuple[str, str], list[float]] = {}
    children: dict[str, float] = {}  # root span -> summed direct-child time
    self_s: dict[str, float] = {}  # module -> summed self time
    n_spans = 0
    for result in results.values():
        spans = result["spans"]
        n_spans += len(spans)
        child_time = [0.0] * len(spans)
        for sid, parent, name, start, end in spans:
            if parent is not None:
                child_time[parent] += (end - start) / 1e9
        for sid, parent, name, start, end in spans:
            root = sid
            while spans[root][1] is not None:
                root = spans[root][1]
            seconds = (end - start) / 1e9
            durations.setdefault((spans[root][2], name), []).append(seconds)
            module = name.split(".")[0]
            self_s[module] = self_s.get(module, 0.0) + seconds - child_time[sid]
            if parent == root:
                children[spans[root][2]] = children.get(spans[root][2], 0.0) + seconds

    def one(root, name, unit="s", scale=1.0):
        vals = [v * scale for v in durations[(root, name)]]
        return {"value": statistics.median(vals), "unit": unit, "n": len(vals)}

    probes = results["probes"]["values"]
    w1 = durations[("probe.sweep_w1", "experiments.run_sweep")][0]
    w2 = durations[("cli.sweep", "experiments.run_sweep")][0]
    m = {
        **per_call(durations[("probe.n64", "streams.stream")], "streams.stream_us", 1e6, "us"),
        "model.normalizer_s": one("cli.sample", "model.normalizer"),
        **per_call(
            durations[("probe.n64", "model.class_edge_probs")], "model.class_edge_probs_us", 1e6, "us"
        ),
        "sampler.sample_fast_s": one("cli.sample", "sampler.sample_fast"),
        **{
            f"sampler.sample_fast_s.{tag}": one(f"probe.sample_fast.{tag}", "sampler.sample_fast")
            for tag, _, _ in ALPHA_PROBES
        },
        **per_call(durations[("probe.n64", "sampler.sample_fast")], "sampler.sample_fast_us", 1e6, "us"),
        "sampler.write_edge_list_s": one("cli.sample", "sampler.write_edge_list"),
        "sampler.read_edge_list_s": one("cli.components", "sampler.read_edge_list"),
        "sampler.sample_filtration_s": one("probe.sprinkle_layers", "sampler.sample_filtration"),
        "sampler.subgraph_at_ms": one("probe.sprinkle_layers", "sampler.subgraph_at", "ms", 1e3),
        "sampler.adjacency_ms": one("cli.triangles", "sampler.Graph.adjacency", "ms", 1e3),
        "sampler.write_filtration_s": one("probe.sprinkle_layers", "sampler.write_filtration"),
        "sampler.read_filtration_s": one("probe.sprinkle_layers", "sampler.read_filtration"),
        "sampler.edges": {"value": results["cli.sample"]["values"]["edges"], "unit": "count"},
        "sampler.edge_file_bytes": {
            "value": results["cli.sample"]["values"]["edge_file_bytes"], "unit": "B"
        },
        "sampler.peak_bytes_per_item": {"value": probes["peak_bytes_per_item"], "unit": "B/item"},
        "components.components_s": one("cli.components", "components.components"),
        "components.component_labels_ms": one(
            "probe.sprinkle_layers", "components.component_labels", "ms", 1e3
        ),
        **per_call(durations[("probe.n64", "components.components")], "components.components_us", 1e6, "us"),
        "branching.extinction_s": one("cli.gw-rho", "branching.extinction"),
        "branching.iterations": {
            "value": results["cli.gw-rho"]["values"]["iterations"], "unit": "count"
        },
        "experiments.run_sweep_s.w1": {"value": w1, "unit": "s", "n": 1},
        "experiments.run_sweep_s.w2": {"value": w2, "unit": "s", "n": 1},
        "experiments.parallel_efficiency": {"value": w1 / (2 * w2), "unit": "ratio"},
        "experiments.sprinkling_experiment_s": one("cli.sprinkle", "experiments.sprinkling_experiment"),
        "experiments.triangle_stats_s": one("cli.triangles", "experiments.triangle_stats"),
        **{
            f"cli.self_s.{cmd}": {"value": wall - children[f"cli.{cmd}"], "unit": "s", "n": 1}
            for cmd, wall in cli_walls.items()
        },
        "trace.overhead_s": {"value": n_spans * probes["span_cost_ns"] / 1e9, "unit": "s"},
    }
    record["module_self_s"] = self_s
    record["spans"] = n_spans
    record["replay_digests"] = {
        "sample": results["cli.sample"]["values"]["digest"],
        "triangles": results["cli.triangles"]["values"]["digests"],
        **probes["digests"],
    }
    return m


def declared(trace: int) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(metrics: dict, trace: int, bench: Bench) -> dict:
    out = {}
    for name, unit in declared(trace).items():
        if name not in metrics or metrics[name]["unit"] != unit:
            raise RuntimeError(f"declared metric {name} [{unit}] not produced")
        out[name] = {"value": metrics[name]["value"], "unit": unit}
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": out,
    }


def run(workload: str, seed: int, seconds: float, trace: int, sizes: dict) -> tuple[dict, dict]:
    run_id = f"{workload}-s{seed}-t{trace}-{uuid.uuid4().hex[:8]}"
    out = OUT / run_id
    out.mkdir(parents=True)
    bench = Bench(out)
    record = run_record(seed, sizes)
    record.update(run_id=run_id, workload=workload, trace=trace)
    if trace:
        metrics, results = traced(bench, sizes, seed, record)
        spans = {kind: r["spans"] for kind, r in results.items()}
        (out / "spans.json").write_text(json.dumps({"run_id": run_id, "spans": spans}))
    else:
        metrics = untraced(bench, workload, sizes, seed, seconds, record)
    metrics["failed_frac"] = {"value": len(bench.failures) / bench.attempted, "unit": "ratio"}
    report = {"metrics": metrics, "failures": bench.failures, "record": record}
    (out / "report.json").write_text(json.dumps(report, indent=1))
    for path in out.iterdir():
        if path.name not in ("report.json", "spans.json"):
            path.unlink() if path.is_file() else shutil.rmtree(path)
    return report, result_line(metrics, trace, bench)


def smoke() -> int:
    """Small sizes: every metric in BENCHMARK.json and layers.json is emitted with its unit."""
    layers = json.loads((HERE / "layers.json").read_text())
    problems = []
    for workload in WORKLOADS:
        report, _ = run(workload, 1, 1, 0, SMOKE)
        expected = {**declared(0), **layers["reported"]["all"], **layers["reported"][workload]}
        problems += missing(report, expected, workload)
        problems += [f"{workload}: {f}" for f in report["failures"]]
    report, _ = run("big-graph", 1, 1, 1, SMOKE)
    expected = {**declared(1), **{k: v["unit"] for k, v in layers["per_layer"].items()}}
    problems += missing(report, expected, "trace")
    problems += [f"trace: {f}" for f in report["failures"]]
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(f"smoke: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


def missing(report: dict, expected: dict, label: str) -> list[str]:
    got = report["metrics"]
    return [
        f"{label}: {name} [{unit}] not emitted (got {got.get(name, {}).get('unit')})"
        for name, unit in expected.items()
        if got.get(name, {}).get("unit") != unit
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="fast check of metric names and units")
    args = parser.parse_args()
    if not (SRC / "alphagraph" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    report, line = run(args.workload, args.seed, args.seconds, args.trace, FULL)
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
