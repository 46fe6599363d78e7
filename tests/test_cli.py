import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import alphagraph
from alphagraph import branching, cli, sampler
from alphagraph.cli import build_parser, main
from alphagraph.components import components
from alphagraph import experiments
from alphagraph.experiments import triangle_stats
from alphagraph.model import ModelParams
from alphagraph.sampler import MAX_PAIR_KEY_N, format_float, read_edge_list, sample_fast


def run(argv):
    return main(argv)


# The variables OpenBLAS reads for its thread count, in its order of precedence.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_fresh(code: str, timeout: float | None = None, **env: str) -> str:
    """stdout of a fresh process that runs `code` with alphagraph importable.

    The process starts with none of BLAS_THREAD_VARS set, then with `env`;
    it must exit 0, within `timeout` seconds if given.
    """
    src = str(Path(alphagraph.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    full_env = dict(base, PYTHONPATH=os.pathsep.join(path), **env)
    out = subprocess.run(
        [sys.executable, "-c", code], env=full_env, capture_output=True, text=True, check=True,
        timeout=timeout,
    )
    return out.stdout


def modules_loaded_by_cli_import() -> list[str]:
    """sys.modules after a fresh process imports alphagraph.cli."""
    return run_fresh("import sys, alphagraph, alphagraph.cli; print(*sys.modules)").split()


def blas_env_after_import(numpy_first: bool = False, **env: str) -> dict:
    """What `import alphagraph` does to OPENBLAS_NUM_THREADS in a fresh process.

    "writes" lists the os.putenv/os.unsetenv audit events on that variable
    during the import, and "after" is its value in os.environ afterwards.
    """
    code = f"""
import json, os, sys
{"import numpy" if numpy_first else ""}
writes = []
sys.addaudithook(
    lambda e, a: writes.append(e)
    if e in ("os.putenv", "os.unsetenv") and a[0] == b"OPENBLAS_NUM_THREADS" else None
)
import alphagraph
print(json.dumps({{"writes": writes, "after": os.environ.get("OPENBLAS_NUM_THREADS")}}))
"""
    return json.loads(run_fresh(code, **env))


# The package names that load alphagraph.experiments on first use.
EXPERIMENT_NAMES = (
    "BlockStats",
    "SweepSpec",
    "TriangleStats",
    "block_connectivity",
    "conjecture_probe",
    "run_sweep",
    "sprinkling_experiment",
    "triangle_stats",
)


class TestImports:
    def test_cli_import_does_not_load_the_experiment_drivers(self):
        # sample, components and gw-rho run no driver, and should not pay to
        # compile and import them
        assert "alphagraph.experiments" not in modules_loaded_by_cli_import()

    def test_cli_import_does_not_load_numpy_random(self):
        # importing numpy.random costs a process ~13 ms; the streams module
        # imports it on the first key, so commands that draw none skip it
        assert [m for m in modules_loaded_by_cli_import() if m.startswith("numpy.random")] == []

    def test_sample_components_and_gw_rho_do_not_load_the_experiment_drivers(self, tmp_path):
        edges, csv_out = str(tmp_path / "g.edges"), str(tmp_path / "c.csv")
        code = f"""
import sys
from alphagraph.cli import main
assert main(["sample", "--n", "200", "--alpha", "1", "--c", "2", "--out", {edges!r}]) == 0
assert main(["components", "--in", {edges!r}]) == 0
assert main(["components", "--in", {edges!r}, "--out", {csv_out!r}]) == 0
assert main(["gw-rho", "--c", "2", "--n", "1000", "--alpha", "1"]) == 0
print("alphagraph.experiments" in sys.modules)
"""
        assert run_fresh(code).splitlines()[-1] == "False"

    def test_components_stays_the_function_after_the_drivers_load(self):
        code = """
import alphagraph, alphagraph.experiments
from alphagraph import components
from alphagraph.components import components as function
print(alphagraph.components is function, components is function)
"""
        assert run_fresh(code).split() == ["True", "True"]

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_deferred_name_is_the_driver_object(self, name):
        assert getattr(alphagraph, name) is getattr(experiments, name)

    def test_unknown_package_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            alphagraph.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            from alphagraph import no_such_name  # noqa: F401

    def test_cli_import_does_not_load_scipy(self):
        # scipy is a test-only dependency, and importing it would add a few
        # tenths of a second to every CLI process
        assert [m for m in modules_loaded_by_cli_import() if m.split(".")[0] == "scipy"] == []

    def test_cli_import_does_not_load_the_process_pool(self):
        # only a multi-worker run builds a pool; the modules behind one cost
        # every other command ~30 ms of start-up
        loaded = modules_loaded_by_cli_import()
        assert "concurrent.futures.process" not in loaded
        assert [m for m in loaded if m.split(".")[0] == "multiprocessing"] == []

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) == 1,
        reason="needs /proc/self/task and more than one CPU",
    )
    def test_import_starts_openblas_with_one_thread(self):
        # OpenBLAS would otherwise start one idle, spinning thread per CPU
        code = "import os, alphagraph.cli; print(len(os.listdir('/proc/self/task')))"
        assert run_fresh(code).strip() == "1"

    def test_one_thread_start_leaves_no_variable_behind(self):
        assert blas_env_after_import() == {"writes": ["os.putenv", "os.unsetenv"], "after": None}

    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_a_preset_thread_count_wins(self, var):
        expected = "2" if var == "OPENBLAS_NUM_THREADS" else None
        assert blas_env_after_import(**{var: "2"}) == {"writes": [], "after": expected}

    def test_an_earlier_numpy_import_wins(self):
        assert blas_env_after_import(numpy_first=True) == {"writes": [], "after": None}


class TestSample:
    def test_writes_v1_format_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        code = run(["sample", "--n", "1000", "--alpha", "1", "--c", "2", "--seed", "7",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# alphagraph v1 n=1000 alpha=1.0 c=2.0 seed=7"
        pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)
        sidecar = json.loads((tmp_path / "g.edges.json").read_text())
        assert sidecar["config"]["command"] == "sample"
        assert sidecar["config"]["seed"] == 7
        assert "sample:" in capsys.readouterr().out

    def test_scientific_notation_and_inf_alpha(self, tmp_path):
        out = tmp_path / "g.edges"
        code = run(["sample", "--n", "1e3", "--alpha", "inf", "--c", "1.0",
                    "--seed", "3", "--out", str(out)])
        assert code == 0
        graph, header = read_edge_list(out)
        assert graph.n == 1000
        assert header["alpha"] == "inf"

    def test_three_spellings_of_infinite_alpha_are_one_kernel(self, tmp_path):
        outs = []
        for i, law in enumerate([["--alpha", "inf"], ["--kernel", "nn"],
                                 ["--kernel", "power:alpha=inf"]]):
            outs.append(tmp_path / f"g{i}.edges")
            argv = ["sample", "--n", "500", *law, "--c", "1.5", "--seed", "3"]
            assert run([*argv, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        assert outs[0].read_text().startswith("# alphagraph v1 n=500 alpha=inf c=1.5 seed=3\n")

    def test_matches_in_process_sampler(self, tmp_path):
        out = tmp_path / "g.edges"
        run(["sample", "--n", "500", "--alpha", "1.0", "--c", "2", "--seed", "11",
             "--out", str(out)])
        graph, _ = read_edge_list(out)
        expected = sample_fast(ModelParams.make(500, 1.0, 2.0, seed=11))
        assert graph == expected

    @pytest.mark.parametrize("law", [["--alpha", "{}"], ["--kernel", "powerlog:alpha={0},beta={0}"]])
    def test_negative_zero_draws_the_zero_graph(self, tmp_path, law):
        # -0 == 0 as a kernel parameter, so both spell one law and one stream
        outs = []
        for zero in ("-0", "0"):
            outs.append(tmp_path / f"g{zero}.edges")
            argv = ["sample", "--n", "200", law[0], law[1].format(zero), "--c", "2", "--seed", "1"]
            assert run([*argv, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


    def test_negative_zero_density_is_zero(self, tmp_path):
        # -0 == 0 as a density: one law, one header and one stream
        outs = [tmp_path / "g-0.edges", tmp_path / "g0.edges"]
        for zero, out in zip(("-0", "0"), outs):
            argv = ["sample", "--n", "200", "--alpha", "1", "--c", zero, "--seed", "1"]
            assert run([*argv, "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_text().startswith("# alphagraph v1 n=200 alpha=1.0 c=0.0 seed=1\n")


class TestComponentsCommand:
    def test_round_trip_equals_in_process(self, tmp_path):
        edges = tmp_path / "g.edges"
        run(["sample", "--n", "2000", "--alpha", "1", "--c", "2", "--seed", "5",
             "--out", str(edges)])
        out = tmp_path / "comp.csv"
        code = run(["components", "--in", str(edges), "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            row = next(csv.DictReader(fh))
        summary = components(sample_fast(ModelParams.make(2000, 1.0, 2.0, seed=5)))
        assert int(row["largest"]) == summary.largest
        assert int(row["second_largest"]) == summary.second_largest
        assert float(row["fraction"]) == summary.fraction
        assert int(row["n_components"]) == summary.n_components
        assert row["seed"] == "5" and row["n"] == "2000" and row["alpha"] == "1.0"

    def test_stdout_row(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        run(["sample", "--n", "100", "--alpha", "0", "--c", "1", "--seed", "2",
             "--out", str(edges)])
        code = run(["components", "--in", str(edges)])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed,n,alpha,c,largest,second_largest,fraction,n_components" in out

    def test_stdout_row_quotes_a_kernel_spec(self, tmp_path, capsys):
        # the spec's comma must not split the alpha column
        edges = tmp_path / "g.edges"
        run(["sample", "--n", "100", "--kernel", "powerlog:alpha=1.0,beta=1.0", "--c", "1.5",
             "--out", str(edges)])
        out = tmp_path / "comp.csv"
        capsys.readouterr()
        assert run(["components", "--in", str(edges)]) == 0
        printed = list(csv.reader(capsys.readouterr().out.splitlines()[:2]))
        assert run(["components", "--in", str(edges), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            assert printed == list(csv.reader(fh))
        assert len(printed[1]) == 8 and printed[1][2] == "powerlog:alpha=1.0,beta=1.0"

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = run(["components", "--in", str(tmp_path / "nope.edges")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_ragged_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "ragged.edges"
        path.write_text("# alphagraph v1 n=5 alpha=1.0 c=2.0 seed=1\n0 1\n2\n")
        code = run(["components", "--in", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "columns" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "header, message",
        [
            ("# alphagraph v1 alpha=1.0 c=2.0 seed=1", "header lacks n "),
            ("# alphagraph v1 n=0 alpha=1.0 c=2.0 seed=1", "need n >= 1, got 0"),
            ("# alphagraph v1 n=5 n=7 alpha=1.0 c=2.0 seed=1", "header repeats n "),
            ("# alphagraph v1 n=5 alpha=1.0 c=nan seed=1", "finite c >= 0, got c=nan"),
            ("# alphagraph v1 n=5 alpha=1.0 c=2.0 seed=-1", "seed=-1 lies outside [0, 2^64) "),
            ("# alphagraph v1 n=5 alpha=1.0 c=2.0 seed=18446744073709551616",
             "seed=18446744073709551616 lies outside [0, 2^64) "),
            ("# alphagraph v1 n=5.5 alpha=1.0 c=2.0 seed=1",
             "header needs int n, got n=5.5 (header '# alphagraph v1 n=5.5 "),
            ("# alphagraph v1 n=5 alpha=1.0 c=abc seed=1",
             "header needs float c, got c=abc (header '# alphagraph v1 n=5 alpha=1.0 c=abc "),
            ("# alphagraph v1 n=5 alpha=1.0 c=2.0 seed=x",
             "header needs int seed, got seed=x (header '# alphagraph v1 n=5 "),
            # int() and float() read these; the writer never writes them
            ("# alphagraph v1 n=1_0 alpha=1.0 c=2.0 seed=1",
             "header needs int n, got n=1_0 (header '# alphagraph v1 n=1_0 "),
            ("# alphagraph v1 n=5 alpha=1.0 c=2.0 seed=0_1",
             "header needs int seed, got seed=0_1 (header '# alphagraph v1 n=5 "),
            ("# alphagraph v1 n=5 alpha=1.0 c=2_0 seed=1",
             "header needs float c, got c=2_0 (header '# alphagraph v1 n=5 alpha=1.0 c=2_0 "),
            ("# alphagraph v1 n=\u0661\u0660 alpha=1.0 c=2.0 seed=1",
             "header needs int n, got n=\u0661\u0660 (header '# alphagraph v1 n=\u0661\u0660 "),
        ],
    )
    def test_bad_header_exits_1(self, tmp_path, capsys, header, message):
        path = tmp_path / "bad.edges"
        path.write_text(header + "\n")
        assert run(["components", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert len(captured.err.splitlines()) == 1 and captured.out == ""


class TestGwRho:
    def test_poisson_value(self, capsys):
        code = run(["gw-rho", "--c", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[0])
        assert payload["rho"] == pytest.approx(0.7968121300200200, abs=1e-9)
        assert payload["q"] == pytest.approx(1 - 0.7968121300200200, abs=1e-9)
        assert payload["config"]["command"] == "gw-rho"

    def test_subcritical(self, capsys):
        run(["gw-rho", "--c", "0.8"])
        payload = json.loads(capsys.readouterr().out.splitlines()[0])
        assert payload["rho"] == 0.0

    def test_finite_n(self, capsys):
        code = run(["gw-rho", "--c", "2", "--n", "1e4", "--alpha", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[0])
        assert 0.0 < payload["rho"] < 1.0
        assert payload["residual"] <= 1e-12

    def test_finite_n_stdout_frozen(self, capsys):
        assert run(["gw-rho", "--c", "2", "--n", "1e5", "--alpha", "1"]) == 0
        assert capsys.readouterr().out == (
            '{"q": 0.20035035905404597, "rho": 0.799649640945954, "iterations": 30, '
            '"residual": 1.4710455076283324e-13, "config": {"command": "gw-rho", "c": 2.0, '
            '"n": 100000, "alpha": 1.0, "tol": 1e-12}}\n'
        )

    @pytest.mark.parametrize("c", ["0", "0.8", "1"])
    def test_subcritical_stdout_frozen(self, capsys, c):
        assert run(["gw-rho", "--c", c]) == 0
        assert capsys.readouterr().out == (
            '{"q": 1.0, "rho": 0.0, "iterations": 0, "residual": 0.0, "config": '
            f'{{"command": "gw-rho", "c": {float(c)}, "n": null, "alpha": null, "tol": 1e-12}}}}\n'
        )

    def test_two_ring_survives_surely(self, capsys):
        # at n = 2 the one neighbour is always joined: one offspring, q = 0
        assert run(["gw-rho", "--c", "2", "--n", "2", "--alpha", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q"] == 0.0 and payload["rho"] == 1.0

    def test_tolerance_below_the_spacing_of_doubles_ends(self):
        # near q ~ 0.999 adjacent doubles are ~1.1e-16 apart: bisection stops
        # at the finest bracket instead of looping forever
        code = ("import sys; from alphagraph.cli import main; "
                'sys.exit(main(["gw-rho", "--c", "1.0005", "--tol", "1e-16"]))')
        payload = json.loads(run_fresh(code, timeout=60))
        assert payload["q"] == 0.9990006662778812 and payload["iterations"] == 53

    def test_finite_n_requires_alpha(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gw-rho", "--c", "2", "--n", "100"])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_twelve_row_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--alphas", "0,1", "--cs", "0.5,1,2", "--ns", "1e2,2e2",
                    "--reps", "2", "--seed", "42", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        sidecar = json.loads((tmp_path / "sweep.csv.json").read_text())
        assert sidecar["config"]["seed"] == 42
        assert sidecar["config"]["command"] == "sweep"

    def test_negative_zero_density_writes_zero(self, tmp_path):
        out, spaced = tmp_path / "sweep.csv", tmp_path / "spaced.csv"
        grid = ["sweep", "--alphas", "1", "--ns", "64", "--reps", "2", "--workers", "1"]
        assert run([*grid, "--cs=-0,2", "--out", str(out)]) == 0
        with open(out) as fh:
            zero, two = csv.DictReader(fh)
        assert zero["c"] == "0" and two["c"] == "2"
        # a list may start with a minus sign without "=" (argparse took "-0,2" for an option)
        assert run([*grid, "--cs", "-0,2", "--out", str(spaced)]) == 0
        assert spaced.read_bytes() == out.read_bytes()


class TestOtherCommands:
    def test_blocks_rounds_n_down(self, tmp_path):
        out = tmp_path / "blocks.csv"
        code = run(["blocks", "--n", "1030", "--alpha", "3", "--c", "0.9", "--ms", "16,32",
                    "--reps", "2", "--seed", "3", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        by_m = {int(r["m"]): r for r in rows}
        assert int(by_m[16]["n"]) == 1024
        assert int(by_m[32]["n"]) == 1024

    def test_triangles(self, tmp_path):
        out = tmp_path / "tri.csv"
        code = run(["triangles", "--n", "500", "--alpha", "1.5", "--c", "1.2",
                    "--reps", "3", "--seed", "6", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        params = ModelParams.make(500, 1.5, 1.2, seed=6)
        expected = []
        for rep in range(3):
            st = triangle_stats(sample_fast(params, replicate=rep))
            expected.append(
                {
                    "replicate": str(rep),
                    "triangles_per_vertex": format_float(st.triangles_per_vertex),
                    "mean_degree": format_float(st.mean_degree),
                    "second_neighbors_per_vertex": format_float(st.second_neighbors_per_vertex),
                }
            )
        assert rows == expected

    def test_sprinkle(self, tmp_path):
        out = tmp_path / "spr.csv"
        code = run(["sprinkle", "--n", "2000", "--alpha", "1", "--cprime", "1.5",
                    "--delta", "0.5", "--omega", "50", "--reps", "3", "--seed", "4",
                    "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(r["nested_ok"] == "True" for r in rows)

    def test_probe_with_powerlog_kernel(self, tmp_path):
        out = tmp_path / "probe.csv"
        code = run(["probe", "--kernel", "powerlog:alpha=1.0,beta=1.0", "--cs", "2",
                    "--ns", "200,400", "--reps", "2", "--seed", "8", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["kernel"] == "powerlog:alpha=1.0,beta=1.0"

    def test_custom_kernel_file(self, tmp_path):
        kern = tmp_path / "k.txt"
        kern.write_text("".join(f"{d} {1.0/d}\n" for d in range(1, 101)))
        out = tmp_path / "g.edges"
        code = run(["sample", "--n", "200", "--kernel", f"custom:{kern}", "--c", "1.5",
                    "--seed", "9", "--out", str(out)])
        assert code == 0
        graph, header = read_edge_list(out)
        assert graph.n == 200
        assert header["alpha"].startswith("custom:")


class TestSidecars:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "200", "--alpha", "1", "--c", "2", "--seed", "3"],
            ["components"],
            ["sweep", "--alphas", "1,inf", "--cs", "0.5,2", "--ns", "64", "--reps", "2",
             "--workers", "1"],
            ["probe", "--kernel", "powerlog:alpha=1.0,beta=1.0", "--cs", "2", "--ns", "64,128",
             "--reps", "2", "--workers", "1"],
            ["blocks", "--n", "256", "--alpha", "3", "--c", "0.9", "--ms", "16,32", "--reps", "2",
             "--workers", "1"],
            ["triangles", "--n", "200", "--alpha", "1.5", "--c", "1.2", "--reps", "2"],
            ["sprinkle", "--n", "200", "--alpha", "1", "--cprime", "1.5", "--delta", "0.5",
             "--omega", "5", "--reps", "2", "--workers", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_sidecar_echoes_the_parsed_argv(self, tmp_path, argv):
        if argv[0] == "components":
            edges = str(tmp_path / "in.edges")
            assert run(["sample", "--n", "200", "--alpha", "1", "--c", "2", "--out", edges]) == 0
            argv = [*argv, "--in", edges]
        argv = [*argv, "--out", str(tmp_path / "out")]
        assert run(argv) == 0
        text = (tmp_path / "out.json").read_text()
        assert text.endswith("}\n")
        sidecar = json.loads(text)
        parsed = vars(build_parser().parse_args(argv))
        del parsed["func"]

        def echo(value):  # a list flag as a list, inf as the text --alpha accepts
            if isinstance(value, tuple):
                return [echo(v) for v in value]
            return "inf" if value == math.inf else value

        assert sidecar == {"config": {k: echo(v) for k, v in parsed.items()}}

    @pytest.mark.parametrize(
        "argv, key, echo",
        [
            pytest.param(["sample", "--n", "100", "--alpha", "inf", "--c", "1.5"],
                         "alpha", "inf", id="sample"),
            pytest.param(["sweep", "--alphas", "0,inf", "--cs", "2", "--ns", "64", "--reps", "2",
                          "--workers", "1"], "alphas", [0.0, "inf"], id="sweep"),
        ],
    )
    def test_infinite_alpha_is_strict_json(self, tmp_path, argv, key, echo):
        # RFC 8259 has no Infinity: the sidecar writes the text --alpha accepts
        assert run([*argv, "--out", str(tmp_path / "out")]) == 0

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        sidecar = json.loads((tmp_path / "out.json").read_text(), parse_constant=refuse)
        assert sidecar["config"][key] == echo

    def test_outputs_get_the_mode_open_would_give_them(self, tmp_path):
        # an edge list, a CSV and their sidecars: 0o666 less a umask of 022
        edges, csv_out = tmp_path / "g.edges", tmp_path / "c.csv"
        old = os.umask(0o022)
        try:
            assert run(["sample", "--n", "200", "--alpha", "1", "--c", "2", "--out", str(edges)]) == 0
            assert run(["components", "--in", str(edges), "--out", str(csv_out)]) == 0
        finally:
            os.umask(old)
        outputs = [edges, Path(f"{edges}.json"), csv_out, Path(f"{csv_out}.json")]
        assert sorted(tmp_path.iterdir()) == sorted(outputs)
        assert [oct(path.stat().st_mode & 0o777) for path in outputs] == ["0o644"] * 4


class TestErrorPaths:
    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--n", "100"])  # missing --c/--out
        assert exc.value.code == 2

    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_runtime_error_exit_1(self, tmp_path, capsys):
        # neither --alpha nor --kernel: a malformed argv, so exit 2
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--n", "100", "--c", "2", "--seed", "1",
                  "--out", str(tmp_path / "x.edges")])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sample", "--n", "10", "--c", "1"], "one of the arguments --alpha --kernel"),
            (["sample", "--n", "10", "--alpha", "1", "--kernel", "nn", "--c", "1"],
             "argument --kernel:"),
            (["sample", "--n", "10", "--kernel", "bogus", "--c", "1"], "argument --kernel:"),
            (["sample", "--n", "10", "--kernel", "power:beta=1", "--c", "1"],
             "argument --kernel:"),
            (["gw-rho", "--c", "2", "--n", "100"], "argument --n:"),
            (["gw-rho", "--c", "2", "--alpha", "1"], "argument --alpha:"),
            (["gw-rho", "--c", "2", "--n", "100", "--alpha", "inf"], "argument --alpha:"),
            (["gw-rho", "--c", "0.5", "--tol", "-1"], "argument --tol:"),
            (["gw-rho", "--c", "2", "--tol", "0"], "argument --tol:"),
            (["blocks", "--n", "1000000", "--alpha", "1", "--c", "1", "--ms", "3,500000",
              "--reps", "4", "--workers", "1"], "argument --ms:"),
            # 4 blocks of 64 allow block distances up to 2
            (["blocks", "--n", "256", "--alpha", "1", "--c", "1", "--ms", "16,64",
              "--block-distance", "3"], "argument --ms:"),
            # ring sizes whose int64 pair keys would overflow
            (["sample", "--n", "5e9", "--alpha", "1", "--c", "1"], "argument --n: ring size"),
            (["blocks", "--n", "5e9", "--alpha", "3", "--c", "1", "--ms", "16"],
             "argument --n: ring size"),
            (["triangles", "--n", "5e9", "--alpha", "1", "--c", "1"], "argument --n: ring size"),
            (["sprinkle", "--n", "5e9", "--alpha", "1", "--cprime", "1", "--delta", "0.5"],
             "argument --n: ring size"),
            (["sweep", "--alphas", "1", "--cs", "1", "--ns", "64,5e9", "--reps", "1"],
             f"argument --ns: ring size '5e9' exceeds {MAX_PAIR_KEY_N}"),
            (["probe", "--kernel", "nn", "--cs", "1", "--ns", "5e9", "--reps", "1"],
             "argument --ns: ring size"),
            # master seeds are 64-bit unsigned integers
            (["sample", "--n", "100", "--alpha", "1", "--c", "1", "--seed", "-1"],
             "argument --seed: expected integer >= 0 and < 18446744073709551616, got '-1'"),
            (["sweep", "--alphas", "1", "--cs", "1", "--ns", "64",
              "--seed", "18446744073709551616"],
             "argument --seed: expected integer >= 0 and < 18446744073709551616"),
            # values that start with a minus sign and a digit go to the flag's type
            (["sweep", "--alphas", "1", "--cs", "-1,2", "--ns", "64"],
             "argument --cs: expected number >= 0, got '-1'"),
            (["sample", "--n", "100", "--alpha", "1", "--c", "-1e-3"],
             "argument --c: expected number >= 0, got '-1e-3'"),
            (["sample", "--n", "-1e5", "--alpha", "1", "--c", "1"],
             "argument --n: expected integer >= 2, got '-1e5'"),
            # a kernel parameter is given once
            (["sample", "--n", "100", "--kernel", "power:alpha=1,alpha=3", "--c", "1"],
             "argument --kernel: kernel parameter 'alpha' given twice"),
            (["probe", "--kernel", "powerlog:alpha=1,beta=1,beta=2", "--cs", "1", "--ns", "100"],
             "argument --kernel: kernel parameter 'beta' given twice"),
        ],
    )
    def test_malformed_argv_exits_2_before_sampling(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("ran before the argv was checked")

        monkeypatch.setattr("alphagraph.experiments._run_replicates", no_sampling)
        monkeypatch.setattr("alphagraph.cli.sample_fast", no_sampling)
        monkeypatch.setattr("alphagraph.branching.extinction", no_sampling)
        out = tmp_path / "x"
        if argv[0] != "gw-rho":
            argv = [*argv, "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "100", "--c", "1", "--kernel"],
            ["probe", "--cs", "1", "--ns", "100", "--kernel"],
        ],
    )
    def test_unreadable_custom_kernel_exits_1(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        code = main([*argv, f"custom:{tmp_path / 'missing.txt'}", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing.txt" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "table, message",
        [
            ("1 1.0\n1 0.5\n2 0.4\n3 0.3\n", "k.txt:2: distance d=1 appears twice"),
            ("1 inf\n2 0.5\n3 0.3\n", "kernel values must be finite and positive"),
            ("1 nan\n2 0.5\n3 0.3\n", "kernel values must be finite and positive"),
            ("# d f(d)\n1 1.0\n2 0.5 0.1\n3 0.3\n", "k.txt:3: expected two fields 'd f(d)', got 3"),
        ],
        ids=["repeated-d", "inf", "nan", "three-fields"],
    )
    def test_malformed_custom_table_exits_1(self, tmp_path, capsys, table, message):
        path = tmp_path / "k.txt"
        path.write_text(table)
        out = tmp_path / "x"
        argv = ["sample", "--n", "6", "--c", "1", "--kernel", f"custom:{path}", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sample", "--n", "100", "--alpha", "nan", "--c", "2"], "alpha"),
            (["sample", "--n", "100", "--alpha=-inf", "--c", "2"], "alpha"),
            (["sample", "--n", "100", "--alpha", "1", "--c", "inf"], "finite"),
            (["sample", "--n", "100", "--alpha", "1", "--c", "nan"], "finite"),
            (["sample", "--n", "inf", "--alpha", "1", "--c", "2"], "finite"),
            (["sample", "--n", "nan", "--alpha", "1", "--c", "2"], "finite"),
            (["gw-rho", "--c", "nan"], "finite"),
            (["gw-rho", "--c", "2", "--tol", "nan"], "finite"),
            (["sprinkle", "--n", "100", "--alpha", "1", "--cprime", "nan", "--delta", "0.5"], "finite"),
            (["sprinkle", "--n", "100", "--alpha", "1", "--cprime", "1.5", "--delta", "inf"], "finite"),
            (["sweep", "--alphas", "1,nan", "--cs", "2", "--ns", "100"], "alpha"),
            (["sweep", "--alphas", "1", "--cs", "0.5,inf", "--ns", "100"], "finite"),
            (["sweep", "--alphas", "1", "--cs", "2", "--ns", "100,inf"], "finite"),
            (["probe", "--kernel", "nn", "--cs=-inf", "--ns", "100"], "finite"),
        ],
    )
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x"
        if argv[0] != "gw-rho":
            argv = [*argv, "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_largest_ring_size_parses(self):
        # parsed only: sampling at this size would need ~10^9 classes
        parser = build_parser()
        top = str(MAX_PAIR_KEY_N)
        args = parser.parse_args(["sample", "--n", top, "--alpha", "1", "--c", "1", "--out", "x"])
        assert args.n == MAX_PAIR_KEY_N
        args = parser.parse_args(["sweep", "--alphas", "1", "--cs", "1", "--ns", f"64,{top}", "--out", "x"])
        assert args.ns == (64, MAX_PAIR_KEY_N)
        # gw-rho's --n builds no pair keys and stays uncapped
        args = parser.parse_args(["gw-rho", "--c", "2", "--n", "5e9", "--alpha", "1"])
        assert args.n == 5 * 10**9

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "100", "--alpha", "1", "--c=-1"],
            ["gw-rho", "--c=-0.5"],
            ["blocks", "--n", "256", "--alpha", "3", "--c=-1", "--ms", "16"],
            ["triangles", "--n", "100", "--alpha", "1", "--c=-2"],
            ["sweep", "--alphas", "1", "--cs=2,-1", "--ns", "100"],
            ["probe", "--kernel", "nn", "--cs=-1", "--ns", "100"],
            ["sprinkle", "--n", "100", "--alpha", "1", "--cprime", "1.5", "--delta=-0.5"],
            # the bound is exact: no tolerance below zero
            ["sprinkle", "--n", "100", "--alpha", "1", "--cprime", "1.5", "--delta=-1e-12"],
        ],
    )
    def test_negative_densities_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        if argv[0] != "gw-rho":
            argv = [*argv, "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert ">= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cprime", ["0", "-1"])
    def test_nonpositive_cprime_exits_2(self, tmp_path, capsys, cprime):
        # the sprinkling argument starts from a graph at c' > 0
        out = tmp_path / "x"
        argv = ["sprinkle", "--n", "100", "--alpha", "1", f"--cprime={cprime}", "--delta", "0.5",
                "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --cprime: expected number > 0" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.json").exists()

    def test_out_of_memory_exits_1_without_traceback(self, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 18.6 GiB")

        monkeypatch.setattr("alphagraph.branching.finite_degree_pgf", no_memory)
        assert run(["gw-rho", "--c", "2", "--n", "5e9", "--alpha", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory: Unable to allocate 18.6 GiB\n"
        assert captured.out == ""

    def test_gw_rho_law_that_cannot_fit_exits_1(self, capsys, monkeypatch):
        # 500 distance classes need 28 kB at 56 bytes each; none may be built
        monkeypatch.setattr("alphagraph.model._PHYSICAL_MEMORY", 10_000)
        assert run(["gw-rho", "--c", "2", "--n", "1000", "--alpha", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the degree law of n=1000 needs ~2.8e+04 bytes, "
            "more than the 10000 bytes of physical memory\n"
        )
        assert captured.out == ""
        # the call the command refused: the law takes ~28 kB, d, mu and m_pairs 12 kB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="the degree law of n=1000 needs"):
                branching.finite_degree_pgf(ModelParams.make(1000, 1.0, 2.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000

    def test_components_that_cannot_fit_exit_1(self, tmp_path, capsys, monkeypatch):
        # a header may name a ring with no rows; its labels need 25 bytes per vertex
        path = tmp_path / "empty.edges"
        path.write_text("# alphagraph v1 n=1000000 alpha=1.0 c=2.0 seed=1\n")
        monkeypatch.setattr("alphagraph.model._PHYSICAL_MEMORY", 1_000_000)
        out = tmp_path / "c.csv"
        assert run(["components", "--in", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: labelling n=1000000 vertices and 0 edges needs ~2.5e+07 bytes, "
            "more than the 1000000 bytes of physical memory\n"
        )
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [path]
        graph, _ = read_edge_list(path)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="labelling n=1000000 vertices"):
                components(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # the label array alone would take 8 MB

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "1000", "--alpha", "1", "--c", "2"],
            ["sprinkle", "--n", "1000", "--alpha", "1", "--cprime", "1.5", "--delta", "0.5",
             "--reps", "2", "--workers", "1"],
        ],
    )
    def test_run_that_cannot_fit_exits_1(self, tmp_path, capsys, monkeypatch, argv):
        # 1000 vertices and ~1000 edges need ~240 kB at 120 bytes each
        monkeypatch.setattr("alphagraph.model._PHYSICAL_MEMORY", 100_000)
        out = tmp_path / "x"
        assert run([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert "expect 1000 edges" in captured.err
        assert "100000 bytes of physical memory" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_sweep_records_a_run_that_cannot_fit(self, tmp_path, monkeypatch):
        # two n=16 rings need ~7.7 kB, two n=1000 rings ~480 kB
        monkeypatch.setattr("alphagraph.model._PHYSICAL_MEMORY", 100_000)
        out = tmp_path / "w.csv"
        assert run(["sweep", "--alphas", "1", "--cs", "2", "--ns", "16,1000", "--reps", "2",
                    "--workers", "1", "--out", str(out)]) == 0
        with open(out) as fh:
            small, big = csv.DictReader(fh)
        assert small["error"] == "" and float(small["mean_fraction"]) > 0
        assert big["error"].startswith("replicates [0, 2): ValueError: 2 ring(s) of n=1000 ")
        assert big["mean_fraction"] == "nan"

    def test_sweep_records_a_law_that_cannot_fit(self, tmp_path, monkeypatch):
        # two n=16 rings need ~7.7 kB; the n=1e6 law alone ~28 MB, at 56
        # bytes per class.  A cached law would skip the refusal.
        sampler._class_tables.cache_clear()
        monkeypatch.setattr("alphagraph.model._PHYSICAL_MEMORY", 1_000_000)
        out = tmp_path / "w.csv"
        assert run(["sweep", "--alphas", "1", "--cs", "2", "--ns", "16,1e6", "--reps", "2",
                    "--workers", "1", "--out", str(out)]) == 0
        with open(out) as fh:
            small, big = csv.DictReader(fh)
        assert small["error"] == "" and float(small["mean_fraction"]) > 0
        assert big["error"] == (
            "replicates [0, 2): ValueError: the degree law of n=1000000 needs ~2.8e+07 bytes, "
            "more than the 1000000 bytes of physical memory"
        )
        assert big["mean_fraction"] == "nan"

    @pytest.mark.parametrize(
        "argv",
        [
            ["triangles", "--n", "100", "--alpha", "1", "--c", "1", "--reps", "0"],
            ["triangles", "--n", "100", "--alpha", "1", "--c", "1", "--reps=-3"],
            ["sweep", "--alphas", "1", "--cs", "2", "--ns", "100", "--reps", "0"],
            ["probe", "--kernel", "nn", "--cs", "2", "--ns", "100", "--reps", "0"],
            ["sprinkle", "--n", "100", "--alpha", "1", "--cprime", "1.5", "--delta", "0.5",
             "--reps", "0"],
            ["blocks", "--n", "256", "--alpha", "3", "--c", "1", "--ms", "16", "--reps", "0"],
            # block sizes take the same check
            ["blocks", "--n", "100", "--alpha", "1", "--c", "1", "--ms", "0"],
            ["blocks", "--n", "256", "--alpha", "1", "--c", "1", "--ms", "16,-4"],
        ],
    )
    def test_nonpositive_reps_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert ">= 1" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-4", "abc", "1.5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--alphas", "1", "--cs", "2", "--ns", "100"],
            ["probe", "--kernel", "nn", "--cs", "2", "--ns", "100"],
            ["sprinkle", "--n", "100", "--alpha", "1", "--cprime", "1.5", "--delta", "0.5"],
            ["blocks", "--n", "256", "--alpha", "3", "--c", "1", "--ms", "16"],
        ],
    )
    def test_bad_workers_exit_2(self, tmp_path, capsys, argv, workers):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--workers={workers}", "--out", str(out)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "1", "--alpha", "1", "--c", "2"],
            ["blocks", "--n", "0", "--alpha", "1", "--c", "1", "--ms", "16"],
            ["triangles", "--n", "1", "--alpha", "1", "--c", "1"],
            ["sprinkle", "--n", "0", "--alpha", "1", "--cprime", "1.5", "--delta", "0.5"],
            ["sweep", "--alphas", "1", "--cs", "2", "--ns", "0"],
            ["sweep", "--alphas", "1", "--cs", "2", "--ns", "100,1"],
            ["probe", "--kernel", "nn", "--cs", "2", "--ns", "-5"],
            ["gw-rho", "--c", "2", "--n", "1", "--alpha", "1"],
        ],
    )
    def test_ring_sizes_below_two_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        if argv[0] != "gw-rho":
            argv = [*argv, "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert ">= 2" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["blocks", "--n", "1000", "--c", "1", "--ms", "10", "--workers", "1"],
            ["blocks", "--n", "1000", "--c", "1", "--ms", "10", "--workers", "2"],
            ["sprinkle", "--n", "1000", "--cprime", "1.5", "--delta", "0.5", "--workers", "1"],
            ["sprinkle", "--n", "1000", "--cprime", "1.5", "--delta", "0.5", "--workers", "2"],
            ["triangles", "--n", "1000", "--c", "1"],  # one process, no --workers
        ],
    )
    def test_failing_replicates_exit_1_and_are_named(self, tmp_path, capsys, argv):
        # a kernel table too short for n fails every replicate
        kern = tmp_path / "short.txt"
        kern.write_text("1 1.0\n2 0.5\n")
        out = tmp_path / "x.csv"
        code = main([*argv, "--kernel", f"custom:{kern}", "--reps", "2", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: replicates [0, " in err and "table" in err
        assert not out.exists()
        assert not (tmp_path / "x.csv.json").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["blocks", "--n", "256", "--alpha", "3", "--c", "1", "--ms", "16",
              "--block-distance", "1"], "--block-distance"),
            (["blocks", "--n", "256", "--alpha", "3", "--c", "1", "--ms", "16",
              "--block-distance=-2"], "--block-distance"),
            (["sprinkle", "--n", "100", "--alpha", "1", "--cprime", "1.5", "--delta", "0.5",
              "--omega", "0"], "--omega"),
            (["sprinkle", "--n", "100", "--alpha", "1", "--cprime", "1.5", "--delta", "0.5",
              "--omega", "log2"], "--omega"),
            (["sprinkle", "--n", "100", "--alpha", "1", "--cprime", "1.5", "--delta", "0.5",
              "--omega", "2.5"], "--omega"),
            (["sweep", "--alphas", "1", "--cs", "2", "--ns", "100", "--omega-rule", "bogus"],
             "--omega-rule"),
            (["sweep", "--alphas", "1", "--cs", "2", "--ns", "100", "--omega-rule=-3"],
             "--omega-rule"),
            (["probe", "--kernel", "nn", "--cs", "2", "--ns", "100", "--omega-rule", "bogus"],
             "--omega-rule"),
        ],
    )
    def test_malformed_cutoffs_exit_2(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("rule", ["log4", "loglog", "7"])
    def test_cutoff_rules_accepted(self, tmp_path, rule):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--alphas", "1", "--cs", "2", "--ns", "50", "--reps", "1",
                     "--omega-rule", rule, "--out", str(out)])
        assert code == 0
        assert json.loads((tmp_path / "s.csv.json").read_text())["config"]["omega_rule"] == rule

    def test_inf_alpha_still_valid(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--alphas", "inf,Infinity", "--cs", "2", "--ns", "50",
                     "--reps", "1", "--out", str(out)])
        assert code == 0


# ---------------------------------------------------------------------------
# The exit-code contract, over argvs built from the parser's own flags
# ---------------------------------------------------------------------------


def _flags_by_command() -> dict[str, list[argparse.Action]]:
    """Each subcommand's flags, as build_parser() declares them (help aside)."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [a for a in p._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
        for name, p in sub.choices.items()
    }


FLAGS = _flags_by_command()
# Well-formed values per flag destination; a flag added later draws VALID_DEFAULT.
# Ring sizes stay small, so that an argv that runs is cheap.
VALID_TOKENS = {
    "n": ["16", "100"],
    "alpha": ["0", "1", "2.5", "inf"],
    "kernel": ["nn", "power:alpha=1.0", "powerlog:alpha=1.0,beta=1.0", "custom:<dir>/none.txt"],
    "c": ["0", "0.5", "2"],
    "alphas": ["1", "0,inf"],
    "cs": ["2", "0.5,2"],
    "ns": ["16", "16,64"],
    "ms": ["2", "2,4"],
    "block_distance": ["2"],
    "omega": ["log4", "8"],
    "omega_rule": ["log4", "loglog", "8"],
    "cprime": ["0.5", "1.5"],
    "delta": ["0", "0.5"],
    "tol": ["1e-9"],
}
VALID_DEFAULT = ["1", "2"]
BOUNDARY_TOKENS = ["0", "1", "2", str(MAX_PAIR_KEY_N), str(MAX_PAIR_KEY_N + 1), str(2**64)]
MALFORMED_TOKENS = ["", "nan", "-inf", "1e400", "x", "1,,2"]


@st.composite
def argvs(draw) -> list[str]:
    """A subcommand and some of its flags.  A value is mostly well formed,
    else a boundary or malformed token; a flag without a type takes a path,
    "<in>" for --in and "<out>" otherwise."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for action in FLAGS[command]:
        if draw(st.integers(0, 15)) >= (15 if action.required else 8):
            continue
        if action.type is None:
            value = "<in>" if action.dest == "infile" else "<out>"
        else:
            kind = draw(st.integers(0, 9))
            pool = (VALID_TOKENS.get(action.dest, VALID_DEFAULT) if kind < 8
                    else BOUNDARY_TOKENS if kind < 9 else MALFORMED_TOKENS)
            value = draw(st.sampled_from(pool))
        flag = draw(st.sampled_from(action.option_strings))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


# A header field's well-formed value, then its malformed ones.
HEADER_VALUES = {
    "n": ["5", "0", "-1", "2.5", "x", "", str(MAX_PAIR_KEY_N + 1), str(2**64)],
    "alpha": ["1.0", "", "x"],
    "c": ["2.0", "-3", "nan", "1e400", "x"],
    "seed": ["1", "-1", str(2**64), "x"],
}
FLAWS = ("field count", "field value", "odd field", "magic", "row", "byte")


@st.composite
def edge_files(draw) -> bytes:
    """Edge-list bytes with up to two kinds of flaw: header fields missing,
    repeated, malformed or odd, a bad first token, a ragged or malformed
    row, or a byte that is not UTF-8."""
    flaws = draw(st.sets(st.sampled_from(FLAWS), max_size=2))

    def pick(flaw, good, bad):
        return draw(st.sampled_from(bad)) if flaw in flaws and draw(st.booleans()) else good

    fields = [
        f"{key}={pick('field value', good, bad)}"
        for key, (good, *bad) in HEADER_VALUES.items()
        for _ in range(pick("field count", 1, [0, 2]))
    ]
    fields += pick("odd field", [], [["odd=1"], ["n"], ["="], ["n==2"]])
    header = " ".join([pick("magic", "# alphagraph v1", ["", "# alphagraph v2"]),
                       *draw(st.permutations(fields))])
    rows = draw(st.lists(st.sampled_from(["0 1", "1 2", "4 2", "3 4", "0 4"]), max_size=4))
    rows.insert(0, pick("row", "1 3", ["1 1", "0 5", "-1 2", "3", "1 2 3", "1.5 2", "x 1"]))
    data = ("\n".join([header, *rows]) + "\n").encode()
    at = draw(st.integers(0, len(data)))
    return data[:at] + pick("byte", b"", [b"\xff", b"\xc3("]) + data[at:]


@pytest.fixture
def reached(monkeypatch) -> list:
    """The names of the sampling and reading entry points a command reached.

    Each still runs.  Drivers run at most two replicates each, in this
    process, and no draw may exceed 256 MiB, so every argv is cheap.
    """
    names: list = []

    def recorded(name, real):
        def call(*args, **kwargs):
            names.append(name)
            return real(*args, **kwargs)
        return call

    run_replicates = experiments._run_replicates

    def at_most_two_in_process(run, cells, replicates, workers):
        return run_replicates(run, cells, min(replicates, 2), 1)

    monkeypatch.setattr(experiments, "_run_replicates",
                        recorded("replicates", at_most_two_in_process))
    monkeypatch.setattr(cli, "sample_fast", recorded("sample_fast", cli.sample_fast))
    monkeypatch.setattr(cli, "read_edge_list", recorded("read_edge_list", cli.read_edge_list))
    monkeypatch.setattr(branching, "extinction", recorded("extinction", branching.extinction))
    monkeypatch.setattr("alphagraph.model._PHYSICAL_MEMORY", 1 << 28)
    return names


class TestExitCodeContract:
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=argvs(), edges=edge_files())
    def test_exit_codes(self, reached, capsys, argv, edges):
        with tempfile.TemporaryDirectory() as tmp:
            infile, out = Path(tmp, "in.edges"), Path(tmp, "out")
            infile.write_bytes(edges)
            paths = {"<in>": str(infile), "<out>": str(out), "<dir>": tmp}
            for key, path in paths.items():
                argv = [token.replace(key, path) for token in argv]
            reached.clear()
            capsys.readouterr()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 2
                assert reached == []  # nothing was drawn or read
            event(f"{argv[0]} exits {code}")  # shown by --hypothesis-show-statistics
            err = capsys.readouterr().err
            files = sorted(os.listdir(tmp))
            if code == 0:
                wrote = [out.name, f"{out.name}.json"] if str(out) in " ".join(argv) else []
                assert files == sorted([infile.name, *wrote])
            else:
                assert code in (1, 2)
                assert files == [infile.name]  # no output, sidecar or temp file
            if code == 1:
                assert err.startswith("error: ") and len(err.splitlines()) == 1
