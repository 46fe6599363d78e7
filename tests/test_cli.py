import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import alphagraph
from alphagraph.cli import build_parser, main
from alphagraph.components import components
from alphagraph.experiments import format_float, triangle_stats
from alphagraph.model import ModelParams
from alphagraph.sampler import MAX_PAIR_KEY_N, read_edge_list, sample_fast


def run(argv):
    return main(argv)


def modules_loaded_by_cli_import() -> list[str]:
    """sys.modules after a fresh process imports alphagraph.cli."""
    src = str(Path(alphagraph.__file__).resolve().parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, alphagraph, alphagraph.cli; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


class TestImports:
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

    def test_matches_in_process_sampler(self, tmp_path):
        out = tmp_path / "g.edges"
        run(["sample", "--n", "500", "--alpha", "1.0", "--c", "2", "--seed", "11",
             "--out", str(out)])
        graph, _ = read_edge_list(out)
        expected = sample_fast(ModelParams.make(500, 1.0, 2.0, seed=11))
        assert graph == expected


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
        assert sidecar["spec"]["master_seed"] == 42
        assert sidecar["config"]["command"] == "sweep"

    def test_workers_env_override_keeps_results_identical(self, tmp_path, monkeypatch):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run(["sweep", "--alphas", "1", "--cs", "2", "--ns", "300", "--reps", "3",
             "--seed", "1", "--workers", "1", "--out", str(out1)])
        monkeypatch.setenv("ALPHAGRAPH_WORKERS", "2")
        run(["sweep", "--alphas", "1", "--cs", "2", "--ns", "300", "--reps", "3",
             "--seed", "1", "--workers", "1", "--out", str(out2)])
        assert out1.read_text() == out2.read_text()


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
            # block sizes and pair caps take the same check
            ["blocks", "--n", "100", "--alpha", "1", "--c", "1", "--ms", "0"],
            ["blocks", "--n", "256", "--alpha", "1", "--c", "1", "--ms", "16,-4"],
            ["blocks", "--n", "256", "--alpha", "1", "--c", "1", "--ms", "16", "--pairs-cap", "0"],
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

    @pytest.mark.parametrize("env", ["0", "-2", "abc"])
    def test_bad_workers_env_is_named(self, tmp_path, capsys, monkeypatch, env):
        monkeypatch.setenv("ALPHAGRAPH_WORKERS", env)
        out = tmp_path / "x"
        code = main(["sweep", "--alphas", "1", "--cs", "2", "--ns", "100", "--reps", "1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "ALPHAGRAPH_WORKERS" in err and ">= 1" in err
        assert not out.exists()

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
        assert json.loads((tmp_path / "s.csv.json").read_text())["spec"]["omega_rule"] == rule

    def test_inf_alpha_still_valid(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--alphas", "inf,Infinity", "--cs", "2", "--ns", "50",
                     "--reps", "1", "--out", str(out)])
        assert code == 0
