"""Frozen digests of whole CLI runs.

Each case runs its argv through ``cli.main`` in an empty working directory,
with relative paths, so the sidecars' echo of the argv does not depend on
where the test runs.  The digest is a blake2b hash over the exit code,
stdout, stderr and the name and bytes of every file in the directory
afterwards (inputs, outputs and ``.json`` sidecars).  Commands that take
``--workers`` run at one and at two workers; the sidecar echoes the count,
so each has its own digest.  The refusals print the machine's memory, so
those cases fix ``model._PHYSICAL_MEMORY``.

Never regenerate a digest to make a change pass; a change that alters an
output on purpose must name the digests it re-freezes and say why.
"""

import hashlib
import os

import pytest

from alphagraph.cli import main

SAMPLE = ["sample", "--n", "1000", "--alpha", "1", "--c", "2", "--seed", "7", "--out", "g.edges"]
# An edge list whose header lacks n: read_edge_list refuses it, exit 1.
NO_N = ("no-n.edges", "# alphagraph v1 alpha=1.0 c=2.0 seed=1\n0 1\n")
# A header naming 10^6 vertices and no rows: labelling it needs ~2.5e7 bytes.
WIDE = ("wide.edges", "# alphagraph v1 n=1000000 alpha=1.0 c=2.0 seed=1\n")

# id -> (argv, takes --workers, setup argvs run first, input files, physical memory)
CASES = {
    "sample": (SAMPLE, False, [], [], None),
    "components-stdout": (["components", "--in", "g.edges"], False, [SAMPLE], [], None),
    "components-out": (["components", "--in", "g.edges", "--out", "c.csv"], False, [SAMPLE], [],
                       None),
    "gw-rho-poisson": (["gw-rho", "--c", "2"], False, [], [], None),
    "gw-rho-finite": (["gw-rho", "--c", "2", "--n", "1000", "--alpha", "1"], False, [], [], None),
    "sweep": (["sweep", "--alphas", "0,1,inf", "--cs", "0.5,2", "--ns", "2,64,256", "--reps", "6",
               "--seed", "3", "--out", "w.csv"], True, [], [], None),
    "probe": (["probe", "--kernel", "powerlog:alpha=1.0,beta=1.0", "--cs", "2", "--ns", "64,256",
               "--reps", "4", "--seed", "3", "--out", "p.csv"], True, [], [], None),
    "blocks": (["blocks", "--n", "1024", "--alpha", "3", "--c", "0.9", "--ms", "16,32", "--reps",
                "4", "--out", "b.csv"], True, [], [], None),
    # more than 1000 blocks: 2048 and 1024 ring positions per replicate
    "blocks-many": (["blocks", "--n", "4096", "--alpha", "3", "--c", "0.9", "--ms", "2,4",
                     "--reps", "4", "--out", "b.csv"], True, [], [], None),
    "blocks-distance": (["blocks", "--n", "1024", "--alpha", "3", "--c", "0.9", "--ms", "16,32",
                         "--reps", "4", "--block-distance", "3", "--out", "b.csv"], True, [], [],
                        None),
    "triangles": (["triangles", "--n", "1000", "--alpha", "1.5", "--c", "1.2", "--reps", "2",
                   "--out", "t.csv"], False, [], [], None),
    "sprinkle": (["sprinkle", "--n", "2000", "--alpha", "1", "--cprime", "1.5", "--delta", "0.5",
                  "--omega", "50", "--reps", "4", "--out", "s.csv"], True, [], [], None),
    # neither --alpha nor --kernel: a malformed argv, exit 2
    "exit-2": (["sample", "--n", "10", "--c", "1", "--out", "bad.edges"], False, [], [], None),
    "exit-1": (["components", "--in", "no-n.edges"], False, [], [NO_N], None),
    "refused-draw": (["sample", "--n", "1000", "--alpha", "1", "--c", "2", "--out", "x.edges"],
                     False, [], [], 100_000),
    "refused-law": (["gw-rho", "--c", "2", "--n", "1000", "--alpha", "1"], False, [], [], 10_000),
    "refused-labels": (["components", "--in", "wide.edges", "--out", "c.csv"], False, [], [WIDE],
                       1_000_000),
}

DIGESTS = {
    "sample": "4d9cdfe985b3fd5a9eba5c39b0d547a9",
    "components-stdout": "15b18f8beb8d2b417dd2411f940955f6",
    "components-out": "f93b51b3cd08550ef195c48821ee5c05",
    "gw-rho-poisson": "a758165497997a4f4ef20fe7a4501c81",
    "gw-rho-finite": "b035f7a5c9c64b1f03bbc8cc923bb99e",
    "sweep-w1": "a3891de1e6d511d51b917374927ec294",
    "sweep-w2": "c1ce1cfbd290d21f8252e43631b9a652",
    "probe-w1": "2005810fbeb8a78daf23f16971988942",
    "probe-w2": "5b0aac0078affe25c17bf075fed12109",
    "blocks-w1": "4e2c8b8ea4d51c8cce28202dc0e91e23",
    "blocks-w2": "f383dd59bfbfe3e57b29baf80105450b",
    "blocks-many-w1": "da9f70a42a88fb06e89198ae23030c35",
    "blocks-many-w2": "41494338e1d2493dd2d95d0e7352f7aa",
    "blocks-distance-w1": "65c6ade5a146a48b3c9c1b1237818095",
    "blocks-distance-w2": "47d21497744b1a138f66304a28e99555",
    "triangles": "11b5bab26e1fa9c817298243c77c9274",
    "sprinkle-w1": "6d1b639fdf56247953232f752eedd95d",
    "sprinkle-w2": "48d76128e893606b78a5d77495408f3c",
    "exit-2": "1fa3e05c2514dbe6dd20cb2867189f88",
    "exit-1": "a813b598c2bb25ab627a576c9673c1fc",
    "refused-draw": "2b8d5cc2de18b57400df0fdd321730bf",
    "refused-law": "7f0ff2053454bdca5194743b535f71f6",
    "refused-labels": "25cb6f524135c3e37574d3d0139e5f5c",
}


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_digest(argv, setup, inputs, memory, *, cwd, capsys, monkeypatch) -> str:
    """Digest of one run of argv in the empty directory cwd (see the module docstring)."""
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal width
    for name, text in inputs:
        (cwd / name).write_text(text)
    for pre in setup:
        assert main(pre) == 0
    if memory is not None:
        monkeypatch.setattr("alphagraph.model._PHYSICAL_MEMORY", memory)
    capsys.readouterr()
    code = _exit_code(argv)
    out, err = capsys.readouterr()
    h = hashlib.blake2b(digest_size=16)
    for part in (str(code), out, err):
        h.update(part.encode() + b"\0")
    for name in sorted(os.listdir(cwd)):
        h.update(name.encode() + b"\0" + (cwd / name).read_bytes() + b"\0")
    return h.hexdigest()


RUNS = [
    pytest.param(name, workers, id=f"{name}-w{workers}" if workers else name)
    for name, (_, takes_workers, *_rest) in CASES.items()
    for workers in ((1, 2) if takes_workers else (None,))
]


@pytest.mark.parametrize("name, workers", RUNS)
def test_cli_run_digest(name, workers, request, tmp_path, capsys, monkeypatch):
    argv, _, setup, inputs, memory = CASES[name]
    if workers:
        argv = [*argv, "--workers", str(workers)]
    got = run_digest(argv, setup, inputs, memory, cwd=tmp_path, capsys=capsys,
                     monkeypatch=monkeypatch)
    assert got == DIGESTS[request.node.callspec.id]
