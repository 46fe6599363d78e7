"""Frozen digests of sampled graphs and of edge-file bytes.

Each digest is a blake2b hash over a fixed grid of (n, alpha, c, replicate).
The expected values were computed once, before the np.unique-free class
selection and the bulk edge-file writers, so they pin the determinism
contract: a change that moves a single sampled bit or output byte fails
here.  Never regenerate them to make a change pass; a change that alters
bits on purpose must say so and justify it.
"""

import hashlib
import math

import numpy as np
import pytest

from alphagraph.model import ModelParams, PowerLawKernel, parse_kernel
from alphagraph.sampler import (
    Filtration,
    Graph,
    sample_fast,
    sample_filtration,
    sample_naive,
    write_edge_list,
    write_filtration,
)

SEED = 20240607
GRID_N = (2, 3, 17, 64, 1024, 4099, 100_000)
NAIVE_N = (2, 3, 17, 64, 1024, 4099)
ALPHAS = (0.0, 0.5, 1.0, 2.0, 3.0, math.inf)
CS = (0.5, 2.0, 30.0)


def _replicates(n: int) -> tuple[int, ...]:
    return (0,) if n >= 4099 else (0, 1, 5)


def _update(h, *arrays: np.ndarray) -> None:
    for a in arrays:
        h.update(np.int64(a.shape[0]).tobytes())
        h.update(a.tobytes())


def _grid_digest(n: int, alpha: float, draw) -> str:
    h = hashlib.blake2b(digest_size=16)
    for c in CS:
        for rep in _replicates(n):
            _update(h, *draw(n, alpha, c, rep))
    return h.hexdigest()


def _fast(n, alpha, c, rep):
    g = sample_fast(ModelParams.make(n, alpha, c, seed=SEED), replicate=rep)
    return (g.edges.astype("<i8"),)


def _filtration(n, alpha, c, rep):
    kernel = ModelParams.make(n, alpha, c).kernel
    f = sample_filtration(n, kernel, c, SEED, replicate=rep)
    return f.edges.astype("<i8"), f.activation.astype("<f8")


def _naive(n, alpha, c, rep):
    g = sample_naive(ModelParams.make(n, alpha, c, seed=SEED), replicate=rep)
    return (g.edges.astype("<i8"),)


FAST = {2: {0.0: "4dc3e409dc55d68d92d1087fd10abb8f",
     0.5: "325f0524391932324e86ad74b2616d56",
     1.0: "4a087551bd91f412e3cd3bfb64bab069",
     2.0: "4a087551bd91f412e3cd3bfb64bab069",
     3.0: "4dc3e409dc55d68d92d1087fd10abb8f",
     math.inf: "325f0524391932324e86ad74b2616d56"},
 3: {0.0: "957a8e156ad3038760d4eee6459b5de1",
     0.5: "eb41ef52b5d209bd4b1f53c0ab5a4dd6",
     1.0: "3ccfe5d15973e4eb08961de3bdb5eb94",
     2.0: "eb41ef52b5d209bd4b1f53c0ab5a4dd6",
     3.0: "563f0b27d0d0ce16c9ec10e856833f81",
     math.inf: "63e9f64a5ee53e84f54e2147fdc30708"},
 17: {0.0: "5ec70b030745297d70401404ebd4ec81",
      0.5: "94f7eae23b7555d48368921fd1574df5",
      1.0: "87699ff7db8e4273a966c796e8aeda70",
      2.0: "3174c827c6c4d02b80aa6065102189e7",
      3.0: "d522b2f26e0cacde205aa0faf775e44b",
      math.inf: "e6b8168ea221fa1c9692f3f633d405b0"},
 64: {0.0: "c0e40d0d87b682f5d156bfae0ea057c8",
      0.5: "a3cfdd3f13180e64fb77d206a6cc66d9",
      1.0: "198dc2624c6d28b6d3f8919850a0eb33",
      2.0: "e99f6d6a3a6697ddd36b4ef5dbda07f3",
      3.0: "3b3a6f1520fe9155943f40c2ca9bce64",
      math.inf: "061e991ab5940426ca67b7527bd51596"},
 1024: {0.0: "5ac72a9166b492d4540a52007f349348",
        0.5: "2cdee6c04163c3eac174cf2985a66e82",
        1.0: "b1fc4ca83296b33f2d942292b83d34ca",
        2.0: "8decabc6c04e86541d566a8beab2c128",
        3.0: "c6d584c8b79428441d2988198b474671",
        math.inf: "e948c1e738eac20e77b2b4fce5d17bd2"},
 4099: {0.0: "6ba852949b05a2f441ed217de7c89946",
        0.5: "d52cd11994625f2713081ea881534239",
        1.0: "8f405e9578c008fcf068164e78007a2d",
        2.0: "2154df2012177e819f3e874fa4c2e7ce",
        3.0: "9f30b1bc4ab35388664b226ec0a80fe6",
        math.inf: "7b34c97befca20fa374f4e7236f7a210"},
 100000: {0.0: "838e0350ba73daef69b811819bf69ebe",
          0.5: "69ede6476bace4dc63e155b43e29a388",
          1.0: "822deacbd441ae6571fffb69533bc9fb",
          2.0: "2a6cd32865049000edf1677b5f953e89",
          3.0: "234115225e662b9b331a124966a8696a",
          math.inf: "6c8f0ba3995680164a6a45dea1598884"}}

FILTRATION = {2: {0.0: "748c269c904589c8688c3fe46ec183b3",
     0.5: "9deac0bc60c78c2a2207a1d7d33961ad",
     1.0: "e6518a816dba614dcad65bb79744f482",
     2.0: "f3c3f9c4e0a2b27c6bdf5d12886e1dfc",
     3.0: "573ddbf7ef02adb4fa4277be092c6b02",
     math.inf: "0b949d83275434aebbdaddce0ef73a9c"},
 3: {0.0: "c72a6520ca1e831ef8ea3318b65578e7",
     0.5: "eddba4077ae689340ffd3af541670fce",
     1.0: "1ba603e690b2d6436a3091492466c2c2",
     2.0: "8188e087729ef6555f4b9de8e4efc88e",
     3.0: "d1bba14520595b483600f8646e0f1a11",
     math.inf: "607bb6fc1b8f3800e101c5d804e94b5f"},
 17: {0.0: "b19be51315d2e74f66b8703372ecfe33",
      0.5: "749409a5f4049bdcb2119d5c4e14975f",
      1.0: "0458d994208396c5d6536556098a3c84",
      2.0: "230ba545d662aa8527e4ec0c6b4e45cf",
      3.0: "b1d2931c511010fdd958f66d52c09349",
      math.inf: "5faaede1f477dbb4857840e3c04af519"},
 64: {0.0: "53bf11811c2a48aba9955ae286672e5e",
      0.5: "3f30dc696179a36ff64b0bfb91e8d6ce",
      1.0: "4d81d1e7eff2c8013116b9240e807a95",
      2.0: "c113dd737d7efa4508faaade748fbd6b",
      3.0: "b76cb23fb96068c0241b604a3cbd58e3",
      math.inf: "5da60ec8c5b7d6f6cf67b6f1a75bf439"},
 1024: {0.0: "f4001a1af555bd609f53c78f46929284",
        0.5: "2f5009dfc83bbd17faf2641b580990db",
        1.0: "24b5f638158af605d442cc14f9dc86aa",
        2.0: "d34febe52c4092d4f25b1340a09b0778",
        3.0: "f0d821bdab72cc758e35ae4675fb2cb5",
        math.inf: "1c8d2607cd3a1144ac444cc5b18e66d3"},
 4099: {0.0: "3ec338b37403bd6e19ad260190b7e3dd",
        0.5: "27ac3b14ad7f275f741634e18a351188",
        1.0: "c7132e7cce53f4ea863e7a05d51bd152",
        2.0: "6bf98af965ddc4fc5f9bdd7b86012b2a",
        3.0: "c0150db6d90570648bb0b4374e5a6c7e",
        math.inf: "86e671c8e55b7f25800a3a2acc64b7cc"},
 100000: {0.0: "c8be6bee306476e45f85cf763668ce67",
          0.5: "6b033507b67fbd687ca6a83eb00f2e1d",
          1.0: "a122d0e2be865e23878572e8fc07f594",
          2.0: "1499fcfe38b8d0a9700161ce26ddca25",
          3.0: "91c2162347a2a0d9f29ac7fd1b747f89",
          math.inf: "b775042273e2d62a6ced437a1f254309"}}

NAIVE = {2: {0.0: "dec74916da54b197deea3759c48295e5",
     0.5: "4dc3e409dc55d68d92d1087fd10abb8f",
     1.0: "4dc3e409dc55d68d92d1087fd10abb8f",
     2.0: "dec74916da54b197deea3759c48295e5",
     3.0: "325f0524391932324e86ad74b2616d56",
     math.inf: "4dc3e409dc55d68d92d1087fd10abb8f"},
 3: {0.0: "02e0ab89527f70fcffb352532cb81e43",
     0.5: "d28c4869e2de05c2edb6c09fa6b05f2a",
     1.0: "f54944f65ccae2784fb5260ee88e2398",
     2.0: "28eb9549f8a7acbd671437e9df75c5e2",
     3.0: "9828764ddf6449ba946d7d458d35d2d3",
     math.inf: "1ff013cce02ab4fa14c034a0f7baf8bd"},
 17: {0.0: "0978a52cfd2f61b91dc9764b56ef60ba",
      0.5: "7f258d6ebdac4c140b95eecd0c3beb6a",
      1.0: "b7188acb4370b237ad3b2f4af0eaaffe",
      2.0: "edfe897ee560badd14fb59d6f67ee19f",
      3.0: "4f416409feef0122693262984ecb327f",
      math.inf: "f28df9a56f32c4d100f4ad506274f292"},
 64: {0.0: "fbf1c7f479353e3a262da9dd096e3403",
      0.5: "6b5ed0b1e5eb001c17d01af3689e4bc7",
      1.0: "3f5dadc0692d990d5f0b3df829626a2c",
      2.0: "7fbf6a28430a6e018dc5face1625fa7b",
      3.0: "42eb849acf2406ff8dfde0e2351e54e3",
      math.inf: "2551f1acf573e54b9c05d19dcba76a6c"},
 1024: {0.0: "7d397b6bed63a9af87a995e462a8a5e1",
        0.5: "abee51005a2dba7c37c540f6dc665a65",
        1.0: "4a9dbd374c1bb72b46ccdec7f8907d5c",
        2.0: "79eb3920d9b94ac8e7095664f6325c25",
        3.0: "d29a344205fa37cbce75be0898b36174",
        math.inf: "2421502ec9423931278ca1769e8820ad"},
 4099: {0.0: "abe27293852ef9f4285f725a5080ea68",
        0.5: "0316ea644b8a00107845410b95ea531d",
        1.0: "5b282fbf52217eebc6d874b608881f4c",
        2.0: "9f06d2472f5c47c0edb8926299d89891",
        3.0: "7fe6fecca61a05a21352f70f482f6647",
        math.inf: "038d2334f245e7217585f55daed4fbfc"}}

FILES = {"edges_n1000_a1_c2": "2c475733ecf1944dbaf1f62c95ca1a4b",
 "edges_n4099_ainf": "73ed6297b09d742c33213472bf6bdc7c",
 "edges_powerlog": "9584595fa75d38fa7b28d5e0b63fbdd0",
 "edges_empty": "c6b59455143ba903df79073e7bbf2f46",
 "filtration_n1000_a1_c2": "3d9f2ca55bf213d9b80915cbeb6e2886",
 "filtration_nn": "5b4df4dfc218034dcdfe0a6a1e841bda",
 "filtration_empty": "cf309975676a0529a2edeaa74b9c2e03",
 "filtration_extreme": "0a3bcd06ae125be334ed7cc66bc3d23a"}


def _digests(n: int, draw) -> dict[float, str]:
    return {alpha: _grid_digest(n, alpha, draw) for alpha in ALPHAS}


@pytest.mark.parametrize("n", GRID_N)
def test_sample_fast_digests(n):
    assert _digests(n, _fast) == FAST[n]


@pytest.mark.parametrize("n", GRID_N)
def test_sample_filtration_digests(n):
    assert _digests(n, _filtration) == FILTRATION[n]


@pytest.mark.parametrize("n", NAIVE_N)
def test_sample_naive_digests(n):
    assert _digests(n, _naive) == NAIVE[n]


def _file_cases():
    """(name, writer) pairs; each writer puts one file at the given path."""
    empty = np.empty((0, 2), dtype=np.int64)
    powerlog = parse_kernel("powerlog:alpha=1.0,beta=2.0")
    g1000 = ModelParams.make(1000, 1.0, 2.0, seed=SEED)
    ginf = ModelParams.make(4099, math.inf, 1.5, seed=SEED)
    gpl = ModelParams(n=500, c=3.0, kernel=powerlog, seed=SEED)
    empty_params = ModelParams.make(5, 1.0, 0.0, seed=SEED)
    # Activations spanning the %.17g fixed/exponent switch and the subnormals.
    extreme = Filtration(
        10,
        2.0,
        PowerLawKernel(0.5),
        np.array([[0, 1], [0, 9], [2, 5], [3, 4], [7, 8]]),
        np.array([5e-324, 1e-5, 0.1, 1.9999999999999998, 2.0]),
    )
    return {
        "edges_n1000_a1_c2": lambda p: write_edge_list(p, sample_fast(g1000), g1000),
        "edges_n4099_ainf": lambda p: write_edge_list(p, sample_fast(ginf), ginf),
        "edges_powerlog": lambda p: write_edge_list(p, sample_fast(gpl), gpl),
        "edges_empty": lambda p: write_edge_list(p, Graph(5, empty), empty_params),
        "filtration_n1000_a1_c2": lambda p: write_filtration(
            p, sample_filtration(1000, PowerLawKernel(1.0), 2.0, SEED, 3), SEED
        ),
        "filtration_nn": lambda p: write_filtration(
            p, sample_filtration(300, PowerLawKernel(math.inf), 1.5, SEED), SEED
        ),
        "filtration_empty": lambda p: write_filtration(
            p, Filtration(5, 1.0, PowerLawKernel(1.0), empty, np.empty(0)), SEED
        ),
        "filtration_extreme": lambda p: write_filtration(p, extreme, 7),
    }


def test_edge_file_bytes(tmp_path):
    got = {}
    for name, write in _file_cases().items():
        path = tmp_path / name
        write(path)
        got[name] = hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
    assert got == FILES
