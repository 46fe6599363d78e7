import math

import numpy as np
import pytest

from alphagraph import model
from alphagraph.model import (
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


class TestRingDistance:
    def test_adjacent(self):
        assert ring_distance(0, 1, 5) == 1

    def test_wraparound(self):
        # min(4, 5-4) = 1
        assert ring_distance(0, 4, 5) == 1

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 100])
    def test_identity(self, n):
        for u in range(min(n, 10)):
            assert ring_distance(u, u, n) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ring_distance(0, 5, 5)
        with pytest.raises(ValueError):
            ring_distance(-1, 0, 5)

    def test_symmetry_and_translation(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            u, v = int(rng.integers(n)), int(rng.integers(n))
            assert ring_distance(u, v, n) == ring_distance(v, u, n)
            assert ring_distance(u, v, n) == ring_distance(0, (v - u) % n, n)

    def test_range(self):
        for n in (5, 6):
            for u in range(n):
                for v in range(n):
                    assert 0 <= ring_distance(u, v, n) <= n // 2
                    assert (ring_distance(u, v, n) == 0) == (u == v)


class TestDistanceClasses:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 101, 1000])
    def test_pair_counts(self, n):
        d, mu, m_pairs = distance_classes(n)
        assert m_pairs.sum() == n * (n - 1) // 2
        assert mu.sum() == n - 1
        # brute-force pair counts per distance
        brute = np.zeros(n // 2 + 1, dtype=int)
        for u in range(n):
            for v in range(u + 1, n):
                brute[ring_distance(u, v, n)] += 1
        assert np.array_equal(brute[1:], m_pairs)


class TestNormalizer:
    def test_hand_sum_alpha1_n5(self):
        # distances from 0: 1, 2, 2, 1 -> 1 + 0.5 + 0.5 + 1
        assert normalizer(5, PowerLawKernel(1.0)) == pytest.approx(3.0, rel=1e-15)

    def test_alpha0_counts_vertices(self):
        assert normalizer(4, PowerLawKernel(0.0)) == pytest.approx(3.0, rel=1e-15)

    def test_hand_sum_alpha2_n6(self):
        expected = 2 * (1 + 0.25) + 1 / 9
        assert normalizer(6, PowerLawKernel(2.0)) == pytest.approx(expected, rel=1e-14)

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            alpha = float(rng.uniform(0, 3))
            k = PowerLawKernel(alpha)
            brute = math.fsum(k.f(ring_distance(0, u, n)) for u in range(1, n))
            assert normalizer(n, k) == pytest.approx(brute, rel=1e-12)

    def test_h_bounds_alpha1(self):
        # log n <= h <= 2 log n for n = 8, 16, ..., 2**20
        for exp in range(3, 21):
            n = 2**exp
            h = normalizer(n, PowerLawKernel(1.0))
            assert math.log(n) <= h <= 2 * math.log(n), (n, h)

    def test_nearest_neighbor_value(self):
        assert normalizer(100, PowerLawKernel(math.inf)) == 2.0
        assert normalizer(3, PowerLawKernel(math.inf)) == 2.0
        # n=2: a single other vertex at distance 1
        assert normalizer(2, PowerLawKernel(math.inf)) == 1.0


def _table(tmp_path, text):
    path = tmp_path / "k.txt"
    path.write_text(text, encoding="utf-8")
    return path


def _power_values(alpha, n):
    if alpha == math.inf:
        out = np.zeros(n // 2)
        out[0] = 1.0
        return out
    return np.arange(1, n // 2 + 1, dtype=np.float64) ** -alpha


def _powerlog_values(alpha, beta, n):
    d = np.arange(1, n // 2 + 1, dtype=np.float64)
    return d**-alpha * np.maximum(np.log(d), 1.0) ** -beta


class TestKernels:
    def test_powerlog_flattens_small_x(self):
        k = PowerLawKernel(1.0, 1.0)
        assert k.f(1) == 1.0
        assert k.f(2) == 0.5
        assert k.f(3) == pytest.approx(1 / (3 * math.log(3)))
        vals = k.values(200)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedKernel((1.0, 2.0))  # increasing
        with pytest.raises(ValueError):
            TabulatedKernel((1.0, 0.0))  # not positive
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                TabulatedKernel((bad, 0.5))
        k = TabulatedKernel((1.0, 0.5, 0.25))
        assert k.f(2) == 0.5
        with pytest.raises(ValueError):
            k.values(10)  # table too short for n=10

    def test_tabulated_file_roundtrip(self, tmp_path):
        path = tmp_path / "kern.txt"
        path.write_text("# comment\n1 1.0\n2 0.5\n3 0.333333\n")
        k = load_tabulated_kernel(path)
        assert k.table == (1.0, 0.5, 0.333333)
        bad = tmp_path / "gap.txt"
        bad.write_text("1 1.0\n3 0.2\n")
        with pytest.raises(ValueError):
            load_tabulated_kernel(bad)
        twice = tmp_path / "twice.txt"
        twice.write_text("1 1.0\n1 0.5\n2 0.4\n3 0.3\n")
        with pytest.raises(ValueError, match=r"twice.txt:2: distance d=1 appears twice"):
            load_tabulated_kernel(twice)
        wide = tmp_path / "wide.txt"
        wide.write_text("1 1.0\n\n2 0.5 0.1\n")
        with pytest.raises(ValueError, match=r"wide.txt:3: expected two fields 'd f\(d\)', got 3"):
            load_tabulated_kernel(wide)
        assert load_tabulated_kernel(_table(tmp_path, "1 1e0\n2 .5\n+3 2.5E-1\n")).table == (1.0, 0.5, 0.25)
        # fields are ASCII numbers without "_", d >= 1, and each refusal names file and line
        for table, message in [
            ("1 1.0\n2.5 0.5\n", ":2: distance d must be an integer >= 1, got '2.5'"),
            ("1 1.0\n1_0 0.5\n", ":2: distance d must be an integer >= 1, got '1_0'"),
            ("\uff11 1.0\n\uff12 0.5\n", ":1: distance d must be an integer >= 1, got '\uff11'"),
            ("0 1.0\n", ":1: distance d must be an integer >= 1, got '0'"),
            ("-1 1.0\n1 0.5\n", ":1: distance d must be an integer >= 1, got '-1'"),
            ("1 1.0\n2 abc\n", ":2: f(d) must be a number, got 'abc'"),
            ("1 1.0\n2 0_5\n", ":2: f(d) must be a number, got '0_5'"),
            ("1 1.0\n2 \uff10.5\n", ":2: f(d) must be a number, got '\uff10.5'"),
            ("1 1.0\n3 0.5\n", ": kernel file must cover d = 1..3 without gaps"),
            # whole-table rules name the file
            ("1 inf\n2 0.5\n", ": kernel values must be finite and positive"),
            ("1 0.5\n2 1.0\n", ": kernel values must be non-increasing in d"),
        ]:
            path = _table(tmp_path, table)
            with pytest.raises(ValueError) as err:
                load_tabulated_kernel(path)
            assert str(err.value) == f"{path}{message}", table

    def test_parse_kernel_forms(self, tmp_path):
        assert parse_kernel("power:alpha=1.5") == PowerLawKernel(1.5)
        assert parse_kernel("powerlog:alpha=1.0,beta=2.0") == PowerLawKernel(1.0, 2.0)
        assert parse_kernel("nn") == PowerLawKernel(math.inf)
        path = tmp_path / "k.txt"
        path.write_text("1 0.9\n2 0.4\n")
        assert parse_kernel(f"custom:{path}") == TabulatedKernel((0.9, 0.4))
        with pytest.raises(ValueError):
            parse_kernel("power")
        with pytest.raises(ValueError):
            parse_kernel("mystery:alpha=1")
        for spec in ("power:beta=1", "power:alpha=1,beta=2", "power:alpha=1,beta=0",
                     "powerlog:alpha=1", "powerlog:beta=1", "powerlog:alpha=1,beta=1,gamma=2"):
            with pytest.raises(ValueError, match="bad parameters"):
                parse_kernel(spec)
        for spec, key in [("power:alpha=1,alpha=3", "alpha"),
                          ("powerlog:alpha=1,beta=1,beta=2", "beta")]:
            with pytest.raises(ValueError, match=f"kernel parameter '{key}' given twice"):
                parse_kernel(spec)
        for spec, key in [("power:alpha=1_0", "alpha"), ("power:alpha=\uff11", "alpha"),
                          ("power:alpha=", "alpha"), ("powerlog:alpha=1,beta=x", "beta")]:
            with pytest.raises(ValueError, match=f"kernel parameter '{key}' must be a number"):
                parse_kernel(spec)

    def test_spec_string_roundtrip(self):
        for k in (PowerLawKernel(0.0), PowerLawKernel(1.5), PowerLawKernel(1.0, 1.0)):
            assert parse_kernel(k.spec_string()) == k
        assert parse_kernel("nn") == PowerLawKernel(math.inf)

    def test_infinite_alpha_is_nearest_neighbour_percolation(self):
        k = PowerLawKernel(math.inf)
        assert parse_kernel("power:alpha=inf") == parse_kernel("nn") == k
        assert k.spec_string() == "nn"
        assert (k.f(1), k.f(2), k.f(10**9)) == (1.0, 0.0, 0.0)
        for n in (2, 3, 4, 5, 64, 1025, 10**6):
            expected = np.zeros(n // 2)
            expected[0] = 1.0
            assert np.array_equal(k.values(n), expected), n
        for bad in (math.nan, -math.inf, -1.0):
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                PowerLawKernel(bad)
        with pytest.raises(ValueError, match="alpha must be finite"):
            PowerLawKernel(math.inf, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 3.0, math.inf])
    def test_beta_zero_is_the_power_law_bit_for_bit(self, alpha):
        k = PowerLawKernel(alpha)
        assert k == PowerLawKernel(alpha, 0.0) == PowerLawKernel(alpha, -0.0)
        assert hash(k) == hash(PowerLawKernel(alpha, -0.0))
        assert math.copysign(1.0, PowerLawKernel(alpha, -0.0).beta) == 1.0
        assert k.spec_string() == ("nn" if alpha == math.inf else f"power:alpha={alpha!r}")
        assert kernel_alpha(k) == alpha
        for n in (2, 3, 64, 1025, 10**6):
            assert k.values(n).tobytes() == _power_values(alpha, n).tobytes(), n
        for d in (1, 2, 3, 7, 512, 10**6):
            assert k.f(d) == float(d) ** -alpha, d

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
    def test_log_corrected_bit_for_bit(self, alpha, beta):
        k = PowerLawKernel(alpha, beta)
        assert k.spec_string() == f"powerlog:alpha={alpha!r},beta={beta!r}"
        assert parse_kernel(k.spec_string()) == k
        assert kernel_alpha(k) is None
        for n in (2, 3, 64, 1025, 10**6):
            assert k.values(n).tobytes() == _powerlog_values(alpha, beta, n).tobytes(), n
        for d in (1, 2, 3, 7, 512, 10**6):
            assert k.f(d) == float(d) ** -alpha * max(math.log(d), 1.0) ** -beta, d

    def test_merged_type_rules(self):
        # powerlog at beta = 0 spells the power law, alpha = inf included
        assert parse_kernel("powerlog:alpha=1,beta=0") == parse_kernel("power:alpha=1")
        assert parse_kernel("powerlog:alpha=1,beta=0").spec_string() == "power:alpha=1.0"
        assert parse_kernel("powerlog:alpha=inf,beta=0") == parse_kernel("nn")
        assert parse_kernel("powerlog:alpha=-0,beta=-0").spec_string() == "power:alpha=0.0"
        for spec in ("powerlog:alpha=inf,beta=1", "powerlog:alpha=inf,beta=1e-300"):
            with pytest.raises(ValueError, match="alpha must be finite"):
                parse_kernel(spec)
        for beta in (math.nan, math.inf, -math.inf, -1.0, -1e-300):
            with pytest.raises(ValueError, match="beta must be finite and >= 0"):
                PowerLawKernel(1.0, beta)
        for alpha in (math.nan, -1.0):
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                PowerLawKernel(alpha, 1.0)

    def test_kernel_for_alpha(self):
        assert kernel_for_alpha(math.inf) == PowerLawKernel(math.inf)
        assert kernel_for_alpha(2.0) == PowerLawKernel(2.0)
        with pytest.raises(ValueError):
            kernel_for_alpha(-math.inf)

    def test_kernel_alpha_inverts_kernel_for_alpha(self):
        for alpha in (0.0, 1.0, 2.5, math.inf):
            assert kernel_alpha(kernel_for_alpha(alpha)) == alpha
        assert kernel_alpha(PowerLawKernel(1.0, 1.0)) is None
        assert kernel_alpha(TabulatedKernel((1.0, 0.5))) is None

    def test_tabulated_equal_tables_equal_kernels(self):
        a = TabulatedKernel((1.0, 0.5, 0.25))
        b = TabulatedKernel((1, 0.5, 0.25))
        other = TabulatedKernel((1.0, 0.5, 0.125))
        assert a == b and hash(a) == hash(b)
        assert a.spec_string() == b.spec_string()
        assert a.spec_string().startswith("custom:")
        assert a != other and a.spec_string() != other.spec_string()

    def test_tabulated_table_hashed_once(self, monkeypatch):
        calls = []
        blake2s = model.hashlib.blake2s

        def counting(*args, **kwargs):
            calls.append(args)
            return blake2s(*args, **kwargs)

        monkeypatch.setattr(model.hashlib, "blake2s", counting)
        k = TabulatedKernel(tuple(1.0 / d for d in range(1, 1001)))
        specs = {k.spec_string() for _ in range(3)}
        hashes = {hash(k) for _ in range(3)}
        for _ in range(3):
            normalizer(2000, k)  # lru_cache lookups keyed on the kernel
        assert len(specs) == 1 and len(hashes) == 1
        assert len(calls) == 1


class TestEdgeProb:
    def test_hand_value_alpha1(self):
        p = ModelParams.make(5, 1.0, 1.0)
        assert edge_prob(0, 1, p) == pytest.approx(1 / 3, rel=1e-15)

    def test_alpha0_uniform(self):
        p = ModelParams.make(50, 0.0, 2.0)
        expected = 2.0 / 49
        for u, v in [(0, 1), (3, 30), (10, 35), (0, 49)]:
            assert edge_prob(u, v, p) == pytest.approx(expected, rel=1e-14)

    def test_nearest_neighbor_cases(self):
        p = ModelParams.make(100, math.inf, 1.5)
        assert edge_prob(5, 6, p) == pytest.approx(0.75)
        assert edge_prob(5, 7, p) == 0.0
        assert edge_prob(99, 0, p) == pytest.approx(0.75)  # ring wrap

    def test_self_loop_rejected(self):
        p = ModelParams.make(10, 1.0, 1.0)
        with pytest.raises(ValueError):
            edge_prob(3, 3, p)

    def test_symmetry_translation_invariance(self):
        p = ModelParams.make(37, 1.3, 1.7)
        rng = np.random.default_rng(3)
        for _ in range(100):
            u, v = rng.integers(37, size=2)
            if u == v:
                continue
            assert edge_prob(int(u), int(v), p) == edge_prob(int(v), int(u), p)
            assert edge_prob(int(u), int(v), p) == edge_prob(0, int((v - u) % 37), p)

    def test_clamped_at_one(self):
        p = ModelParams.make(10, 3.0, 50.0)
        assert edge_prob(0, 1, p) == 1.0

    def test_alpha2_trivial_clamp_threshold(self):
        # At alpha=2 the d=1 probability hits 1 exactly when c reaches h.
        n = 100
        h = normalizer(n, PowerLawKernel(2.0))
        below = ModelParams(n=n, c=h * 0.999, kernel=PowerLawKernel(2.0))
        at = ModelParams(n=n, c=h, kernel=PowerLawKernel(2.0))
        assert edge_prob(0, 1, below) < 1.0
        assert edge_prob(0, 1, at) == 1.0


class TestMarginalDegreeSum:
    def test_normalization_identity_examples(self):
        assert marginal_degree_sum(ModelParams.make(101, 1.0, 2.0)) == pytest.approx(
            2.0, rel=1e-12
        )
        assert marginal_degree_sum(ModelParams.make(10, 3.0, 0.5)) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_clamping_reduces_sum(self):
        assert marginal_degree_sum(ModelParams.make(10, 3.0, 50.0)) < 50.0

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [10, 101, 1000])
    def test_normalization_identity_grid(self, alpha, n):
        # c small enough that no probability clamps
        k = PowerLawKernel(alpha)
        h = normalizer(n, k)
        for c in (0.5, 0.99 * h):
            params = ModelParams(n=n, c=c, kernel=k)
            assert edge_prob(0, 1, params) < 1.0
            assert marginal_degree_sum(params) == pytest.approx(c, rel=1e-12)

    def test_matches_bruteforce(self):
        params = ModelParams.make(30, 1.5, 4.0)
        brute = math.fsum(edge_prob(0, v, params) for v in range(1, 30))
        assert marginal_degree_sum(params) == pytest.approx(brute, rel=1e-12)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams.make(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            ModelParams.make(10, 1.0, -0.5)
        with pytest.raises(ValueError):
            ModelParams(n=10, c=1.0, kernel=PowerLawKernel(1.0), seed=-1)
        with pytest.raises(ValueError):
            PowerLawKernel(-1.0)

    def test_zero_c_allowed(self):
        # degenerate empty-graph law used by samplers and block experiments
        params = ModelParams.make(10, 1.0, 0.0)
        assert marginal_degree_sum(params) == 0.0
