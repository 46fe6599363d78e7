import math

import numpy as np
import pytest

from alphagraph.branching import (
    DegreePGF,
    PoissonPGF,
    extinction,
    extinction_bisection,
    finite_degree_pgf,
    rho_limit,
)
from alphagraph.model import ModelParams, marginal_degree_sum

# Survival probabilities of the Poisson(c) branching process, i.e. the root
# of rho = 1 - exp(-c*rho).  Computed independently with 40-digit bisection
# (mpmath) and frozen here.
RHO_POISSON = {
    1.1: 0.1761341436318095512520759556615404418627,
    1.5: 0.5828116438658113860410760105537702041278,
    2.0: 0.7968121300200200461615209379375801208945,
    3.0: 0.9404797907073596311343971100981617317820,
    4.0: 0.9801725987182215858902228381533840551314,
}


def poisson_rho_bisect(c: float, tol: float = 1e-14) -> float:
    """Plain float bisection on f(s) - s; independent of the library solver."""
    f = lambda s: math.exp(c * (s - 1.0))
    lo, hi = 0.0, 1.0 - 1e-9
    assert f(lo) - lo > 0 and f(hi) - hi < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    return 1.0 - 0.5 * (lo + hi)


class TestRhoLimit:
    def test_subcritical_and_critical_are_zero(self):
        assert rho_limit(0.5) == 0.0
        assert rho_limit(1.0) == 0.0

    @pytest.mark.parametrize("c,expected", sorted(RHO_POISSON.items()))
    def test_frozen_values(self, c, expected):
        assert rho_limit(c) == pytest.approx(expected, abs=1e-11)

    def test_against_in_test_bisection(self):
        for c in (1.2, 1.7, 2.5, 5.0):
            assert rho_limit(c) == pytest.approx(poisson_rho_bisect(c), abs=1e-10)

    def test_monotone_grid(self):
        grid = [round(0.1 * k, 1) for k in range(1, 51)]
        values = [rho_limit(c) for c in grid]
        assert all(b - a >= -1e-15 for a, b in zip(values, values[1:]))
        for c, v in zip(grid, values):
            if c <= 1.0:
                assert v == 0.0
            else:
                assert v > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rho_limit(0.0)
        with pytest.raises(ValueError):
            rho_limit(-1.0)


class TestExtinctionSolver:
    @pytest.mark.parametrize("c", [1.1, 1.5, 2.0, 3.0, 4.0])
    def test_iteration_vs_bisection(self, c):
        it = extinction(PoissonPGF(c))
        bi = extinction_bisection(PoissonPGF(c))
        assert abs(it.extinction_q - bi.extinction_q) <= 1e-10

    def test_residual_bound(self):
        for c in (1.05, 1.2, 2.0, 4.0, 8.0):
            r = extinction(PoissonPGF(c))
            assert r.residual <= 1e-12
            assert abs(PoissonPGF(c).value(r.extinction_q) - r.extinction_q) <= r.residual + 1e-15
            assert r.extinction_q + r.survival_rho == pytest.approx(1.0, abs=1e-15)

    def test_near_critical_band(self):
        sub = extinction(PoissonPGF(0.9995))
        assert sub.survival_rho == 0.0
        sup = extinction(PoissonPGF(1.0005))
        assert 0.0 < sup.survival_rho < 0.01
        assert sup.residual <= 1e-12

    def test_mean_le_one_shortcircuits(self):
        r = extinction(PoissonPGF(0.5))
        assert r.extinction_q == 1.0
        assert r.iterations == 0

    def test_malformed_pgf_rejected(self):
        class NotAPGF:
            def value(self, s):
                return 0.5 * s  # f(1) != 1

            def mean(self):
                return 2.0

        with pytest.raises(ValueError):
            extinction(NotAPGF())

    def test_zero_at_origin_means_certain_survival(self):
        # all-clamped degree law: no vertex has zero neighbors
        pgf = DegreePGF(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert extinction(pgf).extinction_q == 0.0
        assert extinction_bisection(pgf).extinction_q == 0.0

    @pytest.mark.parametrize("tol", [1e-16, 1e-300])
    def test_bisection_ends_below_the_spacing_of_doubles(self, tol):
        # Near q ~ 0.999 adjacent doubles are ~1.1e-16 apart, so no bracket
        # narrows to tol: bisection stops at the finest one.  A solver that
        # loops raises here, after 10^4 PGF evaluations, instead of hanging.
        class Budgeted:
            def __init__(self, pgf):
                self.pgf, self.calls = pgf, 0

            def value(self, s):
                self.calls += 1
                if self.calls > 10**4:
                    raise RuntimeError("more than 10^4 PGF evaluations")
                return self.pgf.value(s)

            def mean(self):
                return self.pgf.mean()

        for pgf in (PoissonPGF(1.0005), finite_degree_pgf(ModelParams.make(1000, 1.0, 1.0005))):
            r = extinction(Budgeted(pgf), tol)
            assert abs(r.extinction_q - extinction(pgf, 1e-15).extinction_q) <= 1e-15
            assert r.residual <= 2.3e-16
        assert extinction(Budgeted(PoissonPGF(1.0005)), tol).extinction_q == 0.9990006662778812

    @pytest.mark.parametrize("solver", [extinction, extinction_bisection])
    def test_one_offspring_law_never_dies_out(self, solver):
        # Z = 1 always: f(s) = s, mean 1, and the smallest fixed point is 0
        result = solver(DegreePGF(np.array([1.0, 0.0]), np.array([1.0, 2.0])))
        assert result.extinction_q == 0.0 and result.survival_rho == 1.0
        assert result.residual == 0.0


class TestDegreePGF:
    def test_value_at_one(self):
        for params in (ModelParams.make(100, 1.0, 2.0), ModelParams.make(11, 0.5, 0.7)):
            assert finite_degree_pgf(params).value(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_binomial_hand_expansion(self):
        # n=3, alpha=0, c=1: degree ~ Binomial(2, 1/2), f(s) = ((1+s)/2)^2
        pgf = finite_degree_pgf(ModelParams.make(3, 0.0, 1.0))
        assert pgf.value(0.0) == pytest.approx(0.25, rel=1e-14)
        for s in np.linspace(0, 1, 11):
            assert pgf.value(float(s)) == pytest.approx(((1 + s) / 2) ** 2, rel=1e-12)

    def test_mean_equals_marginal_degree_sum(self):
        for params in (
            ModelParams.make(101, 1.0, 2.0),
            ModelParams.make(1000, 1.5, 0.9),
            ModelParams.make(64, 0.0, 2.0),
        ):
            pgf = finite_degree_pgf(params)
            assert pgf.mean() == pytest.approx(marginal_degree_sum(params), rel=1e-14)

    def test_derivative_at_one_matches_mean_degree(self):
        # central finite difference, step 1e-6, equals c when nothing clamps
        params = ModelParams.make(1000, 1.0, 2.0)
        pgf = finite_degree_pgf(params)
        step = 1e-6
        deriv = (pgf.value(1.0 + step) - pgf.value(1.0 - step)) / (2 * step)
        assert deriv == pytest.approx(2.0, abs=1e-6)

    def test_clamped_class_gives_zero_at_origin(self):
        params = ModelParams.make(10, 3.0, 50.0)  # p_1 clamps to 1
        pgf = finite_degree_pgf(params)
        assert pgf.value(0.0) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 10**3, 10**6])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0])
    def test_value_bits_match_the_plain_expression(self, n, alpha):
        pgf = finite_degree_pgf(ModelParams.make(n, alpha, 2.0))

        def plain(s):
            t = 1.0 - s
            with np.errstate(divide="ignore"):
                logs = pgf.mu * np.log1p(-pgf.p * t)
            total = logs.sum()
            return 0.0 if total == -np.inf else float(np.exp(total))

        q = extinction(pgf).extinction_q
        for s in (0.0, 1e-300, 0.2, q, 1.0 - 1e-12, 1.0):
            assert math.copysign(1.0, pgf.value(s)) == math.copysign(1.0, plain(s))
            assert pgf.value(s) == plain(s), s

    def test_infinite_alpha_rejected(self):
        with pytest.raises(ValueError):
            finite_degree_pgf(ModelParams.make(100, math.inf, 1.0))

    def test_finite_n_extinction_approaches_poisson(self):
        # module-scale version of the continuity check (full range in acceptance)
        q_poisson = 1.0 - RHO_POISSON[2.0]
        gaps = []
        for n in (10**2, 10**3, 10**4):
            q_n = extinction(finite_degree_pgf(ModelParams.make(n, 1.0, 2.0))).extinction_q
            gaps.append(abs(q_n - q_poisson))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_large_n_evaluation_cost_is_linear(self):
        # one evaluation sweeps the distance classes once; n=1e6 stays cheap
        import time

        pgf = finite_degree_pgf(ModelParams.make(10**6, 1.0, 2.0))
        t0 = time.perf_counter()
        extinction(pgf)
        assert time.perf_counter() - t0 < 2.0
