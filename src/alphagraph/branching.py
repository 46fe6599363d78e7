"""Galton-Watson survival and extinction probabilities.

The extinction probability q of a branching process is the smallest fixed
point of its offspring probability generating function on [0, 1].  Two
offspring laws matter here: Poisson(c), the large-n limit of a vertex's
degree, and the exact finite-n degree law, a sum of independent Bernoulli
edges over the distance classes of the ring.

The solver iterates s -> f(s) upward from 0, which converges monotonically
to the smallest fixed point; an independent bisection on f(s) - s is used
both as a verification oracle and as the fallback near criticality, where
plain iteration stalls (contraction rate f'(q) -> 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, NearestNeighborKernel, class_edge_probs, distance_classes

__all__ = [
    "PoissonPGF",
    "DegreePGF",
    "GWResult",
    "finite_degree_pgf",
    "extinction",
    "extinction_bisection",
    "rho_limit",
]

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 10**6
NEAR_CRITICAL_BAND = 1e-3


@dataclass(frozen=True)
class PoissonPGF:
    """Offspring PGF of a Poisson(c) law, c >= 0: f(s) = exp(c*(s-1))."""

    c: float

    def __post_init__(self):
        if not (self.c >= 0 and math.isfinite(self.c)):
            raise ValueError(f"need finite c >= 0, got {self.c}")

    def value(self, s: float) -> float:
        return math.exp(self.c * (s - 1.0))

    def mean(self) -> float:
        return self.c


class DegreePGF:
    """PGF of a sum of independent Bernoulli(p_d) variables with multiplicities.

    f(s) = prod_d (1 - p_d*(1-s))**mu_d, evaluated in log space in one
    vectorized pass over the distance classes.
    """

    __slots__ = ("p", "mu")

    def __init__(self, p: np.ndarray, mu: np.ndarray):
        self.p = np.asarray(p, dtype=np.float64)
        self.mu = np.asarray(mu, dtype=np.float64)
        if self.p.shape != self.mu.shape:
            raise ValueError("p and mu must align")
        if self.p.size and not (self.p.min() >= 0 and self.p.max() <= 1):
            raise ValueError("probabilities must lie in [0, 1]")

    def value(self, s: float) -> float:
        # mu * log1p(-p * t) in one buffer, updated in place.
        t = 1.0 - s
        logs = -self.p * t
        with np.errstate(divide="ignore"):
            np.log1p(logs, out=logs)
        np.multiply(self.mu, logs, out=logs)
        total = logs.sum()
        if total == -np.inf:
            return 0.0
        return float(np.exp(total))

    def mean(self) -> float:
        # fsum reads the floats through the buffer, without a list of them
        return math.fsum(memoryview(self.mu * self.p))


def finite_degree_pgf(params: ModelParams) -> DegreePGF:
    """Exact PGF of one vertex's degree under the given model."""
    if isinstance(params.kernel, NearestNeighborKernel):
        raise ValueError("degree PGF is defined for finite-alpha kernels only")
    _, mu, _ = distance_classes(params.n)
    return DegreePGF(class_edge_probs(params), mu)


@dataclass(frozen=True)
class GWResult:
    extinction_q: float
    survival_rho: float
    iterations: int
    residual: float


def _result(pgf, q: float, iterations: int) -> GWResult:
    residual = abs(pgf.value(q) - q)
    return GWResult(
        extinction_q=q,
        survival_rho=1.0 - q,
        iterations=iterations,
        residual=residual,
    )


def _validate_pgf(pgf) -> None:
    one = pgf.value(1.0)
    if abs(one - 1.0) > 1e-9:
        raise ValueError(f"not a probability generating function: f(1) = {one}")


def extinction_bisection(pgf, tol: float = DEFAULT_TOL) -> GWResult:
    """Smallest root of f(s) - s on [0, 1) by bisection.

    Independent of the fixed-point iteration; also the production path near
    criticality.  g(s) = f(s) - s is positive on [0, q) and negative on
    (q, 1), so the single sign change brackets q.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    _validate_pgf(pgf)
    if pgf.mean() <= 1.0:
        return _result(pgf, 1.0, 0)
    g = lambda s: pgf.value(s) - s
    if pgf.value(0.0) == 0.0:
        return _result(pgf, 0.0, 0)
    lo, hi = 0.0, 1.0 - 1e-6
    widen = 0
    while g(hi) >= 0.0:
        hi = 1.0 - (1.0 - hi) / 16.0
        widen += 1
        if 1.0 - hi < tol:
            # Survival probability below resolution; extinction is 1 - o(tol).
            return _result(pgf, hi, widen)
    iterations = widen
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return _result(pgf, 0.5 * (lo + hi), iterations)


def extinction(pgf, tol: float = DEFAULT_TOL) -> GWResult:
    """Extinction probability: smallest fixed point of the PGF on [0, 1].

    Monotone iteration from 0; mean offspring <= 1 short-circuits to q = 1,
    and within NEAR_CRITICAL_BAND of mean 1 the bisection path is used
    because the iteration's contraction rate degenerates.

    Raises RuntimeError if the iteration fails to converge, which signals a
    malformed PGF.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    _validate_pgf(pgf)
    mean = pgf.mean()
    if mean <= 1.0:
        return _result(pgf, 1.0, 0)
    if abs(mean - 1.0) < NEAR_CRITICAL_BAND:
        return extinction_bisection(pgf, tol)
    s = 0.0
    for iteration in range(1, MAX_ITERATIONS + 1):
        s_next = pgf.value(s)
        if s_next - s <= 0.5 * tol:
            result = _result(pgf, s_next, iteration)
            if result.residual > tol:
                raise RuntimeError(
                    f"fixed-point residual {result.residual} above tolerance {tol}"
                )
            return result
        s = s_next
    raise RuntimeError(f"no convergence within {MAX_ITERATIONS} iterations (malformed PGF?)")


def rho_limit(c: float, tol: float = DEFAULT_TOL) -> float:
    """Survival probability of a Galton-Watson process with Poisson(c) offspring.

    Zero for c <= 1, strictly increasing for c > 1; the limit of the
    largest-component fraction in the supercritical regimes.
    """
    if not (c > 0 and math.isfinite(c)):
        raise ValueError(f"need finite c > 0, got {c}")
    if c <= 1.0:
        return 0.0
    return extinction(PoissonPGF(c), tol).survival_rho
