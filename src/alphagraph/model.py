"""Edge-probability model on a ring of n vertices.

A graph law is specified by a vertex count n, an expected-degree parameter c,
and a kernel f mapping ring distances to positive weights.  Each unordered
pair {u, v} is an edge independently with probability

    p(u, v) = min(1, c * f(d(u, v)) / h)

where d is the ring (geodesic) distance and h = sum of f(d(0, w)) over all
other vertices w, so that the expected degree equals c whenever no
probability is clamped at 1.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "PowerLawKernel",
    "PowerLogKernel",
    "TabulatedKernel",
    "Kernel",
    "parse_kernel",
    "kernel_alpha",
    "load_tabulated_kernel",
    "ModelParams",
    "ring_distance",
    "distance_classes",
    "normalizer",
    "class_edge_probs",
    "edge_prob",
    "marginal_degree_sum",
]


def _fmt(x: float) -> str:
    """Canonical shortest round-trip text for a float."""
    return repr(float(x))


@dataclass(frozen=True)
class PowerLawKernel:
    """f(d) = 1 / d**alpha for alpha in [0, inf], the one-parameter family.

    alpha = 0 gives Erdos-Renyi graphs; alpha = inf gives f(1) = 1 and f(d) = 0
    otherwise, bond percolation on the ring (spec "nn"): for n >= 3 the
    normalizer is 2, so each ring edge is open with probability min(1, c/2).
    """

    alpha: float

    def __post_init__(self):
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        # abs turns -0.0 into 0.0, and no other alpha: equal kernels, one spec
        object.__setattr__(self, "alpha", abs(self.alpha))

    def f(self, d: int) -> float:
        return float(d) ** -self.alpha

    def values(self, n: int) -> np.ndarray:
        if self.alpha == math.inf:  # the indicator of d = 1, without d**-inf per class
            out = np.zeros(n // 2, dtype=np.float64)
            out[0] = 1.0
            return out
        d = np.arange(1, n // 2 + 1, dtype=np.float64)
        return d**-self.alpha

    def spec_string(self) -> str:
        return "nn" if self.alpha == math.inf else f"power:alpha={_fmt(self.alpha)}"


@dataclass(frozen=True)
class PowerLogKernel:
    """f(d) = 1 / (d**alpha * max(ln d, 1)**beta).

    The log factor is flattened to 1 where ln d < 1 (d <= 2); the raw form is
    degenerate there (ln 1 = 0) and flattening keeps f positive and
    non-increasing.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (self.beta >= 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        # abs turns -0.0 into 0.0, and no other value: equal kernels, one spec
        object.__setattr__(self, "alpha", abs(self.alpha))
        object.__setattr__(self, "beta", abs(self.beta))

    def f(self, d: int) -> float:
        return float(d) ** -self.alpha * max(math.log(d), 1.0) ** -self.beta

    def values(self, n: int) -> np.ndarray:
        d = np.arange(1, n // 2 + 1, dtype=np.float64)
        return d**-self.alpha * np.maximum(np.log(d), 1.0) ** -self.beta

    def spec_string(self) -> str:
        return f"powerlog:alpha={_fmt(self.alpha)},beta={_fmt(self.beta)}"


@dataclass(frozen=True)
class TabulatedKernel:
    """Kernel given by explicit f(d) values for d = 1, 2, ..., len(values)."""

    table: tuple[float, ...]

    def __post_init__(self):
        if len(self.table) == 0:
            raise ValueError("empty kernel table")
        arr = np.asarray(self.table, dtype=np.float64)
        if not np.all(np.isfinite(arr) & (arr > 0)):
            raise ValueError("kernel values must be finite and positive")
        if np.any(np.diff(arr) > 0):
            raise ValueError("kernel values must be non-increasing in d")

    def f(self, d: int) -> float:
        if d > len(self.table):
            raise ValueError(f"kernel table covers d <= {len(self.table)}, got d={d}")
        return self.table[d - 1]

    def values(self, n: int) -> np.ndarray:
        if len(self.table) < n // 2:
            raise ValueError(
                f"kernel table covers d <= {len(self.table)}, need d <= {n // 2}"
            )
        return np.asarray(self.table[: n // 2], dtype=np.float64)

    @cached_property
    def _digest(self) -> str:
        # Content-addressed: two tables with equal values are the same kernel.
        # Computed once per instance; lru_cache lookups keyed on the kernel
        # hash this digest instead of the whole table.
        return hashlib.blake2s(
            np.asarray(self.table, dtype=np.float64).tobytes(), digest_size=8
        ).hexdigest()

    def __hash__(self) -> int:
        return hash(self._digest)

    def spec_string(self) -> str:
        return f"custom:{self._digest}"


Kernel = PowerLawKernel | PowerLogKernel | TabulatedKernel


def kernel_for_alpha(alpha: float) -> Kernel:
    """The alpha member of the power-law family, alpha in [0, inf]."""
    return PowerLawKernel(alpha)


def kernel_alpha(kernel: Kernel) -> float | None:
    """Inverse of kernel_for_alpha: the exponent of a power-law kernel, None
    for any other kernel."""
    return kernel.alpha if isinstance(kernel, PowerLawKernel) else None


def load_tabulated_kernel(path: str | Path) -> TabulatedKernel:
    """Load "d f(d)" pairs, one per line, covering d = 1..D contiguously,
    each d once."""
    entries: dict[int, float] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected two fields 'd f(d)', got {len(fields)}")
        d = int(fields[0])
        if d in entries:
            raise ValueError(f"{path}:{lineno}: distance d={d} appears twice")
        entries[d] = float(fields[1])
    if not entries:
        raise ValueError(f"no kernel entries in {path}")
    dmax = max(entries)
    if sorted(entries) != list(range(1, dmax + 1)):
        raise ValueError(f"kernel file must cover d = 1..{dmax} without gaps")
    return TabulatedKernel(tuple(entries[d] for d in range(1, dmax + 1)))


def parse_kernel(text: str) -> Kernel:
    """Parse the textual kernel form used by the CLI and config files.

    Accepted forms: "power:alpha=1.0", "powerlog:alpha=1.0,beta=1.0", "nn"
    (the same kernel as "power:alpha=inf"), "custom:<path>".  Each parameter
    is given once.
    """
    if text == "nn":
        return PowerLawKernel(math.inf)
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"bad kernel spec {text!r}")
    if head == "custom":
        return load_tabulated_kernel(rest)
    kv: dict[str, float] = {}
    for item in rest.split(","):
        k, sep, v = item.partition("=")
        if not sep:
            raise ValueError(f"bad kernel parameter {item!r} in {text!r}")
        if k in kv:
            raise ValueError(f"kernel parameter {k!r} given twice in {text!r}")
        kv[k] = float(v)
    families = {"power": PowerLawKernel, "powerlog": PowerLogKernel}
    if head not in families:
        raise ValueError(f"unknown kernel family {head!r}")
    try:
        return families[head](**kv)
    except TypeError:  # a missing or unknown parameter
        raise ValueError(f"bad parameters for kernel family {head!r} in {text!r}") from None


def ring_distance(u: int, v: int, n: int) -> int:
    """Geodesic distance between vertices u and v on the n-cycle."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex index out of range: u={u}, v={v}, n={n}")
    a = abs(u - v)
    return min(a, n - a)


# The memory every run must fit in (a cgroup limit below it is not seen), and
# the peak bytes per class of a distance-class law, built and solved or built
# for sampling (tracemalloc at n = 1e6 and 4e6, alpha in {0, 1}).
_PHYSICAL_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
_BYTES_PER_CLASS = 56


def _refuse_over_memory(need: float, names_run) -> None:
    """Refuse a run that needs ``need`` bytes, more than physical memory: it
    would grow until the OS killed the process.  The message starts with
    ``names_run()``, called only on refusal."""
    if need > _PHYSICAL_MEMORY:
        raise ValueError(
            f"{names_run()} ~{need:.4g} bytes, more than the {_PHYSICAL_MEMORY} bytes of physical memory"
        )


def distance_classes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance classes of the n-ring.

    Returns (d, mu, m_pairs) where d = 1..n//2, mu[d] is the number of
    vertices at distance d from a fixed vertex (2, except 1 at d = n/2 for
    even n), and m_pairs[d] = n*mu/2 is the number of unordered pairs at
    distance d.  Every distance-class law starts here: one whose classes need
    more than physical memory, at _BYTES_PER_CLASS each, is refused first.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    k = n // 2
    _refuse_over_memory(_BYTES_PER_CLASS * k, lambda: f"the degree law of n={n} needs")
    d = np.arange(1, k + 1, dtype=np.int64)
    mu = np.full(k, 2, dtype=np.int64)
    m_pairs = np.full(k, n, dtype=np.int64)
    if n % 2 == 0:
        mu[-1] = 1
        m_pairs[-1] = n // 2
    return d, mu, m_pairs


@lru_cache(maxsize=256)
def normalizer(n: int, kernel: Kernel) -> float:
    """Degree normalizer h = sum over vertices u != 0 of f(d(u, 0)); h > 0."""
    _, mu, _ = distance_classes(n)
    contrib = mu.astype(np.float64) * kernel.values(n)
    # Compensated summation: the h-based probabilities feed 1e-12-relative
    # normalization identities, so plain left-to-right accumulation is not
    # good enough at n ~ 1e6.
    value = math.fsum(memoryview(contrib))
    if not value > 0:
        raise ValueError(f"normalizer must be positive, got {value}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Everything that pins down one random-graph law: (n, c, kernel, seed)."""

    n: int
    c: float
    kernel: Kernel
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not (self.c >= 0 and math.isfinite(self.c)):
            raise ValueError(f"need finite c >= 0, got {self.c}")
        # abs turns -0.0 into 0.0, and no other c: equal laws, one stream key
        object.__setattr__(self, "c", abs(self.c))
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    @classmethod
    def make(cls, n: int, alpha: float, c: float, seed: int = 0) -> "ModelParams":
        """Convenience constructor from the exponent alpha (inf allowed)."""
        return cls(n=n, c=c, kernel=kernel_for_alpha(alpha), seed=seed)

    @property
    def h(self) -> float:
        return normalizer(self.n, self.kernel)


def class_edge_probs(params: ModelParams) -> np.ndarray:
    """Clamped edge probability min(1, c*f(d)/h) for each distance class."""
    h = params.h
    return np.minimum(1.0, params.c * params.kernel.values(params.n) / h)


def edge_prob(u: int, v: int, params: ModelParams) -> float:
    """Probability that {u, v} is an edge.  u == v is a contract violation."""
    if u == v:
        raise ValueError("self-loops are not part of the model (u == v)")
    d = ring_distance(u, v, params.n)
    return min(1.0, params.c * params.kernel.f(d) / params.h)


def marginal_degree_sum(params: ModelParams) -> float:
    """Sum of edge probabilities from one vertex to all others.

    Equals c exactly (up to rounding) whenever no probability is clamped.
    """
    _, mu, _ = distance_classes(params.n)
    p = class_edge_probs(params)
    return math.fsum((mu.astype(np.float64) * p).tolist())
