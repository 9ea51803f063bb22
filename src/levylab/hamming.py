"""Product spaces under the normalized Hamming distance.

Powers of a discrete base space carry the product measure and the distance
d_n(x, y) = #{i : x_i != y_i} / n.  The exponential bound 2*exp(-eps^2 n)
controls both the concentration function and, after rescaling by the
Lipschitz constant, deviation masses of Lipschitz functions about their
medians.  Large products are probed by sampled deviation profiles; exact
enumeration is available up to a configurable cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from . import rng
from .errors import (
    InvalidMeasure,
    LengthMismatch,
    LipschitzViolation,
    NegativeEps,
    TooLargeForExact,
)
from .mmspace import DEFAULT_ENUMERATION_LIMIT, FiniteMMSpace, weighted_deviation_mass, weighted_median

EXACT_PRODUCT_LIMIT = 10**6
# sampled pairs on which lipschitz_profile checks the declared constant
CHECK_PAIRS = 32

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteBase:
    """A finite probability space of distinct atoms."""

    atoms: tuple
    weights: tuple

    def __post_init__(self):
        atoms = tuple(self.atoms)
        weights = tuple(float(w) for w in self.weights)
        if len(atoms) != len(set(atoms)):
            raise InvalidMeasure("atoms must be distinct")
        if len(atoms) != len(weights):
            raise LengthMismatch("atoms and weights must have equal length")
        if any(w < 0 for w in weights) or abs(math.fsum(weights) - 1.0) > _MASS_TOL:
            raise InvalidMeasure("weights must be a probability vector")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, atoms) -> "DiscreteBase":
        atoms = tuple(atoms)
        return cls(atoms, (1.0 / len(atoms),) * len(atoms))


@dataclass(frozen=True)
class HammingProduct:
    """n independent copies of a discrete base, metrized by d_n."""

    base: DiscreteBase
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def point_count(self) -> int:
        return len(self.base.atoms) ** self.n


def hamming_distance(x, y) -> float:
    """Fraction of coordinates where two equal-length tuples differ."""
    if len(x) != len(y):
        raise LengthMismatch(f"tuple lengths {len(x)} and {len(y)} differ")
    if len(x) == 0:
        raise LengthMismatch("tuples must be non-empty")
    return sum(1 for a, b in zip(x, y) if a != b) / len(x)


def talagrand_bound(eps: float, n: int) -> float:
    """The exponential concentration bound 2*exp(-eps^2 * n)."""
    if eps < 0:
        raise NegativeEps("eps must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 * math.exp(-(eps * eps) * n)


def sample_indices(product: HammingProduct, count: int, seed: int) -> np.ndarray:
    """Draw count i.i.d. tuples from the product measure, as atom indices of shape (count, n).

    Coordinate (i, j) is a pure function of (seed, i, j), so sample i does
    not depend on count or batching; chunked or parallel generation gives
    identical output.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    cum = np.cumsum(product.base.weights)
    return rng.counter_choice(seed, 0, count * product.n, cum).reshape(count, product.n)


def sample_product(product: HammingProduct, count: int, seed: int) -> list[tuple]:
    """The draws of sample_indices as tuples of atoms."""
    lookup = np.fromiter(product.base.atoms, dtype=object, count=len(product.base.atoms))
    return [tuple(row) for row in lookup[sample_indices(product, count, seed)].tolist()]


def product_weights(weights, n: int) -> np.ndarray:
    """Product-measure weights of all n-tuples, in itertools.product order."""
    w = np.asarray(weights, dtype=np.float64)
    return reduce(np.multiply.outer, [w] * n).ravel()


def check_lipschitz(pairs, members, lipschitz: float, distance) -> None:
    """Verify |f(x)-f(y)| <= L*d(x,y) + 1e-9 for every member on every pair."""
    for x, y in pairs:
        d = distance(x, y)
        for i, f in enumerate(members):
            gap = abs(float(f(x)) - float(f(y))) - lipschitz * d
            if gap > 1e-9:
                raise LipschitzViolation(
                    f"member {i} exceeds declared L={lipschitz} by {gap:.3e} on a sampled pair"
                )


def product_space(product: HammingProduct) -> FiniteMMSpace:
    """Materialize the product as a FiniteMMSpace of at most DEFAULT_ENUMERATION_LIMIT points."""
    if product.point_count > DEFAULT_ENUMERATION_LIMIT:
        raise TooLargeForExact(f"{product.point_count} points exceeds limit {DEFAULT_ENUMERATION_LIMIT}")
    points = list(itertools.product(product.base.atoms, repeat=product.n))
    dist = np.array([[hamming_distance(x, y) for y in points] for x in points])
    return FiniteMMSpace(tuple(points), dist, product_weights(product.base.weights, product.n))


def fraction_differing(atom) -> Callable[[tuple], float]:
    """The 1-Lipschitz function x -> d_n(x, (atom, ..., atom))."""

    def f(x):
        return sum(1 for c in x if c != atom) / len(x)

    return f


@dataclass(frozen=True)
class ProfileResult:
    """Deviation mass about the median, with sampling metadata."""

    estimate: float
    stderr: float
    median: float
    mode: str
    count: int


def lipschitz_profile(
    product: HammingProduct,
    f: Callable[[tuple], float],
    *,
    bound: float,
    lipschitz: float,
    eps: float,
    mode: str = "exact",
    samples: int | None = None,
    seed: int = 0,
) -> ProfileResult:
    """Mass of {|f - median(f)| > eps} under the product measure.

    Exact mode enumerates all tuples (up to EXACT_PRODUCT_LIMIT points);
    sampled mode is Monte Carlo over `samples` seeded draws and reports a
    binomial standard error.  The declared Lipschitz constant is
    spot-verified on CHECK_PAIRS sampled pairs in both modes.
    """
    if eps <= 0:
        raise NegativeEps("eps must be > 0")
    del bound  # recorded by callers; the profile itself only needs L
    xs = sample_product(product, 2 * CHECK_PAIRS, rng.derive_seed(seed, "lipschitz-check"))
    check_lipschitz(zip(xs[::2], xs[1::2]), (f,), lipschitz, hamming_distance)

    if mode == "exact":
        if product.point_count > EXACT_PRODUCT_LIMIT:
            raise TooLargeForExact(f"{product.point_count} tuples exceeds exact cap {EXACT_PRODUCT_LIMIT}")
        tuples = itertools.product(product.base.atoms, repeat=product.n)
        values = np.asarray([f(x) for x in tuples])
        weights = product_weights(product.base.weights, product.n)
        m = weighted_median(values, weights)
        mass = weighted_deviation_mass(values, weights, m, eps)
        return ProfileResult(mass, 0.0, m, "exact", len(values))

    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if samples is None or samples < 1:
        raise ValueError("sampled mode needs samples >= 1")
    xs = sample_product(product, samples, seed)
    values = np.asarray([f(x) for x in xs])
    weights = np.full(samples, 1.0 / samples)
    m = weighted_median(values, weights)
    mass = weighted_deviation_mass(values, weights, m, eps)
    stderr = math.sqrt(max(mass * (1.0 - mass), 0.0) / samples)
    return ProfileResult(mass, stderr, m, "sampled", samples)
