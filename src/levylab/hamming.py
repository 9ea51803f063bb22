"""Product spaces under the normalized Hamming distance.

Powers of a discrete base space carry the product measure and the distance
d_n(x, y) = #{i : x_i != y_i} / n.  The exponential bound 2*exp(-eps^2 n)
controls both the concentration function and, after rescaling by the
Lipschitz constant, deviation masses of Lipschitz functions about their
medians.  Large products are probed by sampled deviation profiles; exact
enumeration runs up to EXACT_PRODUCT_LIMIT tuples.

Profiles take coordinate means x -> (1/n) * sum_i kernel(x_i)
(CoordinateMean).  They are evaluated on atom indices, not on tuples: one
table of kernel values over the base atoms, summed along each row of
indices left to right, which is the order of the tuple evaluation.  The
same table gives a coordinate mean's exact Lipschitz constant under d_n,
its max minus its min, against which the declared constant is checked.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable

import numpy as np

from . import rng
from .errors import (
    CarrierMismatch,
    InvalidMeasure,
    LengthMismatch,
    LipschitzViolation,
    NegativeEps,
    TooLargeForExact,
    TooManySamples,
)
from .mmspace import DEFAULT_ENUMERATION_LIMIT, FiniteMMSpace, weighted_deviation_mass, weighted_median

EXACT_PRODUCT_LIMIT = 10**6
# most entries one sampled array may hold (samples x n codes, or samples values): a
# profile of 2^24 samples completes under a 768 MiB address-space cap, 2 x 10^7 do not
SAMPLE_ARRAY_LIMIT = 1 << 24
# coordinates drawn per block of a sampled lipschitz_profile
PROFILE_BLOCK_DRAWS = 1 << 15
# z of the Wilson score upper bound that sampled profiles report
WILSON_Z = 4.0

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
        # written so that a NaN weight, or a NaN sum, fails
        if not all(w >= 0 for w in weights) or not abs(math.fsum(weights) - 1.0) <= _MASS_TOL:
            raise InvalidMeasure("weights must be a probability vector")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, atoms) -> "DiscreteBase":
        atoms = tuple(atoms)
        # no atoms get no weights, which the mass check refuses
        return cls(atoms, (1.0 / max(len(atoms), 1),) * len(atoms))


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
    if not eps >= 0:
        raise NegativeEps("eps must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 * math.exp(-(eps * eps) * n)


def sample_indices(product: HammingProduct, count: int, seed: int, start: int = 0) -> np.ndarray:
    """Draw samples start..start+count-1 of the product measure, as atom indices of shape (count, n).

    Coordinate (i, j) is a pure function of (seed, i, j), so sample i does
    not depend on count or batching; blocks of rows drawn with ``start``
    concatenate to the draw made in one call.  More than SAMPLE_ARRAY_LIMIT
    coordinates raise TooManySamples before anything is drawn.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if start < 0:
        raise ValueError("start must be >= 0")
    _check_sample_array(count, product.n)
    cum = np.cumsum(product.base.weights)
    n = product.n
    return rng.counter_choice(seed, start * n, count * n, cum).reshape(count, n)


def _check_sample_array(samples: int, n: int = 1) -> None:
    """Refuse an array of samples x n entries above SAMPLE_ARRAY_LIMIT before it is allocated."""
    if samples * n > SAMPLE_ARRAY_LIMIT:
        raise TooManySamples(
            f"{samples * n} sampled entries ({samples} samples x {n}) exceed the cap of {SAMPLE_ARRAY_LIMIT}"
        )


def product_weights(weights, n: int) -> np.ndarray:
    """Product-measure weights of all n-tuples, in itertools.product order."""
    w = np.asarray(weights, dtype=np.float64)
    return reduce(np.multiply.outer, [w] * n).ravel()


def product_space(product: HammingProduct) -> FiniteMMSpace:
    """Materialize the product as a FiniteMMSpace of at most DEFAULT_ENUMERATION_LIMIT points."""
    if product.point_count > DEFAULT_ENUMERATION_LIMIT:
        raise TooLargeForExact(f"{product.point_count} points exceeds limit {DEFAULT_ENUMERATION_LIMIT}")
    points = list(itertools.product(product.base.atoms, repeat=product.n))
    dist = np.array([[hamming_distance(x, y) for y in points] for x in points])
    return FiniteMMSpace(tuple(points), dist, product_weights(product.base.weights, product.n))


@dataclass(frozen=True)
class CoordinateMean:
    """The function x -> (1/n) * sum_i kernel(x_i) on n-tuples of atoms.

    Under d_n it is Lipschitz with constant max(kernel) - min(kernel).
    Calling it on a tuple adds the kernel values left to right;
    lipschitz_profile gets the same values from a table over the atoms.
    """

    kernel: Callable[[object], float]

    def __call__(self, x) -> float:
        return reduce(operator.add, map(self.kernel, x), 0.0) / len(x)


def fraction_differing(atom) -> CoordinateMean:
    """The 1-Lipschitz function x -> d_n(x, (atom, ..., atom))."""
    return CoordinateMean(partial(operator.ne, atom))


def _wilson_upper(estimate: float, count: int) -> float:
    """Wilson score upper bound at z = WILSON_Z for a proportion observed in count trials.

    Unlike estimate + z * stderr it stays positive at an estimate of 0,
    where it is z^2 / (count + z^2).
    """
    z2n = WILSON_Z * WILSON_Z / count
    spread = WILSON_Z * math.sqrt(estimate * (1.0 - estimate) / count + z2n / (4 * count))
    return min(1.0, (estimate + z2n / 2 + spread) / (1.0 + z2n))


@dataclass(frozen=True)
class ProfileResult:
    """Deviation mass about the median, with sampling metadata.

    ``upper`` is the Wilson score upper bound at z = WILSON_Z in sampled
    mode and equals ``estimate`` in exact mode.
    """

    estimate: float
    stderr: float
    median: float
    mode: str
    count: int
    upper: float


def lipschitz_profile(
    product: HammingProduct,
    f: CoordinateMean,
    *,
    bound: float,
    lipschitz: float,
    eps: float,
    mode: str = "exact",
    samples: int | None = None,
    seed: int = 0,
) -> ProfileResult:
    """Mass of {|f - median(f)| > eps} under the product measure.

    f must be a CoordinateMean; any other callable raises CarrierMismatch.
    Its values come from one table of kernel values over the base atoms,
    added along rows of atom indices.  Exact mode enumerates all index
    tuples (up to EXACT_PRODUCT_LIMIT) in itertools.product order, aligned
    with product_weights; sampled mode draws `samples` seeded rows through
    sample_indices in blocks of about PROFILE_BLOCK_DRAWS coordinates and
    reports a binomial standard error and a Wilson upper bound; more
    samples than SAMPLE_ARRAY_LIMIT raise TooManySamples before any
    allocation.  The declared Lipschitz constant is checked exactly in
    both modes: under d_n, f's constant is max(table) - min(table).
    """
    if not eps > 0:
        raise NegativeEps("eps must be > 0")
    if not isinstance(f, CoordinateMean):
        raise CarrierMismatch("lipschitz_profile evaluates CoordinateMean functions only")
    del bound  # recorded by callers; the profile itself only needs L
    table = np.array([f.kernel(a) for a in product.base.atoms], dtype=np.float64)
    spread = float(table.max() - table.min())
    if not spread <= lipschitz + 1e-9:
        raise LipschitzViolation(f"f has Lipschitz constant {spread!r}, above the declared L={lipschitz}")
    n = product.n

    if mode == "exact":
        if product.point_count > EXACT_PRODUCT_LIMIT:
            raise TooLargeForExact(f"{product.point_count} tuples exceeds exact cap {EXACT_PRODUCT_LIMIT}")
        values = reduce(np.add.outer, [table] * n).ravel() / n
        weights = product_weights(product.base.weights, n)
        m = weighted_median(values, weights)
        mass = weighted_deviation_mass(values, weights, m, eps)
        return ProfileResult(mass, 0.0, m, "exact", len(values), mass)

    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if samples is None or samples < 1:
        raise ValueError("sampled mode needs samples >= 1")
    _check_sample_array(samples)
    values = np.empty(samples)
    rows = max(1, PROFILE_BLOCK_DRAWS // n)
    for start in range(0, samples, rows):
        idx = sample_indices(product, min(rows, samples - start), seed, start=start)
        # cumsum adds the coordinates left to right, as CoordinateMean does
        values[start : start + len(idx)] = table[idx].cumsum(axis=1)[:, -1]
    values /= n
    weights = np.full(samples, 1.0 / samples)
    m = weighted_median(values, weights)
    mass = weighted_deviation_mass(values, weights, m, eps)
    stderr = math.sqrt(max(mass * (1.0 - mass), 0.0) / samples)
    return ProfileResult(mass, stderr, m, "sampled", samples, _wilson_upper(mass, samples))
