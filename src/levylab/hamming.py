"""Product spaces under the normalized Hamming distance.

Powers of a discrete base space carry the product measure and the distance
d_n(x, y) = #{i : x_i != y_i} / n.  The exponential bound 2*exp(-eps^2 n)
controls both the concentration function and, after rescaling by the
Lipschitz constant, deviation masses of Lipschitz functions about their
medians.  Large products are probed by sampled deviation profiles; exact
profiles run up to EXACT_PRODUCT_LIMIT tuples.

Profiles take coordinate means x -> (1/n) * sum_i kernel(x_i), the
one-piece IntegralMembers with the default phi.  They are evaluated from
one table of kernel values over the base atoms, added over each tuple's
coordinates left to right, then divided by n.  Exact mode takes the law of
that sum, an n-fold convolution of the table's law (coordinate_sum_law):
its distinct values are exactly the sums the k^n tuples form, each with
the mass of the tuples that form it.  Sampled mode draws each coordinate's
value from the table through one rng.Guide per call, in coordinate-major
blocks whose columns are the samples, into buffers made once per call.
The median is taken once, and the masses at all radii come from one sort.
The table's max minus its min is the exact Lipschitz constant under d_n
(for the identity phi only), against which the declared constant is
checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial, reduce
from operator import ne

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
from .mmspace import DEFAULT_ENUMERATION_LIMIT, FiniteMMSpace, deviation_masses, weighted_median
from .stepmaps import IntegralMember
from .wordgroups import _power_over

EXACT_PRODUCT_LIMIT = 10**6
# most entries one sampled array may hold (samples x n codes, or samples values): a
# profile of 2^24 samples completes under a 768 MiB address-space cap, 2 x 10^7 do not
SAMPLE_ARRAY_LIMIT = 1 << 24
# coordinates drawn per block of a sampled lipschitz_profile
PROFILE_BLOCK_DRAWS = 1 << 15
# z of the Wilson score upper bound that sampled profiles report
WILSON_Z = 4.0

_MASS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteBase:
    """A finite probability space of distinct atoms; weights is a read-only float64 array."""

    atoms: tuple
    weights: np.ndarray

    def __post_init__(self):
        atoms = tuple(self.atoms)
        weights = np.fromiter(map(float, self.weights), np.float64)
        if len(atoms) != len(set(atoms)):
            raise InvalidMeasure("atoms must be distinct")
        if len(atoms) != len(weights):
            raise LengthMismatch("atoms and weights must have equal length")
        # written so that a NaN weight, or a NaN sum, fails; no weight above 1 reaches fsum, which overflows
        if not ((weights >= 0) & (weights <= 1)).all() or not abs(math.fsum(weights) - 1.0) <= _MASS_TOL:
            raise InvalidMeasure("weights must be a probability vector")
        weights.flags.writeable = False
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


def talagrand_bound(eps: float, n: int) -> float:
    """The exponential concentration bound 2*exp(-eps^2 * n)."""
    if not eps >= 0:
        raise NegativeEps("eps must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 * math.exp(-(eps * eps) * n)


def sample_indices(weights, n: int, count: int, seed: int) -> np.ndarray:
    """Draw count samples of weights^(x)n, as atom indices of shape (count, n).

    weights are the base's atom probabilities, taken as given.  Coordinate
    (i, j) is a pure function of (seed, i, j), so sample i does not depend
    on count.  More than SAMPLE_ARRAY_LIMIT coordinates raise
    TooManySamples before anything is drawn.
    """
    if count < 1 or n < 1:
        raise ValueError("count and n must be >= 1")
    _check_sample_array(count, n)
    return rng.counter_choice(seed, 0, count * n, np.cumsum(weights)).reshape(count, n)


def _check_enumeration(k: int, n: int) -> None:
    """Refuse an enumeration of the k^n n-tuples of k atoms above EXACT_PRODUCT_LIMIT, before it is built."""
    if tuples := _power_over(k, n, EXACT_PRODUCT_LIMIT):
        raise TooLargeForExact(f"{tuples} tuples exceeds exact cap {EXACT_PRODUCT_LIMIT}")


def _check_sample_array(samples: int, n: int = 1) -> None:
    """Refuse an array of samples x n entries above SAMPLE_ARRAY_LIMIT before it is allocated."""
    if samples * n > SAMPLE_ARRAY_LIMIT:
        raise TooManySamples(
            f"{samples * n} sampled entries ({samples} samples x {n}) exceed the cap of {SAMPLE_ARRAY_LIMIT}"
        )


def product_weights(weights, n: int) -> np.ndarray:
    """Product-measure weights of all n-tuples, in itertools.product order."""
    w = np.asarray(weights, dtype=np.float64)
    # flat after each factor: an n-axis outer product fails past numpy's axis limit
    return reduce(lambda s, t: (s[:, None] * t[None, :]).ravel(), [w] * n)


def product_space(product: HammingProduct) -> FiniteMMSpace:
    """Materialize the product as a FiniteMMSpace of at most DEFAULT_ENUMERATION_LIMIT points."""
    if points := _power_over(len(product.base.atoms), product.n, DEFAULT_ENUMERATION_LIMIT):
        raise TooLargeForExact(f"{points} points exceeds limit {DEFAULT_ENUMERATION_LIMIT}")
    atoms, n = product.base.atoms, product.n
    codes = np.array(list(itertools.product(range(len(atoms)), repeat=n)))  # d_n compares atom indices
    dist = (codes[:, None] != codes[None]).sum(axis=2) / n
    return FiniteMMSpace(tuple(itertools.product(atoms, repeat=n)), dist, product_weights(product.base.weights, n))


def fraction_differing(atom) -> IntegralMember:
    """The 1-Lipschitz function h -> d_n(h, (atom, ..., atom)) on step maps of the n-grid."""
    return IntegralMember((), (partial(ne, atom),))


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
    f: IntegralMember,
    *,
    bound: float,
    lipschitz: float,
    eps: float,
    mode: str = "exact",
    samples: int | None = None,
    seed: int = 0,
) -> ProfileResult:
    """Mass of {|f - median(f)| > eps} under the product measure, past the rounding of n terms.

    f must be a one-piece IntegralMember with the default phi; anything else
    raises CarrierMismatch.  Its values come from one table of f.kernel[0]
    over the atoms, added along rows of atom indices.  Exact mode takes the
    median and the mass on the law of the coordinate sum
    (coordinate_sum_law): the values the k^n tuples take, each with its
    mass.  It runs only where k^n is at most EXACT_PRODUCT_LIMIT, and
    ``count`` is k^n, the number of tuples the law stands for.  Sampled mode
    draws the values of the `samples` seeded rows of sample_indices in
    blocks of about PROFILE_BLOCK_DRAWS coordinates and reports a binomial
    standard error and a Wilson upper bound; more samples, or more
    coordinates in a block, than SAMPLE_ARRAY_LIMIT raise TooManySamples
    before any allocation.  The declared Lipschitz constant
    is checked exactly in both modes: under d_n, f's constant is
    max(table) - min(table).
    """
    del bound  # recorded by callers; the profile itself only needs L
    return _profiles(product, f, lipschitz, (eps,), mode, samples, seed)[0]


def _profiles(product: HammingProduct, f, lipschitz: float, grid, mode: str, samples, seed: int) -> list:
    """lipschitz_profile's ProfileResult at each radius of grid, from one law or draw and one median."""
    if not all(eps > 0 for eps in grid):
        raise NegativeEps("eps must be > 0")
    # max(table) - min(table) is the Lipschitz constant only for the identity phi
    if not isinstance(f, IntegralMember) or f.breakpoints or f.phi is not np.asarray:
        raise CarrierMismatch("lipschitz_profile evaluates one-piece IntegralMembers with the default phi only")
    table = np.array([f.kernel[0](a) for a in product.base.atoms], dtype=np.float64)
    spread = float(table.max() - table.min())
    if not spread <= lipschitz + 1e-9:
        raise LipschitzViolation(f"f has Lipschitz constant {spread!r}, above the declared L={lipschitz}")
    n = product.n

    if mode == "exact":
        _check_enumeration(len(product.base.atoms), n)
        values, weights = coordinate_sum_law(table, product.base.weights, n)
    elif mode == "sampled":
        if samples is None or samples < 1:
            raise ValueError("sampled mode needs samples >= 1")
        values, weights = _sampled_values(product, table, samples, seed), np.full(samples, 1.0 / samples)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    m = weighted_median(values, weights)
    masses = deviation_masses(values, weights, m, grid, n)
    if mode == "exact":
        count = len(product.base.atoms) ** n
        return [ProfileResult(mass, 0.0, m, "exact", count, mass) for mass in masses]
    return [
        ProfileResult(mass, math.sqrt(max(mass * (1.0 - mass), 0.0) / samples), m, "sampled", samples,
                      _wilson_upper(mass, samples))
        for mass in masses
    ]


def coordinate_sum_law(table, weights, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The law of (1/n) * sum_i table[X_i], X_i independent of law weights: values and their masses.

    The sums are formed as an enumeration of the k^n tuples forms them,
    left to right from the table row itself; after each of the n - 1
    additions of the row, partial sums with equal bits are merged
    (np.unique on their int64 view, so +0.0 and -0.0 stay apart) and their
    masses added by np.bincount.  So the distinct sums are those of the
    enumeration bit for bit, and only the order in which masses are added
    differs.  The sums are divided by n once, at the end; two sums may
    round to one value there, which is then listed twice.
    """
    table = np.asarray(table, np.float64)
    weights = np.asarray(weights, np.float64)
    sums, masses = table, weights
    for step in range(n):
        if step:
            sums = (sums[:, None] + table).ravel()
            masses = (masses[:, None] * weights).ravel()
        bits, where = np.unique(sums.view(np.int64), return_inverse=True)
        sums, masses = bits.view(np.float64), np.bincount(where, masses)
    return sums / n, masses


def _sampled_values(product: HammingProduct, table: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """The coordinate means of the `samples` rows of sample_indices, drawn in blocks of rows into buffers made once."""
    n = product.n
    rows = min(samples, max(1, PROFILE_BLOCK_DRAWS // n))
    _check_sample_array(samples)
    _check_sample_array(rows, n)
    values = np.empty(samples)
    draw = rng.Guide(np.cumsum(product.base.weights), samples * n, table)
    offsets = rng.counter_offsets(n, rows)
    # flat, so that the first n * block entries are a C-ordered (n, block) array for every block
    h, scratch, terms = np.empty(n * rows, np.uint64), np.empty(n * rows, np.uint64), np.empty(n * rows)
    for start in range(0, samples, rows):
        block = min(rows, samples - start)
        shape, size = (n, block), n * block
        hashed = rng.hashes(seed, start * n, offsets[:, :block], h[:size].reshape(shape), scratch[:size].reshape(shape))
        # drawn[j, i] is coordinate j of sample start + i.  numpy adds a C-ordered array's
        # rows one after another, but one column pairwise, so a lone column is cumulated
        drawn = draw(hashed, terms[:size].reshape(shape))
        if block > 1:
            np.sum(drawn, axis=0, out=values[start : start + block])
        else:
            values[start] = np.cumsum(drawn)[-1]
    values /= n
    return values
