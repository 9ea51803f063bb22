"""Finite metric-measure spaces with exact concentration machinery.

A space is a finite point set with a metric given as a distance matrix and
a probability vector.  Everything here is exact (up to float arithmetic):
the concentration function enumerates all subsets, medians follow the
smallest-valid-median convention, and deviation masses use the strict
inequality |f - c| > eps.

The subset enumeration splits the points into a low and a high half and
tabulates, for every subset of each half, its distance to every point and
its lightest weight.  A subset's distances are then the pointwise minimum
of two table rows, so all 2^N subsets cost N * 2^N work, and only
inclusion-minimal heavy subsets are scored: the neighbourhood mass only
grows with the set, so the infimum is attained at a minimal one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidFunctionTable,
    InvalidSpace,
    LengthMismatch,
    NegativeEps,
    NonPositiveEps,
    SpaceTooLarge,
)

DEFAULT_ENUMERATION_LIMIT = 20

_MASS_TOL = 1e-12
_DIST_TOL = 1e-12
# subset masks per block of alpha_profile's enumeration
_MASK_BLOCK = 1 << 14
# (subset, radius, point) comparisons per block of neighbourhood masses
_RADIUS_BLOCK = 1 << 22


@dataclass(frozen=True, eq=False)
class FiniteMMSpace:
    """A finite metric space carrying a probability measure.

    The distance matrix must be symmetric with zero diagonal and satisfy
    the triangle inequality; the measure must be a probability vector.
    Both are checked on construction.  Instances are immutable values and
    all operations on them are pure, so they are safe to share between
    threads.
    """

    points: tuple
    dist: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        pts = tuple(self.points)
        dist = np.asarray(self.dist, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        n = len(pts)
        if dist.shape != (n, n):
            raise InvalidSpace(f"distance matrix shape {dist.shape} does not match {n} points")
        if not np.all(np.isfinite(dist)) or np.any(dist < 0):
            raise InvalidSpace("distances must be finite and non-negative")
        if np.any(np.abs(np.diag(dist)) > _DIST_TOL):
            raise InvalidSpace("distance matrix must have zero diagonal")
        if np.any(np.abs(dist - dist.T) > _DIST_TOL):
            raise InvalidSpace("distance matrix must be symmetric")
        # d(x, y) <= d(x, z) + d(y, z) for blocks of rows x, about 2^22 triples per block
        step = max(1, (1 << 22) // max(n * n, 1))
        for x in range(0, n, step):
            block = dist[x : x + step]
            if np.any(block[:, :, None] > block[:, None, :] + dist[None, :, :] + 1e-9):
                raise InvalidSpace("triangle inequality violated")
        if mu.shape != (n,):
            raise InvalidSpace(f"measure length {mu.shape} does not match {n} points")
        # written so that a NaN weight, or a NaN sum, fails
        if not np.all(mu >= -_MASS_TOL) or not abs(math.fsum(mu) - 1.0) <= _MASS_TOL:
            raise InvalidSpace("measure must be a probability vector")
        dist.flags.writeable = False
        mu.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "mu", mu)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    @classmethod
    def uniform(cls, points, dist) -> "FiniteMMSpace":
        n = len(points)
        # no points get no mass, which the mass check refuses
        return cls(tuple(points), dist, np.full(n, 1.0 / max(n, 1)))


def _half_tables(space: FiniteMMSpace, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and lightest weights of every subset of the points first..first+count-1.

    Bit j of row S stands for point first + j.  dist[S, x] is the distance
    from x to the subset S and weight[S] its smallest point weight (both inf
    for the empty set), built by doubling: row S | 2^j is the minimum of row
    S and point first + j.
    """
    dist = np.full((1 << count, len(space)), np.inf)
    weight = np.full(1 << count, np.inf)
    for j in range(count):
        half = 1 << j
        np.minimum(dist[:half], space.dist[first + j], out=dist[half : 2 * half])
        np.minimum(weight[:half], space.mu[first + j], out=weight[half : 2 * half])
    return dist, weight


def _masses(members, mu: np.ndarray) -> np.ndarray:
    """The sum over points j of mu[j] * members[j] (0/1 flags per subset), added in index order.

    A matrix product rounds a subset's mass differently by where its row sits in the matrix.
    """
    total = 0.0
    for member, w in zip(members, mu):
        total = total + member * w
    return total


def alpha_profile(space: FiniteMMSpace, eps_values) -> np.ndarray:
    """Concentration function evaluated on a grid of radii.

    For eps > 0 this is 1 minus the infimum, over subsets A with
    mu(A) >= 1/2, of the mass of the closed eps-neighborhood of A; the
    value at eps = 0 is 1/2 by convention.

    Bit i of a subset mask stands for point i, and A is heavy when its
    mass is >= 1/2 - 1e-12.  Every mass adds the point weights in index
    order (``_masses``), so the result does not depend on the blocking.
    The distance from a point to A is the minimum of two rows of the
    half-subset tables of ``_half_tables`` (low ``N // 2`` bits and high
    bits).  The neighbourhood of A only grows with A, so only
    inclusion-minimal heavy sets are scored: A is skipped when it still
    has mass >= 1/2 after losing its lightest point, which leaves a heavy
    proper subset with no larger neighbourhood.  All radii are compared in
    one pass over the scored subsets.
    """
    eps_values = np.asarray(eps_values, dtype=np.float64)
    if not np.all(eps_values >= 0):
        raise NegativeEps("eps must be >= 0")
    npts = len(space)
    if npts > DEFAULT_ENUMERATION_LIMIT:
        raise SpaceTooLarge(f"{npts} points exceeds the enumeration limit {DEFAULT_ENUMERATION_LIMIT}")

    positive = eps_values[eps_values > 0]
    out = np.full(eps_values.shape, 0.5)
    if positive.size == 0:
        return out

    nlo = npts // 2
    dist_lo, weight_lo = _half_tables(space, 0, nlo)
    dist_hi, weight_hi = _half_tables(space, nlo, npts - nlo)
    thresholds = positive + _DIST_TOL
    best = np.full(positive.size, np.inf)
    total = 1 << npts
    points = np.arange(npts, dtype=np.uint32)[:, None]
    for lo in range(0, total, _MASK_BLOCK):
        masks = np.arange(lo, min(lo + _MASK_BLOCK, total), dtype=np.uint32)
        mass = _masses((masks >> points) & 1, space.mu)
        low, high = masks & np.uint32((1 << nlo) - 1), masks >> np.uint32(nlo)
        # skip A when A minus its lightest point keeps mass >= 1/2: that is 1e-12
        # above the heavy threshold, so the smaller set is heavy despite rounding
        lightest = np.minimum(weight_lo[low], weight_hi[high])
        minimal = (mass >= 0.5 - _MASS_TOL) & (mass - lightest < 0.5)
        if not minimal.any():
            continue
        # dist_to[x, s] = distance from point x to subset s
        dist_to = np.minimum(dist_lo[low[minimal]], dist_hi[high[minimal]]).T.copy()
        step = max(1, _RADIUS_BLOCK // dist_to.size)
        for t in range(0, positive.size, step):
            radii = thresholds[t : t + step]
            masses = _masses((d[:, None] <= radii for d in dist_to), space.mu)
            best[t : t + step] = np.minimum(best[t : t + step], masses.min(axis=0))
    # keep float roundoff inside the declared codomain [0, 1/2]
    out[eps_values > 0] = np.clip(1.0 - best, 0.0, 0.5)
    return out


def _function_table(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a function table and its weights to arrays; one finite value per weight."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.shape != weights.shape:
        raise LengthMismatch(f"table shape {values.shape} != weights shape {weights.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidFunctionTable("function table contains non-finite values")
    return values, weights


def weighted_median(values, weights) -> float:
    """Smallest m with mass(f >= m) >= 1/2 and mass(f <= m) >= 1/2."""
    values, weights = _function_table(values, weights)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    pos = int(np.searchsorted(cum, 0.5 - _MASS_TOL, side="left"))
    return float(values[order[min(pos, len(order) - 1)]])


def weighted_deviation_mass(values, weights, center: float, eps: float) -> float:
    """Mass of {|f - center| > eps} (strict inequality)."""
    if not eps > 0:
        raise NonPositiveEps("eps must be > 0")
    values, weights = _function_table(values, weights)
    return float(weights[np.abs(values - center) > eps].sum())
