"""Finite metric-measure spaces with exact concentration machinery.

A space is a finite point set with a metric given as a distance matrix and
a probability vector.  Everything here is exact (up to float arithmetic):
the concentration function enumerates all subsets, medians follow the
smallest-valid-median convention, and deviation masses use the strict
inequality |f - c| > eps, past the rounding the values can carry.

The subset enumeration splits the points into a low and a high half and
tabulates each half-subset's distances, lightest weight and mass.  Only
inclusion-minimal heavy subsets are scored (the neighbourhood mass grows
with the set), found in one window of sorted low-half masses per high
subset; a subset's distances are the pointwise minimum of two table rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import (
    InvalidFunctionTable,
    InvalidSpace,
    LengthMismatch,
    NegativeEps,
    NonPositiveEps,
    SpaceTooLarge,
)

_MASS_TOL = 1e-12
_DIST_TOL = 1e-12
# widens alpha_profile's windows past the gap (<= 1e-15) between two-half and index-order masses
_WINDOW_SLACK = 1e-13
# candidate subsets per block of alpha_profile's enumeration
_MASK_BLOCK = 1 << 12
# comparisons per block: (subset, radius, point) for neighbourhood masses, (x, y, z) for the triangle check
_RADIUS_BLOCK = _TRIANGLE_BLOCK = 1 << 22


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
        # d(x, y) <= d(x, z) + d(y, z) for blocks of rows x
        step = max(1, _TRIANGLE_BLOCK // max(n * n, 1))
        for x in range(0, n, step):
            block = dist[x : x + step]
            if np.any(block[:, :, None] > block[:, None, :] + dist[None, :, :] + 1e-9):
                raise InvalidSpace("triangle inequality violated")
        if mu.shape != (n,):
            raise InvalidSpace(f"measure length {mu.shape} does not match {n} points")
        # written so that a NaN weight, or a NaN sum, fails; no weight above 1 reaches fsum, which overflows
        if not np.all((mu >= -_MASS_TOL) & (mu <= 1 + _MASS_TOL)) or not abs(math.fsum(mu) - 1.0) <= _MASS_TOL:
            raise InvalidSpace("measure must be a probability vector")
        dist.flags.writeable = False
        mu.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "mu", mu)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def uniform(cls, points, dist) -> "FiniteMMSpace":
        n = len(points)
        # no points get no mass, which the mass check refuses
        return cls(tuple(points), dist, np.full(n, 1.0 / max(n, 1)))


def _half_tables(space: FiniteMMSpace, first: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distances, lightest weights and masses of every subset of the points first..first+count-1.

    Bit j of row S stands for point first + j.  dist[S, x] is the distance
    from x to S, weight[S] its smallest point weight (both inf for the
    empty set) and mass[S] its weights added in index order, built by
    doubling: row S | 2^j is row S combined with point first + j.
    """
    dist = np.full((1 << count, len(space)), np.inf)
    weight = np.full(1 << count, np.inf)
    mass = np.zeros(1 << count)
    for j in range(count):
        half = 1 << j
        np.minimum(dist[:half], space.dist[first + j], out=dist[half : 2 * half])
        np.minimum(weight[:half], space.mu[first + j], out=weight[half : 2 * half])
        np.add(mass[:half], space.mu[first + j], out=mass[half : 2 * half])
    return dist, weight, mass


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
    Only inclusion-minimal heavy sets are scored, as the neighbourhood of
    A grows with A: A is skipped when it keeps mass >= 1/2 after losing
    its lightest point.  Such an A = high | low (low ``N // 2`` bits) has
    1/2 <= mass_lo + mass_hi < 1/2 + lightest_hi: per high subset, one
    window of the sorted low masses of ``_half_tables``, widened by
    ``_WINDOW_SLACK``.  Of those, A also has mass_lo + mass_hi < 1/2 +
    lightest_lo; the candidates that pass alone get index-order masses.
    A's distances are the minimum of two table rows; radii go in one pass.
    """
    eps_values = np.asarray(eps_values, dtype=np.float64)
    if not np.all(eps_values >= 0):
        raise NegativeEps("eps must be >= 0")
    npts = len(space)
    if npts > limits.ENUMERATION_LIMIT:
        raise SpaceTooLarge(f"{npts} points exceeds the enumeration limit {limits.ENUMERATION_LIMIT}")

    positive = eps_values[eps_values > 0]
    out = np.full(eps_values.shape, 0.5)
    if positive.size == 0:
        return out

    nlo = npts // 2
    dist_lo, weight_lo, mass_lo = _half_tables(space, 0, nlo)
    dist_hi, weight_hi, mass_hi = _half_tables(space, nlo, npts - nlo)
    # high subset h takes the low subsets order[start[h]:stop[h]]; ends[h] counts those of 0..h
    order = np.argsort(mass_lo, kind="stable")
    start = np.searchsorted(mass_lo[order], 0.5 - _MASS_TOL - _WINDOW_SLACK - mass_hi)
    stop = np.searchsorted(mass_lo[order], 0.5 + _WINDOW_SLACK + weight_hi - mass_hi)
    ends = np.cumsum(stop - start)
    thresholds = positive + _DIST_TOL
    best = np.full(positive.size, np.inf)
    total = int(ends[-1])
    points = np.arange(npts)[:, None]
    for lo in range(0, total, _MASK_BLOCK):
        k = np.arange(lo, min(lo + _MASK_BLOCK, total))
        high = np.searchsorted(ends, k, side="right")
        low = order[stop[high] - (ends[high] - k)]
        # a minimal A weighs < 1/2 without its lightest point, so also without its lightest low one
        keep = mass_lo[low] + mass_hi[high] - weight_lo[low] < 0.5 + _WINDOW_SLACK
        low, high = low[keep], high[keep]
        mass = _masses(((low | high << nlo) >> points) & 1, space.mu)
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
    """Coerce a function table and its weights to arrays; one finite value per weight, in a row per function."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.ndim not in (1, 2) or values.shape[-1:] != weights.shape:
        raise LengthMismatch(f"table shape {values.shape} != weights shape {weights.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidFunctionTable("function table contains non-finite values")
    return values, weights


def weighted_median(values, weights):
    """Smallest m with mass(f >= m) >= 1/2 and mass(f <= m) >= 1/2.

    values holds one value per weight (a float is returned) or a table
    with one such row per function (an array of one median per row).
    Each row is sorted stably and its weights cumulated on their own, so a
    row's median has the bits it has alone.  Equal weights cumulate the
    same in any order, so there the median is an order statistic, taken
    from an unstable sort (of the zeros, the one the stable sort puts in
    its place).
    """
    values, weights = _function_table(values, weights)
    rows = np.atleast_2d(values)
    medians = []
    if weights.size and weights.min() == weights.max():
        pos = min(int(np.searchsorted(np.cumsum(weights), 0.5 - _MASS_TOL, side="left")), len(weights) - 1)
        for row, m in zip(rows, np.sort(rows, axis=1)[:, pos]):
            # -0.0 ties 0.0: the stable sort puts the zeros in index order
            medians.append(row[np.flatnonzero(row == 0)[pos - np.count_nonzero(row < 0)]] if m == 0 else m)
    else:
        for row, order in zip(rows, np.argsort(rows, axis=1, kind="stable")):
            cum = np.cumsum(weights[order])
            pos = int(np.searchsorted(cum, 0.5 - _MASS_TOL, side="left"))
            medians.append(row[order[min(pos, len(order) - 1)]])
    return float(medians[0]) if values.ndim == 1 else np.array(medians)


def _beyond(gaps, eps: float, terms: int, size):
    """Where gaps exceed eps by more than the rounding of values formed as sums of terms floats.

    A sum of terms floats, each at most size in magnitude, is off by at most
    about terms ulps of size; the gap and eps each add one more.  So a gap
    counts only where gap - eps > (terms + 2) * ulp(1) * size, and a value
    whose real gap is exactly eps (a lattice value k/n at eps = j/m) is not
    counted, whichever way its sum rounded.
    """
    return gaps - eps > (terms + 2) * np.finfo(np.float64).eps * size


def weighted_deviation_mass(values, weights, center, eps: float, terms: int = 1):
    """Mass of {|f - center| > eps} (strict inequality, up to the rounding of f).

    For a table with one row per function (see weighted_median), center
    is one float or one per row, and one mass per row is returned, each
    summed over its own row.  terms is the number of floats added to form
    each value; _beyond is the comparison, with |f| + |center| + eps as the
    size of the values.
    """
    if not eps > 0:
        raise NonPositiveEps("eps must be > 0")
    values, weights = _function_table(values, weights)
    center = np.asarray(center, dtype=np.float64)
    center = center[..., None] if values.ndim == 2 else center
    far = _beyond(np.abs(values - center), eps, terms, np.abs(values) + np.abs(center) + eps)
    masses = [weights[row].sum() for row in np.atleast_2d(far)]
    return float(masses[0]) if values.ndim == 1 else np.array(masses)


def deviation_masses(values, weights, center: float, grid, terms: int = 1) -> list[float]:
    """weighted_deviation_mass(values, weights, center, eps, terms) at each eps of grid, bit for bit.

    values is one row.  Unequal weights take one weighted_deviation_mass
    per radius.  Equal weights w sort the values once; at each radius, the
    values farther from center than eps plus four times _beyond's rounding
    allowance are far and those nearer than eps minus it are not, both
    counted by np.searchsorted, and _beyond decides the rest.  k far values
    have the mass np.full(k, w).sum(), the bits of weights[far].sum().
    """
    values, weights = _function_table(values, weights)
    if values.ndim != 1:
        raise LengthMismatch("deviation_masses takes one row of values")
    if not (weights.size and weights.min() == weights.max()):
        return [weighted_deviation_mass(values, weights, center, eps, terms) for eps in grid]
    if not all(eps > 0 for eps in grid):
        raise NonPositiveEps("eps must be > 0")
    ranked = np.sort(values)
    largest = max(-ranked[0], ranked[-1])
    mass_of_count = {}
    masses = []
    for eps in grid:
        slack = 4 * (terms + 2) * np.finfo(np.float64).eps * (largest + abs(center) + eps)
        # below low or from high_end on: far; from low_end to high: near; the two edges between
        low, high = np.searchsorted(ranked, [center - eps - slack, center + eps - slack], "left")
        low_end, high_end = np.searchsorted(ranked, [center - eps + slack, center + eps + slack], "right")
        edges = np.concatenate((ranked[low:low_end], ranked[max(high, low_end) : high_end]))
        far = _beyond(np.abs(edges - center), eps, terms, np.abs(edges) + abs(center) + eps)
        k = int(low + len(ranked) - high_end + np.count_nonzero(far))
        if k not in mass_of_count:
            mass_of_count[k] = float(np.full(k, weights[0]).sum())
        masses.append(mass_of_count[k])
    return masses
