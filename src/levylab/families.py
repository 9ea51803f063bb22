"""Bounded-Lipschitz test families.

A BLFamily is a finite list of evaluable members with a shared sup-norm
bound B and Lipschitz constant L for the carrier's metric (word metric on
a group carrier, disagreement pseudometric on a step-map carrier).  The
built-in members are stepmaps.IntegralMember h -> phi(int k(t, h(t)) dt)
on step maps, whose kernels are wordgroups.Mismatch, and
wordgroups.ClampedLength on groups; both have bulk paths.  All suprema
over a family are maxima over the list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import rng
from .errors import CarrierMismatch
from .stepmaps import IntegralMember, PiecewiseMap
from .wordgroups import ClampedLength, FinSuppMeasure, Mismatch, WordGroup


@dataclass(frozen=True)
class GroupCarrier:
    """Members take group elements; Lipschitz is w.r.t. the word metric."""

    group: WordGroup


@dataclass(frozen=True)
class L0Carrier:
    """Members take step maps (stepmaps.PiecewiseMap); Lipschitz is w.r.t. disagreement."""

    group: WordGroup


Carrier = GroupCarrier | L0Carrier


@dataclass(frozen=True)
class BLFamily:
    carrier: Carrier
    members: tuple
    bound: float
    lipschitz: float

    def __post_init__(self):
        if not self.members:
            raise ValueError("a family needs at least one member")
        if self.bound <= 0 or self.lipschitz < 0:
            raise ValueError("bound must be positive and lipschitz non-negative")
        object.__setattr__(self, "members", tuple(self.members))


def invariance_defect(mu: FinSuppMeasure, g, family: BLFamily) -> float:
    """max over the family of |E_mu(f) - E_mu(f o lambda_g)|.

    Zero iff every member has equal means under mu and its g-translate.
    """
    if not isinstance(family.carrier, GroupCarrier) or family.carrier.group != mu.group:
        raise CarrierMismatch("family is not carried by the measure's group")
    moved = mu.translate(g)
    return max(abs(mu.expectation(f) - moved.expectation(f)) for f in family.members)


# ---------------------------------------------------------------------------
# Named builders (also reachable from CLI descriptors)


def wordlen_clamp_family(group: WordGroup, caps, *, normalize: bool = True) -> BLFamily:
    """Clamped word-length members min(wl(x), c), optionally rescaled to [0, 1]."""
    caps = [int(c) for c in caps]
    if any(c < 1 for c in caps):
        raise ValueError("caps must be >= 1")
    members = tuple(ClampedLength(group, c, c if normalize else 1) for c in caps)
    if normalize:
        bound, lipschitz = 1.0, 1.0 / min(caps)
    else:
        bound, lipschitz = float(max(caps)), 1.0
    return BLFamily(GroupCarrier(group), members, bound, lipschitz)


def disagreement_member(reference: PiecewiseMap) -> IntegralMember:
    """The member h -> disagreement(reference, h); 1-bounded, 1-Lipschitz."""
    kernel = tuple(Mismatch(reference.group, v) for v in reference.values)
    return IntegralMember(tuple(reference.breakpoints), kernel)


def disagreement_family(
    group: WordGroup,
    count: int,
    seed: int,
    *,
    max_pieces: int = 3,
    radius: int = 4,
) -> BLFamily:
    """Distance-to-reference members over seeded random piecewise targets.

    Member j draws a piece count in 1..max_pieces, its breakpoints and a
    value per piece; equal neighbouring values merge in the reference map,
    so max_pieces is an upper bound on a member's kernel pieces.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if max_pieces < 1:
        raise ValueError("max_pieces must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    members = []
    for j in range(count):
        gen = np.random.default_rng(rng.derive_seed(seed, "disagreement", j))
        pieces = int(gen.integers(1, max_pieces + 1))
        breaks: tuple = ()
        while pieces > 1:
            draw = sorted(set(float(b) for b in gen.uniform(0.0, 1.0, size=pieces - 1)))
            if len(draw) == pieces - 1 and all(0.0 < b < 1.0 for b in draw):
                breaks = tuple(draw)
                break
        values = tuple(group.random_element(gen, radius) for _ in range(pieces))
        members.append(disagreement_member(PiecewiseMap(group, breaks, values)))
    return BLFamily(L0Carrier(group), tuple(members), 1.0, 1.0)


def cell_window_member(group: WordGroup, lo: float, hi: float, value, width: float) -> IntegralMember:
    """h -> max(0, 1 - |{t in [lo, hi) : h(t) != value}| / width)."""
    value = group.validate(value)
    # lo == hi cuts once: IntegralMember takes strictly increasing breakpoints
    breaks = tuple(b for b in sorted({lo, hi}) if 0.0 < b < 1.0)
    # weight 0.0 outside the window: the zero kernel
    kernel = tuple(Mismatch(group, value, float(lo <= start < hi)) for start in (0.0,) + breaks)
    return IntegralMember(breaks, kernel, partial(_clipped_slope, width))


def _clipped_slope(width: float, s):
    return np.maximum(0.0, 1.0 - s / width)


def cell_window_family(
    group: WordGroup,
    count: int,
    seed: int,
    *,
    width: float = 0.25,
    radius: int = 4,
) -> BLFamily:
    """Smoothed indicators that h matches a reference value on a window.

    Each member is 1 minus the clipped mismatch mass on a random window,
    rescaled by the smoothing width; bound 1 and Lipschitz 1/width for the
    disagreement pseudometric.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 < width <= 1.0:
        raise ValueError("width must lie in (0, 1]")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    members = []
    for j in range(count):
        gen = np.random.default_rng(rng.derive_seed(seed, "cell-window", j))
        lo, hi = sorted(float(t) for t in gen.uniform(0.0, 1.0, size=2))
        if hi - lo < 1e-3:
            hi = min(1.0, lo + 0.25)
        value = group.random_element(gen, radius)
        members.append(cell_window_member(group, lo, hi, value, width))
    return BLFamily(L0Carrier(group), tuple(members), 1.0, 1.0 / width)
