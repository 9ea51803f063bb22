"""Bounded-Lipschitz test families and coordinate pull-backs.

A BLFamily is a finite list of evaluable members with a shared sup-norm
bound B and Lipschitz constant L for the carrier's metric (word metric on
a group carrier, disagreement pseudometric on a step-map carrier).  The
built-in step-map members are IntegralMembers h -> phi(int k(t, h(t)) dt).
All suprema over a family are maxima over the list.  Lipschitz
verification is probabilistic: sampled pairs, not exhaustive checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from operator import add, ne
from typing import Callable

import numpy as np

from . import rng
from .errors import CarrierMismatch, DimensionMismatch, LipschitzViolation, OutOfRange
from .stepmaps import AnyMap, PiecewiseMap, StepMap, disagreement, h_embed, merge_breakpoints
from .wordgroups import ClampedLength, FinSuppMeasure, WordGroup

_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class GroupCarrier:
    """Members take group elements; Lipschitz is w.r.t. the word metric."""

    group: WordGroup

    def distance(self, x, y) -> float:
        return float(self.group.distance(x, y))

    def random_point(self, gen: np.random.Generator, radius: int = 4):
        return self.group.random_element(gen, radius)


@dataclass(frozen=True)
class L0Carrier:
    """Members take step/piecewise maps; Lipschitz is w.r.t. disagreement."""

    group: WordGroup

    def distance(self, x: AnyMap, y: AnyMap) -> float:
        return disagreement(x, y)

    def random_point(self, gen: np.random.Generator, radius: int = 4) -> StepMap:
        n = int(gen.integers(1, 9))
        values = tuple(self.group.random_element(gen, radius) for _ in range(n))
        return StepMap(self.group, values)


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

    def __len__(self) -> int:
        return len(self.members)


def _zero(x) -> float:
    return 0.0


@dataclass(frozen=True, eq=False)
class IntegralMember:
    """The member h -> phi(integral over [0, 1) of kernel[p](h(t)) dt).

    The breakpoints (sorted, inside (0, 1)) cut [0, 1) into pieces, and p
    is the piece holding t, so the kernel is constant in t on each piece.
    phi maps the integral, a float or an array of them, to the value.
    """

    breakpoints: tuple
    kernel: tuple
    phi: Callable = np.asarray  # the identity on floats and arrays

    def __call__(self, h: AnyMap) -> float:
        v = h.values
        pieces = merge_breakpoints(self.breakpoints, h.breakpoints)
        # left to right from 0.0: from Python 3.12 on, sum() compensates
        total = reduce(add, ((stop - start) * self.kernel[p](v[i]) for start, stop, p, i in pieces), 0.0)
        return float(self.phi(total))


def eval_member(family: BLFamily, index: int, x) -> float:
    """Evaluate one member, enforcing the declared sup-norm bound."""
    value = float(family.members[index](x))
    if abs(value) > family.bound + _BOUND_TOL:
        raise OutOfRange(
            f"member {index} returned {value}, outside declared bound {family.bound}"
        )
    return value


def spot_check_lipschitz(family: BLFamily, *, seed: int = 0, pairs: int = 64, radius: int = 4) -> None:
    """Sample point pairs and verify |f(x)-f(y)| <= L*d(x,y) + 1e-9."""
    gen = np.random.default_rng(rng.derive_seed(seed, "family-lipschitz"))
    carrier, lipschitz = family.carrier, family.lipschitz
    for _ in range(pairs):
        x, y = carrier.random_point(gen, radius), carrier.random_point(gen, radius)
        d = carrier.distance(x, y)
        for i, f in enumerate(family.members):
            gap = abs(float(f(x)) - float(f(y))) - lipschitz * d
            if gap > 1e-9:
                raise LipschitzViolation(
                    f"member {i} exceeds declared L={lipschitz} by {gap:.3e} on a sampled pair"
                )


def splice(i: int, a: tuple, x) -> tuple:
    """Insert x at position i (1-based) of the (n-1)-tuple a, giving an n-tuple."""
    if not 1 <= i <= len(a) + 1:
        raise DimensionMismatch(f"position {i} invalid for a tuple of length {len(a)}")
    return a[: i - 1] + (x,) + a[i - 1 :]


def pullback_member(F, group: WordGroup, n: int, i: int, a: tuple) -> Callable:
    """Pull an L0 member back to the group: x -> F(h_n(a_1..a_{i-1}, x, a_i..)).

    For a member with data (B, L) over the disagreement metric, the
    pull-back is B-bounded and (L/n)-Lipschitz for the word metric, since
    changing the single coordinate moves the embedded map on one cell of
    width 1/n.
    """
    if n < 1 or not 1 <= i <= n or len(a) != n - 1:
        raise DimensionMismatch(f"inconsistent pull-back data n={n}, i={i}, |a|={len(a)}")
    a = tuple(group.validate(v) for v in a)

    def member(x):
        return F(h_embed(group, splice(i, a, x)))

    return member


def pullback_family(family: BLFamily, n: int, i: int, a: tuple) -> BLFamily:
    """Pull a whole L0 family back through one coordinate slot."""
    if not isinstance(family.carrier, L0Carrier):
        raise CarrierMismatch("pull-backs need a family over a step-map carrier")
    group = family.carrier.group
    members = tuple(pullback_member(F, group, n, i, a) for F in family.members)
    return BLFamily(GroupCarrier(group), members, family.bound, family.lipschitz / n)


def compose_with_translation(f, g, group: WordGroup) -> Callable:
    """The member x -> f(g*x).

    The sup-norm bound is preserved.  The Lipschitz constant for the
    right-invariant metric is preserved on abelian carriers; in general it
    is only controlled in the spliced combinations the pull-back
    identities produce, which is where this is used.
    """
    g = group.validate(g)

    def member(x):
        return f(group.op(g, x))

    return member


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


def wordlen_clamp_member(group: WordGroup, cap: int, *, normalize: bool = True) -> ClampedLength:
    return ClampedLength(group, cap, cap if normalize else 1)


def wordlen_clamp_family(group: WordGroup, caps, *, normalize: bool = True) -> BLFamily:
    """Clamped word-length members min(wl(x), c), optionally rescaled to [0, 1]."""
    caps = [int(c) for c in caps]
    if any(c < 1 for c in caps):
        raise ValueError("caps must be >= 1")
    members = tuple(wordlen_clamp_member(group, c, normalize=normalize) for c in caps)
    if normalize:
        bound, lipschitz = 1.0, 1.0 / min(caps)
    else:
        bound, lipschitz = float(max(caps)), 1.0
    return BLFamily(GroupCarrier(group), members, bound, lipschitz)


def disagreement_member(reference: AnyMap) -> IntegralMember:
    """The member h -> disagreement(reference, h); 1-bounded, 1-Lipschitz."""
    kernel = tuple(partial(ne, v) for v in reference.values)
    return IntegralMember(tuple(reference.breakpoints), kernel)


def disagreement_family(
    group: WordGroup,
    count: int,
    seed: int,
    *,
    max_pieces: int = 3,
    radius: int = 4,
) -> BLFamily:
    """Distance-to-reference members over seeded random piecewise targets."""
    if count < 1:
        raise ValueError("count must be >= 1")
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
        ref: AnyMap
        if breaks:
            ref = PiecewiseMap(group, breaks, values)
        else:
            ref = StepMap(group, values)
        members.append(disagreement_member(ref))
    return BLFamily(L0Carrier(group), tuple(members), 1.0, 1.0)


def cell_window_member(group: WordGroup, lo: float, hi: float, value, width: float) -> IntegralMember:
    """h -> max(0, 1 - |{t in [lo, hi) : h(t) != value}| / width)."""
    mismatch = partial(ne, group.validate(value))
    breaks = tuple(b for b in (lo, hi) if 0.0 < b < 1.0)
    kernel = tuple(mismatch if lo <= start < hi else _zero for start in (0.0,) + breaks)
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
    members = []
    for j in range(count):
        gen = np.random.default_rng(rng.derive_seed(seed, "cell-window", j))
        lo, hi = sorted(float(t) for t in gen.uniform(0.0, 1.0, size=2))
        if hi - lo < 1e-3:
            hi = min(1.0, lo + 0.25)
        value = group.random_element(gen, radius)
        members.append(cell_window_member(group, lo, hi, value, width))
    return BLFamily(L0Carrier(group), tuple(members), 1.0, 1.0 / width)
