"""Step and piecewise-constant maps from [0, 1) into a word group.

A StepMap is constant on the n uniform cells [(i-1)/n, i/n); a
PiecewiseMap allows arbitrary breakpoints.  Cells are half open on the
right, and a breakpoint sitting exactly on a grid point belongs to the
cell on its right.  For discrete base groups, convergence in measure is
exactly the disagreement pseudometric computed here.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add

from .errors import CarrierMismatch, EmptyTuple
from .hamming import hamming_distance
from .wordgroups import WordGroup


@dataclass(frozen=True)
class StepMap:
    """A map constant on the n uniform cells of [0, 1)."""

    group: WordGroup
    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise EmptyTuple("a step map needs at least one cell")
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def breakpoints(self) -> tuple:
        n = self.n
        return tuple(i / n for i in range(1, n))

    def value_at(self, t: float):
        return self.values[bisect_right(self.breakpoints, t)]


@dataclass(frozen=True)
class PiecewiseMap:
    """A map constant between strictly increasing breakpoints in (0, 1).

    Adjacent cells may carry equal values; no canonicalization happens.
    """

    group: WordGroup
    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breakpoints)
        values = tuple(self.values)
        if len(values) == 0:
            raise EmptyTuple("a piecewise map needs at least one cell")
        if len(values) != len(breaks) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if any(not 0.0 < b < 1.0 for b in breaks):
            raise ValueError("breakpoints must lie strictly inside (0, 1)")
        if any(b1 >= b2 for b1, b2 in zip(breaks, breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", breaks)
        object.__setattr__(self, "values", values)

    def value_at(self, t: float):
        return self.values[bisect_right(self.breakpoints, t)]


AnyMap = StepMap | PiecewiseMap


def h_embed(group: WordGroup, values) -> StepMap:
    """Embed a tuple g in G^n as the step map with cell values g_i.

    This is a group homomorphism for the pointwise operation: the embedded
    product of two tuples is the pointwise product of their embeddings.
    """
    values = tuple(values)
    if not values:
        raise EmptyTuple("cannot embed an empty tuple")
    return StepMap(group, tuple(group.validate(v) for v in values))


def identity_map(group: WordGroup, n: int = 1) -> StepMap:
    return StepMap(group, (group.identity,) * n)


def merge_breakpoints(ab, bb):
    """Yield (start, stop, ia, ib) over the common refinement of two breakpoint lists.

    Both lists are sorted inside (0, 1); [start, stop) lies in cell ia of
    the first list and in cell ib of the second.
    """
    ia = ib = 0
    start = 0.0
    while start < 1.0:
        next_a = ab[ia] if ia < len(ab) else 1.0
        next_b = bb[ib] if ib < len(bb) else 1.0
        stop = next_a if next_a <= next_b else next_b
        yield start, stop, ia, ib
        if stop == next_a and ia < len(ab):
            ia += 1
        if stop == next_b and ib < len(bb):
            ib += 1
        start = stop


def iter_joint_cells(a: AnyMap, b: AnyMap):
    """Yield (start, stop, va, vb) over the merged cell structure of a, b."""
    va, vb = a.values, b.values
    for start, stop, ia, ib in merge_breakpoints(a.breakpoints, b.breakpoints):
        yield start, stop, va[ia], vb[ib]


def _check_same_group(a: AnyMap, b: AnyMap) -> WordGroup:
    if a.group != b.group:
        raise CarrierMismatch("maps live over different groups")
    return a.group


def pointwise_translate(g: AnyMap, h: AnyMap) -> AnyMap:
    """The left translate t -> g(t)*h(t) on the merged breakpoints of g and h.

    A StepMap when both are step maps and one grid refines the other,
    otherwise a PiecewiseMap.  Uniform breakpoints i/n are correctly
    rounded, so grid points shared by two grids merge into one.
    """
    group = _check_same_group(g, h)
    cells = list(iter_joint_cells(g, h))
    values = tuple(group.op(va, vb) for _, _, va, vb in cells)
    if isinstance(g, StepMap) and isinstance(h, StepMap) and len(values) == max(g.n, h.n):
        return StepMap(group, values)
    return PiecewiseMap(group, tuple(start for start, _, _, _ in cells[1:]), values)


def disagreement(f: AnyMap, g: AnyMap) -> float:
    """Lebesgue measure of {t : f(t) != g(t)}.

    A pseudometric on maps; on equal-grid step maps it equals the
    normalized Hamming distance of the value tuples.
    """
    _check_same_group(f, g)
    if isinstance(f, StepMap) and isinstance(g, StepMap) and f.n == g.n:
        # count / n is exact; summing the merged cell lengths would round
        return hamming_distance(f.values, g.values)
    # left to right from 0.0: from Python 3.12 on, sum() compensates
    return reduce(add, (stop - start for start, stop, va, vb in iter_joint_cells(f, g) if va != vb), 0.0)


def in_neighborhood(f: AnyMap, radius: int, eps: float) -> bool:
    """Membership in the basic neighborhood N(ball(radius), eps) of the identity.

    True iff the mass of {t : wl(f(t)) >= radius} is strictly below eps,
    i.e. f stays inside the open word ball of the given radius outside a
    set of measure < eps.
    """
    wl, values = f.group.word_length, f.values
    cells = merge_breakpoints(f.breakpoints, ())
    offending = reduce(add, (stop - start for start, stop, i, _ in cells if wl(values[i]) >= radius), 0.0)
    return offending < eps


def grid_approximate(f: AnyMap, n: int) -> tuple[tuple, float]:
    """Left-endpoint sampling of f on the uniform n-grid.

    Returns the tuple g with g_i = f((i-1)/n) together with
    disagreement(f, h_embed(g)); the latter is at most
    (#breakpoints)/n, and the tuple only uses values f already takes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    breaks = f.breakpoints
    g = tuple(f.values[bisect_right(breaks, i / n)] for i in range(n))
    return g, disagreement(f, StepMap(f.group, g))
