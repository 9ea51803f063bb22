"""Piecewise-constant maps from [0, 1) into a word group, in canonical form.

One type, PiecewiseMap, holds every step map: values between strictly
increasing breakpoints in (0, 1), and h_embed builds the one on the
uniform n-grid, with breakpoints i/n.  Cells are half open on the right,
and a breakpoint sitting exactly on a grid point belongs to the cell on
its right.  The constructor puts every value through group.validate and
drops every breakpoint between two equal values, so the partition is the
coarsest one: two maps are == (and hash equal) exactly when they are
equal as functions, and nothing downstream validates again.  For
discrete base groups, convergence in measure is the disagreement
pseudometric, the measure of {f != g}.  Step maps on the n-grid under the
product measure are the Hamming product: disagreement is then
hamming_distance of the value tuples, and a one-piece IntegralMember (the
member type of step maps and profiles) is a coordinate mean.

Every quantity here and in amplify walks the common refinement of two
partitions of [0, 1), and one routine walks it: cut_runs cuts a map's
runs (start, stop, value) at a sorted breakpoint list and numbers each
piece by the breaks before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable

import numpy as np

from .errors import CarrierMismatch, EmptyTuple, LengthMismatch
from .wordgroups import WordGroup


def _check_breakpoints(breakpoints, pieces: int, what: str) -> tuple:
    """The breakpoints as floats, once they are strictly increasing, inside (0, 1) and one fewer than the pieces."""
    breaks = tuple(float(b) for b in breakpoints)
    if pieces != len(breaks) + 1:
        raise ValueError(f"need exactly one more {what} than breakpoints")
    if any(not 0.0 < b < 1.0 for b in breaks):
        raise ValueError("breakpoints must lie strictly inside (0, 1)")
    if any(b1 >= b2 for b1, b2 in zip(breaks, breaks[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    return breaks


@dataclass(frozen=True)
class PiecewiseMap:
    """A map constant between strictly increasing breakpoints in (0, 1).

    The breakpoints between two equal values are dropped, so equal
    neighbours merge into one cell and == is equality of functions.
    """

    group: WordGroup
    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        values = tuple(map(self.group.validate, self.values))
        if not values:
            raise EmptyTuple("a map needs at least one cell")
        breaks = _check_breakpoints(self.breakpoints, len(values), "value")
        cut = [i for i in range(1, len(values)) if values[i] != values[i - 1]]
        object.__setattr__(self, "breakpoints", tuple(breaks[i - 1] for i in cut))
        object.__setattr__(self, "values", tuple(values[i] for i in (0, *cut)))


def h_embed(group: WordGroup, values) -> PiecewiseMap:
    """Embed a tuple g in G^n as the map with value g_i on the uniform cell [(i-1)/n, i/n).

    This is a group homomorphism for the pointwise operation: the embedded
    product of two tuples is the pointwise product of their embeddings.
    """
    n = len(values)
    return PiecewiseMap(group, tuple(i / n for i in range(1, n)), values)


def runs_of(f: PiecewiseMap):
    """The runs (start, stop, value) of f, left to right over [0, 1)."""
    edges = (0.0, *f.breakpoints, 1.0)
    return zip(edges, edges[1:], f.values)


def cut_runs(runs, breaks):
    """Yield (start, stop, value, piece) for the runs (start, stop, value) cut at the sorted breaks.

    The runs go left to right; piece is the number of breaks at or before
    start.  On runs_of(f) and breaks inside (0, 1), this is the common
    refinement of f's breakpoints and the breaks: every stop is the next
    start, and a break equal to a breakpoint cuts once.
    """
    p = 0
    for start, stop, v in runs:
        while p < len(breaks) and breaks[p] <= start:
            p += 1
        while p < len(breaks) and breaks[p] < stop:
            yield start, breaks[p], v, p
            start = breaks[p]
            p += 1
        yield start, stop, v, p


@dataclass(frozen=True, eq=False)
class IntegralMember:
    """The member h -> phi(integral over [0, 1) of kernel[p](h(t)) dt).

    The breakpoints cut [0, 1) into one piece per kernel, and p is the
    piece holding t, so the kernel is constant in t on each piece.  The
    constructor checks them as PiecewiseMap checks its own: strictly
    increasing, inside (0, 1), one fewer than the kernels.
    A call cuts h's runs at the breakpoints and adds the pieces' integrals
    left to right from 0.0.
    Each kernel must be a pure function of the element: one
    amplify.expectations call builds the column of a kernel over a
    translated support once and reuses it for every cell and shift of that
    call that carries the same shift value: by its optional bulk method
    ``values(elements)`` when it has one for the base group (as
    wordgroups.Mismatch does), else once per canonical element (a tuple
    of Python ints on Z^d, a Python int on Z_m, a word).  phi maps the
    integral, a float or an array of them, to the value, each entry on its own, so that
    members sharing a phi may take it on one table of their integrals.
    """

    breakpoints: tuple
    kernel: tuple
    phi: Callable = np.asarray  # the identity on floats and arrays

    def __post_init__(self):
        kernel = tuple(self.kernel)
        object.__setattr__(self, "breakpoints", _check_breakpoints(self.breakpoints, len(kernel), "kernel"))
        object.__setattr__(self, "kernel", kernel)

    def __call__(self, h: PiecewiseMap) -> float:
        pieces = cut_runs(runs_of(h), self.breakpoints)
        # left to right from 0.0: from Python 3.12 on, sum() compensates
        total = reduce(add, ((stop - start) * self.kernel[p](v) for start, stop, v, p in pieces), 0.0)
        return float(self.phi(total))


def hamming_distance(x, y) -> float:
    """Fraction of coordinates where two equal-length tuples differ."""
    if len(x) != len(y):
        raise LengthMismatch(f"tuple lengths {len(x)} and {len(y)} differ")
    if len(x) == 0:
        raise LengthMismatch("tuples must be non-empty")
    return sum(1 for a, b in zip(x, y) if a != b) / len(x)


def pointwise_translate(g: PiecewiseMap, h: PiecewiseMap) -> PiecewiseMap:
    """The left translate t -> g(t)*h(t), cut at the breakpoints of g and h, in canonical form.

    Uniform breakpoints i/n are correctly rounded, so grid points shared by
    two grids cut once; the constructor then merges equal neighbours.
    """
    if g.group != h.group:
        raise CarrierMismatch("maps live over different groups")
    group = h.group
    cells = list(cut_runs(runs_of(h), g.breakpoints))
    values = tuple(group.op(g.values[p], v) for _, _, v, p in cells)
    return PiecewiseMap(group, tuple(start for start, _, _, _ in cells[1:]), values)


def grid_approximate(f: PiecewiseMap, n: int) -> tuple[tuple, float]:
    """Left-endpoint sampling of f on the uniform n-grid.

    Returns the tuple g with g_i = f((i-1)/n) together with the
    disagreement of f and h_embed(g), the measure of {f != h_embed(g)}; the
    latter is at most (#breakpoints)/n, and the tuple only uses values f
    already takes.
    Both come from one walk over f's runs cut at the grid, where each
    cell's first piece starts at its left endpoint.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g, dis = [], 0.0
    for start, stop, v, p in cut_runs(runs_of(f), [i / n for i in range(1, n)]):
        if p == len(g):
            g.append(v)
        elif v != g[p]:
            dis += stop - start
    return tuple(g), dis
