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
product measure are the Hamming product: disagreement is then the
fraction of differing coordinates of the value tuples, and a one-piece
IntegralMember (the member type of step maps and profiles) is a
coordinate mean.

An IntegralMember is data: breakpoints, kernels and phi.  Its one
evaluator, amplify.expectations, integrates members on the joint
refinement of the grid, each shift and their own breakpoints, for all
maps of a measure at once; one grid map is the point mass at it
(mean_transfer.point_mass).  grid_runs reads a map against the uniform
grid for grid_approximate and for the cell plan of expectations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptyTuple
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


@dataclass(frozen=True, eq=False)
class IntegralMember:
    """The member h -> phi(integral over [0, 1) of kernel[p](h(t)) dt).

    The breakpoints cut [0, 1) into one piece per kernel, and p is the
    piece holding t, so the kernel is constant in t on each piece.  The
    constructor checks them as PiecewiseMap checks its own: strictly
    increasing, inside (0, 1), one fewer than the kernels.
    A member is evaluated only by amplify.expectations, which adds its
    pieces' integrals in each grid cell left to right from 0.0 and a
    map's cells left to right.  Each kernel must be a pure function of
    the element: one call builds the column of a kernel over a translated
    support once and reuses it for every cell and shift of that call that
    carries the same shift value.  The wordgroups.Mismatch
    kernels of the base group take one Mismatch.columns comparison per
    call, each against its shift value's translate; another kernel takes
    its optional bulk method ``values(elements)`` when it has one for the
    base group, else one call per canonical element (a tuple of Python
    ints on Z^d, a Python int on Z_m, a word).  phi maps the
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


def grid_runs(f: PiecewiseMap, edges: np.ndarray) -> tuple[list, list]:
    """f against the grid whose points are edges, 0.0 to 1.0: (first, cuts), from two np.searchsorted.

    first[c] is the run of f at cell c's left edge (run r starts at
    breakpoint r - 1), and cuts lists (r, c), in order, for each run r
    that starts inside cell c, off the grid.
    """
    breaks = np.array(f.breakpoints, np.float64)
    first = breaks.searchsorted(edges[:-1], "right").tolist()
    cells = edges.searchsorted(breaks, "right") - 1
    off = (breaks != edges[cells]).nonzero()[0]
    return first, list(zip((off + 1).tolist(), cells[off].tolist()))


def grid_approximate(f: PiecewiseMap, n: int) -> tuple[tuple, float]:
    """Left-endpoint sampling of f on the uniform n-grid.

    Returns the tuple g with g_i = f((i-1)/n) together with the
    disagreement of f and h_embed(g), the measure of {f != h_embed(g)}; the
    latter is at most (#breakpoints)/n, and the tuple only uses values f
    already takes.  Both come from grid_runs: a run that starts inside a
    cell and differs from the cell's left-edge value adds its length up to
    the next breakpoint or grid point, left to right from 0.0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    edges = np.arange(n + 1) / n  # i / n, correctly rounded as in h_embed
    first, cuts = grid_runs(f, edges)
    g = tuple(f.values[r] for r in first)
    at, ends = edges.tolist(), (*f.breakpoints, 1.0)  # run r is [ends[r - 1], ends[r])
    dis = 0.0
    for r, c in cuts:
        if f.values[r] != g[c]:
            dis += min(ends[r], at[c + 1]) - ends[r - 1]
    return g, dis
