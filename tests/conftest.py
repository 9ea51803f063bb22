"""Shared hypothesis strategies and independent brute-force oracles.

The oracles deliberately re-derive quantities with plain loops and no
library shortcuts, so tests can pin library outputs against them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from hypothesis import strategies as st

from levylab import (
    CyclicGroup,
    FiniteMMSpace,
    FreeGroup2,
    PiecewiseMap,
    StepMap,
    ZdGroup,
    sample_indices,
    weighted_deviation_mass,
    weighted_median,
)
from levylab.hamming import product_weights

# ---------------------------------------------------------------------------
# strategies

small_ints = st.integers(min_value=-5, max_value=5)


def group_strategy():
    return st.one_of(
        st.just(ZdGroup(1)),
        st.just(ZdGroup(2)),
        st.integers(min_value=2, max_value=12).map(CyclicGroup),
        st.just(FreeGroup2()),
    )


def element_strategy(group):
    if isinstance(group, ZdGroup):
        return st.tuples(*[small_ints] * group.d)
    if isinstance(group, CyclicGroup):
        return st.integers(min_value=0, max_value=group.m - 1)
    letters = st.sampled_from("aAbB")
    return st.lists(letters, max_size=6).map(lambda ls: group.validate("".join(ls)))


@st.composite
def group_with_elements(draw, count=3):
    group = draw(group_strategy())
    elems = [draw(element_strategy(group)) for _ in range(count)]
    return (group, *elems)


@st.composite
def step_map_strategy(draw, group=None, max_n=6):
    if group is None:
        group = draw(group_strategy())
    n = draw(st.integers(min_value=1, max_value=max_n))
    values = tuple(draw(element_strategy(group)) for _ in range(n))
    return StepMap(group, values)


@st.composite
def piecewise_strategy(draw, group=None, max_pieces=4):
    if group is None:
        group = draw(group_strategy())
    pieces = draw(st.integers(min_value=1, max_value=max_pieces))
    breaks = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=0.95),
            min_size=pieces - 1,
            max_size=pieces - 1,
            unique=True,
        ).map(sorted)
    )
    values = tuple(draw(element_strategy(group)) for _ in range(pieces))
    return PiecewiseMap(group, tuple(breaks), values)


@st.composite
def mm_space_strategy(draw, max_points=6):
    """Random space from planar points so the triangle inequality is free."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    coord = st.floats(min_value=-3.0, max_value=3.0)
    pts = [draw(st.tuples(coord, coord)) for _ in range(n)]
    dist = np.array(
        [[math.hypot(a[0] - b[0], a[1] - b[1]) for b in pts] for a in pts]
    )
    raw = [draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(n)]
    mu = np.asarray(raw) / sum(raw)
    return FiniteMMSpace(tuple(range(n)), dist, mu)


# ---------------------------------------------------------------------------
# oracles


def left_sum(values) -> float:
    """Add the values left to right from 0.0.

    This is what sum() does on floats before Python 3.12; from 3.12 on,
    sum() compensates, so oracles that pin float sums bit for bit use this.
    """
    total = 0.0
    for v in values:
        total += v
    return total


# cells 0, 2, 4 and 6 of [0, 1) cut at these points have lengths whose sum
# left to right (0.678) is one ulp above the correctly rounded one
UNEVEN_BREAKS = (0.259, 0.405, 0.421, 0.511, 0.758, 0.844)


def alternate_cell_lengths(breaks) -> list[float]:
    """The lengths of cells 0, 2, 4, ... of [0, 1) cut at the sorted breaks."""
    edges = (0.0, *breaks, 1.0)
    return [stop - start for start, stop in zip(edges[::2], edges[1::2])]


def brute_alpha(space: FiniteMMSpace, eps: float) -> float:
    """Concentration function by direct subset enumeration."""
    if eps == 0:
        return 0.5
    n = len(space)
    worst = 1.0
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if left_sum(space.mu[i] for i in members) < 0.5 - 1e-12:
            continue
        mass = left_sum(
            space.mu[x]
            for x in range(n)
            if min(space.dist[x][a] for a in members) <= eps + 1e-12
        )
        worst = min(worst, mass)
    return 1.0 - worst


def brute_median(values, weights) -> float:
    """Smallest m among the attained values with both half-mass conditions."""
    best = None
    for m in sorted(values):
        above = sum(w for v, w in zip(values, weights) if v >= m)
        below = sum(w for v, w in zip(values, weights) if v <= m)
        if above >= 0.5 - 1e-12 and below >= 0.5 - 1e-12:
            best = m
            break
    assert best is not None
    return best


def tuple_profile(product, f, eps: float, mode: str = "exact", samples: int = 0, seed: int = 0):
    """(median, deviation mass) of f from one call per tuple of atoms.

    Exact mode walks itertools.product; sampled mode looks up the atoms of
    the rows of sample_indices, so the draws are those of lipschitz_profile.
    """
    if mode == "exact":
        tuples = itertools.product(product.base.atoms, repeat=product.n)
        values = np.asarray([f(x) for x in tuples])
        weights = product_weights(product.base.weights, product.n)
    else:
        rows = sample_indices(product, samples, seed).tolist()
        values = np.asarray([f(tuple(product.base.atoms[c] for c in row)) for row in rows])
        weights = np.full(samples, 1.0 / samples)
    m = weighted_median(values, weights)
    return m, weighted_deviation_mass(values, weights, m, eps)


def loop_invariance_defect(mu, g, family) -> float:
    """The invariance defect from one member call per element, shifted by op, summed left to right."""
    group = mu.group
    g = group.validate(g)
    best = 0.0
    for f in family.members:
        direct = left_sum(w * f(x) for x, w in zip(mu.support, mu.weights))
        shifted = left_sum(w * f(group.op(g, x)) for x, w in zip(mu.support, mu.weights))
        best = max(best, abs(direct - shifted))
    return best


def manual_product_map(g, h) -> PiecewiseMap:
    """Pointwise product built from value lookups only (oracle path)."""
    group = h.group
    breaks = sorted(set(g.breakpoints) | set(h.breakpoints))
    samples = [0.0] + list(breaks)
    values = tuple(group.op(g.value_at(t), h.value_at(t)) for t in samples)
    return PiecewiseMap(group, tuple(breaks), values)


def brute_l0_defect(mu, n: int, g, members) -> float:
    """Defect of the transported product measure by raw tuple enumeration."""
    group = mu.group
    grid_breaks = tuple(i / n for i in range(1, n))
    best = 0.0
    for f in members:
        direct = 0.0
        shifted = 0.0
        for combo in itertools.product(range(len(mu.support)), repeat=n):
            w = math.prod(mu.weights[i] for i in combo)
            hmap = PiecewiseMap(group, grid_breaks, tuple(mu.support[i] for i in combo))
            direct += w * f(hmap)
            shifted += w * f(manual_product_map(g, hmap))
        best = max(best, abs(direct - shifted))
    return best


def brute_translated_expectation(mu, n: int, shift_tuple, members) -> list[float]:
    """E[f(h(shift * x))] for each member, by raw tuple enumeration."""
    group = mu.group
    out = []
    for f in members:
        total = 0.0
        for combo in itertools.product(range(len(mu.support)), repeat=n):
            w = math.prod(mu.weights[i] for i in combo)
            vals = tuple(
                group.op(s, mu.support[i]) for s, i in zip(shift_tuple, combo)
            )
            total += w * f(StepMap(group, vals))
        out.append(total)
    return out


def fubini_telescope_steps(mu, n: int, gprime, members) -> list[float]:
    """Telescope steps of the transported measure's defect, via Fubini.

    Step j is the family maximum of the integral, over the remaining n-1
    coordinates z, of the base-group defect terms of the spliced members
    x -> f(h_n(b_j z with x at slot j)) against translation by gprime_j,
    where b_j = (gprime_1, ..., gprime_{j-1}, e, ..., e).
    """
    group = mu.group
    e = group.identity
    steps = []
    for j in range(1, n + 1):
        b = tuple(gprime[: j - 1]) + (e,) * (n - j)
        gj = gprime[j - 1]
        accs = [0.0] * len(members)
        for combo in itertools.product(range(len(mu.support)), repeat=n - 1):
            wz = math.prod(mu.weights[i] for i in combo)
            bz = tuple(group.op(bi, mu.support[i]) for bi, i in zip(b, combo))
            head, tail = bz[: j - 1], bz[j - 1 :]
            for fi, f in enumerate(members):
                direct = 0.0
                shifted = 0.0
                for x, wx in zip(mu.support, mu.weights):
                    direct += wx * f(StepMap(group, head + (x,) + tail))
                    shifted += wx * f(StepMap(group, head + (group.op(gj, x),) + tail))
                accs[fi] += wz * (direct - shifted)
        steps.append(max(abs(a) for a in accs))
    return steps


def cell_window_closed_form(h, lo: float, hi: float, value, width: float) -> float:
    """max(0, 1 - sum of overlaps of [lo, hi) with the cells where h != value, over width)."""
    edges = (0.0,) + tuple(h.breakpoints) + (1.0,)
    mass = 0.0
    for i, v in enumerate(h.values):
        if v != value:
            mass += max(0.0, min(edges[i + 1], hi) - max(edges[i], lo))
    return max(0.0, 1.0 - mass / width)
