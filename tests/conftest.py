"""Shared hypothesis strategies and independent brute-force oracles.

The oracles deliberately re-derive quantities with plain loops and no
library shortcuts, so tests can pin library outputs against them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import resource
import subprocess
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from levylab import (
    BLFamily,
    CyclicGroup,
    FiniteMMSpace,
    FreeGroup2,
    GroupCarrier,
    L0Carrier,
    PiecewiseMap,
    ZdGroup,
    grid_approximate,
    h_embed,
    sample_indices,
    weighted_deviation_mass,
    weighted_median,
)
from levylab import amplify, mmspace, rng
from levylab.errors import CarrierMismatch, DimensionMismatch, LipschitzViolation
from levylab.hamming import product_weights
from levylab.stepmaps import IntegralMember

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
    return h_embed(group, values)


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
# child processes

SRC = Path(__file__).resolve().parents[1] / "src"


def run_capped(argv, limit_mib: int = 768, env=(), **kwargs) -> subprocess.CompletedProcess:
    """Run python with argv in a child process whose address space is capped at limit_mib, with
    src/ on its path, one BLAS thread and env added, so that a build that outgrows the cap fails
    in the child rather than filling the runner's memory."""
    limit = limit_mib << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", **dict(env))
    return subprocess.run(
        [sys.executable, *argv], env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120, **kwargs
    )


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


def counter_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform float64 values x * 2^-53 for counters start..start+count-1.

    x is the top 53 bits of the splitmix64 hash of seed + (counter + 1) * golden,
    computed here with fresh arrays rather than rng's in-place mixer.
    """
    idx = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & rng._MASK) + (idx + np.uint64(1)) * rng._GOLDEN
        z = (z ^ (z >> np.uint64(30))) * rng._MIX1
        z = (z ^ (z >> np.uint64(27))) * rng._MIX2
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def searchsorted_choice(seed: int, start: int, count: int, cum_weights) -> np.ndarray:
    """The categorical indices of counter_choice, by binary search of the float uniforms."""
    idx = np.searchsorted(cum_weights, counter_uniforms(seed, start, count), side="right")
    return np.minimum(idx, len(cum_weights) - 1)


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


def reference_alpha_profile(space: FiniteMMSpace, eps_values) -> np.ndarray:
    """alpha_profile by a scan of all 2^N subset masks, each mass added in index order.

    Every mask's mass is computed, and the inclusion-minimal heavy ones are
    scored with the same tests, half tables and radius stage as the
    library, so the values are equal bit for bit.
    """
    eps_values = np.asarray(eps_values, dtype=np.float64)
    positive = eps_values[eps_values > 0]
    out = np.full(eps_values.shape, 0.5)
    if positive.size == 0:
        return out
    npts = len(space)
    nlo = npts // 2
    dist_lo, weight_lo, _ = mmspace._half_tables(space, 0, nlo)
    dist_hi, weight_hi, _ = mmspace._half_tables(space, nlo, npts - nlo)
    thresholds = positive + 1e-12
    best = np.full(positive.size, np.inf)
    points = np.arange(npts, dtype=np.uint32)[:, None]
    for lo in range(0, 1 << npts, 1 << 14):
        masks = np.arange(lo, min(lo + (1 << 14), 1 << npts), dtype=np.uint32)
        mass = mmspace._masses((masks >> points) & 1, space.mu)
        low, high = masks & np.uint32((1 << nlo) - 1), masks >> np.uint32(nlo)
        lightest = np.minimum(weight_lo[low], weight_hi[high])
        minimal = (mass >= 0.5 - 1e-12) & (mass - lightest < 0.5)
        if minimal.any():
            dist_to = np.minimum(dist_lo[low[minimal]], dist_hi[high[minimal]]).T.copy()
            masses = mmspace._masses((d[:, None] <= thresholds for d in dist_to), space.mu)
            best = np.minimum(best, masses.min(axis=0))
    out[eps_values > 0] = np.clip(1.0 - best, 0.0, 0.5)
    return out


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


def sorted_median(values, weights):
    """weighted_median by a stable sort of each row and the cumulative sum of its weights in that order."""
    values, weights = np.asarray(values, dtype=np.float64), np.asarray(weights, dtype=np.float64)
    medians = []
    for row in np.atleast_2d(values):
        order = np.argsort(row, kind="stable")
        pos = int(np.searchsorted(np.cumsum(weights[order]), 0.5 - 1e-12, side="left"))
        medians.append(row[order[min(pos, len(order) - 1)]])
    return float(medians[0]) if values.ndim == 1 else np.array(medians)


def tuple_values(product, f, mode: str = "exact", samples: int = 0, seed: int = 0):
    """(values, weights) of the one-piece member f, one coordinate mean per tuple of atoms.

    Each tuple x gives reduce(add, map(f.kernel[0], x)) / len(x): its terms
    added left to right from the first, so a tuple of -0.0 sums to -0.0.
    Exact mode walks itertools.product with product_weights; sampled mode
    looks up the atoms of the rows of sample_indices, so the draws are those
    of lipschitz_profile, each of weight 1 / samples.
    """

    def mean(x):
        return functools.reduce(operator.add, map(f.kernel[0], x)) / len(x)

    if mode == "exact":
        tuples = itertools.product(product.base.atoms, repeat=product.n)
        return np.asarray([mean(x) for x in tuples]), product_weights(product.base.weights, product.n)
    rows = sample_indices(product.base.weights, product.n, samples, seed).tolist()
    values = np.asarray([mean(tuple(product.base.atoms[c] for c in row)) for row in rows])
    return values, np.full(samples, 1.0 / samples)


def tuple_profile(product, f, eps: float, mode: str = "exact", samples: int = 0, seed: int = 0):
    """(median, deviation mass) of f's tuple_values, the per-tuple oracle of lipschitz_profile."""
    values, weights = tuple_values(product, f, mode, samples, seed)
    m = weighted_median(values, weights)
    return m, weighted_deviation_mass(values, weights, m, eps, product.n)


def rational_profile(weights, kernel, n: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """(median, mass of {|f - median| > eps}) of f = (1/n) sum_i kernel[X_i], X_i iid of law weights.

    weights and kernel hold one Fraction per atom.  The law of f comes from
    the multinomial counts of the atoms among the n coordinates, each count
    vector c with mass n! / prod(c_a!) * prod(weights[a]^c_a), and every
    comparison is exact: the median is the smallest attained m with both
    P(f >= m) >= 1/2 and P(f <= m) >= 1/2, and the mass is strict.
    """
    law = Counter()
    for draw in itertools.combinations_with_replacement(range(len(weights)), n):
        counts = Counter(draw)
        ways = math.factorial(n)
        for c in counts.values():
            ways //= math.factorial(c)
        mass = Fraction(ways)
        for a, c in counts.items():
            mass *= weights[a] ** c
        law[sum(kernel[a] * c for a, c in counts.items()) / n] += mass
    half = Fraction(1, 2)
    median = next(
        m for m in sorted(law)
        if sum(p for v, p in law.items() if v >= m) >= half and sum(p for v, p in law.items() if v <= m) >= half
    )
    return median, sum((p for v, p in law.items() if abs(v - median) > eps), Fraction(0))


def tuple_translate_all(group, g, elements) -> tuple:
    """The products g * x over a tuple of canonical elements, computed on tuples of Python ints.

    On Z^d each coordinate column is shifted by its entry of g and the
    columns are zipped back into tuples; elsewhere group.op is applied to
    each element.
    """
    if isinstance(group, ZdGroup):
        shifted = (map(operator.add, col, itertools.repeat(c)) for col, c in zip(zip(*elements), g))
        return tuple(zip(*shifted))
    return tuple(group.op(g, x) for x in elements)


def bfs_ball(group, radius: int) -> list:
    """All elements of word length <= radius, breadth first: each element of a layer is followed in the
    next by its new products g * x, for g in generators() order.  On Z^d and Z_m this is the order of
    ball_uniform's support."""
    seen = {group.identity}
    order = [group.identity]
    frontier = [group.identity]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for g in group.generators():
                y = group.op(g, x)
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    return order


F2_NEXT = {"": "aAbB", "a": "abB", "A": "AbB", "b": "aAb", "B": "aAB"}


def f2_ball_words(radius: int) -> list:
    """The F2 ball of radius r as strings, breadth-first: each reduced word of length l is
    followed at length l + 1 by itself with each letter that does not cancel its last one,
    in the order a, A, b, B."""
    order = [""]
    frontier = [""]
    for _ in range(radius):
        frontier = [w + ch for w in frontier for ch in F2_NEXT[w[-1:]]]
        order.extend(frontier)
    return order


def f2_translate_words(g: str, words) -> tuple:
    """The products g * x over reduced words, on strings.

    g and x are reduced, so g * x cancels at most the first |g| letters of x:
    g * x = (g * head) + rest for x = head + rest with |head| = min(|g|, |x|).
    """
    f2, cut = FreeGroup2(), len(g)
    heads = list(map(operator.getitem, words, itertools.repeat(slice(cut))))
    product = {head: f2.op(g, head) for head in set(heads)}
    rests = map(operator.getitem, words, itertools.repeat(slice(cut, None)))
    return tuple(map(operator.add, map(product.__getitem__, heads), rests))


def set_escape_count(mu, g) -> int:
    """|gA \\ A| for the support A of mu, from sets of tuples."""
    atoms = set(mu.support)
    return len(atoms.difference(tuple_translate_all(mu.group, mu.group.validate(g), mu.support)))


def dict_tv_distance(mu, nu) -> float:
    """Total variation from dictionaries over the canonical supports: |w - w'| over mu's atoms in
    support order, then nu's other atoms in their order, added left to right from 0.0."""
    mine, theirs = dict(zip(mu.support, mu.weights.tolist())), dict(zip(nu.support, nu.weights.tolist()))
    return 0.5 * left_sum(abs(mine.get(k, 0.0) - theirs.get(k, 0.0)) for k in {**mine, **theirs})


def per_element_column(kernel, elements) -> np.ndarray:
    """The kernel called once per canonical element, as a float64 column."""
    return np.fromiter(map(kernel, elements), np.float64, len(elements))


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


def word_distance(group, x, y) -> int:
    """The right-invariant word metric d(x, y) = wl(x * y^-1)."""
    return group.word_length(group.op(x, group.inv(y)))


def disagreement(f, g) -> float:
    """Lebesgue measure of {t : f(t) != g(t)}, a pseudometric on maps.

    The lengths of the pieces of the common refinement where the values
    differ, added left to right from 0.0; the refinement is this module's
    own two-list walk, merge_breakpoints, not the library's cut_runs.
    """
    if f.group != g.group:
        raise CarrierMismatch("maps live over different groups")
    pieces = merge_breakpoints(f.breakpoints, g.breakpoints)
    return left_sum(stop - start for start, stop, ia, ib in pieces if f.values[ia] != g.values[ib])


def merge_breakpoints(ab, bb):
    """Yield (start, stop, ia, ib) over the common refinement of two breakpoint lists.

    Both lists are sorted inside (0, 1); [start, stop) lies in cell ia of
    the first list and in cell ib of the second.  Two lists advanced side
    by side: an independent walk against stepmaps.cut_runs.
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


def step_maps(nu) -> tuple:
    """The step maps of a push-forward, one h_embed per row of its codes."""
    atoms, group = nu.base.support, nu.base.group
    return tuple(h_embed(group, tuple(atoms[c] for c in row)) for row in nu.codes.tolist())


def reference_tables(nu, members, shift, moved: dict, columns: dict) -> list:
    """Each member's n x atoms table under shift (None is the identity), built cell by cell.

    A table adds the kernel columns of the member's pieces on the joint
    refinement of the grid, the shift and its breakpoints, left to right
    from 0.0.  moved keeps each shift value's translated support and
    columns each (member, shift value, piece) column, across calls.
    """
    atoms, group, n = nu.base.support, nu.base.group, nu.n
    by = h_embed(group, (group.identity,)) if shift is None else shift
    values = [group.validate(v) for v in by.values]
    for v in values:
        if v not in moved:
            moved[v] = tuple_translate_all(group, v, atoms)
    # the grid refined by the shift: the grid and shift cell of each piece, and the inner cuts
    refined = list(merge_breakpoints([i / n for i in range(1, n)], by.breakpoints))
    cuts = [stop for _, stop, _, _ in refined[:-1]]
    tables = []
    for fi, f in enumerate(members):
        if not isinstance(f, IntegralMember):
            raise CarrierMismatch(f"member {fi} is not an IntegralMember")
        table = np.zeros((n, len(atoms)))
        for start, stop, ri, p in merge_breakpoints(cuts, f.breakpoints):
            _, _, gi, si = refined[ri]
            key = (fi, values[si], p)
            if key not in columns:
                columns[key] = per_element_column(f.kernel[p], moved[values[si]])
            table[gi] += (stop - start) * columns[key]
        tables.append(table)
    return tables


def reference_expectations(nu, members, shifts=(None,)):
    """amplify.expectations one (shift, member) table at a time, each table from reference_tables.

    A map's value gathers its n cells from the table and adds them down
    the cells left to right, by a cumulative sum, for any number of maps;
    each mean is (row * weights).sum().  Kernel columns are built once per
    (member, shift value, piece).
    """
    n, size = nu.n, len(nu.base.support)
    moved, columns, means = {}, {}, []
    # cell i of map j in a raveled (n, |support|) table, cell-major so that summing adds rows
    at = np.ascontiguousarray((nu.codes + np.arange(n) * size).T)
    out = np.empty((len(members), len(nu.weights)))
    for shift in shifts:
        rows = out if not means else np.empty_like(out)  # the values at shifts[0] are returned
        means.append(np.empty(len(members)))
        for fi, (f, table) in enumerate(zip(members, reference_tables(nu, members, shift, moved, columns))):
            rows[fi] = f.phi(np.cumsum(table.ravel()[at], axis=0)[-1])
            means[-1][fi] = (rows[fi] * nu.weights).sum()
    if not means:
        raise ValueError("expectations needs at least one shift")
    return np.reshape(means, (len(means), len(members))), out


def prefix_telescope(nu, g, family) -> tuple[tuple, float]:
    """l0_defect's (steps, bound), one h_embed map per prefix a_j = (g'_1..g'_j, e..e).

    Each prefix whose new coordinate is not e is a shift of one
    amplify.expectations call, which plans its n cells as for any shift;
    step j is the family maximum of |E(f o lambda_{a_{j-1}}) - E(f o
    lambda_{a_j})|, and 0.0 where g'_j is e.  The bound adds the steps left
    to right and L times the disagreement of g and its grid approximation.
    """
    group, n = nu.base.group, nu.n
    gp, dis = grid_approximate(g, n)
    e = group.identity
    moved = [j for j in range(n) if gp[j] != e]
    prefixes = [h_embed(group, gp[: j + 1] + (e,) * (n - j - 1)) for j in moved]
    means = amplify.expectations(nu, family.members, (None, *prefixes))[0]
    steps = [0.0] * n
    for j, prev, cur in zip(moved, means, means[1:]):
        steps[j] = float(np.max(np.abs(prev - cur)))
    return tuple(steps), left_sum(steps) + family.lipschitz * dis


def value_at(f, t: float):
    """The value of a step or piecewise map at t: cells are half open on the right."""
    return f.values[bisect_right(f.breakpoints, t)]


def manual_product_map(g, h) -> PiecewiseMap:
    """Pointwise product built from value lookups only (oracle path)."""
    group = h.group
    breaks = sorted(set(g.breakpoints) | set(h.breakpoints))
    samples = [0.0] + list(breaks)
    values = tuple(group.op(value_at(g, t), value_at(h, t)) for t in samples)
    return PiecewiseMap(group, tuple(breaks), values)


def splice(i: int, a: tuple, x) -> tuple:
    """Insert x at position i (1-based) of the (n-1)-tuple a, giving an n-tuple."""
    if not 1 <= i <= len(a) + 1:
        raise DimensionMismatch(f"position {i} invalid for a tuple of length {len(a)}")
    return a[: i - 1] + (x,) + a[i - 1 :]


def pullback_member(F, group, n: int, i: int, a: tuple):
    """Pull a step-map member back to the group: x -> F(h_n(a_1..a_{i-1}, x, a_i..)).

    For a member with data (B, L) over the disagreement metric, the
    pull-back is B-bounded and (L/n)-Lipschitz for the word metric, since
    changing the single coordinate moves the embedded map on one cell of
    width 1/n.
    """
    if n < 1 or not 1 <= i <= n or len(a) != n - 1:
        raise DimensionMismatch(f"inconsistent pull-back data n={n}, i={i}, |a|={len(a)}")
    a = tuple(group.validate(v) for v in a)
    return lambda x: F(h_embed(group, splice(i, a, x)))


def pullback_family(family, n: int, i: int, a: tuple):
    """Pull a whole step-map family back through one coordinate slot: the single-step lemma.

    Step i of the telescope of mu^(x)n against g' is the family maximum of
    |E_z (E_mu F_z - E_mu (F_z o lambda_{g'_i}))|, z ~ mu^(x)(n-1), where F_z
    is the member pulled back through slot i at b_i z.
    """
    if not isinstance(family.carrier, L0Carrier):
        raise CarrierMismatch("pull-backs need a family over a step-map carrier")
    group = family.carrier.group
    members = tuple(pullback_member(F, group, n, i, a) for F in family.members)
    return BLFamily(GroupCarrier(group), members, family.bound, family.lipschitz / n)


def compose_with_translation(f, g, group):
    """The member x -> f(g*x).

    The sup-norm bound is preserved.  The Lipschitz constant for the
    right-invariant metric is preserved on abelian carriers; in general it
    is only controlled in the spliced combinations the pull-back
    identities produce.
    """
    g = group.validate(g)
    return lambda x: f(group.op(g, x))


def spot_check_lipschitz(family, *, seed: int = 0, pairs: int = 64, radius: int = 4) -> None:
    """Sample point pairs and check |f(x) - f(y)| <= L * d(x, y) + 1e-9 for every member.

    On a group carrier the points are random elements under the word
    metric word_distance; on a step-map carrier they are random step maps
    of 1 to 8 cells under disagreement.
    """
    gen = np.random.default_rng(rng.derive_seed(seed, "family-lipschitz"))
    group, lipschitz = family.carrier.group, family.lipschitz
    on_group = isinstance(family.carrier, GroupCarrier)

    def point():
        if on_group:
            return group.random_element(gen, radius)
        n = int(gen.integers(1, 9))
        return h_embed(group, tuple(group.random_element(gen, radius) for _ in range(n)))

    for _ in range(pairs):
        x, y = point(), point()
        d = float(word_distance(group, x, y)) if on_group else disagreement(x, y)
        for i, f in enumerate(family.members):
            gap = abs(float(f(x)) - float(f(y))) - lipschitz * d
            if gap > 1e-9:
                raise LipschitzViolation(
                    f"member {i} exceeds declared L={lipschitz} by {gap:.3e} on a sampled pair"
                )


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
            total += w * f(h_embed(group, vals))
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
                    direct += wx * f(h_embed(group, head + (x,) + tail))
                    shifted += wx * f(h_embed(group, head + (group.op(gj, x),) + tail))
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
