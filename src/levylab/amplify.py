"""Push-forward product measures on step maps and the amplification pipeline.

Given an almost-invariant measure mu on G, the n-fold product measure is
transported to step maps through the uniform-grid embedding, held as an
array of indices into the support of mu.  Its defect against translation
by a target map is controlled by a telescoping chain of single-coordinate
steps (step j: the change in expectation when the translation grows by
its j-th coordinate) plus the off-grid remainder, charged to the family's
Lipschitz constant times the grid-approximation disagreement.  Integral
members are evaluated on the whole batch by table lookup, and every
expectation is formed in expectations(), never by a BLAS product.  One
call there takes every shift of one question (in l0_defect: the
identity, the target g and its grid approximation g') and builds each
kernel column once for all of them.  Shifts and targets are
stepmaps.PiecewiseMap, whose partition is canonical, so a cell's runs
depend only on the function the shift is.  The shifts agree on most grid
cells, so each distinct cell (its runs of start, stop and value, cut
from the shift by stepmaps.cut_runs, the walk every step-map quantity
uses) gets one members x atoms table and one members x maps block per
call, and a shift's member values add its n blocks left to right.  The
telescope's steps come from the same blocks: the prefix
a_j = (g'_1..g'_j, e..e) is the identity with g''s blocks in place of
e's on cells 1..j, so no prefix map is built or planned.  A schedule
checks every entry's size caps, then runs l0_defect on each of a
sequence of (n_i, mu_i) pairs and reports defects, bounds, concentration
masses, and expectation-median gaps, with one median and two
deviation-mass calls per stage on the members x maps table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import groupby
from math import inf, sqrt
from operator import add

import numpy as np

from . import rng
from .errors import (
    CarrierMismatch,
    DimensionMismatch,
    InvalidSchedule,
    SpaceTooLarge,
    TooLargeForExact,
)
from .families import BLFamily, L0Carrier
from .hamming import (
    _check_enumeration,
    _check_sample_array,
    product_weights,
    sample_indices,
    talagrand_bound,
)
from .mmspace import weighted_deviation_mass, weighted_median
from .stepmaps import IntegralMember, PiecewiseMap, cut_runs, grid_approximate, h_embed, runs_of
from .wordgroups import FinSuppMeasure, _power_over

_TOL = 1e-9
# the most table entries one l0_defect call may count, (member pieces x shift values + n)
# x atoms plus its planned cell pieces, checked before any kernel column is built
TABLE_ENTRY_LIMIT = 1 << 22
# the most floats one expectations call holds in members x maps blocks, one per distinct
# grid cell; members are taken in groups that fit, at least one at a time
BLOCK_ENTRY_LIMIT = 1 << 18


@dataclass(frozen=True, eq=False)
class L0Measure:
    """A finitely supported measure on step maps of a fixed grid.

    Represents the push-forward of base^(x)n under the grid embedding,
    either exactly (full enumeration, product weights) or as a seeded
    empirical measure with equal weights.  Map j is row j of the (m, n)
    index array codes: its value on grid cell i is base.support[codes[j, i]].
    """

    base: FinSuppMeasure
    n: int
    codes: np.ndarray
    weights: np.ndarray
    mode: str

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        codes = np.asarray(self.codes, dtype=np.intp)
        if codes.shape != (len(weights), self.n):
            raise DimensionMismatch(f"codes shape {codes.shape} != ({len(weights)}, {self.n})")
        # written so that a NaN weight, or a NaN sum, fails
        if not np.all(weights >= 0) or not abs(weights.sum() - 1.0) <= 1e-9:
            raise InvalidSchedule("push-forward weights must be non-negative and sum to 1")
        if codes.size and not 0 <= codes.min() <= codes.max() < len(self.base.weights):
            raise DimensionMismatch("codes must index the base support")
        weights.flags.writeable = False
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "weights", weights)


def push_forward(
    mu: FinSuppMeasure,
    n: int,
    mode: str = "exact",
    *,
    samples: int | None = None,
    seed: int = 0,
) -> L0Measure:
    """Transport mu^(x)n to step maps on the uniform n-grid (exactly: up to EXACT_PRODUCT_LIMIT tuples)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = len(mu.weights)
    if mode == "exact":
        _check_enumeration(k, n)
        # the index tuples in itertools.product order, matching product_weights:
        # column i holds the base-k digit of the tuple's rank at place n-1-i
        rank = np.arange(k**n)
        codes = np.stack([rank // k ** (n - 1 - i) % k for i in range(n)], axis=1)
        return L0Measure(mu, n, codes, product_weights(mu.weights, n), "exact")
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if samples is None or samples < 1:
        raise ValueError("sampled mode needs samples >= 1")
    codes = sample_indices(mu.weights, n, samples, seed)
    return L0Measure(mu, n, codes, np.full(samples, 1.0 / samples), "sampled")


def expectations(nu: L0Measure, members, shifts=(None,), moved=()):
    """The shifts x members expectations E_nu(f o lambda_s), and the members x maps values f(shifts[0] * h).

    shifts is walked once; None is the identity.  This is the one place an
    expectation under an L0Measure is formed: each member's row of values *
    weights is added by numpy's pairwise .sum(), one row at a time and
    never by a BLAS product, so it has the same bits in any company and on
    every BLAS kernel.  A member must be an IntegralMember (else
    CarrierMismatch); it is integrated per grid cell and support atom on
    the joint refinement of the grid, the shift and its own breakpoints,
    and a map's value adds its n cells left to right, whatever the number
    of maps in nu.

    Both refinements are stepmaps.cut_runs walks: the shift's runs cut at
    the grid, then each cell's runs cut at a member's breakpoints.  A grid
    cell is keyed by the runs (start, stop, value) the shift makes in it,
    and shifts share most cells.  For each distinct cell, a members
    x atoms table adds each member's pieces left to right from 0.0, built
    once from kernel columns (the kernel of one piece over the support
    translated by one value, each built once by FinSuppMeasure.column, in
    one call for a kernel with a bulk path), and is gathered once into a
    members x maps block.  A shift's values add its n blocks into one
    buffer, and phi is applied to each member's row, or to the rows of
    adjacent members with the same phi at once.  Members are taken in
    groups whose blocks fit in BLOCK_ENTRY_LIMIT floats, at least one
    member at a time.

    moved, when not empty, lists the increasing cells (from 0) where the
    last shift differs from shifts[0]: that shift then forms no mean, and
    in its place come the means of the prefixes, shifts[0] with the last
    shift's cells up to each moved cell j, each changed in place from the
    one before it by the two shifts' blocks on cell j.
    """
    base, group, n = nu.base, nu.base.group, nu.n
    grid = [i / n for i in range(1, n)]
    cells, plan = {}, []  # (grid cell, runs) -> block slot; each shift's n slots
    for shift in shifts:
        by = [(0.0, 1.0, group.identity)] if shift is None else runs_of(shift)
        runs = [[] for _ in range(n)]
        for start, stop, v, gi in cut_runs(by, grid):
            runs[gi].append((start, stop, v))
        plan.append([cells.setdefault((gi, tuple(r)), len(cells)) for gi, r in enumerate(runs)])
    end = plan.pop() if moved else None  # the telescope's last shift: its blocks, not its mean
    if not plan:
        raise ValueError("expectations needs at least one shift")
    for fi, f in enumerate(members):
        if not isinstance(f, IntegralMember):
            raise CarrierMismatch(f"member {fi} is not an IntegralMember")
    # per cell and member, its pieces as (length, kernel column) in order of position
    keys = {}
    cut = [
        [[(b - a, keys.setdefault((fi, v, p), len(keys))) for a, b, v, p in cut_runs(runs, f.breakpoints)]
         for fi, f in enumerate(members)]
        for _, runs in cells
    ]
    # shift values are canonical, so the identity's translate is the base and no value is validated again
    translated = {v: base if v == group.identity else
                  FinSuppMeasure._unchecked(group, group.translate_all(v, base.elements), base.weights)
                  for v in {v for _, v, _ in keys}}
    columns = np.empty((len(keys), len(base.weights)))
    for (fi, v, p), k in keys.items():
        columns[k] = translated[v].column(members[fi].kernel[p])

    codes = np.ascontiguousarray(nu.codes.T)  # row i: the atom of cell i in each map
    weights, maps = nu.weights, codes.shape[1]
    size = max(1, min(len(members), BLOCK_ENTRY_LIMIT // (len(cells) * maps)))
    # allocated once: fresh arrays of this size per cell would fault in new pages each time
    table, blocks = np.empty((size, len(base.weights))), np.empty((len(cells), size, maps))
    total, product = np.empty((size, maps)), np.empty((size, maps))
    means, out = np.empty((len(plan) + len(moved), len(members))), np.empty((len(members), maps))
    for lo in range(0, len(members), size):
        part = range(lo, min(lo + size, len(members)))
        rows = len(part)
        for c, ((gi, _), pieces) in enumerate(zip(cells, cut)):
            table.fill(0.0)
            for s in range(max(len(pieces[fi]) for fi in part)):
                hit = [(r, *pieces[fi][s]) for r, fi in enumerate(part) if s < len(pieces[fi])]
                at, lengths, ks = (list(x) for x in zip(*hit))
                # every member has a first piece in every cell, so the first add takes a slice
                table[at if s else slice(rows)] += np.array(lengths)[:, None] * columns[ks]
            np.take(table[:rows], codes[gi], axis=1, out=blocks[c, :rows], mode="clip")
        acc, prod = total[:rows], product[:rows]
        def mean(k):
            # phi acts on each value alone, so members with one phi take it together
            r = 0
            for phi, same in groupby(members[fi].phi for fi in part):
                stop = r + len(list(same))
                values = phi(acc[r:stop])
                if k == 0:
                    out[lo + r : lo + stop] = values
                np.multiply(values, weights, out=prod[r:stop])
                r = stop
            means[k, lo : lo + rows] = [row.sum() for row in prod]
        for k, slots in enumerate(plan):
            np.copyto(acc, blocks[slots[0], :rows])
            for c in slots[1:]:
                np.add(acc, blocks[c, :rows], out=acc)
            mean(k)
            for t, j in enumerate(moved if k == 0 else (), start=len(plan)):
                np.add(acc, blocks[end[j], :rows], out=acc)
                np.subtract(acc, blocks[slots[j], :rows], out=acc)
                mean(t)
    return means, out


def member_pieces(family: BLFamily) -> int:
    """The kernel pieces of the family's members, one or more per member."""
    return sum(len(f.kernel) for f in family.members if isinstance(f, IntegralMember))


def _check_table_entries(n: int, atoms: int, g: PiecewiseMap, pieces: int) -> None:
    """Refuse an l0_defect call on n cells, atoms atoms and pieces member pieces above TABLE_ENTRY_LIMIT.

    Kernel columns and tables take (pieces x shift values + n) x atoms
    entries.  expectations plans the cells of the identity, g and its grid
    approximation g': at most 3n + (g's breakpoints) runs, each cut into at
    most pieces cell pieces, so that many more.  The count takes sizes
    only; no grid cell of g is sampled.
    """
    # the identity, g and g' take these shift values
    shifts = len({g.group.identity, *g.values})
    cells = 3 * n + len(g.breakpoints)
    entries = (pieces * shifts + n) * atoms + cells * pieces
    if entries > TABLE_ENTRY_LIMIT:
        raise SpaceTooLarge(
            f"{entries} table entries exceed the cap of {TABLE_ENTRY_LIMIT}: ({pieces} member pieces"
            f" x {shifts} shift values + {n} cells) x {atoms} atoms + {cells} planned runs x {pieces} pieces"
        )


@dataclass(frozen=True)
class DefectResult:
    defect: float
    bound: float
    per_step: tuple
    gprime: tuple
    grid_disagreement: float
    # at the identity, per member f: f(h) for each map h of nu (one row), and E_nu(f)
    values: np.ndarray = field(compare=False, repr=False)
    expectations: np.ndarray = field(compare=False, repr=False)


def l0_defect(nu: L0Measure, g: PiecewiseMap, family: BLFamily) -> DefectResult:
    """Defect of nu against translation by g, with its telescoping bound.

    defect = max over the family of |E_nu(f) - E_nu(f o lambda_g)|;
    bound  = sum of telescope steps for the grid approximation g' of g
             plus L * disagreement(g, embedded g').

    Step j is max over the family of |E_nu(f o lambda_{a_{j-1}}) -
    E_nu(f o lambda_{a_j})| for the prefixes a_j = (g'_1..g'_j, e..e).  The
    steps are evaluated on nu itself, exact or sampled, so the telescope
    identity holds exactly and the bound dominates the defect up to float
    roundoff.  Where g'_j is e, a_j is a_{j-1} and step j is exactly 0.0
    without an evaluation.  One expectations call takes the identity, g and
    h_embed(g'), with the cells where g' is not e as its moved cells: the
    prefix means come from the identity's and g''s cell blocks, so no
    prefix is built, and every kernel column is shared.  The member values
    and expectations at the identity are returned.  More than
    TABLE_ENTRY_LIMIT column, table and planned entries raise SpaceTooLarge
    before any is built.
    """
    group = nu.base.group
    if not isinstance(family.carrier, L0Carrier) or family.carrier.group != group:
        raise CarrierMismatch("family must live over step maps of the same base group")
    if g.group != group:
        raise CarrierMismatch("target map lives over a different group")
    _check_table_entries(nu.n, len(nu.base.weights), g, member_pieces(family))
    gp, dis = grid_approximate(g, nu.n)
    moved = [i for i, v in enumerate(gp) if v != group.identity]
    means, values = expectations(nu, family.members, (None, g, h_embed(group, gp)), moved)
    defect = float(np.max(np.abs(means[0] - means[1])))
    steps = [0.0] * nu.n
    # each prefix's mean against the one before it: the identity's, then the prefixes' past g's
    for j, prev, cur in zip(moved, np.delete(means, 1, axis=0), means[2:]):
        steps[j] = float(np.max(np.abs(prev - cur)))
    # left to right from 0.0: from Python 3.12 on, sum() compensates
    bound = reduce(add, steps, 0.0) + family.lipschitz * dis
    return DefectResult(defect, bound, tuple(steps), gp, dis, values, means[0])


@dataclass(frozen=True)
class Schedule:
    """Entries (n_i, mu_i) with non-decreasing n_i and a target defect.

    On construction the witness products n_i * (max generator total
    variation of mu_i) are recorded and required to be non-increasing;
    they quantify the hypothesis that base defects shrink faster than the
    grid grows.  They derive from the entries, so repr and == leave them
    out.
    """

    entries: tuple
    target_eps: float
    witnesses: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple((int(n), mu) for n, mu in self.entries)
        if not entries:
            raise InvalidSchedule("schedule must have at least one entry")
        if not self.target_eps > 0:
            raise InvalidSchedule("target_eps must be > 0")
        group = entries[0][1].group
        witnesses = []
        for n, mu in entries:
            if n < 1:
                raise InvalidSchedule("grid sizes must be >= 1")
            if mu.group != group:
                raise InvalidSchedule("all entries must share one group")
            gens = group.generators()
            if mu.weights.min() == mu.weights.max():  # uniform on A: TV(mu, g mu) = |gA \ A| / |A|
                tv = max(mu.escape_count(g) for g in gens) / len(mu.weights)
            else:
                tv = max(mu.tv_distance(mu.translate(g)) for g in gens)
            witnesses.append(n * tv)
        ns = [n for n, _ in entries]
        if any(a > b for a, b in zip(ns, ns[1:])):
            raise InvalidSchedule("grid sizes must be non-decreasing")
        if any(b > a + _TOL for a, b in zip(witnesses, witnesses[1:])):
            raise InvalidSchedule("witness products n_i * defect(mu_i) must be non-increasing")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "witnesses", tuple(witnesses))


@dataclass(frozen=True)
class ScheduleRow:
    i: int
    n: int
    defect: float
    bound: float
    conc_mass: float
    median_gap: float


@dataclass(frozen=True)
class ScheduleReport:
    rows: tuple
    flags: dict
    entry_modes: tuple


def stage_modes(sizes, g: PiecewiseMap, pieces: int, *, mode: str, samples: int, exact_cap: int) -> tuple:
    """The push-forward mode of each stage, given as (n, atoms), once every stage's size caps hold.

    atoms is the size of the stage's base support and pieces the family's
    member_pieces, or a lower bound on it such as its member count.  A
    stage is exact under mode="exact" (over exact_cap: TooLargeForExact)
    and under "auto" within exact_cap.  atoms^n is not formed where it
    would exceed a cap, so a run over a cap is refused before any measure
    is built.
    """
    if mode not in ("auto", "exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    modes = []
    for n_i, atoms in sizes:
        over = _power_over(atoms, n_i, exact_cap)
        if mode == "exact" and over:
            raise TooLargeForExact(f"{over} tuples exceeds exact cap {exact_cap}")
        modes.append("exact" if mode == "exact" or (mode == "auto" and not over) else "sampled")
        if modes[-1] == "exact":
            _check_enumeration(atoms, n_i)
        else:
            _check_sample_array(samples, n_i)
        _check_table_entries(n_i, atoms, g, pieces)
    return tuple(modes)


def run_schedule(
    schedule: Schedule, g: PiecewiseMap, family: BLFamily, eps: float,
    *, mode: str = "auto", samples: int = 20000, seed: int = 42, exact_cap: int = 10**5,
) -> ScheduleReport:
    """Run the amplification pipeline along a schedule.

    Every entry's size caps are checked first (stage_modes).  Then per
    entry: push the i-th base measure forward on grid n_i (exactly or with
    a seeded per-entry sample, as stage_modes decides), run l0_defect, and
    report the defect against g with its bound, the worst concentration
    mass nu{|f - E f| > eps} and the worst expectation-median gap over the
    family.  Entries are independent and deterministic given (seed, i), so
    they may run in any order or in parallel without changing the report.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    sizes = [(n_i, len(mu_i.weights)) for n_i, mu_i in schedule.entries]
    modes = stage_modes(sizes, g, member_pieces(family), mode=mode, samples=samples, exact_cap=exact_cap)
    rows = []
    bounded = True
    implication_all = True
    conc_under_talagrand = True
    for i, ((n_i, mu_i), mode_i) in enumerate(zip(schedule.entries, modes), start=1):
        # an exact push-forward takes no samples and no seed
        nu = push_forward(mu_i, n_i, mode_i, samples=samples, seed=rng.derive_seed(seed, "entry", i))
        res = l0_defect(nu, g, family)

        # one value per member, each from its own row of the members x maps table
        meds = weighted_median(res.values, nu.weights)
        gaps = np.abs(res.expectations - meds)
        # a member value adds n cell blocks
        mass_e = weighted_deviation_mass(res.values, nu.weights, res.expectations, eps, n_i)
        mass_m_half = weighted_deviation_mass(res.values, nu.weights, meds, eps / 2, n_i)
        conc_mass = float(mass_e.max(initial=0.0))
        median_gap = float(gaps.max(initial=0.0))
        implication_all &= not np.any((gaps <= eps / 2) & (mass_e > mass_m_half + 1e-12))

        bounded &= res.defect <= res.bound + _TOL
        sigma = 0.0
        if nu.mode == "sampled":
            sigma = sqrt(max(conc_mass * (1 - conc_mass), 0.0) / len(nu.weights))
        # a 0-Lipschitz member deviates at no radius; talagrand_bound(inf, n) is 0
        radius = eps / family.lipschitz if family.lipschitz else inf
        conc_under_talagrand &= conc_mass <= talagrand_bound(radius, n_i) + 4 * sigma

        rows.append(ScheduleRow(i, n_i, res.defect, res.bound, conc_mass, median_gap))

    flags = {
        "defect_within_bound": bool(bounded),
        "half_radius_implication": bool(implication_all),
        "conc_mass_within_talagrand": bool(conc_under_talagrand),
        "final_defect_within_target": bool(rows[-1].defect <= schedule.target_eps),
        "defect_last_le_first": bool(rows[-1].defect <= rows[0].defect + _TOL),
        "median_gap_last_le_first": bool(rows[-1].median_gap <= rows[0].median_gap + _TOL),
    }
    return ScheduleReport(tuple(rows), flags, modes)
