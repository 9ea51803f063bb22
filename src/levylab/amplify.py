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
depend only on the function the shift is.  The call plans with no Python
step per cell and member: the shifts agree on most grid cells, so each
distinct cell (a grid cell and the runs a shift makes in it) gets one
members x atoms table and one members x maps block per call, and a
shift's member values add its n blocks left to right.  The telescope's steps come from the same blocks:
the prefix a_j = (g'_1..g'_j, e..e) is the identity with g''s blocks in
place of e's on cells 1..j, so no prefix map is built or planned.  A
schedule checks every entry's size caps, then runs l0_defect on each of
a sequence of (n_i, mu_i) pairs and reports defects, bounds,
concentration masses, and expectation-median gaps, with one median and
two deviation-mass calls per stage on the members x maps table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, groupby
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
from .stepmaps import IntegralMember, PiecewiseMap, grid_approximate, grid_runs, h_embed
from .wordgroups import FinSuppMeasure, Mismatch, _power_over

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
        # the index tuples in itertools.product order, matching product_weights: column i holds the
        # base-k digit of the tuple's rank at place n-1-i, each digit on k ** (n-1-i) rows in a row
        codes = np.empty((k**n, n), np.intp)
        for i in range(n):
            codes.reshape(k**i, k, k ** (n - 1 - i), n)[..., i] = np.arange(k)[:, None]
        return L0Measure(mu, n, codes, product_weights(mu.weights, n), "exact")
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if samples is None or samples < 1:
        raise ValueError("sampled mode needs samples >= 1")
    codes = sample_indices(mu.weights, n, samples, seed)
    return L0Measure(mu, n, codes, np.full(samples, 1.0 / samples), "sampled")


def _plan_cells(group, shifts, n: int):
    """The distinct grid cells of the shifts: (values, slots, cells, edges, runs), all but values arrays.

    values lists the shift values, the identity first; a value is named by
    its index.  A grid cell that one run of a shift covers is keyed by the
    integer value * n + cell, the value at its left edge; a cell that a
    breakpoint cuts is keyed by its runs; both from stepmaps.grid_runs.
    One dictionary numbers the keys in the order they first appear: slots[k]
    holds shift k's n cell numbers, and cells the grid cell of each
    distinct cell.  edges are the grid's n + 1 points and runs is (cell,
    start, end, value) per run of a distinct cell, in cell order, with the
    indices of each cell's first run and of the runs after it.  Nothing
    here runs per member.
    """
    edges = np.arange(n + 1) / n  # i / n, correctly rounded as in stepmaps.h_embed
    ids, keys, at = {group.identity: 0}, [], edges.tolist()
    for shift in shifts:
        if shift is None:
            keys.append(range(n))
            continue
        values = [ids.setdefault(v, len(ids)) for v in shift.values]
        first, cuts = grid_runs(shift, edges)
        key = [values[r] * n + c for c, r in enumerate(first)]
        # a run that starts off the grid cuts its cell into runs
        for r, c in cuts:
            _, starts, cut = key[c] if type(key[c]) is tuple else (c, (at[c],), (values[first[c]],))
            key[c] = (c, (*starts, shift.breakpoints[r - 1]), (*cut, values[r]))
        keys.append(key)
    number = {}
    slots = [np.array([number.setdefault(k, len(number)) for k in key]) for key in keys]
    runs, cells, firsts, later = [], [], [], []
    for c, k in enumerate(number):
        gi, starts, cut = (k % n, (at[k % n],), (k // n,)) if type(k) is int else k
        cells.append(gi)
        firsts.append(len(runs))
        later += range(len(runs) + 1, len(runs) + len(starts))
        runs.extend(zip([c] * len(starts), starts, (*starts[1:], at[gi + 1]), cut))
    return list(ids), slots, np.array(cells, np.intp), edges, (*map(np.array, zip(*runs)), firsts, later)


def _running_sums(blocks, terms, emit, acc):
    """Add blocks[t], or subtract blocks[~t] for t < 0, into acc over terms from the left (the first term is
    copied), and yield (emit[i], acc) after each term position i that emit names.

    Each term is one numpy call into acc, a buffer of one block.
    """
    np.copyto(acc, blocks[terms[0]])
    for i, t in enumerate(terms.tolist()):
        if i:
            (np.add if t >= 0 else np.subtract)(acc, blocks[t if t >= 0 else ~t], out=acc)
        if i in emit:
            yield emit[i], acc


def _columns(base: FinSuppMeasure, values, kernels, *keys) -> np.ndarray:
    """Row q * len(values) + u: kernels[q] over the support translated by values[u], for each key of the arrays keys.

    The support is translated by all values at once (group.translate_each,
    one broadcast add on Z^d and Z_m).  The Mismatch kernels of the base
    group take one Mismatch.columns comparison, each against its value's
    translate, and any other kernel one FinSuppMeasure.column call per
    value; other rows are left unset.
    """
    group, size = base.group, len(values)
    bulk = np.array([isinstance(k, Mismatch) and k.group == group for k in kernels], bool)
    used = np.zeros(len(kernels) * size, bool)
    for some in keys:
        used[some] = True
    named = used.nonzero()[0]
    columns = np.empty((len(used), len(base.weights)))
    translated = group.translate_each(values, base.elements)
    mine = bulk[named // size]
    if mine.any():
        kernel_of, value_of = named[mine] // size, named[mine] % size
        supports = np.asarray(translated)[value_of]
        columns[named[mine]] = Mismatch.columns([kernels[q] for q in kernel_of.tolist()], supports)
    measures = {0: base}  # shift values are canonical, so the identity's translate is the base
    for key in named[~mine].tolist():
        q, u = divmod(key, size)
        if u not in measures:  # no value is validated again
            measures[u] = FinSuppMeasure._unchecked(group, translated[u], base.weights)
        columns[key] = measures[u].column(kernels[q])
    return columns


def _pieces(members, size: int, edges, cells, runs):
    """Each member's pieces in each distinct cell, as lengths and column keys q * size + u (kernel q, value u).

    Returns the first pieces as (cells x members) lengths and keys, and the
    others as arrays (cell, member, slot, length, key), slot s >= 1 being
    the piece's place in its cell (empty when no cell holds another).  A
    member's piece that starts at t has the member's kernel p, the number
    of its breakpoints at or before t: for every run and member at once,
    from one cumulative count down a breakpoints x runs comparison.  After
    the first, pieces start only at a breakpoint inside a run, or at a
    later run's start in a cut cell; one np.lexsort puts them in order of
    cell and member (as cell * members + member) and start.
    """
    run_cell, run_start, run_end, run_value, firsts, later = runs
    m, breaks, owner, after = len(members), [], [], []
    first = list(accumulate((len(f.kernel) for f in members), initial=0))  # each member's first kernel
    for g, f in enumerate(members):  # each breakpoint, its member and the kernel of the piece after it
        breaks += f.breakpoints
        owner += [g] * len(f.breakpoints)
        after += range(first[g] + 1, first[g] + 1 + len(f.breakpoints))
    # count[i, r]: breakpoints before the i-th at or before run r's start; member f's p is the count over its own
    before = np.array(breaks, np.float64)[:, None] <= run_start
    count = np.zeros((len(breaks) + 1, len(run_start)), np.int32)
    np.cumsum(before, axis=0, out=count[1:])
    bound = list(accumulate((len(f.breakpoints) for f in members), initial=0))
    keys = ((np.array(first[:-1], np.intp)[:, None] + count[bound[1:]] - count[bound[:-1]]) * size + run_value).T
    hit, run = (~before & (np.array(breaks, np.float64)[:, None] < run_end)).nonzero()
    cell_end = edges[cells + 1]
    stop = cell_end[:, None].repeat(m, axis=1)
    if not len(hit) + len(later):
        none = np.empty(0, np.intp)
        return stop - edges[cells, None], keys[firsts], (none, none, none, np.empty(0), none)
    later = np.array(later, np.intp)
    pair = np.concatenate(
        (run_cell[run] * m + np.array(owner, np.intp)[hit], (run_cell[later, None] * m + np.arange(m)).ravel())
    )
    start = np.concatenate((np.array(breaks, np.float64)[hit], run_start[later].repeat(m)))
    key = np.concatenate((np.array(after, np.intp)[hit] * size + run_value[run], keys[later].ravel()))
    order = np.lexsort((start, pair))
    pair, start, key = pair[order], start[order], key[order]
    slot = np.arange(len(pair)) - pair.searchsorted(pair) + 1
    # a piece ends at the next one of its cell and member, the last at the cell's end
    end, same = cell_end[pair // m], pair[1:] == pair[:-1]
    end[:-1][same] = start[1:][same]
    stop.reshape(-1)[pair[slot == 1]] = start[slot == 1]  # each cell's first piece per member ends at its next cut
    return stop - edges[cells, None], keys[firsts], (pair // m, pair % m, slot, end - start, key)


def expectations(nu: L0Measure, members, shifts=(None,), moved=()):
    """The shifts x members expectations E_nu(f o lambda_s), and the members x maps values f(shifts[0] * h).

    shifts is walked once; None is the identity.  This is the one place an
    expectation under an L0Measure is formed: each member's values *
    weights are added by numpy's pairwise sum along the maps, one
    .sum(axis=1) per running sum and never by a BLAS product, so a row has
    the bits of its own .sum() in any company and on every BLAS kernel.  A
    member must be an IntegralMember (else CarrierMismatch); it is
    integrated per grid cell and support atom on the joint refinement of
    the grid, the shift and its own breakpoints, and a map's value adds
    its n cells left to right, whatever the number of maps in nu.

    No Python step runs per cell and member.  _plan_cells numbers the
    distinct cells, _pieces gives each member's pieces in them, and
    _columns builds every kernel column a piece names once.  For each
    distinct cell, a members x atoms table adds each member's pieces left
    to right from 0.0: the first pieces in one np.take from the columns,
    the others slot by slot.  One np.take gathers the table into the
    cell's members x maps block, and a shift's values add its n blocks
    left to right (_running_sums).  phi is applied to the
    rows of adjacent members with the same phi at once.  Members are taken
    in groups whose blocks fit in BLOCK_ENTRY_LIMIT floats, at least one
    member at a time.

    moved, when not empty, lists the increasing cells (from 0) where the
    last shift differs from shifts[0]: that shift then forms no mean, and
    in its place come the means of the prefixes, shifts[0] with the last
    shift's cells up to each moved cell j, each changed in place from the
    one before it by the two shifts' blocks on cell j.
    """
    base, group, n = nu.base, nu.base.group, nu.n
    shifts = tuple(shifts)
    if len(shifts) <= bool(moved):  # the telescope's last shift gives blocks, not a mean
        raise ValueError("expectations needs at least one shift")
    values, plan, cells, edges, runs = _plan_cells(group, shifts, n)
    end = plan.pop() if moved else None
    for fi, f in enumerate(members):
        if not isinstance(f, IntegralMember):
            raise CarrierMismatch(f"member {fi} is not an IntegralMember")
    first_lengths, first_keys, (piece_cell, piece_member, slot, lengths, piece_key) = _pieces(
        members, len(values), edges, cells, runs
    )
    columns = _columns(base, values, [k for f in members for k in f.kernel], first_keys, piece_key)

    codes = np.ascontiguousarray(nu.codes.T)  # row i: the atom of cell i in each map
    weights, maps, atoms = nu.weights, codes.shape[1], len(base.weights)
    rows_max = max(1, min(len(members), BLOCK_ENTRY_LIMIT // (len(cells) * maps)))
    # allocated once: fresh arrays of this size per cell would fault in new pages each time
    tables, blocks = np.empty((rows_max, atoms)), np.empty((len(cells), rows_max, maps))
    means, out = np.empty((len(plan) + len(moved), len(members))), np.empty((len(members), maps))
    total, product = np.empty((2, rows_max, maps))  # a running sum, and its products with the weights
    # the running sums: each shift's, then the telescope's prefixes, changed cell by moved cell
    sums = [(slots, {n - 1: k}) for k, slots in enumerate(plan)]
    if moved:
        j, steps = np.array(moved), np.empty(2 * len(moved), np.intp)
        steps[0::2], steps[1::2] = end[j], ~plan[0][j]
        prefixes = {n + 1 + 2 * t: len(plan) + t for t in range(len(j))}  # after each moved cell's two steps
        sums[0] = (np.concatenate((plan[0], steps)), {n - 1: 0, **prefixes})
    extras = {}  # (member group, cell) as one number: their extra pieces, one index array per slot
    if len(slot):
        top = int(slot.max()) + 1
        place = (piece_member // rows_max * len(cells) + piece_cell) * top + slot
        at = np.argsort(place, kind="stable")
        place = place[at]
        cuts = (np.flatnonzero(place[1:] != place[:-1]) + 1).tolist()
        for a, b in zip([0, *cuts], [*cuts, len(at)]):
            extras.setdefault(int(place[a]) // top, []).append(at[a:b])
    for lo in range(0, len(members), rows_max):
        hi = min(lo + rows_max, len(members))
        phis, stop = [], 0  # (phi, first row, end row) of each run of adjacent members with one phi
        for phi, same in groupby(members[fi].phi for fi in range(lo, hi)):
            start, stop = stop, stop + len(list(same))
            phis.append((phi, start, stop))
        table = tables[: hi - lo]
        for c in range(len(cells)):
            np.take(columns, first_keys[c, lo:hi], axis=0, out=table, mode="clip")
            np.multiply(table, first_lengths[c, lo:hi, None], out=table)
            np.add(table, 0.0, out=table)  # the first pieces, added to 0.0
            for e in extras.get(lo // rows_max * len(cells) + c, ()):
                table[piece_member[e] - lo] += lengths[e, None] * columns[piece_key[e]]
            np.take(table, codes[cells[c]], axis=1, out=blocks[c, : hi - lo], mode="clip")
        for terms, emit in sums:
            for k, acc in _running_sums(blocks[:, : hi - lo], terms, emit, total[: hi - lo]):
                # phi acts on each value alone, so members with one phi take it together
                for phi, r, stop in phis:
                    image = phi(acc[r:stop])
                    if k == 0:
                        out[lo + r : lo + stop] = image
                    np.multiply(image, weights, out=product[r:stop])
                means[k, lo:hi] = product[: hi - lo].sum(axis=1)
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
