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
identity, the target and the telescope prefixes whose new coordinate is
not e; the other steps are exactly 0) and builds each kernel column once
for all of them.  A schedule checks every entry's size caps, then runs
l0_defect on each of a sequence of (n_i, mu_i) pairs and reports
defects, bounds, concentration masses, and expectation-median gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
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
from .stepmaps import AnyMap, IntegralMember, StepMap, grid_approximate, identity_map, merge_breakpoints
from .wordgroups import FinSuppMeasure

_TOL = 1e-9
# the most floats one l0_defect call may hold in kernel columns and member tables,
# (member pieces x shift values + n) x atoms, checked before any is built
TABLE_ENTRY_LIMIT = 1 << 22


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
    seed: int | None = None

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        codes = np.asarray(self.codes, dtype=np.intp)
        if codes.shape != (len(weights), self.n):
            raise DimensionMismatch(f"codes shape {codes.shape} != ({len(weights)}, {self.n})")
        # written so that a NaN weight, or a NaN sum, fails
        if not np.all(weights >= 0) or not abs(weights.sum() - 1.0) <= 1e-9:
            raise InvalidSchedule("push-forward weights must be non-negative and sum to 1")
        if codes.size and not 0 <= codes.min() <= codes.max() < len(self.base.support):
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
    k = len(mu.support)
    if mode == "exact":
        _check_enumeration(k**n)
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
    return L0Measure(mu, n, codes, np.full(samples, 1.0 / samples), "sampled", seed)


def expectations(nu: L0Measure, members, shifts=(None,)):
    """The shifts x members expectations E_nu(f o lambda_s), and the members x maps values f(shifts[0] * h).

    shifts is walked once; None is the identity.  This is the one place an
    expectation under an L0Measure is formed: each member's row of values *
    weights is added by numpy's pairwise .sum(), one row at a time and
    never by a BLAS product, so it has the same bits in any company and on
    every BLAS kernel.  A member must be an IntegralMember (else
    CarrierMismatch); it is integrated per grid cell and support atom on
    the joint refinement of the grid, the shift and its own breakpoints,
    and a map's value gathers its n cells from that table.  The table adds
    kernel columns, the kernel of one piece over the support translated by
    one shift value; each is built once per call, for every shift and cell
    that carries its value.
    """
    atoms, group, n = nu.base.support, nu.base.group, nu.n
    moved, columns, means = {}, {}, []
    # cell i of map j in a raveled (n, |support|) table, cell-major so that summing adds rows
    at = np.ascontiguousarray((nu.codes + np.arange(n) * len(atoms)).T)
    out = np.empty((len(members), len(nu.weights)))
    for shift in shifts:
        by = identity_map(group) if shift is None else shift
        values = [group.validate(v) for v in by.values]
        for v in values:
            if v not in moved:
                moved[v] = group.translate_all(v, atoms)
        # the grid refined by the shift: the grid and shift cell of each piece, and the inner cuts
        refined = list(merge_breakpoints([i / n for i in range(1, n)], by.breakpoints))
        cuts = [stop for _, stop, _, _ in refined[:-1]]
        rows = out if not means else np.empty_like(out)  # the values at shifts[0] are returned
        means.append(np.empty(len(members)))
        for fi, f in enumerate(members):
            if not isinstance(f, IntegralMember):
                raise CarrierMismatch(f"member {fi} is not an IntegralMember")
            table = np.zeros((n, len(atoms)))
            for start, stop, ri, p in merge_breakpoints(cuts, f.breakpoints):
                _, _, gi, si = refined[ri]
                key = (fi, values[si], p)
                if key not in columns:
                    columns[key] = np.fromiter(map(f.kernel[p], moved[values[si]]), np.float64, len(atoms))
                table[gi] += (stop - start) * columns[key]
            rows[fi] = f.phi(table.ravel()[at].sum(axis=0))
            means[-1][fi] = (rows[fi] * nu.weights).sum()
    if not means:
        raise ValueError("expectations needs at least one shift")
    return np.reshape(means, (len(means), len(members))), out


def _check_table_entries(n: int, atoms: int, g: AnyMap, family: BLFamily) -> None:
    """Refuse an l0_defect call on n cells and atoms support atoms above TABLE_ENTRY_LIMIT."""
    # the identity, g and its prefixes take these shift values
    shifts = len({g.group.identity, *map(g.group.validate, g.values)})
    pieces = sum(len(f.kernel) for f in family.members if isinstance(f, IntegralMember))
    entries = (pieces * shifts + n) * atoms
    if entries > TABLE_ENTRY_LIMIT:
        raise SpaceTooLarge(
            f"{entries} table entries exceed the cap of {TABLE_ENTRY_LIMIT}: ({pieces} member pieces"
            f" x {shifts} shift values + {n} cells) x {atoms} atoms"
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


def l0_defect(nu: L0Measure, g: AnyMap, family: BLFamily) -> DefectResult:
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
    the other prefixes, in that order, so they share its kernel columns;
    the member values and expectations at the identity are returned.  More
    than TABLE_ENTRY_LIMIT column and table entries raise SpaceTooLarge
    before any is built.
    """
    group = nu.base.group
    if not isinstance(family.carrier, L0Carrier) or family.carrier.group != group:
        raise CarrierMismatch("family must live over step maps of the same base group")
    if g.group != group:
        raise CarrierMismatch("target map lives over a different group")
    gp, dis = grid_approximate(g, nu.n)
    _check_table_entries(nu.n, len(nu.base.support), g, family)
    e = group.identity
    moved = [j for j in range(1, nu.n + 1) if group.validate(gp[j - 1]) != e]
    prefixes = (StepMap(group, gp[:j] + (e,) * (nu.n - j)) for j in moved)
    means, values = expectations(nu, family.members, chain((None, g), prefixes))
    defect = float(np.max(np.abs(means[0] - means[1])))
    steps = [0.0] * nu.n
    prev = means[0]
    for j, cur in zip(moved, means[2:]):
        steps[j - 1] = float(np.max(np.abs(prev - cur)))
        prev = cur
    # left to right from 0.0: from Python 3.12 on, sum() compensates
    bound = reduce(add, steps, 0.0) + family.lipschitz * dis
    return DefectResult(defect, bound, tuple(steps), gp, dis, values, means[0])


@dataclass(frozen=True)
class Schedule:
    """Entries (n_i, mu_i) with non-decreasing n_i and a target defect.

    On construction the witness products n_i * (max generator total
    variation of mu_i) are recorded and required to be non-increasing;
    they quantify the hypothesis that base defects shrink faster than the
    grid grows.
    """

    entries: tuple
    target_eps: float

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
            if len(set(mu.weights)) == 1:  # uniform on A: TV(mu, g mu) = |gA \ A| / |A|
                atoms = set(mu.support)
                tv = max(len(atoms.difference(group.translate_all(g, mu.support))) for g in gens) / len(atoms)
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

    def __len__(self) -> int:
        return len(self.entries)


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
    eps: float
    target_eps: float
    entry_modes: tuple
    witnesses: tuple


def stage_modes(entries, g: AnyMap, family: BLFamily, *, mode: str, samples: int, exact_cap: int) -> tuple:
    """The push-forward mode of each (n, mu) entry, once every entry's size caps hold.

    An entry is exact under mode="exact" (over exact_cap: TooLargeForExact)
    and under "auto" within exact_cap.  Only the supports' sizes are read,
    so a run over a cap is refused before anything is built.
    """
    if mode not in ("auto", "exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    modes = []
    for n_i, mu_i in entries:
        size = len(mu_i.support) ** n_i
        if mode == "exact" and size > exact_cap:
            raise TooLargeForExact(f"{size} tuples exceeds exact cap {exact_cap}")
        modes.append("exact" if mode == "exact" or (mode == "auto" and size <= exact_cap) else "sampled")
        if modes[-1] == "exact":
            _check_enumeration(size)
        else:
            _check_sample_array(samples, n_i)
        _check_table_entries(n_i, len(mu_i.support), g, family)
    return tuple(modes)


def run_schedule(
    schedule: Schedule, g: AnyMap, family: BLFamily, eps: float,
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
    modes = stage_modes(schedule.entries, g, family, mode=mode, samples=samples, exact_cap=exact_cap)
    rows = []
    bounded = True
    implication_all = True
    conc_under_talagrand = True
    for i, ((n_i, mu_i), mode_i) in enumerate(zip(schedule.entries, modes), start=1):
        # an exact push-forward takes no samples and no seed
        nu = push_forward(mu_i, n_i, mode_i, samples=samples, seed=rng.derive_seed(seed, "entry", i))
        res = l0_defect(nu, g, family)

        conc_mass = 0.0
        median_gap = 0.0
        for values, mean in zip(res.values, res.expectations):
            med = weighted_median(values, nu.weights)
            gap = float(abs(mean - med))
            mass_e = weighted_deviation_mass(values, nu.weights, float(mean), eps)
            mass_m_half = weighted_deviation_mass(values, nu.weights, med, eps / 2)
            conc_mass = max(conc_mass, mass_e)
            median_gap = max(median_gap, gap)
            if gap <= eps / 2 and mass_e > mass_m_half + 1e-12:
                implication_all = False

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
    return ScheduleReport(tuple(rows), flags, eps, schedule.target_eps, modes, schedule.witnesses)
