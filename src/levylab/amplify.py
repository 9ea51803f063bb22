"""Push-forward product measures on step maps and the amplification pipeline.

Given an almost-invariant measure mu on G, the n-fold product measure is
transported to step maps through the uniform-grid embedding, held as an
array of indices into the support of mu.  Its defect against translation
by a target map is controlled by a telescoping chain of single-coordinate
steps (step j: the change in expectation when the translation grows by
its j-th coordinate) plus the off-grid remainder, charged to the family's
Lipschitz constant times the grid-approximation disagreement.  Integral
members are evaluated on the whole batch by table lookup.  A schedule runs
the construction along a sequence of (n_i, mu_i) pairs and reports
defects, bounds, concentration masses, and expectation-median gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import sqrt
from operator import add

import numpy as np

from . import rng
from .errors import (
    CarrierMismatch,
    DimensionMismatch,
    InvalidSchedule,
    TooLargeForExact,
)
from .families import BLFamily, IntegralMember, L0Carrier
from .hamming import (
    EXACT_PRODUCT_LIMIT,
    DiscreteBase,
    HammingProduct,
    product_weights,
    sample_indices,
    talagrand_bound,
)
from .mmspace import weighted_deviation_mass, weighted_median
from .stepmaps import AnyMap, StepMap, grid_approximate, identity_map, merge_breakpoints
from .wordgroups import FinSuppMeasure

_TOL = 1e-9


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

    @property
    def support(self) -> tuple:
        """The step maps, built from codes on each access."""
        atoms, group = self.base.support, self.base.group
        return tuple(StepMap(group, tuple(atoms[c] for c in row)) for row in self.codes.tolist())


def push_forward(
    mu: FinSuppMeasure,
    n: int,
    mode: str = "exact",
    *,
    samples: int | None = None,
    seed: int = 0,
    exact_cap: int = EXACT_PRODUCT_LIMIT,
) -> L0Measure:
    """Transport mu^(x)n to step maps on the uniform n-grid."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = len(mu.support)
    if mode == "exact":
        if k**n > exact_cap:
            raise TooLargeForExact(f"{k**n} tuples exceeds exact cap {exact_cap}")
        # the index tuples in itertools.product order, matching product_weights
        codes = np.indices((k,) * n).reshape(n, -1).T
        return L0Measure(mu, n, codes, product_weights(mu.weights, n), "exact")
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if samples is None or samples < 1:
        raise ValueError("sampled mode needs samples >= 1")
    product = HammingProduct(DiscreteBase(mu.support, mu.weights), n)
    codes = sample_indices(product, samples, seed)
    return L0Measure(mu, n, codes, np.full(samples, 1.0 / samples), "sampled", seed)


def _member_values(nu: L0Measure, members, shift: AnyMap | None = None) -> np.ndarray:
    """The members x maps matrix of f(shift * h) over the maps h of nu.

    Each member, an IntegralMember, is integrated once per grid cell and
    support atom on the joint refinement of the grid, the shift and its
    own breakpoints; each map's value is then a gather of its n cells from
    that table.  Any other member raises CarrierMismatch.
    """
    atoms, group, n = nu.base.support, nu.base.group, nu.n
    by = identity_map(group) if shift is None else shift
    moved = [group.translate_all(group.validate(v), atoms) for v in by.values]
    # the grid refined by the shift: the grid and shift cell of each piece, and the inner cuts
    refined = list(merge_breakpoints([i / n for i in range(1, n)], by.breakpoints))
    cuts = [stop for _, stop, _, _ in refined[:-1]]
    # cell i of map j in a raveled (n, |support|) table, cell-major so that summing adds rows
    at = np.ascontiguousarray((nu.codes + np.arange(n) * len(atoms)).T)
    out = np.empty((len(members), len(nu.weights)))
    for fi, f in enumerate(members):
        if not isinstance(f, IntegralMember):
            raise CarrierMismatch(f"member {fi} is not an IntegralMember")
        table = np.zeros((n, len(atoms)))
        columns = {}
        for start, stop, ri, p in merge_breakpoints(cuts, f.breakpoints):
            _, _, gi, si = refined[ri]
            if (si, p) not in columns:
                columns[si, p] = np.fromiter(map(f.kernel[p], moved[si]), np.float64, len(atoms))
            table[gi] += (stop - start) * columns[si, p]
        out[fi] = f.phi(table.ravel()[at].sum(axis=0))
    return out


@dataclass(frozen=True)
class DefectResult:
    defect: float
    bound: float
    per_step: tuple
    gprime: tuple
    grid_disagreement: float


def l0_defect(nu: L0Measure, g: AnyMap, family: BLFamily) -> DefectResult:
    """Defect of nu against translation by g, with its telescoping bound.

    defect = max over the family of |E_nu(f) - E_nu(f o lambda_g)|;
    bound  = sum of telescope steps for the grid approximation g' of g
             plus L * disagreement(g, embedded g').

    Step j is max over the family of |E_nu(f o lambda_{a_{j-1}}) -
    E_nu(f o lambda_{a_j})| for the prefixes a_j = (g'_1..g'_j, e..e).  The
    steps are evaluated on nu itself, exact or sampled, so the telescope
    identity holds exactly and the bound dominates the defect up to float
    roundoff.
    """
    group = nu.base.group
    if not isinstance(family.carrier, L0Carrier) or family.carrier.group != group:
        raise CarrierMismatch("family must live over step maps of the same base group")
    if g.group != group:
        raise CarrierMismatch("target map lives over a different group")
    gp, dis = grid_approximate(g, nu.n)

    def expectations(shift):
        return _member_values(nu, family.members, shift) @ nu.weights

    e_id = expectations(None)
    defect = float(np.max(np.abs(e_id - expectations(g))))

    e = group.identity
    prev = e_id
    steps = []
    for j in range(1, nu.n + 1):
        cur = expectations(StepMap(group, gp[:j] + (e,) * (nu.n - j)))
        steps.append(float(np.max(np.abs(prev - cur))))
        prev = cur
    # left to right from 0.0: from Python 3.12 on, sum() compensates
    bound = reduce(add, steps, 0.0) + family.lipschitz * dis
    return DefectResult(defect, bound, tuple(steps), gp, dis)


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
            tv = max(mu.tv_distance(mu.translate(gen)) for gen in group.generators())
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


def run_schedule(
    schedule: Schedule,
    g: AnyMap,
    family: BLFamily,
    eps: float,
    *,
    mode: str = "auto",
    samples: int = 20000,
    seed: int = 42,
    exact_cap: int = 10**5,
) -> ScheduleReport:
    """Run the amplification pipeline along a schedule.

    Per entry: push the i-th base measure forward on grid n_i (exactly
    when the enumeration stays below exact_cap, otherwise with a seeded
    per-entry sample), then report the defect against g with its bound,
    the worst concentration mass nu{|f - E f| > eps}, and the worst
    expectation-median gap over the family.  Entries are independent and
    deterministic given (seed, i), so they may run in any order or in
    parallel without changing the report.
    """
    if mode not in ("auto", "exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if not eps > 0:
        raise ValueError("eps must be > 0")
    rows = []
    modes = []
    bounded = True
    implication_all = True
    conc_under_talagrand = True
    for i, (n_i, mu_i) in enumerate(schedule.entries, start=1):
        size = len(mu_i.support) ** n_i
        if mode == "exact" or (mode == "auto" and size <= exact_cap):
            nu = push_forward(mu_i, n_i, "exact", exact_cap=exact_cap)
        else:
            nu = push_forward(
                mu_i, n_i, "sampled", samples=samples, seed=rng.derive_seed(seed, "entry", i)
            )
        modes.append(nu.mode)

        values = _member_values(nu, family.members)
        res = l0_defect(nu, g, family)
        e_vals = values @ nu.weights

        conc_mass = 0.0
        median_gap = 0.0
        implication_ok = True
        for fi in range(len(family.members)):
            med = weighted_median(values[fi], nu.weights)
            gap = float(abs(e_vals[fi] - med))
            mass_e = weighted_deviation_mass(values[fi], nu.weights, float(e_vals[fi]), eps)
            mass_m_half = weighted_deviation_mass(values[fi], nu.weights, med, eps / 2)
            conc_mass = max(conc_mass, mass_e)
            median_gap = max(median_gap, gap)
            if gap <= eps / 2 and mass_e > mass_m_half + 1e-12:
                implication_ok = False

        bounded &= res.defect <= res.bound + _TOL
        implication_all &= implication_ok
        sigma = 0.0
        if nu.mode == "sampled":
            sigma = sqrt(max(conc_mass * (1 - conc_mass), 0.0) / len(nu.weights))
        conc_under_talagrand &= conc_mass <= talagrand_bound(eps / family.lipschitz, n_i) + 4 * sigma

        rows.append(ScheduleRow(i, n_i, res.defect, res.bound, conc_mass, median_gap))

    flags = {
        "defect_within_bound": bool(bounded),
        "half_radius_implication": bool(implication_all),
        "conc_mass_within_talagrand": bool(conc_under_talagrand),
        "final_defect_within_target": bool(rows[-1].defect <= schedule.target_eps),
        "defect_last_le_first": bool(rows[-1].defect <= rows[0].defect + _TOL),
        "median_gap_last_le_first": bool(rows[-1].median_gap <= rows[0].median_gap + _TOL),
    }
    return ScheduleReport(
        tuple(rows), flags, eps, schedule.target_eps, tuple(modes), schedule.witnesses
    )
