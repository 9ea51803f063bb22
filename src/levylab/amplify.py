"""Push-forward product measures on step maps and the amplification pipeline.

Given an almost-invariant measure mu on G, the n-fold product measure is
transported to step maps through the uniform-grid embedding.  The defect
of the transported measure against translation by a target map is then
controlled by a telescoping chain of single-coordinate steps: step j is the
change in expectation when the translation grows by its j-th coordinate
(by Fubini, a base-group defect of a pulled-back family), and the
off-grid remainder is charged to the family's Lipschitz constant times the
grid-approximation disagreement.  A schedule runs the construction along a
sequence of (n_i, mu_i) pairs and reports defects, bounds, concentration
masses, and expectation-median gaps per entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import rng
from .errors import (
    CarrierMismatch,
    DimensionMismatch,
    InvalidSchedule,
    TooLargeForExact,
)
from .families import BLFamily, L0Carrier
from .hamming import DiscreteBase, HammingProduct, product_weights, sample_product, talagrand_bound
from .mmspace import weighted_deviation_mass, weighted_median
from .stepmaps import AnyMap, StepMap, grid_approximate, pointwise_translate
from .wordgroups import FinSuppMeasure

EXACT_PUSHFORWARD_LIMIT = 10**6

_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class L0Measure:
    """A finitely supported measure on step maps of a fixed grid.

    Represents the push-forward of base^(x)n under the grid embedding,
    either exactly (full enumeration, product weights) or as a seeded
    empirical measure with equal weights.
    """

    base: FinSuppMeasure
    n: int
    support: tuple
    weights: np.ndarray
    mode: str
    seed: int | None = None

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.support) != len(weights):
            raise DimensionMismatch("support and weights must have equal length")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise InvalidSchedule("push-forward weights must sum to 1")
        if any(h.n != self.n for h in self.support):
            raise DimensionMismatch("all support maps must share the grid size")
        weights.flags.writeable = False
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "weights", weights)


def push_forward(
    mu: FinSuppMeasure,
    n: int,
    mode: str = "exact",
    *,
    samples: int | None = None,
    seed: int = 0,
    exact_cap: int = EXACT_PUSHFORWARD_LIMIT,
) -> L0Measure:
    """Transport mu^(x)n to step maps on the uniform n-grid."""
    if n < 1:
        raise ValueError("n must be >= 1")
    group = mu.group
    if mode == "exact":
        size = len(mu.support) ** n
        if size > exact_cap:
            raise TooLargeForExact(f"{size} tuples exceeds exact cap {exact_cap}")
        weights = product_weights(mu.weights, n)
        support = tuple(StepMap(group, combo) for combo in itertools.product(mu.support, repeat=n))
        return L0Measure(mu, n, support, weights, "exact")
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if samples is None or samples < 1:
        raise ValueError("sampled mode needs samples >= 1")
    product = HammingProduct(DiscreteBase(mu.support, mu.weights), n)
    support = tuple(StepMap(group, row) for row in sample_product(product, samples, seed))
    weights = np.full(samples, 1.0 / samples)
    return L0Measure(mu, n, support, weights, "sampled", seed)


def _member_values(nu: L0Measure, family: BLFamily) -> np.ndarray:
    m = len(nu.support)
    out = np.empty((len(family.members), m))
    for fi, f in enumerate(family.members):
        out[fi] = np.fromiter((f(h) for h in nu.support), dtype=np.float64, count=m)
    return out


def _translate_expectations(nu: L0Measure, family: BLFamily, shift: AnyMap) -> np.ndarray:
    """E_nu(f o lambda_shift) for every member f."""
    sums = np.zeros(len(family.members))
    for h, wh in zip(nu.support, nu.weights):
        th = pointwise_translate(shift, h)
        for fi, f in enumerate(family.members):
            sums[fi] += wh * f(th)
    return sums


@dataclass(frozen=True)
class DefectResult:
    defect: float
    bound: float
    per_step: tuple
    gprime: tuple
    grid_disagreement: float


def l0_defect(
    nu: L0Measure,
    g: AnyMap,
    family: BLFamily,
    *,
    approx_n: int | None = None,
    _values: np.ndarray | None = None,
) -> DefectResult:
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
    n_eff = nu.n if approx_n is None else approx_n
    gp, dis = grid_approximate(g, n_eff)

    values = _member_values(nu, family) if _values is None else _values
    e_id = values @ nu.weights
    e_shift = _translate_expectations(nu, family, g)
    defect = float(np.max(np.abs(e_id - e_shift)))

    e = group.identity
    prev = e_id
    steps = []
    for j in range(1, n_eff + 1):
        a_j = StepMap(group, gp[:j] + (e,) * (n_eff - j))
        cur = _translate_expectations(nu, family, a_j)
        steps.append(float(np.max(np.abs(prev - cur))))
        prev = cur
    bound = float(sum(steps)) + family.lipschitz * dis
    return DefectResult(defect, bound, tuple(steps), gp, dis)


@dataclass(frozen=True)
class Schedule:
    """Entries (n_i, mu_i) with non-decreasing n_i and a target defect.

    On construction the witness products n_i * (max generator total
    variation of mu_i) are recorded and required to be non-increasing;
    they quantify the hypothesis that base defects shrink faster than the
    grid grows.  Pass enforce_hypothesis=False for deliberately degenerate
    schedules.
    """

    entries: tuple
    target_eps: float
    enforce_hypothesis: bool = True

    def __post_init__(self):
        entries = tuple((int(n), mu) for n, mu in self.entries)
        if not entries:
            raise InvalidSchedule("schedule must have at least one entry")
        if self.target_eps <= 0:
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
        if self.enforce_hypothesis and any(
            b > a + _TOL for a, b in zip(witnesses, witnesses[1:])
        ):
            raise InvalidSchedule(
                "witness products n_i * defect(mu_i) must be non-increasing; "
                "pass enforce_hypothesis=False to override"
            )
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
    if eps <= 0:
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
            entry_mode = "exact"
        else:
            entry_mode = "sampled"
            nu = push_forward(
                mu_i, n_i, "sampled", samples=samples, seed=rng.derive_seed(seed, "entry", i)
            )
        modes.append(entry_mode)

        values = _member_values(nu, family)
        res = l0_defect(nu, g, family, _values=values)
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
        if entry_mode == "sampled":
            sigma = sqrt(max(conc_mass * (1 - conc_mass), 0.0) / len(nu.support))
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
