"""The benchmark's seeded workloads: operations on levylab and their output checks.

A workload is built from the benchmark seed into a list of operations.  Each
operation is one timed call into the library; its check runs afterwards,
untimed, and turns the result into the numbers the run reports plus a list
of invariant violations.  Library functions are always looked up through
their module at call time (``amplify.run_schedule``, never a bound name), so
the traced run sees every call the workload makes.

Inputs are drawn with numpy's own generator keyed by ``[seed, tag]``, not
with ``levylab.rng``, so a change to the library's streams cannot change
what the benchmark feeds it.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from levylab import amplify, cli, errors, families, hamming, mean_transfer, mmspace, stepmaps, wordgroups

# The seed whose outputs bench/reference.json stores.
DEFAULT_SEED = 1
# Below the CLI default of 20,000, which costs about 90 s per pass on a 2-CPU
# machine; 500 keeps a pass near 3 s while stages 3-8 stay sampled.
AMPLIFY_SAMPLES = 500
# Members of the exact workload: 20 took 12.9 s per pass, 3 take about 2 s.
EXACT_MEMBERS = 3
EPS = 0.2
# The invariants every schedule report must satisfy on any seed; the other
# flags are outcomes of the particular schedule and are checked only
# through the reference numbers.
BOUND_FLAGS = ("defect_within_bound", "half_radius_implication", "conc_mass_within_talagrand")

ALPHA_POINTS = 20
ALPHA_GRID = [k / 20 for k in range(21)]
PROFILE_N, PROFILE_SAMPLES, PROFILE_EPS = 100, 100_000, 0.1
EXACT_PROFILE_N, EXACT_PROFILE_EPS = 11, 0.3
Z_SWEEP = range(1, 11)
F2_SWEEP = range(1, 10)
F2_FLOOR = 0.2
# Documented sizes: |ball_F2(10)| = 2*3^10 - 1 and |[-200, 200]^2| = 401^2.
F2_BALL_RADIUS, F2_BALL_ATOMS = 10, 2 * 3**10 - 1
Z2_BOX_K, Z2_BOX_ATOMS = 200, 401**2

_TOL = 1e-12

# The operations known to raise today, with the error they raise: both
# measure builds fail their mass check at these sizes (ROADMAP item 3).  Such
# a raise counts as a failed operation but leaves the run correct; a raise
# from any other operation, or of another error, makes the run incorrect.
KNOWN_FAILURES = {
    "wordgroups.ball_uniform.F2_10": errors.InvalidMeasure,
    "wordgroups.folner_measure.Z2_200": errors.InvalidMeasure,
}


@dataclass
class Op:
    """One timed call (``run``) and its untimed check.

    ``check`` maps the result to ``(numbers, problems)``: every number the
    operation reports, and one line per violated invariant.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[float], list[str]]]


def _gen(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(tag.encode(), "little")])


def _schedule_check(report, expected_modes) -> tuple[list[float], list[str]]:
    numbers = [float(v) for r in report.rows for v in (r.i, r.n, r.defect, r.bound, r.conc_mass, r.median_gap)]
    problems = [f"flag {k} is false" for k in BOUND_FLAGS if not report.flags[k]]
    if tuple(report.entry_modes) != tuple(expected_modes):
        problems.append(f"entry modes {report.entry_modes} != {expected_modes}")
    return numbers, problems


# ---------------------------------------------------------------------------
# amplify-sampled: the CLI `amplify` run at its default flags


def build_amplify_sampled(seed: int, tmpdir: str) -> list[Op]:
    out = os.path.join(tmpdir, "amplify.csv")
    summary = os.path.join(tmpdir, "amplify-summary.json")
    argv = ["amplify", "--seed", str(seed), "--samples", str(AMPLIFY_SAMPLES),
            "--out", out, "--json-summary", summary]

    def check(rc):
        if rc != 0:
            return [], [f"cli exit code {rc}"]
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(summary, encoding="utf-8") as fh:
            flags = json.load(fh)["flags"]
        numbers = [float(r[k]) for r in rows for k in ("i", "n", "defect", "bound", "conc_mass", "median_gap")]
        problems = [f"flag {k} is false" for k in BOUND_FLAGS if flags.get(k) is not True]
        modes = "exact,exact," + ",".join(["sampled"] * 6)
        if len(rows) != 8 or flags.get("entry_modes") != modes:
            problems.append(f"expected 8 rows with modes {modes}, got {len(rows)} and {flags.get('entry_modes')}")
        return numbers, problems

    return [Op("cli.amplify", lambda: cli.main(argv), check)]


# ---------------------------------------------------------------------------
# amplify-exact: an all-exact schedule, then mean transfer on its last stage


def build_amplify_exact(seed: int, tmpdir: str) -> list[Op]:
    del tmpdir
    gen = _gen(seed, "amplify-exact")
    group = wordgroups.ZdGroup(1)
    # boxes of 5, 11 and 21 atoms on grids 1, 2, 3: 5, 121 and 9,261 tuples
    entries = tuple((i, wordgroups.folner_measure(group, i * i + 1)) for i in (1, 2, 3))
    schedule = amplify.Schedule(entries, EPS)
    # a 5-cell target: translation refines onto the lcm grid, and the grid
    # approximation on n = 1, 2, 3 leaves a non-zero remainder
    target = stepmaps.h_embed(group, tuple((int(v),) for v in gen.integers(-2, 3, size=5)))
    family = families.cell_window_family(group, EXACT_MEMBERS, int(gen.integers(2**62)))
    n_last, mu_last = entries[-1]
    a, b = gen.uniform(0.3, 2.0), gen.uniform(0.0, 2 * math.pi)

    def f(x):
        return math.sin(a * x[0] + b)

    g = (int(gen.choice([-1, 1])) * int(gen.integers(1, 4)),)

    def transfer():
        nu = amplify.push_forward(mu_last, n_last, "exact")
        return mean_transfer.transfer_defect(mean_transfer.MeanApprox(nu), f, g)

    def check_transfer(d):
        # each grid cell of a product measure has marginal mu, so the
        # transferred defect equals the base-group defect of f
        base = abs(mu_last.expectation(f) - mu_last.expectation(lambda x: f(group.op(g, x))))
        residual = abs(d - base)
        problems = [] if residual <= _TOL else [f"transfer residual {residual:.3e} > 1e-12"]
        return [float(d)], problems

    return [
        Op("amplify.run_schedule",
           lambda: amplify.run_schedule(schedule, target, family, EPS, mode="auto"),
           lambda rep: _schedule_check(rep, ("exact",) * 3)),
        Op("mean_transfer.transfer_defect", transfer, check_transfer),
    ]


# ---------------------------------------------------------------------------
# concentration: finite spaces, Hamming products and word-group defects


def _profile_check(product: hamming.HammingProduct, eps: float):
    def check(res):
        limit = hamming.talagrand_bound(eps, product.n) + 4 * res.stderr + _TOL
        problems = [] if res.estimate <= limit else [f"profile {res.estimate} > bound {limit}"]
        return [res.estimate, res.stderr, res.median], problems

    return check


def build_concentration(seed: int, tmpdir: str) -> list[Op]:
    del tmpdir
    gen = _gen(seed, "concentration")
    pts = gen.random((ALPHA_POINTS, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    space = mmspace.FiniteMMSpace(tuple(range(ALPHA_POINTS)), dist, gen.dirichlet(np.ones(ALPHA_POINTS)))

    def check_alpha(alphas):
        alphas = [float(v) for v in alphas]
        problems = []
        if any(not 0.0 <= v <= 0.5 for v in alphas):
            problems.append("alpha leaves [0, 1/2]")
        if any(b > a + _TOL for a, b in zip(alphas, alphas[1:])):
            problems.append("alpha increases along the grid")
        return alphas, problems

    cube = hamming.HammingProduct(hamming.DiscreteBase.uniform((0, 1)), PROFILE_N)
    profile_seed = int(gen.integers(2**62))
    base3 = hamming.DiscreteBase((0, 1, 2), tuple(float(w) for w in gen.dirichlet(np.ones(3))))
    product3 = hamming.HammingProduct(base3, EXACT_PROFILE_N)
    exact_seed = int(gen.integers(2**62))

    z = wordgroups.ZdGroup(1)
    z_g = (int(gen.choice([-1, 1])),)
    z_family = families.wordlen_clamp_family(z, [5])
    f2 = wordgroups.FreeGroup2()
    f2_g = str(gen.choice(list(f2.generators())))

    def z_sweep():
        return [families.invariance_defect(wordgroups.folner_measure(z, k), z_g, z_family) for k in Z_SWEEP]

    def check_z(defects):
        bad = [k for k, d in zip(Z_SWEEP, defects) if d > 2.0 * z_family.bound / (2 * k + 1) + _TOL]
        return [float(d) for d in defects], [f"box defect above 2B/(2k+1) at k={k}" for k in bad]

    def f2_sweep():
        return [
            families.invariance_defect(
                wordgroups.ball_uniform(f2, k), f2_g, families.wordlen_clamp_family(f2, [k + 1], normalize=False)
            )
            for k in F2_SWEEP
        ]

    def check_f2(defects):
        bad = [k for k, d in zip(F2_SWEEP, defects) if d < F2_FLOOR - _TOL]
        return [float(d) for d in defects], [f"F2 ball defect below {F2_FLOOR} at k={k}" for k in bad]

    def size_check(atoms):
        def check(mu):
            problems = [] if len(mu.support) == atoms else [f"{len(mu.support)} atoms, expected {atoms}"]
            return [float(len(mu.support))], problems

        return check

    return [
        Op("mmspace.alpha_profile", lambda: mmspace.alpha_profile(space, ALPHA_GRID), check_alpha),
        Op("hamming.lipschitz_profile.sampled",
           lambda: hamming.lipschitz_profile(
               cube, hamming.fraction_differing(0), bound=1.0, lipschitz=1.0, eps=PROFILE_EPS,
               mode="sampled", samples=PROFILE_SAMPLES, seed=profile_seed),
           _profile_check(cube, PROFILE_EPS)),
        Op("hamming.lipschitz_profile.exact",
           lambda: hamming.lipschitz_profile(
               product3, hamming.fraction_differing(0), bound=1.0, lipschitz=1.0, eps=EXACT_PROFILE_EPS,
               mode="exact", seed=exact_seed),
           _profile_check(product3, EXACT_PROFILE_EPS)),
        Op("families.invariance_defect.Z", z_sweep, check_z),
        Op("families.invariance_defect.F2", f2_sweep, check_f2),
        Op("wordgroups.ball_uniform.F2_10", lambda: wordgroups.ball_uniform(f2, F2_BALL_RADIUS),
           size_check(F2_BALL_ATOMS)),
        Op("wordgroups.folner_measure.Z2_200",
           lambda: wordgroups.folner_measure(wordgroups.ZdGroup(2), Z2_BOX_K), size_check(Z2_BOX_ATOMS)),
    ]


WORKLOADS = {
    "amplify-sampled": build_amplify_sampled,
    "amplify-exact": build_amplify_exact,
    "concentration": build_concentration,
}
