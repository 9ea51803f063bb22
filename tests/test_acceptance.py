"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is asserted, so a plain pytest run gates on them too.
"""

import math
import time

import numpy as np
import pytest

from conftest import brute_alpha, brute_l0_defect, disagreement, splice
from levylab import (
    DiscreteBase,
    FinSuppMeasure,
    FreeGroup2,
    HammingProduct,
    PiecewiseMap,
    Schedule,
    ZdGroup,
    alpha_profile,
    ball_uniform,
    disagreement_family,
    folner_measure,
    fraction_differing,
    grid_approximate,
    h_embed,
    hamming_distance,
    invariance_defect,
    l0_defect,
    lipschitz_profile,
    phi_equivariance_check,
    phi_member,
    product_space,
    push_forward,
    run_schedule,
    talagrand_bound,
    wordlen_clamp_family,
)
from levylab.cli import main as cli_main

Z = ZdGroup(1)
F2 = FreeGroup2()


def z_elems(*ints):
    return tuple((i,) for i in ints)


def report(number, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}")
    assert ok, f"criterion {number} ({name}) failed"


# fixed instance shared by criteria 4 and 5
SCHEDULE_SEED = 42
FAMILY_SEED = 123
TARGET = PiecewiseMap(Z, (0.3, 0.65), z_elems(5, -7, 3))


@pytest.fixture(scope="module")
def schedule_report():
    entries = tuple((i, folner_measure(Z, 4 * i * i)) for i in range(1, 9))
    schedule = Schedule(entries, target_eps=0.1)
    family = disagreement_family(Z, 20, seed=FAMILY_SEED, max_pieces=3, radius=4)
    assert family.bound == 1.0 and family.lipschitz == 1.0
    start = time.perf_counter()
    rep = run_schedule(
        schedule, TARGET, family, eps=0.2, samples=20000, seed=SCHEDULE_SEED, exact_cap=10**5
    )
    elapsed = time.perf_counter() - start
    return rep, elapsed


def test_criterion_1_talagrand_profile():
    start = time.perf_counter()
    product_f = fraction_differing(0)
    ok = True
    for n in (10, 50, 100):
        product = HammingProduct(DiscreteBase.uniform((0, 1)), n)
        res = lipschitz_profile(
            product, product_f, bound=1.0, lipschitz=1.0, eps=0.3,
            mode="sampled", samples=100000, seed=42,
        )
        bound = talagrand_bound(0.3, n)
        if n == 50:
            ok &= abs(bound - 0.022218) < 1e-5
        ok &= res.estimate <= bound + 4 * res.stderr
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10
    report(1, f"sampled profiles under 2exp(-0.09n)+4se ({elapsed:.1f}s)", ok)


def test_criterion_2_exact_alpha_oracle():
    start = time.perf_counter()
    grid = np.arange(0.1, 1.01, 0.1)
    cases = [
        (DiscreteBase.uniform((0, 1)), 1),
        (DiscreteBase.uniform((0, 1)), 2),
        (DiscreteBase.uniform((0, 1)), 3),
        (DiscreteBase.uniform((0, 1)), 4),
        (DiscreteBase.uniform((0, 1, 2)), 2),
        (DiscreteBase.uniform((0, 1, 2, 3)), 2),
        (DiscreteBase((0, 1), (0.3, 0.7)), 2),
    ]
    ok = True
    for base, n in cases:
        space = product_space(HammingProduct(base, n))
        assert len(space) <= 16
        alphas = alpha_profile(space, grid)
        ok &= all(a <= talagrand_bound(float(e), n) + 1e-12 for a, e in zip(alphas, grid))
        ok &= all(b <= a + 1e-12 for a, b in zip(alphas, alphas[1:]))
    # independent subset-enumeration oracle on the 4-point cube
    cube = product_space(HammingProduct(DiscreteBase.uniform((0, 1)), 2))
    ok &= all(
        abs(brute_alpha(cube, float(e)) - a) <= 1e-12
        for e, a in zip(grid, alpha_profile(cube, grid))
    )
    two_point = product_space(HammingProduct(DiscreteBase.uniform((0, 1)), 1))
    ok &= alpha_profile(two_point, [0.0])[0] == 0.5
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30
    report(2, f"exact alpha under the exponential bound ({elapsed:.1f}s)", ok)


def test_criterion_3_brute_force_equivalence():
    start = time.perf_counter()
    gen = np.random.default_rng(777)
    checked = 0
    ok = True
    size_cap = {1: 12, 2: 10, 3: 8, 4: 6}
    while checked < 50:
        n = int(gen.integers(1, 5))
        size = int(gen.integers(2, size_cap[n] + 1))
        if size**n > 10**4:
            continue
        support = z_elems(*gen.choice(np.arange(-8, 9), size=size, replace=False))
        raw = gen.uniform(0.2, 1.0, size=size)
        mu = FinSuppMeasure(Z, support, tuple(raw / raw.sum()))
        family = disagreement_family(Z, 3, seed=int(gen.integers(0, 10**6)))
        pieces = int(gen.integers(1, 4))
        breaks = tuple(sorted(set(round(float(b), 3) for b in gen.uniform(0.05, 0.95, size=pieces - 1))))
        values = z_elems(*gen.integers(-4, 5, size=len(breaks) + 1))
        g = PiecewiseMap(Z, breaks, values)
        nu = push_forward(mu, n)
        res = l0_defect(nu, g, family)
        oracle = brute_l0_defect(mu, n, g, family.members)
        ok &= abs(res.defect - oracle) <= 1e-9
        ok &= res.defect <= res.bound + 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60
    report(3, f"defect equals enumeration oracle on {checked} instances ({elapsed:.1f}s)", ok)


def test_criterion_4_telescoping_bound_reproduction(schedule_report):
    rep, elapsed = schedule_report
    rows = rep.rows
    ok = len(rows) == 8
    ok &= all(r.defect <= r.bound + 1e-9 for r in rows)
    ok &= rows[-1].defect <= 0.1
    ok &= rows[-1].defect <= rows[0].defect
    ok &= elapsed < 120
    report(4, f"schedule defects within telescoping bounds ({elapsed:.1f}s)", ok)


def test_criterion_5_median_stabilization(schedule_report):
    rep, _ = schedule_report
    rows = rep.rows
    ok = rows[-1].median_gap <= 0.05
    ok &= rows[-1].median_gap < rows[0].median_gap
    ok &= rep.flags["half_radius_implication"]
    report(5, "median gaps shrink and the half-radius implication holds", ok)


def test_criterion_6_phi_algebra():
    start = time.perf_counter()
    from levylab import CyclicGroup

    ok = True
    for group in (Z, CyclicGroup(12)):
        gen = np.random.default_rng(4242)
        for _ in range(100):
            a = float(gen.uniform(0.3, 2.0))
            b = float(gen.uniform(0.0, 2 * math.pi))
            if isinstance(group, ZdGroup):
                key = lambda x: x[0]  # noqa: E731
            else:
                key = lambda x: x  # noqa: E731
            f1 = lambda x: math.sin(a * key(x) + b)  # noqa: E731
            f2 = lambda x: math.cos(a * key(x))  # noqa: E731
            g = group.random_element(gen, 5)
            n = int(gen.integers(1, 7))
            h_map = h_embed(group, tuple(group.random_element(gen, 5) for _ in range(n)))
            al, be = (float(v) for v in gen.uniform(-2, 2, size=2))

            ok &= abs(phi_member(lambda x: 1.0)(h_map) - 1.0) <= 1e-12
            lin = abs(
                phi_member(lambda x: al * f1(x) + be * f2(x))(h_map)
                - (al * phi_member(f1)(h_map) + be * phi_member(f2)(h_map))
            )
            ok &= lin <= 1e-12
            hi = lambda x: f1(x) + abs(f2(x))  # noqa: E731
            ok &= phi_member(f1)(h_map) <= phi_member(hi)(h_map) + 1e-12
            ok &= phi_equivariance_check(group, f1, g, h_map) <= 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5
    report(6, f"transfer-operator algebra to 1e-12 ({elapsed:.1f}s)", ok)


def test_criterion_7_amenability_contrast():
    start = time.perf_counter()
    ok = True
    family = wordlen_clamp_family(Z, [5])
    for k in range(1, 11):
        mu = folner_measure(Z, k)
        ok &= invariance_defect(mu, (1,), family) <= 2.0 / (2 * k + 1) + 1e-12
    for k in range(1, 7):
        mu = ball_uniform(F2, k)
        ok &= len(mu.support) == 2 * 3**k - 1
        contrast = wordlen_clamp_family(F2, [k + 1], normalize=False)
        ok &= invariance_defect(mu, "a", contrast) >= 0.2
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30
    report(7, f"folner decay vs free-group floor ({elapsed:.1f}s)", ok)


def test_criterion_8_structural_identities():
    gen = np.random.default_rng(31337)
    ok = True
    # embedded tuples are isometric to the Hamming product
    for _ in range(120):
        n = int(gen.integers(1, 7))
        xs = z_elems(*gen.integers(-5, 6, size=n))
        ys = z_elems(*gen.integers(-5, 6, size=n))
        d1 = disagreement(h_embed(Z, xs), h_embed(Z, ys))
        ok &= abs(d1 - hamming_distance(xs, ys)) <= 1e-12
    # splice/translation commutation
    for _ in range(120):
        n = int(gen.integers(1, 6))
        j = int(gen.integers(1, n + 1))
        gp = z_elems(*gen.integers(-4, 5, size=n))
        zz = z_elems(*gen.integers(-4, 5, size=n - 1))
        x = (int(gen.integers(-4, 5)),)
        e = Z.identity
        a_j = gp[:j] + (e,) * (n - j)
        a_prev = gp[: j - 1] + (e,) * (n - j + 1)
        b_j = gp[: j - 1] + (e,) * (n - j)
        bz = tuple(Z.op(bb, zc) for bb, zc in zip(b_j, zz))
        ok &= tuple(Z.op(aa, cc) for aa, cc in zip(a_j, splice(j, zz, x))) == splice(
            j, bz, Z.op(gp[j - 1], x)
        )
        ok &= tuple(Z.op(aa, cc) for aa, cc in zip(a_prev, splice(j, zz, x))) == splice(j, bz, x)
    # density bound for left-endpoint grid sampling
    for _ in range(120):
        pieces = int(gen.integers(1, 5))
        breaks = tuple(sorted(set(float(b) for b in gen.uniform(0.05, 0.95, size=pieces - 1))))
        values = z_elems(*gen.integers(-4, 5, size=len(breaks) + 1))
        f = PiecewiseMap(Z, breaks, values)
        n = int(gen.integers(1, 65))
        _, dis = grid_approximate(f, n)
        ok &= dis <= len(breaks) / n + 1e-12
    report(8, "isometry, commutation, and density identities", ok)


def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["alpha", "--space", "two-point", "--eps-grid", "0:1:0.25"],
        ["profile", "--n", "20", "--eps", "0.3", "--samples", "5000", "--seed", "42"],
        ["defect", "--group", "Z", "--k-range", "1..5"],
        ["defect", "--group", "F2", "--k-range", "1..3"],
        [
            "amplify",
            "--schedule", "k=4i^2,n=i,i=1..2",
            "--g", "0.35: 1|0",
            "--family", "disagreement:count=4",
            "--samples", "400",
            "--seed", "42",
        ],
        ["phi-check", "--trials", "25", "--seed", "42"],
    ]
    ok = True
    for idx, args in enumerate(commands):
        outs = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{idx}-{run_id}.csv"
            summary = tmp_path / f"{idx}-{run_id}.json"
            code = cli_main([*args, "--out", str(out), "--json-summary", str(summary)])
            ok &= code == 0
            outs.append(out.read_bytes())
        ok &= outs[0] == outs[1]
    report(9, "byte-identical CSV across repeated runs", ok)
