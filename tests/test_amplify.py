import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_l0_defect,
    brute_translated_expectation,
    cell_window_closed_form,
    disagreement,
    element_strategy,
    fubini_telescope_steps,
    left_sum,
    prefix_telescope,
    pullback_family,
    reference_expectations,
    reference_tables,
    searchsorted_choice,
    set_escape_count,
    step_maps,
)
from levylab import (
    BLFamily,
    CarrierMismatch,
    CyclicGroup,
    DimensionMismatch,
    FinSuppMeasure,
    FreeGroup2,
    DiscreteBase,
    IntegralMember,
    InvalidSchedule,
    L0Carrier,
    L0Measure,
    MeanApprox,
    PiecewiseMap,
    Schedule,
    SpaceTooLarge,
    TooLargeForExact,
    TooManySamples,
    ZdGroup,
    ball_uniform,
    cell_window_family,
    disagreement_family,
    disagreement_member,
    folner_measure,
    grid_approximate,
    h_embed,
    l0_defect,
    phi_member,
    pointwise_translate,
    push_forward,
    run_schedule,
    invariance_defect,
    sample_indices,
)
from levylab import amplify, cli, hamming, rng, stepmaps, wordgroups
from levylab.hamming import EXACT_PRODUCT_LIMIT
from levylab.families import cell_window_member

Z = ZdGroup(1)


def z_elems(*ints):
    return tuple((i,) for i in ints)


def z_uniform(*ints):
    return FinSuppMeasure.uniform(Z, z_elems(*ints))


class TestPushForward:
    def test_dirac(self):
        nu = push_forward(FinSuppMeasure(Z, ((2,),), (1.0,)), 3)
        assert step_maps(nu) == (h_embed(Z, z_elems(2, 2, 2)),)
        assert nu.weights[0] == 1.0

    def test_uniform_two_by_two(self):
        nu = push_forward(z_uniform(0, 1), 2)
        assert len(step_maps(nu)) == 4
        assert np.allclose(nu.weights, 0.25)
        assert set(step_maps(nu)) == {
            h_embed(Z, z_elems(a, b)) for a in (0, 1) for b in (0, 1)
        }

    def test_weights_sum_to_one(self):
        nu = push_forward(z_uniform(0, 1, 2), 4)
        assert nu.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_exact_cap(self):
        with pytest.raises(TooLargeForExact):
            push_forward(z_uniform(*range(11)), 7)

    def test_sampled_deterministic(self):
        mu = z_uniform(0, 1, 2)
        nu1 = push_forward(mu, 3, "sampled", samples=64, seed=9)
        nu2 = push_forward(mu, 3, "sampled", samples=64, seed=9)
        assert step_maps(nu1) == step_maps(nu2)
        assert nu1.codes.shape == (64, 3) and all(set(h.breakpoints) <= {1 / 3, 2 / 3} for h in step_maps(nu1))

    def test_sampled_draws_product_samples(self):
        mu = FinSuppMeasure(Z, z_elems(0, 1, 5), (0.2, 0.5, 0.3))
        nu = push_forward(mu, 3, "sampled", samples=200, seed=4)
        rows = sample_indices(mu.weights, 3, 200, 4).tolist()
        assert nu.codes.tolist() == rows
        assert step_maps(nu) == tuple(h_embed(Z, tuple(mu.support[c] for c in row)) for row in rows)

    @pytest.mark.parametrize("n", [1, 3])
    def test_sampled_codes_do_not_rebuild_the_base(self, monkeypatch, n):
        # a sampled stage draws from mu.weights and builds no DiscreteBase, which re-validates a support
        def refuse(self):
            raise AssertionError("a DiscreteBase was built")

        monkeypatch.setattr(DiscreteBase, "__post_init__", refuse)
        mu = FinSuppMeasure(Z, z_elems(0, 1, 5, -3), (0.1, 0.4, 0.3, 0.2))
        nu = push_forward(mu, n, "sampled", samples=300, seed=6)
        want = searchsorted_choice(6, 0, 300 * n, np.cumsum(mu.weights)).reshape(300, n)
        assert np.array_equal(nu.codes, want)

    def test_exact_codes_in_product_order(self):
        mu = FinSuppMeasure(Z, z_elems(0, 1, 5), (0.2, 0.5, 0.3))
        nu = push_forward(mu, 3)
        combos = list(itertools.product(range(3), repeat=3))
        assert nu.codes.tolist() == [list(c) for c in combos]
        assert step_maps(nu) == tuple(h_embed(Z, tuple(mu.support[i] for i in c)) for c in combos)
        for c, w in zip(combos, nu.weights):
            assert w == pytest.approx(math.prod(mu.weights[i] for i in c), abs=1e-15)

    def test_codes_are_checked(self):
        mu = z_uniform(0, 1)
        with pytest.raises(DimensionMismatch):
            L0Measure(mu, 2, np.zeros((3, 3), dtype=int), np.full(3, 1 / 3), "exact")
        with pytest.raises(DimensionMismatch):
            L0Measure(mu, 1, np.array([[0], [2]]), np.full(2, 0.5), "exact")

    def test_nan_weights_rejected(self):
        mu = z_uniform(0, 1)
        with pytest.raises(InvalidSchedule):
            L0Measure(mu, 1, np.array([[0], [1]]), np.array([float("nan"), 1.0]), "exact")

    def test_negative_weights_rejected(self):
        mu = z_uniform(0, 1)
        with pytest.raises(InvalidSchedule):
            L0Measure(mu, 1, np.array([[0], [1]]), np.array([2.0, -1.0]), "exact")

    @pytest.mark.parametrize("n", [64, 65, 100])
    def test_exact_past_64_coordinates(self, n):
        # numpy arrays have at most 64 dimensions; the codes are built by digits
        point = FinSuppMeasure(Z, ((0,),), (1.0,))
        nu = push_forward(point, n, "exact")
        assert nu.codes.shape == (1, n) and not nu.codes.any()
        assert nu.weights.tolist() == [1.0]
        report = run_schedule(
            Schedule(((n, point),), target_eps=1.0), h_embed(Z, z_elems(0, 1)),
            disagreement_family(Z, 2, seed=1), eps=0.3, mode="exact",
        )
        assert report.entry_modes == ("exact",)
        assert report.rows[0].defect <= report.rows[0].bound

    def test_sampled_hits_support_only(self):
        mu = z_uniform(4, 7)
        nu = push_forward(mu, 2, "sampled", samples=50, seed=1)
        allowed = set(z_elems(4, 7))
        assert all(set(h.values) <= allowed for h in step_maps(nu))


def exact_steps(mu, n, gp, fam):
    # telescope steps of the exact push-forward against the embedded tuple
    return l0_defect(push_forward(mu, n), h_embed(mu.group, gp), fam).per_step


class TestTelescoping:
    # exact-mode l0_defect steps against the Fubini reduction in conftest

    def test_identity_tuple_gives_zero(self):
        mu = z_uniform(0, 1, 2)
        fam = disagreement_family(Z, 3, seed=2)
        assert fubini_telescope_steps(mu, 2, z_elems(0, 0), fam.members) == [0.0, 0.0]
        assert exact_steps(mu, 2, z_elems(0, 0), fam) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_single_step_is_base_defect_of_pullback(self):
        mu = z_uniform(0, 1, 2, 3)
        fam = disagreement_family(Z, 4, seed=5)
        g = (2,)
        pulled = pullback_family(fam, 1, 1, ())
        base = invariance_defect(mu, g, pulled)
        assert fubini_telescope_steps(mu, 1, (g,), fam.members) == [pytest.approx(base, abs=1e-12)]
        assert exact_steps(mu, 1, (g,), fam) == (pytest.approx(base, abs=1e-12),)
        # for n > 1, step j is the family maximum of |sum over z of mu^(n-1)(z) times the
        # signed base defect of F pulled back through slot j at b_j z against g'_j|, with
        # b_j = (g'_1, ..., g'_{j-1}, e, ..., e).  Each member here weighs the cells
        # differently, so a pull-back through the wrong slot changes the maximum
        fam = BLFamily(L0Carrier(Z), (
            disagreement_member(PiecewiseMap(Z, (0.3, 0.7), z_elems(2, 0, 3))),
            cell_window_member(Z, 0.1, 0.45, (1,), 0.25),
        ), 1.0, 4.0)
        for gp in (z_elems(2, -1), z_elems(1, 3, -2)):
            n = len(gp)
            steps = exact_steps(mu, n, gp, fam)
            for j in range(1, n + 1):
                b = gp[: j - 1] + (Z.identity,) * (n - j)
                moved = mu.translate(gp[j - 1])
                signed = np.zeros(len(fam.members))
                for z in itertools.product(range(len(mu.support)), repeat=n - 1):
                    bz = tuple(Z.op(bi, mu.support[i]) for bi, i in zip(b, z))
                    pulled = pullback_family(fam, n, j, bz)
                    defects = [mu.expectation(F) - moved.expectation(F) for F in pulled.members]
                    signed += math.prod(mu.weights[i] for i in z) * np.array(defects)
                assert steps[j - 1] == pytest.approx(np.abs(signed).max(), abs=1e-12)

    def test_haar_invariance(self):
        group = CyclicGroup(5)
        mu = FinSuppMeasure.haar(group)
        fam = disagreement_family(group, 3, seed=8)
        fubini = fubini_telescope_steps(mu, 2, (2, 4), fam.members)
        assert sum(fubini) == pytest.approx(0.0, abs=1e-12)
        assert sum(exact_steps(mu, 2, (2, 4), fam)) == pytest.approx(0.0, abs=1e-12)

    def test_fubini_steps_equal_direct_differences(self):
        # each telescope step, computed by the coordinate-wise reduction,
        # matches the directly enumerated expectation difference and the
        # step l0_defect reports
        mu = z_uniform(0, 1, 5)
        n = 3
        gp = z_elems(1, -2, 3)
        fam = disagreement_family(Z, 2, seed=11)
        fubini = fubini_telescope_steps(mu, n, gp, fam.members)
        steps = exact_steps(mu, n, gp, fam)
        e = Z.identity
        prefixes = [gp[:j] + (e,) * (n - j) for j in range(n + 1)]
        direct = [
            brute_translated_expectation(mu, n, shift, fam.members) for shift in prefixes
        ]
        for j in range(n):
            gap = max(
                abs(a - b) for a, b in zip(direct[j], direct[j + 1])
            )
            assert fubini[j] == pytest.approx(gap, abs=1e-9)
            assert steps[j] == pytest.approx(fubini[j], abs=1e-12)

    def test_exact_steps_match_fubini_on_random_instances(self):
        gen = np.random.default_rng(99)
        for _ in range(8):
            size = int(gen.integers(2, 5))
            n = int(gen.integers(1, 4))
            support = z_elems(*gen.choice(np.arange(-5, 6), size=size, replace=False))
            raw = gen.uniform(0.2, 1.0, size=size)
            mu = FinSuppMeasure(Z, support, tuple(raw / raw.sum()))
            fam = cell_window_family(Z, 3, seed=int(gen.integers(0, 1000)))
            gp = z_elems(*gen.integers(-3, 4, size=n))
            fubini = fubini_telescope_steps(mu, n, gp, fam.members)
            assert exact_steps(mu, n, gp, fam) == pytest.approx(tuple(fubini), abs=1e-12)


def wl_mean_member(scale: float):
    # min(1, average cell word length / scale)
    return IntegralMember((), (Z.word_length,), lambda s: np.minimum(1.0, s / scale))


class TestL0Defect:
    def test_identity_target(self):
        nu = push_forward(z_uniform(0, 1, 2), 2)
        fam = disagreement_family(Z, 4, seed=3)
        res = l0_defect(nu, h_embed(Z, (Z.identity,) * 2), fam)
        assert res.defect == pytest.approx(0.0, abs=1e-12)
        assert res.grid_disagreement == 0.0

    def test_haar_grid_hit(self):
        group = CyclicGroup(4)
        nu = push_forward(FinSuppMeasure.haar(group), 2)
        fam = disagreement_family(group, 4, seed=6)
        res = l0_defect(nu, h_embed(group, (1, 3)), fam)
        assert res.defect == pytest.approx(0.0, abs=1e-12)
        assert res.bound == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 5, 7])
    def test_haar_is_invariant_under_on_grid_targets(self, m):
        # Haar^(x)n on Z_m is invariant under h_embed(g) for every g in Z_m^n, so the defect, every
        # telescope step and the grid disagreement are 0 up to the order of summation
        group = CyclicGroup(m)
        families = (disagreement_family(group, 4, seed=m), cell_window_family(group, 4, seed=m))
        gen = np.random.default_rng(m)
        for n in range(1, 5):
            nu = push_forward(FinSuppMeasure.haar(group), n)
            targets = list(itertools.product(range(m), repeat=n))
            if len(targets) > 125:  # Z_7 from n = 3 and Z_5 at n = 4: 25 seeded targets
                targets = [targets[i] for i in gen.choice(len(targets), 25, replace=False)]
            for values in targets:
                for family in families:
                    res = l0_defect(nu, h_embed(group, values), family)
                    assert len(res.per_step) == n
                    worst = max(abs(res.defect), abs(res.grid_disagreement), *map(abs, res.per_step))
                    assert worst <= 1e-12, (n, values)

    def test_sixteen_support_example_vs_oracle(self):
        mu = z_uniform(*range(16))
        fam = BLFamily(L0Carrier(Z), (wl_mean_member(8.0),), bound=1.0, lipschitz=2.0)
        g = h_embed(Z, z_elems(1, 0))
        nu = push_forward(mu, 2)
        res = l0_defect(nu, g, fam)
        oracle = brute_l0_defect(mu, 2, g, fam.members)
        assert res.defect == pytest.approx(oracle, abs=1e-9)
        assert res.defect <= res.bound + 1e-9

    def test_matches_oracle_on_random_instances(self):
        gen = np.random.default_rng(2024)
        for _ in range(12):
            size = int(gen.integers(2, 6))
            n = int(gen.integers(1, 4))
            support = z_elems(*gen.choice(np.arange(-6, 7), size=size, replace=False))
            raw = gen.uniform(0.2, 1.0, size=size)
            mu = FinSuppMeasure(Z, support, tuple(raw / raw.sum()))
            fam = disagreement_family(Z, 3, seed=int(gen.integers(0, 1000)))
            breaks = tuple(sorted(set(float(b) for b in gen.uniform(0.1, 0.9, size=2))))
            values = z_elems(*gen.integers(-3, 4, size=len(breaks) + 1))
            g = PiecewiseMap(Z, breaks, values)
            nu = push_forward(mu, n)
            res = l0_defect(nu, g, fam)
            oracle = brute_l0_defect(mu, n, g, fam.members)
            assert res.defect == pytest.approx(oracle, abs=1e-9)
            assert res.defect <= res.bound + 1e-9

    def test_sampled_mode_bound_holds_exactly(self):
        mu = z_uniform(*range(-8, 9))
        fam = disagreement_family(Z, 5, seed=17)
        g = PiecewiseMap(Z, (0.3, 0.65), z_elems(5, -7, 3))
        nu = push_forward(mu, 4, "sampled", samples=3000, seed=23)
        res = l0_defect(nu, g, fam)
        assert res.defect <= res.bound + 1e-9

    def test_bound_adds_steps_left_to_right(self):
        fam = cell_window_family(Z, 3, seed=5)
        mu = folner_measure(Z, 2)
        g = PiecewiseMap(Z, (0.2, 0.7), z_elems(1, 2, 0))
        orders_differ = False
        for seed in range(32):
            res = l0_defect(push_forward(mu, 9, "sampled", samples=100, seed=seed), g, fam)
            assert res.bound == left_sum(res.per_step) + fam.lipschitz * res.grid_disagreement
            orders_differ |= left_sum(res.per_step) != math.fsum(res.per_step)
        # some of these step lists add differently under a compensated sum
        assert orders_differ

    def test_hypothesis_propagation(self):
        # small per-step defects plus a small grid remainder force a small defect
        eps = 0.2
        n = 2
        mu = folner_measure(Z, 40)
        fam = disagreement_family(Z, 6, seed=29)
        g = h_embed(Z, z_elems(1, -1))  # on-grid: remainder term vanishes
        nu = push_forward(mu, n)
        res = l0_defect(nu, g, fam)
        assert max(res.per_step) <= eps / (2 * n)
        assert fam.lipschitz * res.grid_disagreement <= eps / 2
        assert res.defect <= eps

    def test_expectation_helper(self):
        nu = push_forward(z_uniform(0, 3), 1)
        member = wl_mean_member(3.0)
        expected = 0.5 * member(h_embed(Z, z_elems(0))) + 0.5 * member(h_embed(Z, z_elems(3)))
        assert MeanApprox(nu).expect(member) == pytest.approx(expected, abs=1e-12)


class TestSchedule:
    def test_degenerate_point_mass_schedule(self):
        entries = tuple((2, FinSuppMeasure(Z, ((0,),), (1.0,))) for _ in range(3))
        sched = Schedule(entries, target_eps=0.5)
        fam = disagreement_family(Z, 3, seed=4)
        g = PiecewiseMap(Z, (0.4,), z_elems(1, 0))
        report = run_schedule(sched, g, fam, eps=0.3, samples=100, seed=1)
        for row in report.rows:
            assert row.conc_mass == 0.0
            assert row.median_gap == 0.0
            assert row.defect <= row.bound + 1e-9

    def test_rows_in_schedule_order(self):
        entries = tuple((i, folner_measure(Z, 4 * i * i)) for i in (1, 2))
        sched = Schedule(entries, target_eps=0.5)
        fam = disagreement_family(Z, 4, seed=10)
        g = PiecewiseMap(Z, (0.35,), z_elems(1, 0))
        report = run_schedule(sched, g, fam, eps=0.2, samples=200, seed=7)
        assert [r.i for r in report.rows] == [1, 2]
        assert [r.n for r in report.rows] == [1, 2]
        assert set(report.flags) >= {
            "defect_within_bound",
            "half_radius_implication",
            "final_defect_within_target",
        }

    def test_witnesses_recorded(self):
        entries = tuple((i, folner_measure(Z, 4 * i * i)) for i in (1, 2, 3))
        sched = Schedule(entries, target_eps=0.1)
        expected = [i / (8 * i * i + 1) for i in (1, 2, 3)]
        assert list(sched.witnesses) == pytest.approx(expected, abs=1e-12)
        # derived from the entries: not a constructor argument, not in repr, not compared by ==
        assert "witnesses" not in repr(sched)
        assert repr(sched) == f"Schedule(entries={sched.entries!r}, target_eps=0.1)"
        equal = tuple((n, FinSuppMeasure.uniform(Z, mu.support)) for n, mu in entries)
        assert sched == Schedule(equal, target_eps=0.1) and hash(sched) == hash(Schedule(equal, target_eps=0.1))
        other = Schedule(entries, target_eps=0.1)
        object.__setattr__(other, "witnesses", sched.witnesses[:2])
        assert sched == other
        assert sched != Schedule(entries[:2], target_eps=0.1) and sched != Schedule(entries, target_eps=0.2)
        with pytest.raises(TypeError):
            Schedule(entries, target_eps=0.1, witnesses=())

    @pytest.mark.parametrize("d, ks", [(1, (1, 7, 200000)), (2, (1, 5, 40)), (3, (1, 2, 6))])
    def test_uniform_witnesses_equal_the_set_count(self, d, ks):
        # the array count |gA \ A| against sets of tuples, up to the k = 200,000 box of Z
        group = ZdGroup(d)
        entries = tuple((1, folner_measure(group, k)) for k in ks)
        want = tuple(max(set_escape_count(mu, g) for g in group.generators()) / len(mu.weights) for _, mu in entries)
        assert Schedule(entries, target_eps=0.5).witnesses == want

    def test_uniform_witnesses_are_counted(self, monkeypatch):
        # TV(mu, g mu) = |gA \ A| / |A| for a uniform mu on A, without tv_distance
        f2, z2 = FreeGroup2(), ZdGroup(2)
        schedules = [
            tuple((i, folner_measure(Z, 4 * i * i)) for i in (1, 2, 3)),
            tuple((1, folner_measure(z2, k)) for k in range(1, 25)),
            tuple((1, ball_uniform(f2, k)) for k in (2, 3, 4)),
            ((3, FinSuppMeasure.haar(CyclicGroup(7))),),
        ]
        want = [[n * max(mu.tv_distance(mu.translate(g)) for g in mu.group.generators()) for n, mu in entries]
                for entries in schedules]

        def no_tv(*args):
            raise AssertionError("tv_distance was called for a uniform measure")

        monkeypatch.setattr(FinSuppMeasure, "tv_distance", no_tv)
        for entries, witnesses in zip(schedules, want):
            assert list(Schedule(entries, target_eps=0.5).witnesses) == pytest.approx(witnesses, abs=1e-12, rel=0)

    def test_weighted_witnesses_use_tv_distance(self, monkeypatch):
        mu = FinSuppMeasure(Z, ((0,), (1,), (2,)), (0.2, 0.3, 0.5))
        calls = []
        tv = FinSuppMeasure.tv_distance
        monkeypatch.setattr(FinSuppMeasure, "tv_distance", lambda a, b: calls.append(b) or tv(a, b))
        assert Schedule(((2, mu),), target_eps=0.5).witnesses == pytest.approx((1.0,), abs=1e-12)
        assert len(calls) == 2

    def test_nan_eps_rejected(self):
        entries = ((1, z_uniform(0, 1)),)
        with pytest.raises(InvalidSchedule):
            Schedule(entries, target_eps=float("nan"))
        sched = Schedule(entries, target_eps=0.5)
        fam = disagreement_family(Z, 2, seed=1)
        with pytest.raises(ValueError):
            run_schedule(sched, h_embed(Z, z_elems(1)), fam, eps=float("nan"))

    def test_rejects_decreasing_n(self):
        entries = ((2, z_uniform(0, 1)), (1, z_uniform(0, 1)))
        with pytest.raises(InvalidSchedule):
            Schedule(entries, target_eps=0.1)

    def test_rejects_increasing_witness(self):
        entries = (
            (1, FinSuppMeasure(Z, ((0,),), (1.0,))),
            (5, FinSuppMeasure(Z, ((0,),), (1.0,))),
        )
        with pytest.raises(InvalidSchedule):
            Schedule(entries, target_eps=0.1)

    def test_exact_mode_honours_cap(self):
        entries = tuple((i, folner_measure(Z, 4 * i * i)) for i in (1, 2))
        sched = Schedule(entries, target_eps=0.5)
        fam = disagreement_family(Z, 2, seed=10)
        g = PiecewiseMap(Z, (0.35,), z_elems(1, 0))
        # 9 and 33^2 = 1089 tuples
        report = run_schedule(sched, g, fam, eps=0.2, mode="exact", exact_cap=1089)
        assert report.entry_modes == ("exact", "exact")
        with pytest.raises(TooLargeForExact):
            run_schedule(sched, g, fam, eps=0.2, mode="exact", exact_cap=1088)

    def test_half_radius_implication_row_wise(self):
        # expectation-centered mass at eps is controlled by median-centered
        # mass at eps/2 whenever the gap is below eps/2
        entries = ((2, folner_measure(Z, 8)),)
        sched = Schedule(entries, target_eps=1.0)
        fam = cell_window_family(Z, 5, seed=2, width=0.5)
        g = PiecewiseMap(Z, (0.45,), z_elems(2, -1))
        report = run_schedule(sched, g, fam, eps=0.4, samples=500, seed=3)
        assert report.flags["half_radius_implication"]

    def test_zero_lipschitz_family(self):
        # a constant member: no deviation at any radius, and no division by L = 0
        entries = tuple((i, folner_measure(Z, 4 * i * i)) for i in (1, 2))
        fam = BLFamily(L0Carrier(Z), (phi_member(lambda x: 0.5),), bound=1.0, lipschitz=0.0)
        g = PiecewiseMap(Z, (0.35,), z_elems(1, 0))
        report = run_schedule(Schedule(entries, target_eps=0.5), g, fam, eps=0.2, samples=200, seed=3)
        assert report.flags["conc_mass_within_talagrand"]
        assert all(r.conc_mass == 0.0 and r.defect == 0.0 for r in report.rows)


class TestOnePath:
    # run_schedule's stages are l0_defect calls

    def test_rows_equal_l0_defect_bit_for_bit(self):
        entries = tuple((i, folner_measure(Z, 4 * i * i)) for i in (1, 2, 3))
        g = PiecewiseMap(Z, (0.3, 0.65), z_elems(5, -7, 3))
        for fam in (disagreement_family(Z, 5, seed=3), cell_window_family(Z, 4, seed=8)):
            report = run_schedule(Schedule(entries, 0.5), g, fam, eps=0.2, samples=400, seed=11,
                                  exact_cap=2000)
            assert report.entry_modes == ("exact", "exact", "sampled")
            for row, (n, mu) in zip(report.rows, entries):
                if row.i < 3:
                    nu = push_forward(mu, n)
                else:
                    nu = push_forward(mu, n, "sampled", samples=400, seed=rng.derive_seed(11, "entry", row.i))
                res = l0_defect(nu, g, fam)
                assert (row.defect, row.bound) == (res.defect, res.bound)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_values_are_the_identity_member_values(self, mode):
        fam = cell_window_family(Z, 4, seed=2)
        nu = push_forward(z_uniform(0, 1, 3), 3, mode, samples=50, seed=5)
        res = l0_defect(nu, PiecewiseMap(Z, (0.4,), z_elems(1, -1)), fam)
        means, values = amplify.expectations(nu, fam.members)
        assert means.shape == (1, len(fam.members))
        with pytest.raises(ValueError, match="at least one shift"):
            amplify.expectations(nu, fam.members, ())
        assert np.array_equal(res.values, values) and np.array_equal(res.expectations, means[0])

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_an_expectation_has_the_same_bits_alone_and_in_l0_defect(self, mode):
        # through a BLAS matrix-vector product all 20 differed, by up to 4.9e-15
        fam = disagreement_family(Z, 20, seed=4)
        nu = push_forward(folner_measure(Z, 16), 2, mode, samples=3000, seed=9)
        res = l0_defect(nu, PiecewiseMap(Z, (0.35,), z_elems(1, 0)), fam)
        alone = [MeanApprox(nu).expect(f) for f in fam.members]
        means, values = amplify.expectations(nu, fam.members)
        assert [res.expectations.tolist()] == means.tolist() == [alone]
        assert np.array_equal(values, res.values)

    @pytest.mark.parametrize("mode", ["auto", "exact"])
    def test_user_cap_above_the_enumeration_limit(self, mode):
        # 17^5 = 1,419,857 tuples: under exact_cap, over the limit push_forward enforces
        entries = ((5, folner_measure(Z, 8)),)
        assert EXACT_PRODUCT_LIMIT < 17**5 < 10**9
        sched = Schedule(entries, target_eps=0.5)
        fam = disagreement_family(Z, 2, seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeForExact, match="1419857 tuples exceeds exact cap 1000000"):
                run_schedule(sched, h_embed(Z, z_elems(1)), fam, eps=0.2, mode=mode, exact_cap=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "mode,exact_cap,limits,error,match",
        [
            # stage 4 of k=4i^2, n=i has 129^4 = 276,922,881 tuples, stage 3 has 73^3 = 389,017
            ("auto", 10**9, {}, TooLargeForExact, "^276922881 tuples exceeds exact cap 1000000$"),
            ("exact", 500_000, {}, TooLargeForExact, "^276922881 tuples exceeds exact cap 500000$"),
            # 100 samples x 4 cells at stage 4
            ("sampled", 10**5, {(hamming, "SAMPLE_ARRAY_LIMIT"): 300}, TooManySamples, "^400 sampled entries"),
            # (1 piece x 2 shift values + 4 cells) x 129 atoms + (3 x 4 planned runs) x 1 piece at
            # stage 4; at stage 3, (2 + 3) x 73 + 3 x 3 = 374
            ("auto", 10**5, {(amplify, "TABLE_ENTRY_LIMIT"): 374}, SpaceTooLarge, "^786 table entries"),
        ],
        ids=["enumeration-limit", "exact-cap", "sample-array", "table-entries"],
    )
    def test_last_stage_over_a_cap_is_refused_before_the_first_runs(
        self, monkeypatch, mode, exact_cap, limits, error, match
    ):
        for (module, name), value in limits.items():
            monkeypatch.setattr(module, name, value)
        calls = []

        class Reached(Exception):
            pass

        def counting(*args, **kwargs):
            calls.append(args)
            raise Reached

        monkeypatch.setattr(amplify, "push_forward", counting)
        sched = Schedule(tuple((i, folner_measure(Z, 4 * i * i)) for i in range(1, 5)), target_eps=0.5)
        fam = BLFamily(L0Carrier(Z), (phi_member(lambda x: 0.5),), bound=1.0, lipschitz=0.0)
        g = h_embed(Z, z_elems(1))
        with pytest.raises(error, match=match):
            run_schedule(sched, g, fam, eps=0.2, mode=mode, samples=100, exact_cap=exact_cap)
        assert calls == []
        # stages 1-3 alone pass every cap and reach their first push-forward
        with pytest.raises(Reached):
            run_schedule(Schedule(sched.entries[:3], 0.5), g, fam, eps=0.2, mode=mode, samples=100,
                         exact_cap=exact_cap)
        assert len(calls) == 1

    def test_oversized_stage_is_refused_before_building_columns(self, monkeypatch):
        # (2 pieces x 3 shift values + 2 cells) x 5 atoms + (3 x 2 cells + 1 breakpoint of g)
        # planned runs x 2 pieces = 54 entries
        member = IntegralMember((0.5,), (lambda x: 0.0, lambda x: 1.0))
        fam = BLFamily(L0Carrier(Z), (member,), bound=1.0, lipschitz=1.0)
        nu = push_forward(z_uniform(*range(5)), 2)
        g = PiecewiseMap(Z, (0.5,), z_elems(1, 2))
        monkeypatch.setattr(amplify, "TABLE_ENTRY_LIMIT", 54)
        l0_defect(nu, g, fam)
        monkeypatch.setattr(amplify, "TABLE_ENTRY_LIMIT", 53)
        monkeypatch.setattr(amplify, "expectations", None)
        monkeypatch.setattr(amplify, "grid_approximate", None)
        with pytest.raises(SpaceTooLarge, match="54 table entries"):
            l0_defect(nu, g, fam)


def _distinct_elements(group, gen, size):
    elems = []
    while len(elems) < size:
        x = group.random_element(gen, 3)
        if x not in elems:
            elems.append(x)
    return tuple(elems)


class TestMemberValues:
    # the gather path of amplify.expectations against each member called on each translated map

    @pytest.mark.parametrize("group", [Z, CyclicGroup(7), FreeGroup2()], ids=["Z", "Z7", "F2"])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_gather_matches_per_map_calls(self, group, mode):
        gen = np.random.default_rng(31 if mode == "exact" else 32)
        for n in (1, 2, 3, 4):
            raw = gen.uniform(0.2, 1.0, size=3)
            mu = FinSuppMeasure(group, _distinct_elements(group, gen, 3), tuple(raw / raw.sum()))
            nu = push_forward(mu, n, mode, samples=60, seed=n)

            def element():
                return group.random_element(gen, 3)

            off_grid = tuple(sorted(float(b) for b in gen.uniform(0.05, 0.95, size=2)))
            on_grid = tuple(sorted({i / n for i in range(1, n)} | {0.5}))
            shifts = [
                None,
                h_embed(group, tuple(element() for _ in range(n + 1))),
                h_embed(group, tuple(element() for _ in range(5))),
                PiecewiseMap(group, off_grid, tuple(element() for _ in off_grid + (0,))),
                PiecewiseMap(group, on_grid, tuple(element() for _ in on_grid + (0,))),
            ]
            refs = [
                PiecewiseMap(group, off_grid, tuple(element() for _ in off_grid + (0,))),
                h_embed(group, tuple(element() for _ in range(3))),
            ]
            windows = [
                (*sorted(float(t) for t in gen.uniform(0, 1, size=2)), element(), 0.25),
                (float(gen.uniform(0, 1)), 1.0, element(), 0.5),
                (0.0, 1 / (n + 1), element(), 1.0),
                (1 / n if n > 1 else 0.5, 1.0, element(), 0.25),
            ]
            members = [disagreement_member(ref) for ref in refs]
            members += [phi_member(lambda x: math.sin(group.word_length(x) + 0.5))]
            members += [cell_window_member(group, *w) for w in windows]
            together = amplify.expectations(nu, members, shifts)[0]
            assert together.shape == (len(shifts), len(members))
            for shift, means in zip(shifts, together):
                rows = amplify.expectations(nu, members, (shift,))[1]
                # every shift of one call has the bits of its own call
                assert means.tolist() == [(row * nu.weights).sum() for row in rows]
                maps = [h if shift is None else pointwise_translate(shift, h) for h in step_maps(nu)]
                for f, row in zip(members, rows):
                    assert row == pytest.approx([f(h) for h in maps], abs=1e-12)
                for ref, row in zip(refs, rows):
                    assert row == pytest.approx([disagreement(ref, h) for h in maps], abs=1e-12)
                for w, row in zip(windows, rows[-len(windows):]):
                    oracle = [cell_window_closed_form(h, *w) for h in maps]
                    assert row == pytest.approx(oracle, abs=1e-12)

    def test_opaque_callables_are_rejected(self):
        nu = push_forward(z_uniform(0, 2, 3), 2, "sampled", samples=40, seed=3)
        shift = PiecewiseMap(Z, (0.3,), z_elems(1, -1))
        opaque = lambda h: 0.0  # noqa: E731
        with pytest.raises(CarrierMismatch, match="member 1"):
            amplify.expectations(nu, (wl_mean_member(3.0), opaque), (shift,))
        with pytest.raises(CarrierMismatch, match="member 0"):
            MeanApprox(nu).expect(opaque)
        fam = BLFamily(L0Carrier(Z), (opaque,), bound=1.0, lipschitz=1.0)
        with pytest.raises(CarrierMismatch, match="member 0"):
            l0_defect(nu, shift, fam)


class TestSharedColumns:
    # one set of kernel columns per schedule entry: built once per
    # (member, shift value, piece) and shared by every shift of that entry

    def test_each_translated_atom_meets_each_piece_once(self):
        calls = Counter()

        def counted(p):
            def kernel(x):
                calls[p, x] += 1
                return float(x[0] % 2)

            return kernel

        member = IntegralMember((0.5,), (counted(0), counted(1)))
        fam = BLFamily(L0Carrier(Z), (member,), bound=1.0, lipschitz=1.0)
        # the target is 10 on [0, 0.3) and 100 after, so g' = (10, 100) and the
        # telescope prefixes are (10, e) and (10, 100)
        g = PiecewiseMap(Z, (0.3,), z_elems(10, 100))
        run_schedule(Schedule(((2, z_uniform(0, 1, 2)),), 1.0), g, fam, eps=0.2, mode="exact")
        values = {0: (0, 10, 100), 1: (0, 100)}  # the shift values that meet each piece
        assert calls == Counter({(p, (v + a,)): 1 for p in values for v in values[p] for a in (0, 1, 2)})

    def test_cli_amplify_calls(self, tmp_path, monkeypatch):
        # 8 stages, each one l0_defect call and so one expectations call: the identity, the
        # target and its grid approximation, with the 17 of 36 cells where it is not e as moved
        calls, moved, built, columns, bulk_calls = [], [], [], [], []

        def counting(nu, members, shifts=(None,), cells=()):
            shifts = tuple(shifts)
            calls.append(shifts)
            moved.append(list(cells))
            built.append(Counter())
            return expectations(nu, members, shifts, cells)

        # every Mismatch column takes the bulk path, one Mismatch.columns comparison per call,
        # each kernel against the support translated by its shift value, and is built once
        # per call: never one call per element, and no kernel column through FinSuppMeasure.column
        def bulk(kernels, supports):
            assert len(supports) == len(kernels)
            built[-1].update((id(k), support.tobytes()) for k, support in zip(kernels, supports))
            bulk_calls.append(len(built))
            return mismatch_columns(kernels, supports)

        expectations, mismatch_columns = amplify.expectations, wordgroups.Mismatch.columns
        monkeypatch.setattr(amplify, "expectations", counting)
        monkeypatch.setattr(wordgroups.Mismatch, "columns", staticmethod(bulk))
        monkeypatch.setattr(FinSuppMeasure, "column", lambda mu, f: columns.append(f))
        monkeypatch.setattr(wordgroups.Mismatch, "__call__", None)
        out, summary = tmp_path / "a.csv", tmp_path / "a.json"
        # the default family (seed 42); the counts do not depend on the sample count
        argv = ["amplify", "--samples", "500"]
        assert cli.main([*argv, "--out", str(out), "--json-summary", str(summary)]) == 0
        assert len(calls) == 8
        assert all(shifts[0] is None and shifts[1] is not None for shifts in calls)
        assert sum(len(shifts) for shifts in calls) == 24
        assert sum(map(len, moved)) == 17
        assert columns == []
        assert bulk_calls == list(range(1, 9))
        # the target 1 | 0 and its grid approximation take the values 1 and 0 = e: two supports
        assert [len({support for _, support in counts}) for counts in built] == [2] * 8
        assert all(set(counts.values()) == {1} for counts in built)
        assert 0 < sum(map(len, built)) <= 582

    @pytest.mark.parametrize(
        "group, atoms, g",
        [
            (ZdGroup(2), ((0, 0), (1, -1), (2**63, 5)), (1, 2**63)),  # coordinates past int64 too
            (ZdGroup(3), ((0, 0, 0), (1, 2, 3)), (-1, 0, 4)),
            (CyclicGroup(7), (0, 3, 6), 4),
            (CyclicGroup(2**64 + 3), (0, 2**64 + 2), 2**63),
        ],
    )
    def test_kernels_without_values_receive_canonical_elements(self, group, atoms, g):
        # a kernel with no bulk path is called on tuples of Python ints, or Python ints, once
        # per translated atom; a Mismatch piece of the same member takes its bulk path
        seen = Counter()

        def counting(x):
            assert type(x) is (tuple if isinstance(group, ZdGroup) else int)
            assert all(type(c) is int for c in (x if type(x) is tuple else (x,)))
            seen[x] += 1
            return float(hash(x) % 3)

        member = IntegralMember((0.5,), (counting, wordgroups.Mismatch(group, atoms[-1])))
        nu = push_forward(FinSuppMeasure.uniform(group, atoms), 2, "exact")
        shifts = (None, h_embed(group, (g, group.identity)))
        means, values = amplify.expectations(nu, (member,), shifts)
        assert seen == Counter([*atoms, *(group.op(g, x) for x in atoms)])
        want_means, want_values = reference_expectations(nu, (member,), shifts)
        assert means.tolist() == want_means.tolist() and values.tolist() == want_values.tolist()

    def test_identity_coordinates_give_zero_steps(self):
        gp = z_elems(0, 1, 0, 0, -2, 0)
        fam = cell_window_family(Z, 4, seed=5)
        # the exact steps at the two moved cells are about 0.15 and 0.025 (0.17 and
        # 0.027 sampled); on uniform {0, 1} they are 0 in exact arithmetic
        exact = push_forward(z_uniform(0, 1, 3), 6)
        sampled = push_forward(z_uniform(0, 1, 3), 6, "sampled", samples=300, seed=2)
        for nu in (exact, sampled):
            steps = l0_defect(nu, h_embed(Z, gp), fam).per_step
            assert [steps[j] for j in (0, 2, 3, 5)] == [0.0] * 4
            assert steps[1] > 0.1 and steps[4] > 0.01
        roundoff = l0_defect(push_forward(z_uniform(0, 1), 6), h_embed(Z, gp), fam).per_step
        assert max(roundoff) <= 1e-15

    @pytest.mark.parametrize("gp", [(0, 1, 0, 0, -2, 0), (0, 0, 3), (2, 0, 0, 0, 1)])
    def test_steps_match_fubini_with_interior_identities(self, gp):
        raw = np.array([0.5, 0.2, 0.3])
        mu = FinSuppMeasure(Z, z_elems(0, 1, -1), tuple(raw))
        fam = cell_window_family(Z, 3, seed=12)
        gp = z_elems(*gp)
        fubini = fubini_telescope_steps(mu, len(gp), gp, fam.members)
        assert exact_steps(mu, len(gp), gp, fam) == pytest.approx(tuple(fubini), abs=1e-12)

    def test_no_state_between_calls(self):
        entries = tuple((i, folner_measure(Z, 4 * i * i)) for i in (1, 2, 3))
        sched = Schedule(entries, target_eps=0.5)
        g = PiecewiseMap(Z, (0.35,), z_elems(1, 0))
        fam = disagreement_family(Z, 4, seed=10)
        first = run_schedule(sched, g, fam, eps=0.2, samples=300, seed=7, exact_cap=2000)
        # another target and family in between must not change the answer
        run_schedule(sched, h_embed(Z, z_elems(2, -1)), cell_window_family(Z, 3, seed=1), eps=0.2,
                     samples=300, seed=7, exact_cap=2000)
        second = run_schedule(sched, g, fam, eps=0.2, samples=300, seed=7, exact_cap=2000)
        assert first.entry_modes == ("exact", "exact", "sampled")
        assert first == second
        nu = push_forward(entries[1][1], 2)
        assert l0_defect(nu, g, fam) == l0_defect(nu, g, fam)


def _cuts(data, n, most):
    """Sorted distinct breakpoints in (0, 1), drawn from grid points i / n and points inside cells."""
    grid = st.sampled_from([i / n for i in range(1, n)] or [0.5])
    points = data.draw(st.lists(st.one_of(grid, st.floats(0.01, 0.99)), max_size=most, unique=True))
    return tuple(sorted(points))


class TestDistinctCells:
    # expectations builds one table per distinct (grid cell, runs of the shift in it) and sums
    # blocks; reference_expectations is the one-table-per-(shift, member) loop it replaced

    @pytest.mark.parametrize("group", [Z, CyclicGroup(7), FreeGroup2()], ids=["Z", "Z7", "F2"])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_the_reference_loop(self, group, mode, data):
        n = data.draw(st.integers(1, 5), label="n")
        elements = element_strategy(group)
        atoms = data.draw(st.lists(elements, min_size=1, max_size=3, unique=True), label="atoms")
        raw = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(atoms), max_size=len(atoms))))
        nu = push_forward(FinSuppMeasure(group, tuple(atoms), tuple(raw / raw.sum())), n, mode,
                          samples=data.draw(st.integers(2, 40)), seed=data.draw(st.integers(0, 99)))

        def piecewise(breaks):
            return PiecewiseMap(group, breaks, tuple(data.draw(elements) for _ in range(len(breaks) + 1)))

        # a step map and its telescope prefixes agree on all cells but one; a piecewise
        # shift and a copy with one piece changed agree on the cells away from that piece
        step = tuple(data.draw(elements) for _ in range(n))
        prefixes = [h_embed(group, step[:j] + (group.identity,) * (n - j)) for j in range(1, n + 1)]
        shift = piecewise(_cuts(data, n, 3))
        k = data.draw(st.integers(0, len(shift.values) - 1))
        changed = PiecewiseMap(group, shift.breakpoints, shift.values[:k] + (data.draw(elements),)
                               + shift.values[k + 1:])
        # equal values on both sides of a breakpoint still cut the cell that holds it in two
        breaks = _cuts(data, n, 2) or (0.5,)
        repeated = PiecewiseMap(group, breaks, (data.draw(elements),) * (len(breaks) + 1))
        other = h_embed(group, (data.draw(elements), data.draw(elements)))
        shifts = data.draw(st.permutations([None, shift, *prefixes, changed, repeated, other]))

        lo, hi = sorted(data.draw(st.sampled_from([0.0, 1.0, 1 / n, 0.5]) | st.floats(0.0, 1.0)) for _ in "lh")
        members = [
            disagreement_member(piecewise(_cuts(data, n, 3))),
            disagreement_member(h_embed(group, tuple(data.draw(elements) for _ in range(n)))),
            # clipped phi: max(0, 1 - mismatch / width)
            cell_window_member(group, lo, hi, data.draw(elements), data.draw(st.floats(0.05, 1.0))),
            phi_member(lambda x: math.sin(group.word_length(x) + 0.5)),
        ]
        members = data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=4))
        means, values = amplify.expectations(nu, members, shifts)
        ref_means, ref_values = reference_expectations(nu, members, shifts)
        assert np.array_equal(means, ref_means) and np.array_equal(values, ref_values)

    @pytest.mark.parametrize("n", [7, 8, 9, 12])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_one_map_adds_its_cells_like_numpy(self, n, mode):
        # a map adds its n cells left to right, as numpy's cumsum does, whatever the number
        # of maps in the measure: numpy's .sum() of an (n, 1) column is pairwise once n >= 8
        mu = z_uniform(3) if mode == "exact" else z_uniform(0, 1, 2)
        nu = push_forward(mu, n, mode, samples=1, seed=n)
        # counter-based draws: sample 0 among 40 is the one map of nu
        many = push_forward(mu, n, "sampled", samples=40, seed=n)
        assert np.array_equal(many.codes[0], nu.codes[0])
        members = [phi_member(lambda x, a=a: math.sin(a * x[0] + 0.5)) for a in (0.3, 1.1, 2.9)]
        g = PiecewiseMap(Z, (0.3, 0.7), z_elems(1, -2, 1))
        shifts = (None, g, *(h_embed(Z, z_elems(*([1] * j + [0] * (n - j)))) for j in range(1, n)))
        means, values = amplify.expectations(nu, members, shifts)
        ref_means, ref_values = reference_expectations(nu, members, shifts)
        assert np.array_equal(means, ref_means) and np.array_equal(values, ref_values)
        for k, shift in enumerate(shifts):
            one = amplify.expectations(nu, members, (shift,))[1]
            assert np.array_equal(one[:, 0], amplify.expectations(many, members, (shift,))[1][:, 0])
            # the mean of one map with weight 1.0 is its value
            assert np.array_equal(means[k], one[:, 0])

    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_member_groups_give_the_bits_of_one_group(self, monkeypatch, size):
        nu = push_forward(folner_measure(Z, 6), 3, "sampled", samples=50, seed=4)
        g = PiecewiseMap(Z, (0.3, 0.65), z_elems(5, -7, 3))
        shifts = (None, g, h_embed(Z, z_elems(5, 0, 0)), h_embed(Z, z_elems(5, -7, 0)))
        members = disagreement_family(Z, 3, seed=6).members + cell_window_family(Z, 2, seed=6).members
        # 3 identity cells, 3 cells of g and 2 whole cells of the prefixes: 8 blocks per member
        monkeypatch.setattr(amplify, "BLOCK_ENTRY_LIMIT", 8 * 50 * size)
        means, values = amplify.expectations(nu, members, shifts)
        ref_means, ref_values = reference_expectations(nu, members, shifts)
        assert np.array_equal(means, ref_means) and np.array_equal(values, ref_values)

    def test_each_distinct_cell_is_gathered_once_per_member_group(self, monkeypatch):
        # stage 8 of the CLI default: the 8 identity cells, the 3 cells where the target
        # 1 | 0 (cut at 0.35) differs from the identity, and cell 2 whole at 1 in the last prefix
        taken = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def take(self, a, indices, axis=None, out=None, mode="raise"):
                if axis == 1:  # a members x atoms table gathered into its cell's members x maps block
                    taken.append((a.shape, out.shape))
                return np.take(a, indices, axis=axis, out=out, mode=mode)

        monkeypatch.setattr(amplify, "np", CountingNumpy())
        g = PiecewiseMap(Z, (0.35,), z_elems(1, 0))
        fam = disagreement_family(Z, 20, seed=3)
        mu = folner_measure(Z, 256)
        for samples, groups in ((500, 1), (20_000, 20)):
            taken.clear()
            nu = push_forward(mu, 8, "sampled", samples=samples, seed=1)
            l0_defect(nu, g, fam)
            assert len(taken) == 12 * groups
            assert set(taken) == {((20 // groups, 513), (20 // groups, samples))}
            # at 20,000 samples the blocks of two members would not fit the budget
            assert groups == 1 or 12 * 2 * samples > amplify.BLOCK_ENTRY_LIMIT

    def test_one_median_and_two_mass_calls_per_stage(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(values, *args):
                calls[name, np.shape(values)] += 1
                return fn(values, *args)

            return wrapper

        for name in ("weighted_median", "weighted_deviation_mass"):
            monkeypatch.setattr(amplify, name, counted(name, getattr(amplify, name)))
        entries = tuple((i, folner_measure(Z, 4 * i * i)) for i in (1, 2, 3))
        fam = disagreement_family(Z, 5, seed=3)
        run_schedule(Schedule(entries, 0.5), h_embed(Z, z_elems(1)), fam, eps=0.2, samples=70, exact_cap=100)
        # members x maps per stage; stage 2 has 17^2 tuples, over the cap of 100, so it is sampled
        shapes = [(5, 9), (5, 70), (5, 70)]
        medians = [("weighted_median", s) for s in shapes]
        masses = [("weighted_deviation_mass", s) for s in shapes for _ in ("mean", "median")]
        assert calls == Counter(medians + masses)

    def test_stage_eight_at_the_cli_sample_count_stays_under_the_old_peak(self):
        # stage 8 of the CLI default at its 20,000 samples; the per-(shift, member) loop this
        # path replaced peaked at 11,231,656 traced bytes in this call (Python 3.11, numpy 2.4),
        # from its n x maps gathers and a second members x maps table
        g = cli._parse_map(Z, "0.35: 1|0")
        fam = cli._parse_family(Z, "disagreement", 42)[1]()
        nu = push_forward(folner_measure(Z, 256), 8, "sampled", samples=20_000,
                          seed=rng.derive_seed(42, "entry", 8))
        tracemalloc.start()
        try:
            l0_defect(nu, g, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11_231_656


class TestTelescopeFromBlocks:
    # l0_defect forms each step from the cell blocks of the identity and g'; prefix_telescope
    # in conftest builds every prefix (g'_1..g'_j, e..e) as a map and plans its n cells

    @pytest.mark.parametrize("group", [Z, CyclicGroup(7), FreeGroup2()], ids=["Z", "Z7", "F2"])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_steps_match_the_prefix_oracle(self, group, mode, data):
        n = data.draw(st.integers(1, 6), label="n")
        elements = element_strategy(group)
        atoms = data.draw(st.lists(elements, min_size=1, max_size=3, unique=True), label="atoms")
        raw = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(atoms), max_size=len(atoms))))
        nu = push_forward(FinSuppMeasure(group, tuple(atoms), tuple(raw / raw.sum())), n, mode,
                          samples=data.draw(st.integers(2, 40)), seed=data.draw(st.integers(0, 99)))
        # about half the cells of g' are e, so moved cells sit between identities
        cell = st.one_of(st.just(group.identity), elements)
        gp = tuple(data.draw(cell) for _ in range(n))
        breaks = _cuts(data, n, 3)
        off_grid = PiecewiseMap(group, breaks, tuple(data.draw(cell) for _ in range(len(breaks) + 1)))
        g = data.draw(st.sampled_from([h_embed(group, gp), off_grid]), label="g")

        def piecewise(breaks):
            return PiecewiseMap(group, breaks, tuple(data.draw(elements) for _ in range(len(breaks) + 1)))

        lo, hi = sorted(data.draw(st.sampled_from([0.0, 1.0, 1 / n, 0.5]) | st.floats(0.0, 1.0)) for _ in "lh")
        members = [
            disagreement_member(piecewise(_cuts(data, n, 3))),
            disagreement_member(h_embed(group, tuple(data.draw(elements) for _ in range(n)))),
            # clipped slope: max(0, 1 - mismatch / width)
            cell_window_member(group, lo, hi, data.draw(elements), data.draw(st.floats(0.05, 1.0))),
            cell_window_member(group, 0.0, 1.0, data.draw(elements), 0.25),
            phi_member(lambda x: math.sin(group.word_length(x) + 0.5)),
        ]
        members = data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=4))
        fam = BLFamily(L0Carrier(group), tuple(members), 1.0, data.draw(st.sampled_from([0.0, 1.0, 4.0])))
        res = l0_defect(nu, g, fam)
        steps, bound = prefix_telescope(nu, g, fam)
        assert res.per_step == pytest.approx(steps, abs=1e-12)
        assert res.bound == pytest.approx(bound, abs=1e-12)
        unmoved = [j for j, v in enumerate(res.gprime) if v == group.identity]
        assert [res.per_step[j] for j in unmoved] == [0.0] * len(unmoved)


def _bits(a) -> list:
    return np.asarray(a, np.float64).view(np.int64).tolist()


class TestOneReductionMeans:
    # expectations takes the means of each running sum in one .sum(axis=1) over the first rows
    # of a (members, maps) buffer; every row must keep the bits of its own .sum(), which numpy
    # adds pairwise

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 8), extra=st.integers(0, 3), maps=st.integers(1, 20_000), seed=st.integers(0, 2**32 - 1))
    def test_a_row_of_a_slice_sums_like_the_row_alone(self, rows, extra, maps, seed):
        gen = np.random.default_rng(seed)
        scale = gen.choice([1e-9, 1.0, 1e9], size=(rows + extra, maps))
        buffer = gen.standard_normal((rows + extra, maps)) * scale
        buffer[:, gen.integers(0, maps, size=maps // 3)] = -0.0
        prod = buffer[:rows]  # the first rows of a larger buffer, as a member group's rows
        alone = [row.sum() for row in prod]
        assert _bits(prod.sum(axis=1)) == _bits(alone)

    @pytest.mark.parametrize("rows, maps", [(1, 1), (1, 9), (9, 1), (20, 500), (2, 20_000)])
    def test_one_row_and_one_map(self, rows, maps):
        prod = np.linspace(-1.0, 1.0, rows * maps).reshape(rows, maps) / 3
        assert _bits(prod.sum(axis=1)) == _bits([row.sum() for row in prod])


BIG = 2**63


def _plan_elements(group, big):
    """Elements of group for TestArrayPlan, and with big the elements whose bulk codes pass int64."""
    small = element_strategy(group)
    if not big:
        return small, small
    if isinstance(group, ZdGroup):
        large = st.integers(-3, 3).map(lambda k: (BIG + k if k >= 0 else -BIG + k,))
    elif isinstance(group, CyclicGroup):
        large = st.integers(0, 9).map(lambda k: group.m - 1 - k)
    else:  # words of 32 letters or more
        large = st.lists(st.sampled_from("aAbB"), min_size=40, max_size=48).map(lambda ls: group.validate("".join(ls)))
    return small | large, large


PLAN_GROUPS = [
    (Z, False), (CyclicGroup(7), False), (FreeGroup2(), False),
    (Z, True), (CyclicGroup(2**64 + 3), True), (FreeGroup2(), True),
]
PLAN_IDS = ["Z", "Z7", "F2", "Z-big", "Zm-big", "F2-big"]


class TestArrayPlan:
    # expectations plans cells and member pieces with no Python step per cell and member;
    # conftest.reference_expectations and prefix_telescope build each table and prefix cell by
    # cell, with no shared plan

    @staticmethod
    def _case(data, group, big):
        n = data.draw(st.integers(1, 6), label="n")
        elements, large = _plan_elements(group, big)
        atoms = data.draw(st.lists(elements, max_size=2), label="atoms")
        atoms = tuple(dict.fromkeys([*atoms, data.draw(large)]))  # with big, one atom's code passes int64
        raw = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(atoms), max_size=len(atoms))))
        mode = data.draw(st.sampled_from(["exact", "sampled"]), label="mode")
        nu = push_forward(FinSuppMeasure(group, tuple(atoms), tuple(raw / raw.sum())), n, mode,
                          samples=data.draw(st.integers(1, 30)), seed=data.draw(st.integers(0, 99)))
        cell = data.draw(st.integers(0, n - 1), label="cell")
        inner = ((cell + 0.25) / n, (cell + 0.625) / n)  # two breakpoints inside one cell
        on_grid = tuple(i / n for i in range(1, n))

        def piecewise(breaks):
            return PiecewiseMap(group, breaks, tuple(data.draw(elements) for _ in range(len(breaks) + 1)))

        members = [
            disagreement_member(piecewise(inner)),
            disagreement_member(piecewise(tuple(sorted({*inner, *_cuts(data, n, 2)})))),
            # zero-weight kernels outside the window, and a window edge on a grid point
            cell_window_member(group, *sorted((data.draw(st.sampled_from([0.0, *on_grid, 1.0])),
                                               data.draw(st.floats(0.0, 1.0)))), data.draw(elements), 0.5),
            cell_window_member(group, *inner, data.draw(elements), 0.25),
            phi_member(lambda x: math.sin(group.word_length(x) % 7 + 0.5)),
        ]
        members = data.draw(st.permutations(members))[: data.draw(st.integers(1, 5))]
        # targets whose breakpoints sit on grid points, cut cells, or both
        targets = [piecewise(on_grid), piecewise(_cuts(data, n, 3)), piecewise(tuple(sorted({*on_grid, *inner})))]
        return nu, members, targets, elements

    @pytest.mark.parametrize("group, big", PLAN_GROUPS, ids=PLAN_IDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_means_and_values_are_the_reference_bits(self, group, big, data):
        nu, members, targets, elements = self._case(data, group, big)
        step = h_embed(group, tuple(data.draw(elements) for _ in range(nu.n)))
        shifts = data.draw(st.permutations([None, step, *targets]))
        means, values = amplify.expectations(nu, members, shifts)
        ref_means, ref_values = reference_expectations(nu, members, shifts)
        assert np.array_equal(means, ref_means) and np.array_equal(values, ref_values)

    @pytest.mark.parametrize("group, big", PLAN_GROUPS, ids=PLAN_IDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_telescope_steps_match_the_prefix_oracle(self, group, big, data):
        nu, members, targets, _ = self._case(data, group, big)
        fam = BLFamily(L0Carrier(group), tuple(members), 1.0, 2.0)
        g = data.draw(st.sampled_from(targets), label="g")
        res = l0_defect(nu, g, fam)
        steps, bound = prefix_telescope(nu, g, fam)
        assert res.per_step == pytest.approx(steps, abs=1e-12)
        assert res.bound == pytest.approx(bound, abs=1e-12)
        unmoved = [j for j, v in enumerate(res.gprime) if v == group.identity]
        assert [res.per_step[j] for j in unmoved] == [0.0] * len(unmoved)

    def test_telescope_prefixes_change_in_place_at_3000_cells(self):
        # the prefixes' means are the identity's sums changed one moved cell at a time, + the g'
        # block then - the identity's, bit for bit: a long grid whose target moves 1,050 cells,
        # two phis, and maps that add over more than one weight
        n = 3000
        nu = push_forward(folner_measure(Z, 1), n, "sampled", samples=7, seed=1)
        g = PiecewiseMap(Z, (0.35,), z_elems(1, 0))
        members = (*disagreement_family(Z, 20, seed=42).members, cell_window_member(Z, 0.2, 0.7, (1,), 0.5))
        gp, _ = grid_approximate(g, n)
        moved = [j for j, v in enumerate(gp) if v != (0,)]
        means, _ = amplify.expectations(nu, members, (None, g, h_embed(Z, gp)), moved)
        cache = {}, {}
        cells = np.arange(n)
        want = np.empty((2 + len(moved), len(members)))
        for fi, (f, ident, target) in enumerate(zip(members, reference_tables(nu, members, None, *cache),
                                                    reference_tables(nu, members, h_embed(Z, gp), *cache))):
            here, there = ident[cells, nu.codes], target[cells, nu.codes]  # maps x cells
            acc = np.cumsum(here, axis=1)[:, -1]
            want[0, fi] = (f.phi(acc) * nu.weights).sum()
            for t, j in enumerate(moved):
                acc = acc + there[:, j]
                acc = acc - here[:, j]
                want[2 + t, fi] = (f.phi(acc) * nu.weights).sum()
        want[1] = reference_expectations(nu, members, (g,))[0][0]
        assert len(moved) == 1050 and np.array_equal(means, want)
        res = l0_defect(nu, g, BLFamily(L0Carrier(Z), members, 1.0, 2.0))
        steps = [0.0] * n
        for j, prev, cur in zip(moved, np.delete(want, 1, axis=0), want[2:]):
            steps[j] = float(np.max(np.abs(prev - cur)))
        assert res.per_step == tuple(steps)

    def test_no_members_and_no_cuts(self):
        # no member gives empty tables; one-piece members on uncut cells have no pieces past the first
        nu = push_forward(z_uniform(0, 1), 3, "exact")
        g = PiecewiseMap(Z, (0.3,), z_elems(1, 0))
        means, values = amplify.expectations(nu, (), (None, g))
        assert means.shape == (2, 0) and values.shape == (0, 8)
        member = phi_member(lambda x: float(x[0]))
        shifts = (None, h_embed(Z, z_elems(1)))
        ref_means, ref_values = reference_expectations(nu, (member,), shifts)
        means, values = amplify.expectations(nu, (member,), shifts)
        assert np.array_equal(means, ref_means) and np.array_equal(values, ref_values)

    def test_no_cut_runs_walk_per_cell_and_member(self, monkeypatch):
        # 3,000 cells, the identity, the target 1 | 0 and its grid approximation: l0_defect walks
        # the target's runs once, in grid_approximate; expectations cuts nothing with cut_runs
        walks = []
        cut_runs = stepmaps.cut_runs
        monkeypatch.setattr(stepmaps, "cut_runs", lambda runs, breaks: walks.append(1) or cut_runs(runs, breaks))
        nu = push_forward(folner_measure(Z, 1), 3000, "sampled", samples=1, seed=1)
        g = PiecewiseMap(Z, (0.35,), z_elems(1, 0))
        fam = disagreement_family(Z, 20, seed=42)
        gp, _ = grid_approximate(g, 3000)
        walks.clear()
        amplify.expectations(nu, fam.members, (None, g, h_embed(Z, gp)), [j for j, v in enumerate(gp) if v != (0,)])
        assert walks == []
        l0_defect(nu, g, fam)
        assert walks == [1]


def _twin(data, group, x):
    """A non-canonical form of the canonical element x, which group.validate takes back to x."""
    if isinstance(group, ZdGroup):
        return data.draw(st.sampled_from([list(x), tuple(map(np.int64, x)), [np.int64(c) for c in x]]))
    if isinstance(group, CyclicGroup):
        raw = x + data.draw(st.integers(-3, 3)) * group.m
        return data.draw(st.sampled_from([raw, np.int64(raw)]))
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(x)))
        x = x[:at] + data.draw(st.sampled_from(["aA", "Aa", "bB", "Bb"])) + x[at:]
    return x


class TestCanonicalValues:
    # a map and its twin, built from non-canonical forms of the same elements, are one map:
    # every quantity on step maps gives == results on either

    @pytest.mark.parametrize(
        "group", [Z, ZdGroup(2), CyclicGroup(7), FreeGroup2()], ids=["Z", "Z2", "Z7", "F2"]
    )
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_twins_built_from_equal_elements_are_one_map(self, group, data):
        elements = element_strategy(group)
        n = data.draw(st.integers(1, 3), label="n")
        cells = tuple(data.draw(elements) for _ in range(data.draw(st.integers(1, 4))))
        step = h_embed(group, cells)
        breaks = _cuts(data, n, 3)
        pieces = tuple(data.draw(elements) for _ in range(len(breaks) + 1))
        piecewise = PiecewiseMap(group, breaks, pieces)
        other = data.draw(st.sampled_from([step, piecewise]))
        atoms = data.draw(st.lists(elements, min_size=1, max_size=3, unique=True), label="atoms")
        nu = push_forward(FinSuppMeasure.uniform(group, atoms), n, "exact")
        window = cell_window_member(group, 0.2, 0.7, data.draw(elements), 0.5)

        for f, twin in (
            (step, h_embed(group, tuple(_twin(data, group, v) for v in cells))),
            (piecewise, PiecewiseMap(group, breaks, tuple(_twin(data, group, v) for v in pieces))),
        ):
            assert twin == f and hash(twin) == hash(f) and twin.values == f.values
            assert disagreement(twin, f) == 0.0 and disagreement(f, twin) == 0.0
            assert disagreement(twin, other) == disagreement(f, other)
            assert disagreement_member(twin)(other) == disagreement_member(f)(other)
            assert pointwise_translate(twin, other) == pointwise_translate(f, other)
            assert pointwise_translate(other, twin) == pointwise_translate(other, f)
            assert grid_approximate(twin, n) == grid_approximate(f, n)
            for a, b in zip(amplify.expectations(nu, [disagreement_member(twin), window], (None, other)),
                            amplify.expectations(nu, [disagreement_member(f), window], (None, other))):
                assert np.array_equal(a, b)
            members = [disagreement_member(other), window]
            for a, b in zip(amplify.expectations(nu, members, (None, twin)),
                            amplify.expectations(nu, members, (None, f))):
                assert np.array_equal(a, b)
            family = BLFamily(L0Carrier(group), members, 1.0, 2.0)
            got, want = l0_defect(nu, twin, family), l0_defect(nu, f, family)
            assert got == want
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.expectations, want.expectations)

    def test_a_cancelling_pair_is_the_identity(self):
        # "aA" is the identity of F2: h is e on [0, 0.5), so it differs from e on half of [0, 1)
        f2 = FreeGroup2()
        h = PiecewiseMap(f2, (0.5,), ("aA", "b"))
        assert disagreement(h, PiecewiseMap(f2, (0.5,), ("", "b"))) == 0.0
        nu = push_forward(FinSuppMeasure(f2, ("",), (1.0,)), 1, "exact")
        means, _ = amplify.expectations(nu, [disagreement_member(h)])
        assert means.tolist() == [[0.5]]
