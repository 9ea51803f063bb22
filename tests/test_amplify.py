import itertools
import math

import numpy as np
import pytest

from conftest import (
    brute_l0_defect,
    brute_translated_expectation,
    cell_window_closed_form,
    fubini_telescope_steps,
    left_sum,
)
from levylab import (
    BLFamily,
    CarrierMismatch,
    CyclicGroup,
    DimensionMismatch,
    FinSuppMeasure,
    FreeGroup2,
    DiscreteBase,
    HammingProduct,
    IntegralMember,
    InvalidSchedule,
    L0Carrier,
    L0Measure,
    MeanApprox,
    PiecewiseMap,
    Schedule,
    StepMap,
    TooLargeForExact,
    ZdGroup,
    cell_window_family,
    disagreement,
    disagreement_family,
    disagreement_member,
    folner_measure,
    h_embed,
    identity_map,
    l0_defect,
    phi_member,
    pointwise_translate,
    pullback_family,
    push_forward,
    run_schedule,
    invariance_defect,
    sample_indices,
)
from levylab.amplify import _member_values
from levylab.families import cell_window_member

Z = ZdGroup(1)


def z_elems(*ints):
    return tuple((i,) for i in ints)


def z_uniform(*ints):
    return FinSuppMeasure.uniform(Z, z_elems(*ints))


class TestPushForward:
    def test_dirac(self):
        nu = push_forward(FinSuppMeasure.point_mass(Z, (2,)), 3)
        assert nu.support == (h_embed(Z, z_elems(2, 2, 2)),)
        assert nu.weights[0] == 1.0

    def test_uniform_two_by_two(self):
        nu = push_forward(z_uniform(0, 1), 2)
        assert len(nu.support) == 4
        assert np.allclose(nu.weights, 0.25)
        assert set(nu.support) == {
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
        assert nu1.support == nu2.support
        assert all(h.n == 3 for h in nu1.support)

    def test_sampled_draws_product_samples(self):
        mu = FinSuppMeasure(Z, z_elems(0, 1, 5), (0.2, 0.5, 0.3))
        nu = push_forward(mu, 3, "sampled", samples=200, seed=4)
        product = HammingProduct(DiscreteBase(mu.support, mu.weights), 3)
        rows = sample_indices(product, 200, 4).tolist()
        assert [h.values for h in nu.support] == [tuple(mu.support[c] for c in row) for row in rows]

    def test_exact_codes_in_product_order(self):
        mu = FinSuppMeasure(Z, z_elems(0, 1, 5), (0.2, 0.5, 0.3))
        nu = push_forward(mu, 3)
        combos = list(itertools.product(range(3), repeat=3))
        assert nu.codes.tolist() == [list(c) for c in combos]
        assert nu.support == tuple(StepMap(Z, tuple(mu.support[i] for i in c)) for c in combos)
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

    def test_sampled_hits_support_only(self):
        mu = z_uniform(4, 7)
        nu = push_forward(mu, 2, "sampled", samples=50, seed=1)
        allowed = set(z_elems(4, 7))
        assert all(set(h.values) <= allowed for h in nu.support)


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
        res = l0_defect(nu, identity_map(Z, 2), fam)
        assert res.defect == pytest.approx(0.0, abs=1e-12)
        assert res.grid_disagreement == 0.0

    def test_haar_grid_hit(self):
        group = CyclicGroup(4)
        nu = push_forward(FinSuppMeasure.haar(group), 2)
        fam = disagreement_family(group, 4, seed=6)
        res = l0_defect(nu, h_embed(group, (1, 3)), fam)
        assert res.defect == pytest.approx(0.0, abs=1e-12)
        assert res.bound == pytest.approx(0.0, abs=1e-12)

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
        entries = tuple((2, FinSuppMeasure.point_mass(Z, (0,))) for _ in range(3))
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
            (1, FinSuppMeasure.point_mass(Z, (0,))),
            (5, FinSuppMeasure.point_mass(Z, (0,))),
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


def _distinct_elements(group, gen, size):
    elems = []
    while len(elems) < size:
        x = group.random_element(gen, 3)
        if x not in elems:
            elems.append(x)
    return tuple(elems)


class TestMemberValues:
    # the gather path of _member_values against each member called on each translated map

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
                StepMap(group, tuple(element() for _ in range(n + 1))),
                StepMap(group, tuple(element() for _ in range(5))),
                PiecewiseMap(group, off_grid, tuple(element() for _ in off_grid + (0,))),
                PiecewiseMap(group, on_grid, tuple(element() for _ in on_grid + (0,))),
            ]
            refs = [
                PiecewiseMap(group, off_grid, tuple(element() for _ in off_grid + (0,))),
                StepMap(group, tuple(element() for _ in range(3))),
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
            for shift in shifts:
                rows = _member_values(nu, members, shift)
                maps = [h if shift is None else pointwise_translate(shift, h) for h in nu.support]
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
            _member_values(nu, (wl_mean_member(3.0), opaque), shift)
        with pytest.raises(CarrierMismatch, match="member 0"):
            MeanApprox(nu).expect(opaque)
        fam = BLFamily(L0Carrier(Z), (opaque,), bound=1.0, lipschitz=1.0)
        with pytest.raises(CarrierMismatch, match="member 0"):
            l0_defect(nu, shift, fam)
