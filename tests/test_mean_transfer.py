import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compose_with_translation, disagreement, element_strategy, evaluate
from levylab import (
    CyclicGroup,
    FinSuppMeasure,
    FreeGroup2,
    MeanApprox,
    PiecewiseMap,
    ZdGroup,
    disagreement_member,
    h_embed,
    l0_defect,
    phi_equivariance_check,
    phi_member,
    point_mass,
    push_forward,
    transfer_defect,
)
from levylab import mean_transfer
from levylab.amplify import expectations
from levylab.families import BLFamily, L0Carrier, cell_window_member

Z = ZdGroup(1)


def z_elems(*ints):
    return tuple((i,) for i in ints)


def clamp5(x):
    return min(abs(x[0]), 5) / 5


z_values = st.lists(st.integers(-6, 6), min_size=1, max_size=6).map(lambda vs: z_elems(*vs))


def transfer(f, values, group=Z) -> float:
    """transfer(f) at the grid map with these cell values: its expectation under the point mass there."""
    return MeanApprox(point_mass(group, values)).expect(phi_member(f))


class TestPhiEval:
    def test_unitality(self):
        for values in (z_elems(0), z_elems(3, -1, 2)):
            assert transfer(lambda x: 1.0, values) == 1.0

    def test_three_cell_average(self):
        assert transfer(clamp5, z_elems(0, 1, 2)) == pytest.approx(0.2, abs=1e-12)

    def test_constant_map(self):
        assert transfer(clamp5, z_elems(4)) == clamp5((4,))

    def test_piecewise_weights(self):
        # PiecewiseMap(Z, (0.25,), z_elems(0, 4)) is the map of four cells 0 | 4 | 4 | 4
        assert PiecewiseMap(Z, (0.25,), z_elems(0, 4)) == h_embed(Z, z_elems(0, 4, 4, 4))
        assert transfer(clamp5, z_elems(0, 4, 4, 4)) == pytest.approx(0.75 * 0.8, abs=1e-12)
        assert evaluate(phi_member(clamp5), PiecewiseMap(Z, (0.25,), z_elems(0, 4))) == pytest.approx(0.6, abs=1e-12)

    def test_bounded_by_sup_norm(self):
        assert abs(transfer(lambda x: math.sin(x[0]), z_elems(1, -5, 9))) <= 1.0


class TestEquivariance:
    def test_identity_element(self):
        assert phi_equivariance_check(Z, clamp5, (0,), z_elems(1, 2)) == 0.0

    def test_constant_function(self):
        assert phi_equivariance_check(Z, lambda x: 0.7, (5,), z_elems(1, 2, 3)) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(z_values, st.integers(-5, 5), st.floats(0.1, 2.0))
    def test_random_triples(self, values, g, a):
        f = lambda x: math.sin(a * x[0])  # noqa: E731
        assert phi_equivariance_check(Z, f, (g,), values) <= 1e-12

    def test_one_expectations_call(self, monkeypatch):
        # both sides come from one call: f o lambda_g at the identity and f at the constant map g
        calls = []
        expectations = mean_transfer.expectations
        monkeypatch.setattr(mean_transfer, "expectations", lambda *args: calls.append(args) or expectations(*args))
        f2 = FreeGroup2()
        assert phi_equivariance_check(f2, lambda x: math.sin(len(x) + x.count("a")), "ab", ("b", "B", "aa")) == 0.0
        [(nu, members, shifts)] = calls
        assert nu.codes.tolist() == [[0, 1, 2]] and len(members) == 2
        assert shifts == (None, h_embed(f2, ("ab",)))


class TestAlgebra:
    @settings(max_examples=80, deadline=None)
    @given(z_values, st.floats(-2, 2), st.floats(-2, 2))
    def test_linearity(self, values, a, b):
        f1 = lambda x: math.sin(x[0])  # noqa: E731
        f2 = lambda x: math.cos(0.5 * x[0])  # noqa: E731
        combo = lambda x: a * f1(x) + b * f2(x)  # noqa: E731
        assert transfer(combo, values) == pytest.approx(a * transfer(f1, values) + b * transfer(f2, values), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(z_values)
    def test_monotonicity(self, values):
        f1 = lambda x: math.sin(x[0])  # noqa: E731
        f2 = lambda x: math.sin(x[0]) + abs(math.cos(x[0]))  # noqa: E731
        assert transfer(f1, values) <= transfer(f2, values) + 1e-12

    def test_uniform_continuity_transfer(self):
        # maps agreeing off a set of mass eps' give averages within 2B*eps'
        bound = 1.0
        f = lambda x: math.sin(x[0])  # noqa: E731
        v0, v1 = z_elems(1, 2, 3, 4), z_elems(1, 5, 3, 4)
        eps_prime = disagreement(h_embed(Z, v0), h_embed(Z, v1))
        assert eps_prime == 0.25
        assert abs(transfer(f, v0) - transfer(f, v1)) <= 2 * bound * eps_prime + 1e-12


class TestPointMass:
    def test_one_row_over_the_distinct_values(self):
        nu = point_mass(FreeGroup2(), ("b", "aA", "", "b"))
        assert nu.base.support == ("b", "") and nu.n == 4
        assert nu.codes.tolist() == [[0, 1, 1, 0]] and nu.weights.tolist() == [1.0]

    @pytest.mark.parametrize(
        "group", [Z, CyclicGroup(3), ZdGroup(2), FreeGroup2()], ids=["Z", "Z3", "Z2", "F2"]
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_values_are_the_walk_at_the_identity_and_a_constant_shift(self, group, data):
        # Z_3 maps repeat values in neighbouring cells, which h_embed merges and the walk adds as one
        # piece while expectations adds cell by cell, so the last bits may differ
        elements = element_strategy(group)
        n = data.draw(st.integers(1, 6), label="n")
        values = tuple(data.draw(elements) for _ in range(n))
        breaks = data.draw(st.lists(st.floats(0.05, 0.95), max_size=2, unique=True).map(sorted))
        ref = PiecewiseMap(group, breaks, tuple(data.draw(elements) for _ in range(len(breaks) + 1)))
        lo, hi = sorted(data.draw(st.floats(0.0, 1.0)) for _ in range(2))
        a = data.draw(st.floats(0.1, 2.0))
        members = [
            phi_member(lambda x: math.sin(a * group.word_length(x) + 0.5)),
            disagreement_member(ref),
            disagreement_member(h_embed(group, tuple(data.draw(elements) for _ in range(n)))),
            cell_window_member(group, lo, hi, data.draw(elements), data.draw(st.floats(0.05, 1.0))),
        ]
        g = data.draw(elements, label="g")
        means = expectations(point_mass(group, values), members, (None, h_embed(group, (g,))))[0]
        h = h_embed(group, values)
        moved = h_embed(group, tuple(group.op(g, v) for v in values))
        assert means[0] == pytest.approx([evaluate(f, h) for f in members], abs=1e-12)
        assert means[1] == pytest.approx([evaluate(f, moved) for f in members], abs=1e-12)


class TestTransferDefect:
    def test_haar_invariant_mean(self):
        group = CyclicGroup(6)
        nu = push_forward(FinSuppMeasure.haar(group), 2)
        mean = MeanApprox(nu)
        f = lambda x: math.sin(x)  # noqa: E731
        for g in (1, 2, 5):
            assert transfer_defect(mean, f, g) == pytest.approx(0.0, abs=1e-12)

    def test_constant_function(self):
        nu = push_forward(FinSuppMeasure.uniform(Z, z_elems(0, 1, 2)), 2)
        assert transfer_defect(MeanApprox(nu), lambda x: 0.3, (4,)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_equals_l0_defect_of_averaged_member(self):
        mu = FinSuppMeasure.uniform(Z, z_elems(*range(6)))
        nu = push_forward(mu, 2)
        mean = MeanApprox(nu)
        f = clamp5
        g = (1,)
        fam = BLFamily(L0Carrier(Z), (phi_member(f),), bound=1.0, lipschitz=2.0)
        res = l0_defect(nu, h_embed(Z, ((1,), (1,))), fam)
        assert transfer_defect(mean, f, g) == pytest.approx(res.defect, abs=1e-12)

    def test_positive_unital(self):
        nu = push_forward(FinSuppMeasure.uniform(Z, z_elems(0, 2)), 2)
        mean = MeanApprox(nu)
        assert mean.expect(phi_member(lambda x: 1.0)) == pytest.approx(1.0, abs=1e-12)
        assert mean.expect(phi_member(lambda x: abs(math.sin(x[0])))) >= 0.0

    @pytest.mark.parametrize("group", [Z, CyclicGroup(7), FreeGroup2()], ids=["Z", "Z7", "F2"])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_one_call_equals_the_composed_member(self, monkeypatch, group, mode):
        # transfer(f o lambda_g) = transfer(f) o lambda_{const g}: the shifted expectation of
        # phi_member(f) has the bits of the expectation of phi_member(f o lambda_g)
        gen = np.random.default_rng(7)
        calls, defects = [], []
        expectations = mean_transfer.expectations

        def counting(*args):
            calls.append(args)
            return expectations(*args)

        for n in (1, 2, 3):
            support = []
            while len(support) < 4:
                x = group.random_element(gen, 3)
                support += [x] if x not in support else []
            raw = gen.uniform(0.2, 1.0, size=4)
            mean = MeanApprox(push_forward(FinSuppMeasure(group, tuple(support), tuple(raw / raw.sum())),
                                           n, mode, samples=70, seed=n))
            a, b = (float(v) for v in gen.uniform(0.3, 2.0, size=2))
            wave = lambda x: math.sin(a * group.word_length(x) + b)  # noqa: E731
            for f in (wave, lambda x: float(group.word_length(x) <= 1)):
                for g in (group.random_element(gen, 2) for _ in range(3)):
                    moved = phi_member(compose_with_translation(f, g, group))
                    want = abs(mean.expect(phi_member(f)) - mean.expect(moved))
                    monkeypatch.setattr(mean_transfer, "expectations", counting)
                    got = transfer_defect(mean, f, g)
                    monkeypatch.setattr(mean_transfer, "expectations", expectations)
                    assert got == want and type(got) is float
                    assert len(calls) == 1
                    calls.clear()
                    defects.append(got)
        assert max(defects) > 0.1
