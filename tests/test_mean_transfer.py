import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compose_with_translation, disagreement
from levylab import (
    CyclicGroup,
    FinSuppMeasure,
    FreeGroup2,
    MeanApprox,
    PiecewiseMap,
    ZdGroup,
    h_embed,
    l0_defect,
    phi_equivariance_check,
    phi_member,
    push_forward,
    transfer_defect,
)
from levylab import mean_transfer
from levylab.families import BLFamily, L0Carrier

Z = ZdGroup(1)


def z_elems(*ints):
    return tuple((i,) for i in ints)


def clamp5(x):
    return min(abs(x[0]), 5) / 5


z_maps = st.lists(st.integers(-6, 6), min_size=1, max_size=6).map(
    lambda vs: h_embed(Z, z_elems(*vs))
)


class TestPhiEval:
    def test_unitality(self):
        for h in (h_embed(Z, z_elems(0)), h_embed(Z, z_elems(3, -1, 2))):
            assert phi_member(lambda x: 1.0)(h) == 1.0

    def test_three_cell_average(self):
        h = h_embed(Z, z_elems(0, 1, 2))
        assert phi_member(clamp5)(h) == pytest.approx(0.2, abs=1e-12)

    def test_constant_map(self):
        h = h_embed(Z, z_elems(4))
        assert phi_member(clamp5)(h) == clamp5((4,))

    def test_piecewise_weights(self):
        h = PiecewiseMap(Z, (0.25,), z_elems(0, 4))
        assert phi_member(clamp5)(h) == pytest.approx(0.75 * 0.8, abs=1e-12)

    def test_bounded_by_sup_norm(self):
        h = h_embed(Z, z_elems(1, -5, 9))
        assert abs(phi_member(lambda x: math.sin(x[0]))(h)) <= 1.0


class TestEquivariance:
    def test_identity_element(self):
        h = h_embed(Z, z_elems(1, 2))
        assert phi_equivariance_check(Z, clamp5, (0,), h) == 0.0

    def test_constant_function(self):
        h = h_embed(Z, z_elems(1, 2, 3))
        assert phi_equivariance_check(Z, lambda x: 0.7, (5,), h) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(z_maps, st.integers(-5, 5), st.floats(0.1, 2.0))
    def test_random_triples(self, h, g, a):
        f = lambda x: math.sin(a * x[0])  # noqa: E731
        assert phi_equivariance_check(Z, f, (g,), h) <= 1e-12


class TestAlgebra:
    @settings(max_examples=80, deadline=None)
    @given(z_maps, st.floats(-2, 2), st.floats(-2, 2))
    def test_linearity(self, h, a, b):
        f1 = lambda x: math.sin(x[0])  # noqa: E731
        f2 = lambda x: math.cos(0.5 * x[0])  # noqa: E731
        combo = lambda x: a * f1(x) + b * f2(x)  # noqa: E731
        assert phi_member(combo)(h) == pytest.approx(
            a * phi_member(f1)(h) + b * phi_member(f2)(h), abs=1e-12
        )

    @settings(max_examples=80, deadline=None)
    @given(z_maps)
    def test_monotonicity(self, h):
        f1 = lambda x: math.sin(x[0])  # noqa: E731
        f2 = lambda x: math.sin(x[0]) + abs(math.cos(x[0]))  # noqa: E731
        assert phi_member(f1)(h) <= phi_member(f2)(h) + 1e-12

    def test_uniform_continuity_transfer(self):
        # maps agreeing off a set of mass eps' give averages within 2B*eps'
        bound = 1.0
        f = lambda x: math.sin(x[0])  # noqa: E731
        h0 = h_embed(Z, z_elems(1, 2, 3, 4))
        h1 = h_embed(Z, z_elems(1, 5, 3, 4))
        eps_prime = disagreement(h0, h1)
        assert eps_prime == 0.25
        assert abs(phi_member(f)(h0) - phi_member(f)(h1)) <= 2 * bound * eps_prime + 1e-12


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
