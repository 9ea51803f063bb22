import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab import (
    DiscreteBase,
    HammingProduct,
    InvalidMeasure,
    LengthMismatch,
    LipschitzViolation,
    NegativeEps,
    TooLargeForExact,
    alpha_profile,
    fraction_differing,
    hamming_distance,
    lipschitz_profile,
    product_space,
    sample_product,
    talagrand_bound,
)
from levylab.hamming import product_weights

UNIFORM2 = DiscreteBase.uniform((0, 1))


def tuples_of(length):
    return st.tuples(*[st.integers(0, 3)] * length)


class TestHammingDistance:
    def test_identical(self):
        assert hamming_distance(("a", "a"), ("a", "a")) == 0.0

    def test_all_differ(self):
        assert hamming_distance((0, 1), (1, 0)) == 1.0

    def test_one_of_four(self):
        assert hamming_distance((1, 2, 3, 4), (1, 2, 3, 5)) == 0.25

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            hamming_distance((1,), (1, 2))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(tuples_of(n), tuples_of(n), tuples_of(n))))
    def test_metric_axioms(self, triple):
        x, y, z = triple
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert (hamming_distance(x, y) == 0) == (x == y)
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z) + 1e-15


class TestTalagrandBound:
    def test_eps_zero(self):
        assert talagrand_bound(0.0, 7) == 2.0

    def test_displayed_value(self):
        assert talagrand_bound(0.3, 50) == pytest.approx(0.022218, abs=1e-6)

    def test_two_over_e(self):
        assert talagrand_bound(0.1, 100) == pytest.approx(2.0 / math.e, rel=1e-12)

    def test_negative(self):
        with pytest.raises(NegativeEps):
            talagrand_bound(-0.1, 5)


class TestSampleProduct:
    def test_degenerate_base(self):
        base = DiscreteBase(("a",), (1.0,))
        assert sample_product(HammingProduct(base, 3), 3, 0) == [("a",) * 3] * 3

    def test_deterministic(self):
        product = HammingProduct(UNIFORM2, 4)
        assert sample_product(product, 50, 9) == sample_product(product, 50, 9)

    def test_per_sample_derivation(self):
        # sample i does not depend on how many samples are requested
        product = HammingProduct(UNIFORM2, 3)
        assert sample_product(product, 20, 5)[:7] == sample_product(product, 7, 5)

    def test_empirical_frequency(self):
        # binomial tail: P(|freq - 0.5| > 0.01) < 4e-10 at 1e5 draws
        xs = sample_product(HammingProduct(UNIFORM2, 1), 100000, 42)
        freq = sum(x[0] for x in xs) / len(xs)
        assert abs(freq - 0.5) < 0.01

    def test_weighted_base(self):
        base = DiscreteBase((0, 1), (0.9, 0.1))
        xs = sample_product(HammingProduct(base, 1), 100000, 3)
        freq = sum(x[0] for x in xs) / len(xs)
        assert abs(freq - 0.1) < 0.01

    def test_distinct_atoms_required(self):
        with pytest.raises(InvalidMeasure):
            DiscreteBase(("a", "a"), (0.5, 0.5))


class TestProductWeights:
    @pytest.mark.parametrize("atoms,n", [(3, 11), (5, 6), (21, 3), (7, 5)])
    def test_bit_identical_to_sequential_products(self, atoms, n):
        gen = np.random.default_rng(atoms * 100 + n)
        raw = gen.uniform(0.1, 1.0, size=atoms)
        w = tuple(float(v) for v in raw / raw.sum())
        expected = [math.prod(c) for c in itertools.product(w, repeat=n)]
        assert product_weights(w, n).tolist() == expected

    def test_product_space_measure(self):
        base = DiscreteBase((0, 1), (0.3, 0.7))
        space = product_space(HammingProduct(base, 2))
        assert space.points == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert space.mu.tolist() == [0.3 * 0.3, 0.3 * 0.7, 0.7 * 0.3, 0.7 * 0.7]


class TestLipschitzProfile:
    def test_cube_fraction_of_ones(self):
        product = HammingProduct(UNIFORM2, 2)
        result = lipschitz_profile(
            product, fraction_differing(0), bound=1.0, lipschitz=1.0, eps=0.4
        )
        assert result.estimate == 0.5
        assert result.median == 0.5

    def test_constant_function(self):
        product = HammingProduct(UNIFORM2, 3)
        result = lipschitz_profile(product, lambda x: 1.5, bound=2.0, lipschitz=0.0, eps=0.1)
        assert result.estimate == 0.0

    def test_range_bounded(self):
        product = HammingProduct(UNIFORM2, 1)
        result = lipschitz_profile(
            product, lambda x: float(x[0]), bound=1.0, lipschitz=1.0, eps=1.5
        )
        assert result.estimate == 0.0

    def test_exact_cap(self):
        product = HammingProduct(UNIFORM2, 30)
        with pytest.raises(TooLargeForExact):
            lipschitz_profile(
                product, fraction_differing(0), bound=1.0, lipschitz=1.0, eps=0.3
            )

    def test_misdeclared_lipschitz(self):
        product = HammingProduct(UNIFORM2, 4)
        steep = lambda x: 5.0 * sum(x) / len(x)  # noqa: E731
        with pytest.raises(LipschitzViolation):
            lipschitz_profile(product, steep, bound=5.0, lipschitz=1.0, eps=0.3, seed=11)

    def test_nonincreasing_in_eps(self):
        product = HammingProduct(DiscreteBase.uniform((0, 1, 2)), 4)
        f = fraction_differing(0)
        masses = [
            lipschitz_profile(product, f, bound=1.0, lipschitz=1.0, eps=e).estimate
            for e in (0.1, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))

    def test_exact_under_talagrand(self):
        # deviation about the median of an L-Lipschitz function obeys the
        # rescaled exponential bound in exact mode
        for n in (2, 4, 6):
            product = HammingProduct(UNIFORM2, n)
            f = fraction_differing(0)
            for eps in np.arange(0.1, 1.01, 0.1):
                res = lipschitz_profile(product, f, bound=1.0, lipschitz=1.0, eps=float(eps))
                assert res.estimate <= talagrand_bound(float(eps), n) + 1e-12

    def test_exact_under_rescaled_talagrand(self):
        # the bound rescales by the Lipschitz constant: mass <= 2exp(-(eps/L)^2 n)
        n, L = 5, 0.5
        product = HammingProduct(UNIFORM2, n)
        f = lambda x: L * sum(x) / len(x)  # noqa: E731
        for eps in (0.1, 0.2, 0.3, 0.5):
            res = lipschitz_profile(product, f, bound=1.0, lipschitz=L, eps=eps)
            assert res.estimate <= talagrand_bound(eps / L, n) + 1e-12

    def test_sampled_agrees_with_exact(self):
        product = HammingProduct(UNIFORM2, 6)
        f = fraction_differing(0)
        exact = lipschitz_profile(product, f, bound=1.0, lipschitz=1.0, eps=0.34)
        sampled = lipschitz_profile(
            product, f, bound=1.0, lipschitz=1.0, eps=0.34, mode="sampled",
            samples=40000, seed=4,
        )
        sigma = math.sqrt(max(exact.estimate * (1 - exact.estimate), 1e-6) / 40000)
        assert abs(sampled.estimate - exact.estimate) <= 4 * sigma


class TestProductSpaceAlpha:
    @pytest.mark.parametrize(
        "base,n",
        [
            (UNIFORM2, 1),
            (UNIFORM2, 2),
            (UNIFORM2, 3),
            (UNIFORM2, 4),
            (DiscreteBase.uniform((0, 1, 2)), 2),
            (DiscreteBase((0, 1), (0.3, 0.7)), 2),
        ],
    )
    def test_alpha_under_talagrand_on_grid(self, base, n):
        space = product_space(HammingProduct(base, n))
        grid = np.arange(0.1, 1.01, 0.1)
        alphas = alpha_profile(space, grid)
        bounds = [talagrand_bound(float(e), n) for e in grid]
        assert all(a <= b + 1e-12 for a, b in zip(alphas, bounds))
        assert all(b <= a + 1e-12 for a, b in zip(alphas, alphas[1:]))
