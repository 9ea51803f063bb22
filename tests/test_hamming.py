import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tuple_profile
from levylab import (
    CarrierMismatch,
    CoordinateMean,
    DiscreteBase,
    HammingProduct,
    InvalidMeasure,
    LengthMismatch,
    LipschitzViolation,
    NegativeEps,
    TooLargeForExact,
    TooManySamples,
    alpha_profile,
    fraction_differing,
    hamming_distance,
    lipschitz_profile,
    product_space,
    sample_indices,
    talagrand_bound,
)
from levylab import hamming
from levylab.hamming import PROFILE_BLOCK_DRAWS, WILSON_Z, product_weights

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

    def test_nan_rejected(self):
        with pytest.raises(NegativeEps):
            talagrand_bound(float("nan"), 5)


class TestSampleProduct:
    # draws of the product measure, as the atom indices of sample_indices

    def test_degenerate_base(self):
        base = DiscreteBase(("a",), (1.0,))
        assert sample_indices(HammingProduct(base, 3), 3, 0).tolist() == [[0] * 3] * 3

    def test_deterministic(self):
        product = HammingProduct(UNIFORM2, 4)
        assert np.array_equal(sample_indices(product, 50, 9), sample_indices(product, 50, 9))

    def test_per_sample_derivation(self):
        # sample i does not depend on how many samples are requested
        product = HammingProduct(UNIFORM2, 3)
        assert np.array_equal(sample_indices(product, 20, 5)[:7], sample_indices(product, 7, 5))
        # blocks of rows drawn with start concatenate to the one-call draw
        blocks = [sample_indices(product, stop - start, 5, start=start) for start, stop in ((0, 7), (7, 8), (8, 20))]
        assert np.array_equal(np.concatenate(blocks), sample_indices(product, 20, 5))

    def test_sample_array_cap(self, monkeypatch):
        # arrays up to the cap are built; one sample more is refused before allocating.
        # sample_indices holds samples x n codes; a profile draws in blocks and holds samples values
        monkeypatch.setattr(hamming, "SAMPLE_ARRAY_LIMIT", 1000)
        product = HammingProduct(UNIFORM2, 10)
        assert sample_indices(product, 100, 5).shape == (100, 10)
        with pytest.raises(TooManySamples):
            sample_indices(product, 101, 5)
        line = HammingProduct(UNIFORM2, 1)
        f = fraction_differing(0)
        lipschitz_profile(line, f, bound=1.0, lipschitz=1.0, eps=0.3, mode="sampled", samples=1000)
        with pytest.raises(TooManySamples):
            lipschitz_profile(line, f, bound=1.0, lipschitz=1.0, eps=0.3, mode="sampled", samples=1001)

    def test_empirical_frequency(self):
        # binomial tail: P(|freq - 0.5| > 0.01) < 4e-10 at 1e5 draws
        idx = sample_indices(HammingProduct(UNIFORM2, 1), 100000, 42)
        freq = float(np.mean(idx[:, 0] == 1))
        assert abs(freq - 0.5) < 0.01

    def test_weighted_base(self):
        base = DiscreteBase((0, 1), (0.9, 0.1))
        idx = sample_indices(HammingProduct(base, 1), 100000, 3)
        freq = float(np.mean(idx[:, 0] == 1))
        assert abs(freq - 0.1) < 0.01

    def test_distinct_atoms_required(self):
        with pytest.raises(InvalidMeasure):
            DiscreteBase(("a", "a"), (0.5, 0.5))

    def test_nan_weight_rejected(self):
        with pytest.raises(InvalidMeasure):
            DiscreteBase((0, 1), (float("nan"), 1.0))

    def test_empty_uniform_rejected(self):
        with pytest.raises(InvalidMeasure):
            DiscreteBase.uniform(())


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
        result = lipschitz_profile(
            product, CoordinateMean(lambda a: 1.5), bound=2.0, lipschitz=0.0, eps=0.1
        )
        assert result.estimate == 0.0

    def test_range_bounded(self):
        product = HammingProduct(UNIFORM2, 1)
        result = lipschitz_profile(
            product, CoordinateMean(float), bound=1.0, lipschitz=1.0, eps=1.5
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
        steep = CoordinateMean(lambda a: 5.0 * a)
        with pytest.raises(LipschitzViolation):
            lipschitz_profile(product, steep, bound=5.0, lipschitz=1.0, eps=0.3, seed=11)

    def test_lipschitz_checked_exactly(self):
        # the constant is max - min of the kernel over the atoms, also where an atom is rarely drawn
        product = HammingProduct(DiscreteBase((0, 1, 2), (0.5, 0.5 - 1e-9, 1e-9)), 50)
        f = CoordinateMean(lambda a: 0.5 * a)
        lipschitz_profile(product, f, bound=1.0, lipschitz=1.0, eps=0.3, mode="sampled", samples=100)
        with pytest.raises(LipschitzViolation):
            lipschitz_profile(product, f, bound=1.0, lipschitz=0.99, eps=0.3, mode="sampled", samples=100)

    def test_nan_eps_rejected(self):
        with pytest.raises(NegativeEps):
            lipschitz_profile(
                HammingProduct(UNIFORM2, 2), fraction_differing(0), bound=1.0, lipschitz=1.0, eps=float("nan")
            )

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
        f = CoordinateMean(lambda a: L * a)
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

    def test_opaque_callables_are_rejected(self):
        product = HammingProduct(UNIFORM2, 3)
        for mode in ("exact", "sampled"):
            with pytest.raises(CarrierMismatch):
                lipschitz_profile(
                    product, lambda x: sum(x) / len(x), bound=1.0, lipschitz=1.0, eps=0.3,
                    mode=mode, samples=10,
                )

    def test_coordinate_mean_on_tuples(self):
        assert fraction_differing(0)((0, 1, 2, 0)) == 0.5
        assert CoordinateMean(lambda a: 0.25 * a)((1, 2, 3)) == 0.5


class TestProfileOracle:
    # lipschitz_profile against one call of f per tuple, compared with ==

    BASES = [
        UNIFORM2,
        DiscreteBase((0, 1, 2), (0.2, 0.3, 0.5)),
        DiscreteBase(("a", "b", "c", "d", "e"), (0.1, 0.2, 0.3, 0.15, 0.25)),
    ]

    @staticmethod
    def members(base):
        # an exact 0/1 kernel and one whose sums round, so the order of addition shows
        levels = dict(zip(base.atoms, (0.1, 0.7, 0.33, 0.05, 0.9)))
        return [(fraction_differing(base.atoms[-1]), 1.0), (CoordinateMean(levels.__getitem__), 0.85)]

    @pytest.mark.parametrize("base", BASES, ids=["uniform2", "three", "five"])
    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_exact(self, base, n):
        product = HammingProduct(base, n)
        for f, lipschitz in self.members(base):
            for eps in (0.05, 0.2, 0.45):
                res = lipschitz_profile(product, f, bound=1.0, lipschitz=lipschitz, eps=eps)
                assert (res.median, res.estimate) == tuple_profile(product, f, eps)
                assert res.count == len(base.atoms) ** n

    @pytest.mark.parametrize("base", BASES, ids=["uniform2", "three", "five"])
    @pytest.mark.parametrize("n,samples", [(1, 70_001), (7, 9_999), (100, 1_000)])
    def test_sampled(self, base, n, samples):
        # each count spans several blocks of PROFILE_BLOCK_DRAWS // n rows and
        # is not a multiple of the block
        rows = PROFILE_BLOCK_DRAWS // n
        assert samples > rows and samples % rows
        product = HammingProduct(base, n)
        for f, lipschitz in self.members(base):
            res = lipschitz_profile(
                product, f, bound=1.0, lipschitz=lipschitz, eps=0.1, mode="sampled",
                samples=samples, seed=n,
            )
            assert (res.median, res.estimate) == tuple_profile(product, f, 0.1, "sampled", samples, n)


class TestWilsonUpper:
    def test_zero_estimate(self):
        product = HammingProduct(UNIFORM2, 4)
        res = lipschitz_profile(
            product, CoordinateMean(lambda a: 1.0), bound=1.0, lipschitz=0.0, eps=0.1,
            mode="sampled", samples=100_000, seed=1,
        )
        assert res.estimate == 0.0 and res.stderr == 0.0
        assert res.upper == pytest.approx(16 / 100_016, rel=1e-12)

    def test_interior_estimate_is_the_upper_wilson_root(self):
        # the Wilson bound is the larger p with (estimate - p)^2 = z^2 p (1 - p) / N
        product = HammingProduct(UNIFORM2, 6)
        res = lipschitz_profile(
            product, fraction_differing(0), bound=1.0, lipschitz=1.0, eps=0.34,
            mode="sampled", samples=40_000, seed=4,
        )
        p, N, z = res.upper, res.count, WILSON_Z
        assert 0.0 < res.estimate < p
        assert (res.estimate - p) ** 2 == pytest.approx(z * z * p * (1 - p) / N, rel=1e-9)

    def test_exact_upper_is_the_estimate(self):
        res = lipschitz_profile(
            HammingProduct(UNIFORM2, 5), fraction_differing(0), bound=1.0, lipschitz=1.0, eps=0.3
        )
        assert res.upper == res.estimate


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
