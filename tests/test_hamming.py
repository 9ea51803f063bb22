import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hamming_distance, rational_profile, tuple_profile, tuple_values
from levylab import (
    CarrierMismatch,
    CyclicGroup,
    DiscreteBase,
    HammingProduct,
    IntegralMember,
    InvalidMeasure,
    LengthMismatch,
    LipschitzViolation,
    MeanApprox,
    NegativeEps,
    TooLargeForExact,
    TooManySamples,
    alpha_profile,
    coordinate_sum_law,
    fraction_differing,
    lipschitz_profile,
    point_mass,
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
        assert sample_indices(base.weights, 3, 3, 0).tolist() == [[0] * 3] * 3

    def test_deterministic(self):
        w = UNIFORM2.weights
        assert np.array_equal(sample_indices(w, 4, 50, 9), sample_indices(w, 4, 50, 9))

    def test_per_sample_derivation(self):
        # sample i does not depend on how many samples are requested
        w = UNIFORM2.weights
        assert np.array_equal(sample_indices(w, 3, 20, 5)[:7], sample_indices(w, 3, 7, 5))

    def test_sample_array_cap(self, monkeypatch):
        # arrays up to the cap are built; one sample more is refused before allocating.
        # sample_indices holds samples x n codes; a profile draws in blocks and holds samples values
        monkeypatch.setattr(hamming, "SAMPLE_ARRAY_LIMIT", 1000)
        assert sample_indices(UNIFORM2.weights, 10, 100, 5).shape == (100, 10)
        with pytest.raises(TooManySamples):
            sample_indices(UNIFORM2.weights, 10, 101, 5)
        line = HammingProduct(UNIFORM2, 1)
        f = fraction_differing(0)
        lipschitz_profile(line, f, bound=1.0, lipschitz=1.0, eps=0.3, mode="sampled", samples=1000)
        with pytest.raises(TooManySamples):
            lipschitz_profile(line, f, bound=1.0, lipschitz=1.0, eps=0.3, mode="sampled", samples=1001)

    def test_profile_refuses_too_many_values_or_block_coordinates(self, monkeypatch):
        # a profile holds samples values and draws blocks of min(samples, max(1, PROFILE_BLOCK_DRAWS // n))
        # samples of n coordinates; above the cap, either is refused before the draw is set up
        f = fraction_differing(0)

        def profile(n, samples):
            lipschitz_profile(HammingProduct(UNIFORM2, n), f, bound=1.0, lipschitz=1.0, eps=0.3,
                              mode="sampled", samples=samples)

        monkeypatch.setattr(hamming, "SAMPLE_ARRAY_LIMIT", 1000)
        for n, samples in ((1000, 1), (1, 1000), (40, 25)):
            profile(n, samples)
        monkeypatch.setattr(hamming.rng, "counter_offsets", None)
        for n, samples in ((1000, 2), (1001, 1), (1, 1001), (40, 26)):
            with pytest.raises(TooManySamples):
                profile(n, samples)
        monkeypatch.undo()
        # at the real cap, a refused profile allocates neither its values nor its counters
        tracemalloc.start()
        try:
            for n, samples in ((hamming.SAMPLE_ARRAY_LIMIT + 1, 1), (1, hamming.SAMPLE_ARRAY_LIMIT + 1)):
                with pytest.raises(TooManySamples):
                    profile(n, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_empirical_frequency(self):
        # binomial tail: P(|freq - 0.5| > 0.01) < 4e-10 at 1e5 draws
        idx = sample_indices(UNIFORM2.weights, 1, 100000, 42)
        freq = float(np.mean(idx[:, 0] == 1))
        assert abs(freq - 0.5) < 0.01

    def test_weighted_base(self):
        base = DiscreteBase((0, 1), (0.9, 0.1))
        idx = sample_indices(base.weights, 1, 100000, 3)
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

    def test_huge_weights_rejected_before_summing(self):
        # math.fsum overflows on 1e308 + 1e308; no weight above 1 reaches it
        with pytest.raises(InvalidMeasure, match="^weights must be a probability vector$"):
            DiscreteBase((0, 1), (1e308, 1e308))

    def test_weights_are_a_read_only_float64_array(self):
        for base in (DiscreteBase((0, 1), (0.9, 0.1)), DiscreteBase((0, 1), [1, 0]), DiscreteBase.uniform("abc")):
            assert base.weights.dtype == np.float64 and base.weights.flags.writeable is False
            with pytest.raises(ValueError):
                base.weights[0] = 0.5


class TestProductWeights:
    # one atom past 64 coordinates, more than a numpy array has axes
    @pytest.mark.parametrize("atoms,n", [(3, 11), (5, 6), (21, 3), (7, 5), (1, 64), (1, 65), (1, 100)])
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

    @pytest.mark.parametrize("atoms,n", [(("a",), 3), ((0, 1), 1), ((0, 1), 4), (("x", "y", "z"), 2), ((5, 7), 3)])
    def test_product_space_distances_are_hamming(self, atoms, n):
        # one comparison of atom indices gives d_n bit for bit, in itertools.product order
        space = product_space(HammingProduct(DiscreteBase.uniform(atoms), n))
        points = list(itertools.product(atoms, repeat=n))
        assert space.points == tuple(points)
        assert space.dist.tolist() == [[hamming_distance(x, y) for y in points] for x in points]


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
            product, IntegralMember((), (lambda a: 1.5,)), bound=2.0, lipschitz=0.0, eps=0.1
        )
        assert result.estimate == 0.0

    def test_range_bounded(self):
        product = HammingProduct(UNIFORM2, 1)
        result = lipschitz_profile(
            product, IntegralMember((), (float,)), bound=1.0, lipschitz=1.0, eps=1.5
        )
        assert result.estimate == 0.0

    def test_exact_cap(self):
        product = HammingProduct(UNIFORM2, 30)
        with pytest.raises(TooLargeForExact):
            lipschitz_profile(
                product, fraction_differing(0), bound=1.0, lipschitz=1.0, eps=0.3
            )

    @pytest.mark.parametrize("n", [64, 65, 100])
    def test_exact_past_64_coordinates(self, n):
        product = HammingProduct(DiscreteBase((0,), (1.0,)), n)
        result = lipschitz_profile(product, fraction_differing(0), bound=1.0, lipschitz=1.0, eps=0.3)
        assert (result.estimate, result.median, result.count) == (0.0, 0.0, 1)

    def test_misdeclared_lipschitz(self):
        product = HammingProduct(UNIFORM2, 4)
        steep = IntegralMember((), (lambda a: 5.0 * a,))
        with pytest.raises(LipschitzViolation):
            lipschitz_profile(product, steep, bound=5.0, lipschitz=1.0, eps=0.3, seed=11)

    def test_lipschitz_checked_exactly(self):
        # the constant is max - min of the kernel over the atoms, also where an atom is rarely drawn
        product = HammingProduct(DiscreteBase((0, 1, 2), (0.5, 0.5 - 1e-9, 1e-9)), 50)
        f = IntegralMember((), (lambda a: 0.5 * a,))
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
        f = IntegralMember((), (lambda a: L * a,))
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

    @pytest.mark.parametrize(
        "member",
        [
            IntegralMember((0.5,), (float, float)),
            IntegralMember((), (float,), np.negative),
        ],
        ids=["breakpoints", "phi"],
    )
    def test_members_past_a_coordinate_mean_are_rejected(self, member):
        # max(table) - min(table) is the Lipschitz constant only of a one-piece identity-phi member
        product = HammingProduct(UNIFORM2, 3)
        for mode in ("exact", "sampled"):
            with pytest.raises(CarrierMismatch):
                lipschitz_profile(
                    product, member, bound=1.0, lipschitz=1.0, eps=0.3, mode=mode, samples=10
                )

    def test_two_kernels_on_one_piece_are_refused(self):
        # a member without breakpoints has one piece, so it takes exactly one kernel
        with pytest.raises(ValueError, match="one more kernel than breakpoints"):
            IntegralMember((), (float, float))

    def test_coordinate_mean_on_tuples(self):
        # the profile's members are coordinate means of the embedded tuple
        z4 = CyclicGroup(4)
        assert MeanApprox(point_mass(z4, (0, 1, 2, 0))).expect(fraction_differing(0)) == 0.5
        assert MeanApprox(point_mass(z4, (1, 2, 3, 2))).expect(IntegralMember((), (lambda a: 0.25 * a,))) == 0.5


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
        return [(fraction_differing(base.atoms[-1]), 1.0), (IntegralMember((), (levels.__getitem__,)), 0.85)]

    @pytest.mark.parametrize("base", BASES, ids=["uniform2", "three", "five"])
    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_exact(self, base, n):
        # the law of the coordinate sum adds the masses in another order than the tuples' pairwise sum
        product = HammingProduct(base, n)
        for f, lipschitz in self.members(base):
            for eps in (0.05, 0.2, 0.45):
                res = lipschitz_profile(product, f, bound=1.0, lipschitz=lipschitz, eps=eps)
                median, mass = tuple_profile(product, f, eps)
                assert res.median == median and abs(res.estimate - mass) <= 1e-12
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


@st.composite
def law_bases(draw):
    """1 to 5 atoms with dyadic weights (halves and quarters split off 1) or non-dyadic ones."""
    k = draw(st.integers(1, 5), label="atoms")
    if draw(st.booleans(), label="dyadic"):
        weights = [1.0]
        for _ in range(k - 1):
            w = weights.pop(draw(st.integers(0, len(weights) - 1)))
            part = draw(st.sampled_from([0.5, 0.25])) * w
            weights += [part, w - part]
    else:
        raw = draw(st.lists(st.integers(1, 97), min_size=k, max_size=k))
        weights = [r / sum(raw) for r in raw]
    return DiscreteBase(tuple(range(k)), weights)


class TestCoordinateSumLaw:
    # the law of the coordinate sum against one call of f per tuple (conftest.tuple_values)

    # sums of 0.1, 0.7 or 0.33 round, so their order of addition shows; -0.0 + -0.0 is -0.0
    KERNEL_VALUES = [0.0, -0.0, 1.0, 0.1, 0.7, 0.33, -0.25, 1e-17]

    @settings(max_examples=60, deadline=None)
    @given(base=law_bases(), n=st.integers(1, 8), data=st.data())
    def test_matches_enumeration(self, base, n, data):
        kernel = data.draw(st.lists(st.sampled_from(self.KERNEL_VALUES), min_size=len(base.atoms),
                                    max_size=len(base.atoms)), label="kernel")
        f = IntegralMember((), (kernel.__getitem__,))
        product = HammingProduct(base, n)
        values, masses = coordinate_sum_law(kernel, base.weights, n)
        assert values.dtype == masses.dtype == np.float64 and values.shape == masses.shape

        def by_bits(values, weights):
            law = {}
            for v, w in zip(values.tolist(), weights.tolist()):
                law.setdefault(v.hex(), []).append(w)
            return {bits: math.fsum(ws) for bits, ws in law.items()}

        got, want = by_bits(values, masses), by_bits(*tuple_values(product, f))
        assert sorted(got) == sorted(want)
        assert all(abs(got[bits] - want[bits]) <= 1e-15 for bits in want)
        spread = max(kernel) - min(kernel)
        res = lipschitz_profile(product, f, bound=1.0, lipschitz=spread, eps=0.1)
        assert res.median == tuple_profile(product, f, 0.1)[0]

    def test_signed_zeros_stay_apart(self):
        # -0.0 + -0.0 is -0.0 and -0.0 + 0.0 is 0.0: the all -0.0 tuple keeps its sign
        values, masses = coordinate_sum_law([-0.0, 0.0, 1.0], [0.25, 0.25, 0.5], 3)
        assert [v.hex() for v in values.tolist()][:2] == [(-0.0).hex(), (0.0).hex()]
        assert masses.tolist()[:2] == [1 / 64, 7 / 64]

    def test_exact_profile_holds_the_law_not_the_tuples(self):
        # base (0.2, 0.3, 0.5) at n = 12: 531,441 tuples, 13 values
        product = HammingProduct(DiscreteBase((0, 1, 2), (0.2, 0.3, 0.5)), 12)
        f = fraction_differing(0)
        lipschitz_profile(product, f, bound=1.0, lipschitz=1.0, eps=0.3)
        tracemalloc.start()
        try:
            res = lipschitz_profile(product, f, bound=1.0, lipschitz=1.0, eps=0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.count == 3**12
        assert peak < 1 << 20


class TestRationalMasses:
    # exact profiles against binomial and multinomial masses in Fractions: at eps = j/m a
    # lattice value k/n can sit exactly eps from the median, where the float gap rounds
    # either way (0.8 - 0.5 > 0.3 but 0.5 - 0.2 == 0.3), and the strict mass counts neither

    SWEEP = [((1, 2), (1, 2), n) for n in range(2, 20)] + [((1, 5), (3, 10), (1, 2), n) for n in range(2, 13)]

    @pytest.mark.parametrize("case", SWEEP, ids=lambda c: f"{len(c) - 1}atoms-n{c[-1]}")
    def test_fraction_differing_at_eps_j_over_20(self, case):
        *weights, n = case
        weights = [Fraction(*w) for w in weights]
        base = DiscreteBase(tuple(range(len(weights))), tuple(map(float, weights)))
        kernel = [Fraction(a != 0) for a in range(len(weights))]
        for j in range(1, 10):
            res = lipschitz_profile(HammingProduct(base, n), fraction_differing(0), bound=1.0, lipschitz=1.0,
                                    eps=j / 20)
            median, mass = rational_profile(weights, kernel, n, Fraction(j, 20))
            assert res.median == pytest.approx(float(median), abs=1e-12)
            assert res.estimate == pytest.approx(float(mass), abs=1e-12), (j, res.estimate, mass)

    def test_the_cli_example(self):
        # profile --mode exact --n 10 --eps 0.3: 22 of 1,024 tuples lie strictly past 0.3 from 1/2
        res = lipschitz_profile(HammingProduct(UNIFORM2, 10), fraction_differing(0), bound=1.0, lipschitz=1.0,
                                eps=0.3)
        assert res.estimate == 22 / 1024

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_quarter_kernels_at_lattice_eps(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        m = data.draw(st.integers(2, 12), label="m")
        eps = Fraction(data.draw(st.integers(1, m - 1), label="j"), m)
        tenths = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=3).filter(lambda w: sum(w) <= 10))
        weights = [Fraction(w, 10) for w in tenths[:-1]] + [1 - Fraction(sum(tenths[:-1]), 10)]
        # quarters are exact floats, so each sum is a lattice value k/(4n) up to the final division
        kernel = [Fraction(data.draw(st.integers(0, 4)), 4) for _ in weights]
        base = DiscreteBase(tuple(range(len(weights))), tuple(map(float, weights)))
        f = IntegralMember((), (lambda a: float(kernel[a]),))
        res = lipschitz_profile(HammingProduct(base, n), f, bound=1.0, lipschitz=1.0, eps=float(eps))
        median, mass = rational_profile(weights, kernel, n, eps)
        assert res.median == pytest.approx(float(median), abs=1e-12)
        assert res.estimate == pytest.approx(float(mass), abs=1e-12)


class TestWilsonUpper:
    def test_zero_estimate(self):
        product = HammingProduct(UNIFORM2, 4)
        res = lipschitz_profile(
            product, IntegralMember((), (lambda a: 1.0,)), bound=1.0, lipschitz=0.0, eps=0.1,
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
