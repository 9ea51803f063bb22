import functools
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_alpha, brute_median, mm_space_strategy, reference_alpha_profile, run_capped, sorted_median
from levylab import (
    FiniteMMSpace,
    InvalidFunctionTable,
    InvalidSpace,
    LengthMismatch,
    NegativeEps,
    NonPositiveEps,
    SpaceTooLarge,
    alpha_profile,
    deviation_masses,
    weighted_deviation_mass,
    weighted_median,
)
from levylab import mmspace

TWO_POINT = FiniteMMSpace.uniform(("p", "q"), np.array([[0.0, 1.0], [1.0, 0.0]]))
ONE_POINT = FiniteMMSpace.uniform(("p",), np.zeros((1, 1)))


def cube2():
    # {0,1}^2 under the normalized Hamming distance, uniform measure
    pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
    dist = np.array([[sum(a != b for a, b in zip(x, y)) / 2 for y in pts] for x in pts])
    return FiniteMMSpace.uniform(tuple(pts), dist)


FRACTION_OF_ONES = [0.0, 0.5, 0.5, 1.0]


@st.composite
def dyadic_space_strategy(draw, max_points=6):
    """A planar space whose weights are j/8 or j/16, zeros allowed."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    coord = st.integers(min_value=0, max_value=4)
    pts = np.array([draw(st.tuples(coord, coord)) for _ in range(n)], dtype=float)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    denominator = draw(st.sampled_from([8, 16]))
    owners = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=denominator, max_size=denominator))
    return FiniteMMSpace(tuple(range(n)), dist, np.bincount(owners, minlength=n) / denominator)


class TestConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidSpace):
            FiniteMMSpace.uniform(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_triangle_violation(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(InvalidSpace):
            FiniteMMSpace.uniform(("a", "b", "c"), d)

    def test_rejects_bad_measure(self):
        with pytest.raises(InvalidSpace):
            FiniteMMSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), [0.9, 0.2])

    def test_rejects_nan_weight(self):
        with pytest.raises(InvalidSpace):
            FiniteMMSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), [float("nan"), 1.0])

    def test_rejects_empty_uniform(self):
        with pytest.raises(InvalidSpace):
            FiniteMMSpace.uniform((), np.zeros((0, 0)))

    def test_rejects_huge_weights_before_summing(self):
        # math.fsum overflows on 1e308 + 1e308; no weight above 1 + tolerance reaches it
        with pytest.raises(InvalidSpace, match="^measure must be a probability vector$"):
            FiniteMMSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), [1e308, 1e308])


# builds the n-point line space
LINE_SPACE = """
import sys
import numpy as np
from levylab import FiniteMMSpace
n = int(sys.argv[1])
x = np.arange(n, dtype=float)
FiniteMMSpace.uniform(tuple(range(n)), np.abs(x[:, None] - x[None, :]))
print("built")
"""


def build_line_space(n, limit_mib=768):
    """Build a line space in a child whose address space is capped at limit_mib."""
    proc = run_capped(["-c", LINE_SPACE, str(n)], limit_mib)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestLargeSpace:
    # the triangle check runs in blocks of rows, so its memory stays bounded

    def test_600_points_build_under_768_mib(self):
        assert build_line_space(600) == "built"

    def test_violation_in_last_block_is_found(self, monkeypatch):
        # 8 rows per block make 5 blocks of the 40-point line; only the triples
        # (38, 39, 37) and (39, 38, 37) violate, both in rows of the last block
        monkeypatch.setattr(mmspace, "_TRIANGLE_BLOCK", 8 * 40 * 40)
        x = np.arange(40.0)
        dist = np.abs(x[:, None] - x[None, :])
        dist[38, 39] = dist[39, 38] = 3.5
        with pytest.raises(InvalidSpace, match="triangle"):
            FiniteMMSpace.uniform(tuple(range(40)), dist)
        dist[38, 39] = dist[39, 38] = 3.0
        FiniteMMSpace.uniform(tuple(range(40)), dist)


class TestAlpha:
    def test_two_point_at_zero(self):
        assert alpha_profile(TWO_POINT, [0.0])[0] == 0.5

    def test_two_point_at_one(self):
        expected = brute_alpha(TWO_POINT, 1.0)
        assert alpha_profile(TWO_POINT, [1.0])[0] == pytest.approx(expected, abs=1e-12)
        assert expected == 0.0

    def test_one_point(self):
        assert alpha_profile(ONE_POINT, [0.1])[0] == 0.0

    def test_negative_eps(self):
        with pytest.raises(NegativeEps):
            alpha_profile(TWO_POINT, [-0.1])
        with pytest.raises(NegativeEps):
            alpha_profile(TWO_POINT, [0.1, float("nan")])

    def test_too_large(self):
        pts = tuple(range(25))
        dist = np.abs(np.subtract.outer(np.arange(25.0), np.arange(25.0)))
        space = FiniteMMSpace.uniform(pts, dist)
        with pytest.raises(SpaceTooLarge):
            alpha_profile(space, [0.5])

    @settings(max_examples=40, deadline=None)
    @given(mm_space_strategy(max_points=5), st.floats(min_value=0.0, max_value=4.0))
    def test_matches_brute_force(self, space, eps):
        assert alpha_profile(space, [eps])[0] == pytest.approx(
            brute_alpha(space, eps), abs=1e-12
        )

    @pytest.mark.parametrize("npts", [7, 8, 11, 12])
    @pytest.mark.parametrize("weights", ["dirichlet", "uniform"])
    def test_half_tables_match_brute_force(self, npts, weights, monkeypatch):
        # odd npts splits into halves of different sizes; uniform weights make
        # many subsets of mass exactly 1/2; the radii are pairwise distances.
        # Masses add the weights in index order, as the oracle does, so the
        # values are equal bit for bit, also when the subsets come in blocks
        # of an odd size that splits the scored rows differently.
        gen = np.random.default_rng(npts)
        pts = gen.random((npts, 2))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        mu = gen.dirichlet(np.ones(npts)) if weights == "dirichlet" else np.full(npts, 1.0 / npts)
        space = FiniteMMSpace(tuple(range(npts)), dist, mu)
        radii = np.unique(dist[np.triu_indices(npts, 1)])
        if npts > 8:
            radii = radii[:: len(radii) // 8]
        expected = [brute_alpha(space, float(eps)) for eps in radii]
        assert alpha_profile(space, radii).tolist() == expected
        monkeypatch.setattr(mmspace, "_MASK_BLOCK", 37)
        assert alpha_profile(space, radii).tolist() == expected

    @pytest.mark.parametrize("weights", ["dirichlet", "uniform"])
    def test_windows_match_the_scan_of_every_mask_at_20_points(self, weights):
        # the largest space the limit allows, against the scan of all 2^20 masks;
        # uniform weights make 184,756 minimal sets, all of mass exactly 1/2
        gen = np.random.default_rng(20)
        pts = gen.random((20, 2))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        mu = gen.dirichlet(np.ones(20)) if weights == "dirichlet" else np.full(20, 0.05)
        space = FiniteMMSpace(tuple(range(20)), dist, mu)
        radii = [0.0, *np.quantile(dist, np.linspace(0.05, 0.6, 8))]
        assert alpha_profile(space, radii).tolist() == reference_alpha_profile(space, radii).tolist()

    @settings(max_examples=40, deadline=None)
    @given(dyadic_space_strategy())
    def test_dyadic_weights_match_brute_force(self, space):
        # masses of j/8 or j/16 add exactly, so many subsets weigh exactly 1/2, and
        # zero weights make sets whose lightest point takes nothing away; blocks of
        # 1 and 37 candidates split the windows' runs at every place and at odd ones
        radii = [0.0, 0.25, *np.unique(space.dist)[1::2]]
        expected = [brute_alpha(space, float(eps)) for eps in radii]
        with pytest.MonkeyPatch.context() as mp:
            for block in (1, 37):
                mp.setattr(mmspace, "_MASK_BLOCK", block)
                assert alpha_profile(space, radii).tolist() == expected

    def test_sums_at_the_window_edges_keep_their_sets(self, monkeypatch):
        # points 0..2 form the low half and 3..5 the high one; a set of one low and two high
        # points weighs 1/2 - 1e-12 (odd trials) or 1/2 up to rounding. Its index-order mass
        # ((lo + h1) + h2) and its two-half mass (lo + (h1 + h2)) may round apart: without
        # the window slack, 17 of these 400 spaces lose a minimal set at the heavy threshold
        gen = np.random.default_rng(6)
        spaces = []
        for trial in range(400):
            pts = gen.random((6, 2))
            dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
            chosen = [int(gen.integers(0, 3)), 3, 4]
            rest = [i for i in range(6) if i not in chosen]
            target = 0.5 - 1e-12 * (trial % 2)
            a, b = gen.random(3), gen.random(3)
            mu = np.zeros(6)
            mu[chosen] = a / a.sum() * target
            mu[rest] = b / b.sum() * (1.0 - target)
            spaces.append(FiniteMMSpace(tuple(range(6)), dist, mu))
        expected = [reference_alpha_profile(space, np.unique(space.dist)).tolist() for space in spaces]
        assert [alpha_profile(space, np.unique(space.dist)).tolist() for space in spaces] == expected
        monkeypatch.setattr(mmspace, "_WINDOW_SLACK", 0.0)
        assert [alpha_profile(space, np.unique(space.dist)).tolist() for space in spaces] != expected

    def test_only_window_candidates_reach_the_mass_check(self, monkeypatch):
        # the subset stage hands _masses one 0/1 row per point and a column per subset;
        # a scan of every mask hands it all 2^20 of them
        checked = []
        masses = mmspace._masses

        def counting(members, mu):
            if isinstance(members, np.ndarray):
                checked.append(members.shape[1])
            return masses(members, mu)

        gen = np.random.default_rng(2)
        pts = gen.random((20, 2))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        space = FiniteMMSpace(tuple(range(20)), dist, gen.dirichlet(np.ones(20)))
        monkeypatch.setattr(mmspace, "_masses", counting)
        alpha_profile(space, [0.1, 0.5])
        assert 0 < sum(checked) < (1 << 20) // 16

    def test_light_low_points_leave_the_window_before_the_mass_check(self, monkeypatch):
        # six light points form the low half and six heavy ones the high half. The windows
        # bound mass - lightest_hi only, so they hold sets that stay heavy without a light
        # low point; those are dropped before _masses, and every minimal set is kept
        gen = np.random.default_rng(12)
        pts = gen.random((12, 2))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        space = FiniteMMSpace(tuple(range(12)), dist, np.array([0.02] * 6 + [0.88 / 6] * 6))
        radii = np.unique(dist[np.triu_indices(12, 1)])[::8]
        checked = []
        masses = mmspace._masses

        def counting(members, mu):
            if isinstance(members, np.ndarray):
                checked.append(members.shape[1])
            return masses(members, mu)

        monkeypatch.setattr(mmspace, "_masses", counting)
        assert alpha_profile(space, radii).tolist() == [brute_alpha(space, float(eps)) for eps in radii]
        # the windows: mass_lo in [1/2 - 1e-12 - slack - mass_hi, 1/2 + slack + lightest_hi - mass_hi)
        _, weight_lo, mass_lo = mmspace._half_tables(space, 0, 6)
        _, weight_hi, mass_hi = mmspace._half_tables(space, 6, 6)
        slack = mmspace._WINDOW_SLACK
        windows = ((mass_lo[:, None] >= 0.5 - 1e-12 - slack - mass_hi)
                   & (mass_lo[:, None] < 0.5 + slack + weight_hi - mass_hi))
        kept = windows & (mass_lo[:, None] + mass_hi - weight_lo[:, None] < 0.5 + slack)
        assert sum(checked) == kept.sum() == 715
        assert windows.sum() == 1470

    def test_uniform_line_stays_under_the_scan_peak(self):
        # the scan of every mask peaked at 5,970,800 traced bytes on this call (Python 3.11,
        # numpy 2.4): blocks of 2^14 masks, each with its N x block member flags
        x = np.arange(20.0)
        line = FiniteMMSpace.uniform(tuple(range(20)), np.abs(x[:, None] - x[None, :]))
        tracemalloc.start()
        try:
            alpha_profile(line, [k / 20 for k in range(21)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5_970_800

    @settings(max_examples=30, deadline=None)
    @given(mm_space_strategy(max_points=5))
    def test_profile_nonincreasing_and_capped(self, space):
        grid = np.linspace(0.0, space.dist.max() + 0.5, 8)
        alphas = alpha_profile(space, grid)
        assert np.all(alphas <= 0.5 + 1e-12)
        assert np.all(np.diff(alphas) <= 1e-12)
        # eps beyond the diameter swallows everything (up to float summation)
        assert alphas[-1] == pytest.approx(0.0, abs=1e-12)


class TestMedian:
    def test_constant(self):
        space = cube2()
        assert weighted_median([3.0] * 4, space.mu) == 3.0

    def test_two_point_smallest(self):
        expected = brute_median([0.0, 1.0], [0.5, 0.5])
        assert weighted_median([0.0, 1.0], TWO_POINT.mu) == expected == 0.0

    def test_cube_fraction_of_ones(self):
        expected = brute_median(FRACTION_OF_ONES, [0.25] * 4)
        assert weighted_median(FRACTION_OF_ONES, cube2().mu) == expected == 0.5

    @settings(max_examples=60, deadline=None)
    @given(mm_space_strategy(max_points=6), st.data())
    def test_defining_inequalities(self, space, data):
        values = [
            data.draw(st.floats(min_value=-3, max_value=3)) for _ in range(len(space))
        ]
        m = weighted_median(values, space.mu)
        above = sum(w for v, w in zip(values, space.mu) if v >= m)
        below = sum(w for v, w in zip(values, space.mu) if v <= m)
        assert above >= 0.5 - 1e-9
        assert below >= 0.5 - 1e-9
        assert m == brute_median(values, space.mu)

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=40),
        functions=st.integers(min_value=0, max_value=3),
        weight=st.sampled_from(["1/size", 0.1, 0.5, 0.03, "unequal"]),
        data=st.data(),
    )
    def test_matches_the_stable_sort(self, size, functions, weight, data):
        # few distinct values, so rows tie; -0.0 ties 0.0 but has other bits. Equal weights
        # take the order statistic, unequal ones the sort; 0 functions is one row as a vector
        pool = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0])
        rows = [data.draw(st.lists(pool, min_size=size, max_size=size)) for _ in range(max(functions, 1))]
        values = np.array(rows) if functions else np.array(rows[0])
        if weight == "unequal":
            weights = np.array(data.draw(st.lists(st.sampled_from([0.01, 0.1, 0.3]), min_size=size, max_size=size)))
        else:
            weights = np.full(size, 1.0 / size if weight == "1/size" else weight)
        got, want = weighted_median(values, weights), sorted_median(values, weights)
        assert type(got) is type(want)
        assert np.array_equal(np.signbit(got), np.signbit(want)) and np.array_equal(got, want)

    def test_equal_weights_skip_the_stable_argsort(self, monkeypatch):
        values = np.random.default_rng(0).random(1001)
        want = sorted_median(values, np.full(1001, 1.0 / 1001))

        def refuse(*args, **kwargs):
            raise AssertionError("argsort on equal weights")

        monkeypatch.setattr(mmspace.np, "argsort", refuse)
        assert weighted_median(values, np.full(1001, 1.0 / 1001)) == want

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weighted_median([1.0], [0.5, 0.5])

    def test_non_finite_table(self):
        with pytest.raises(InvalidFunctionTable):
            weighted_median([0.0, float("nan")], TWO_POINT.mu)


class TestDeviationMass:
    def test_constant(self):
        assert weighted_deviation_mass([2.0] * 4, [0.25] * 4, 2.0, 0.1) == 0.0

    def test_cube_eps_04(self):
        assert weighted_deviation_mass(FRACTION_OF_ONES, [0.25] * 4, 0.5, 0.4) == 0.5

    def test_cube_eps_06(self):
        assert weighted_deviation_mass(FRACTION_OF_ONES, [0.25] * 4, 0.5, 0.6) == 0.0

    def test_nonpositive_eps(self):
        with pytest.raises(NonPositiveEps):
            weighted_deviation_mass([0.0], [1.0], 0.0, 0.0)
        with pytest.raises(NonPositiveEps):
            weighted_deviation_mass([0.0], [1.0], 0.0, float("nan"))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weighted_deviation_mass([1.0], [0.5, 0.5], 0.0, 0.1)

    def test_non_finite_table(self):
        with pytest.raises(InvalidFunctionTable):
            weighted_deviation_mass([0.0, float("inf")], TWO_POINT.mu, 0.0, 0.1)


class TestDeviationMasses:
    # every radius from one sort, against one weighted_deviation_mass per radius, compared with ==

    TERMS = [0.0, -0.0, 0.1, 0.25, 1 / 3, 0.7, 1.0, -0.4]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_each_radius_has_the_bits_of_its_own_call(self, data):
        # values are sums of `terms` floats divided by terms, so lattice values k/terms sit
        # exactly eps = j/m from a lattice center, where the gaps round either way
        terms = data.draw(st.integers(1, 12), label="terms")
        count = data.draw(st.integers(1, 80), label="count")
        rows = data.draw(st.lists(st.lists(st.sampled_from(self.TERMS), min_size=terms, max_size=terms),
                                  min_size=count, max_size=count))
        values = np.array([functools.reduce(operator.add, row) / terms for row in rows])
        if data.draw(st.booleans(), label="equal weights"):
            weights = np.full(count, 1.0 / count)
        else:
            gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            weights = gen.dirichlet(np.full(count, 0.5)) * gen.integers(0, 2, size=count)
        center = data.draw(st.sampled_from([weighted_median(values, weights), *values.tolist(), 0.0, -0.0]))
        m = data.draw(st.integers(1, 12), label="m")
        grid = [j / m for j in range(1, 2 * m + 1)] + data.draw(st.lists(st.floats(1e-300, 1e3), max_size=3))
        assert deviation_masses(values, weights, center, grid, terms) == [
            weighted_deviation_mass(values, weights, center, eps, terms) for eps in grid
        ]

    def test_many_radii_on_a_large_sample(self):
        values = np.random.default_rng(3).integers(0, 41, size=100_000) / 40
        weights = np.full(len(values), 1e-5)
        grid = np.arange(1, 1000) / 1000
        m = weighted_median(values, weights)
        assert deviation_masses(values, weights, m, grid, 40) == [
            weighted_deviation_mass(values, weights, m, eps, 40) for eps in grid
        ]

    def test_checks(self):
        with pytest.raises(NonPositiveEps):
            deviation_masses([0.0], [1.0], 0.0, [0.1, 0.0])
        with pytest.raises(LengthMismatch):
            deviation_masses(np.zeros((2, 2)), [0.5, 0.5], 0.0, [0.1])
        with pytest.raises(InvalidFunctionTable):
            deviation_masses([0.0, float("nan")], [0.5, 0.5], 0.0, [0.1])
        assert deviation_masses([], [], 0.0, [0.1, 0.2]) == [0.0, 0.0]


class TestRowTables:
    # a members x maps table gives one median and one mass per row, each with the bits of its row alone

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_each_row_has_the_bits_of_its_own_call(self, data):
        maps, rows = data.draw(st.integers(1, 200)), data.draw(st.integers(0, 6))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        weights = gen.dirichlet(np.full(maps, data.draw(st.sampled_from([0.2, 1.0]))))
        # few distinct values, so that ties and the stable order matter
        levels = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5)))
        table = levels[gen.integers(0, len(levels), size=(rows, maps))]
        centers = np.array([data.draw(st.floats(-1e3, 1e3)) for _ in range(rows)])
        eps = data.draw(st.floats(1e-3, 1e3))
        medians = weighted_median(table, weights)
        assert medians.shape == (rows,)
        assert medians.tolist() == [weighted_median(row, weights) for row in table]
        masses = weighted_deviation_mass(table, weights, centers, eps)
        assert masses.tolist() == [weighted_deviation_mass(row, weights, c, eps) for row, c in zip(table, centers)]
        shared = weighted_deviation_mass(table, weights, 0.5, eps)
        assert shared.tolist() == [weighted_deviation_mass(row, weights, 0.5, eps) for row in table]

    def test_tables_are_checked(self):
        with pytest.raises(LengthMismatch):
            weighted_median(np.zeros((2, 3)), [0.5, 0.5])
        with pytest.raises(LengthMismatch):
            weighted_deviation_mass(np.zeros((2, 2, 2)), [0.5, 0.5], 0.0, 0.1)
        with pytest.raises(InvalidFunctionTable):
            weighted_median([[0.0, 1.0], [0.0, float("nan")]], TWO_POINT.mu)


@settings(max_examples=60, deadline=None)
@given(
    mm_space_strategy(max_points=6),
    st.data(),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_expectation_median_gap_estimate(space, data, eps):
    # |E - m| <= 2 * B * mass(|f - m| > eps) + eps for B-bounded f
    bound = 2.0
    values = [
        data.draw(st.floats(min_value=-bound, max_value=bound)) for _ in range(len(space))
    ]
    m = weighted_median(values, space.mu)
    mass = weighted_deviation_mass(values, space.mu, m, eps)
    assert abs(float(space.mu @ np.asarray(values)) - m) <= 2 * bound * mass + eps + 1e-9
