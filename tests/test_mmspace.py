import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_alpha, brute_median, mm_space_strategy
from levylab import (
    FiniteMMSpace,
    InvalidFunctionTable,
    InvalidSpace,
    LengthMismatch,
    NegativeEps,
    NonPositiveEps,
    SpaceTooLarge,
    alpha_profile,
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


# builds the n-point line space, with d(a, b) = d(b, a) = v for each "a,b,v" argument
LINE_SPACE = """
import sys
import numpy as np
from levylab import FiniteMMSpace, InvalidSpace
n = int(sys.argv[1])
x = np.arange(n, dtype=float)
dist = np.abs(x[:, None] - x[None, :])
for arg in sys.argv[2:]:
    a, b, v = arg.split(",")
    dist[int(a), int(b)] = dist[int(b), int(a)] = float(v)
try:
    FiniteMMSpace.uniform(tuple(range(n)), dist)
except InvalidSpace:
    print("invalid")
else:
    print("built")
"""


def build_line_space(n, *edits, limit_mib=768):
    """Build a line space in a child whose address space is capped at limit_mib."""
    limit = limit_mib << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", LINE_SPACE, str(n), *edits],
        env=env,
        preexec_fn=cap,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestLargeSpace:
    # the triangle check runs in blocks of rows, so its memory stays bounded

    def test_600_points_build_under_768_mib(self):
        assert build_line_space(600) == "built"

    def test_violation_in_last_block_is_found(self):
        # only the triples (598, 599, 597) and (599, 598, 597) violate, both in the last rows
        assert build_line_space(600, "598,599,3.5") == "invalid"
        assert build_line_space(600, "598,599,3.0") == "built"


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

    @settings(max_examples=30, deadline=None)
    @given(mm_space_strategy(max_points=5))
    def test_profile_nonincreasing_and_capped(self, space):
        grid = np.linspace(0.0, space.diameter + 0.5, 8)
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
