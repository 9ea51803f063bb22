import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    UNEVEN_BREAKS,
    alternate_cell_lengths,
    disagreement,
    element_strategy,
    evaluate,
    group_strategy,
    hamming_distance,
    left_sum,
    manual_product_map,
    merge_breakpoints,
    piecewise_strategy,
    step_map_strategy,
    value_at,
    walk_grid_approximate,
)
from levylab import (
    CarrierMismatch,
    EmptyTuple,
    CyclicGroup,
    FreeGroup2,
    MeanApprox,
    PiecewiseMap,
    ZdGroup,
    disagreement_member,
    grid_approximate,
    h_embed,
    point_mass,
)
from levylab.amplify import expectations
from levylab.stepmaps import IntegralMember

Z = ZdGroup(1)

A, B, C = (1,), (2,), (3,)


class TestEmbed:
    def test_single_cell(self):
        m = h_embed(Z, (A,))
        assert m.breakpoints == () and m.values == (A,)

    def test_identity_tuple(self):
        assert h_embed(Z, ((0,), (0,))) == h_embed(Z, (Z.identity,) * 2)

    def test_distinct_neighbours_keep_the_grid(self):
        m = h_embed(Z, (A, B, A, C))
        assert m.breakpoints == (0.25, 0.5, 0.75) and m.values == (A, B, A, C)

    def test_two_cells(self):
        m = h_embed(Z, (A, B))
        assert value_at(m, 0.0) == A
        assert value_at(m, 0.49) == A
        assert value_at(m, 0.5) == B
        assert value_at(m, 0.99) == B

    def test_empty(self):
        with pytest.raises(EmptyTuple):
            h_embed(Z, ())

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_homomorphism(self, data):
        group = data.draw(group_strategy())
        n = data.draw(st.integers(1, 5))
        xs = tuple(data.draw(element_strategy(group)) for _ in range(n))
        ys = tuple(data.draw(element_strategy(group)) for _ in range(n))
        lhs = manual_product_map(h_embed(group, xs), h_embed(group, ys))
        rhs = h_embed(group, tuple(group.op(a, b) for a, b in zip(xs, ys)))
        assert lhs == rhs


class TestPointwiseTranslate:
    # the pointwise product, manual_product_map, as the library's shifts of step maps use it

    def test_inverse_gives_identity(self):
        f = h_embed(Z, (A, B, C))
        inverse = h_embed(Z, tuple(Z.inv(v) for v in f.values))
        assert manual_product_map(f, inverse) == h_embed(Z, (Z.identity,) * 3)

    def test_merged_breakpoints(self):
        f = h_embed(Z, (A, B))
        g = h_embed(Z, (A, B, C))
        m = manual_product_map(f, g)
        assert m.breakpoints == (1 / 3, 1 / 2, 2 / 3)
        assert m.values == ((2,), (3,), (4,), (5,))

    def test_identity_neutral(self):
        f = h_embed(Z, (A, B))
        assert manual_product_map(h_embed(Z, (Z.identity,)), f) == f

    def test_coprime_grids(self):
        # distinct neighbours: the product's value i + 2048 j grows on every piece, so none merge
        f = h_embed(Z, tuple((i,) for i in range(1021)))
        g = h_embed(Z, tuple((2048 * j,) for j in range(1031)))
        m = manual_product_map(f, g)
        assert len(m.breakpoints) == 1020 + 1030 and len(m.values) == 1021 + 1031 - 1
        assert all(a < b for a, b in zip(m.values, m.values[1:]))
        assert m.values[0] == (0,) and m.values[-1] == (1020 + 2048 * 1030,)

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            manual_product_map(h_embed(Z, (A,)), h_embed(ZdGroup(2), ((1, 1),)))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_manual_product(self, data):
        # expectations translates a grid map h by a shift g cell by cell; the disagreement member
        # of the manual product g * h is 0 at that translate exactly when the two agree everywhere
        group = data.draw(group_strategy())
        g = data.draw(st.one_of(step_map_strategy(group=group), piecewise_strategy(group=group)))
        n = data.draw(st.integers(1, 6))
        values = tuple(data.draw(element_strategy(group)) for _ in range(n))
        product = manual_product_map(g, h_embed(group, values))
        other = manual_product_map(h_embed(group, (data.draw(element_strategy(group)),)), product)
        members = [disagreement_member(product), disagreement_member(other)]
        means = expectations(point_mass(group, values), members, (g,))[0][0]
        assert means[0] == 0.0
        assert means[1] == pytest.approx(disagreement(product, other), abs=1e-12)


class TestDisagreement:
    def test_self(self):
        f = h_embed(Z, (A, B))
        assert disagreement(f, f) == 0.0

    def test_one_cell_of_two(self):
        assert disagreement(h_embed(Z, (A, B)), h_embed(Z, (A, C))) == 0.5

    def test_refinement(self):
        assert disagreement(h_embed(Z, (A,)), h_embed(Z, (A, B))) == 0.5

    def test_coprime_grids(self):
        # one cut each, 1020/1021 and 1030/1031: f and g differ on the last cell of f
        f = h_embed(Z, (A,) * 1020 + (B,))
        g = h_embed(Z, (A,) * 1030 + (C,))
        assert disagreement(f, g) == pytest.approx(1 / 1021, abs=1e-12)

    def test_piecewise_vs_step(self):
        pm = PiecewiseMap(Z, (0.25,), (A, B))
        assert disagreement(pm, h_embed(Z, (A, B))) == 0.25

    def test_agreeing_maps_give_float_zero(self):
        d = disagreement(PiecewiseMap(Z, (0.5,), (A, B)), h_embed(Z, (A, B)))
        assert d == 0.0 and type(d) is float

    def test_lengths_added_left_to_right(self):
        lengths = alternate_cell_lengths(UNEVEN_BREAKS)
        assert left_sum(lengths) != math.fsum(lengths)
        f = PiecewiseMap(Z, UNEVEN_BREAKS, (A, B) * 3 + (A,))
        g = PiecewiseMap(Z, UNEVEN_BREAKS, (B,) * 7)
        assert disagreement(f, g) == left_sum(lengths)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_hamming_on_common_grid(self, data):
        group = data.draw(group_strategy())
        n = data.draw(st.integers(1, 6))
        xs = tuple(data.draw(element_strategy(group)) for _ in range(n))
        ys = tuple(data.draw(element_strategy(group)) for _ in range(n))
        # the oracle walks the merged cells, so each length carries the rounding of two grid points
        d = disagreement(h_embed(group, xs), h_embed(group, ys))
        assert d == pytest.approx(hamming_distance(xs, ys), rel=0, abs=n * 2**-52)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_pseudometric_triangle(self, data):
        group = data.draw(group_strategy())
        maps = [
            data.draw(st.one_of(step_map_strategy(group=group), piecewise_strategy(group=group)))
            for _ in range(3)
        ]
        f, g, h = maps
        assert disagreement(f, g) == pytest.approx(disagreement(g, f), abs=1e-12)
        assert disagreement(f, h) <= disagreement(f, g) + disagreement(g, h) + 1e-12


class TestMergeBreakpoints:
    # merge_breakpoints, the oracles' walk over the common refinement of two partitions of [0, 1)

    def test_shared_and_distinct_breakpoints(self):
        assert list(merge_breakpoints((0.25, 0.5), (0.5,))) == [
            (0.0, 0.25, 0, 0),
            (0.25, 0.5, 1, 0),
            (0.5, 1.0, 2, 1),
        ]

    def test_no_breakpoints(self):
        assert list(merge_breakpoints((), ())) == [(0.0, 1.0, 0, 0)]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_cells_cover_unit_interval(self, data):
        group = data.draw(group_strategy())
        a = data.draw(st.one_of(step_map_strategy(group=group), piecewise_strategy(group=group)))
        b = data.draw(st.one_of(step_map_strategy(group=group), piecewise_strategy(group=group)))
        cells = list(merge_breakpoints(b.breakpoints, a.breakpoints))
        assert cells[0][0] == 0.0 and cells[-1][1] == 1.0
        assert all(c[1] == d[0] for c, d in zip(cells, cells[1:]))
        for start, stop, ib, ia in cells:
            assert start < stop
            assert value_at(a, start) == a.values[ia] and value_at(b, start) == b.values[ib]


class TestGridApproximate:
    def test_breakpoint_between_grid_points(self):
        f = PiecewiseMap(Z, (0.35,), (A, B))
        g, dis = grid_approximate(f, 4)
        assert g == (A, A, B, B)
        assert dis == pytest.approx(0.15, abs=1e-12)

    def test_breakpoint_on_grid(self):
        f = PiecewiseMap(Z, (0.35,), (A, B))
        g, dis = grid_approximate(f, 20)
        assert dis == 0.0

    @settings(max_examples=64, deadline=None)
    @given(st.data())
    def test_already_on_grid(self, data):
        group = data.draw(group_strategy())
        n = data.draw(st.integers(1, 64))
        values = tuple(data.draw(element_strategy(group)) for _ in range(n))
        assert grid_approximate(h_embed(group, values), n) == (values, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_the_walk(self, data):
        # breakpoints drawn from a pool that holds grid points, so runs start on and off the grid
        group = data.draw(group_strategy())
        n = data.draw(st.integers(1, 64), label="n")
        extra = data.draw(st.lists(st.floats(0.001, 0.999), max_size=5))
        pool = sorted({*(i / n for i in range(1, n)), *extra})
        breaks = sorted(data.draw(st.sets(st.sampled_from(pool), max_size=8))) if pool else []
        # two values, so that equal neighbours merge and a run often differs from its cell's left edge
        elements = st.sampled_from([data.draw(element_strategy(group)) for _ in range(2)])
        f = PiecewiseMap(group, breaks, tuple(data.draw(elements) for _ in range(len(breaks) + 1)))
        g, dis = grid_approximate(f, n)
        want_g, want_dis = walk_grid_approximate(f, n)
        assert g == want_g and dis.hex() == want_dis.hex()

    @settings(max_examples=120, deadline=None)
    @given(piecewise_strategy(), st.integers(1, 64))
    def test_disagreement_bound(self, f, n):
        g, dis = grid_approximate(f, n)
        assert set(g) <= set(f.values)
        assert dis <= len(f.breakpoints) / n + 1e-12


class TestPiecewiseValidation:
    def test_breaks_inside_unit_interval(self):
        with pytest.raises(ValueError):
            PiecewiseMap(Z, (1.2,), (A, B))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            PiecewiseMap(Z, (0.5, 0.5), (A, B, C))

    def test_value_count(self):
        with pytest.raises(ValueError):
            PiecewiseMap(Z, (0.5,), (A, B, C))

    def test_step_map_breakpoints(self):
        f = h_embed(Z, (A, B))
        pm = PiecewiseMap(Z, f.breakpoints, f.values)
        assert pm.breakpoints == (0.5,) and pm.values == (A, B)


class TestCanonicalForm:
    # equal neighbours merge, so == and hash are equality of functions: two maps at
    # disagreement 0 compare and hash equal, whatever partitions they were built on

    def test_merged_grid_and_piecewise_maps_are_one_map(self):
        two, one, halves = h_embed(Z, (A, A)), h_embed(Z, (A,)), PiecewiseMap(Z, (0.5,), (A, A))
        assert two == one == halves
        assert hash(two) == hash(one) == hash(halves)
        assert two.breakpoints == () and two.values == (A,)

    def test_only_breaks_between_equal_values_go(self):
        m = PiecewiseMap(Z, (0.2, 0.4, 0.6, 0.8), (A, A, B, B, A))
        assert m.breakpoints == (0.4, 0.8) and m.values == (A, B, A)

    def test_values_merge_once_canonical(self):
        f2 = FreeGroup2()
        assert PiecewiseMap(f2, (0.5,), ("aA", "")) == h_embed(f2, ("",))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equal_exactly_at_disagreement_zero(self, data):
        group = data.draw(st.sampled_from([Z, CyclicGroup(7), FreeGroup2()]))
        # two values, so neighbours repeat often, and breakpoints from one small pool
        pool = data.draw(st.lists(st.floats(0.01, 0.99), max_size=5, unique=True).map(sorted))
        elements = st.sampled_from([data.draw(element_strategy(group)) for _ in range(2)])

        def draw_map():
            breaks = sorted(data.draw(st.sets(st.sampled_from(pool), max_size=len(pool)))) if pool else []
            return PiecewiseMap(group, breaks, tuple(data.draw(elements) for _ in range(len(breaks) + 1)))

        f = draw_map()
        if data.draw(st.booleans()):
            # the same function on a finer partition, with at most one piece changed
            breaks = sorted({*f.breakpoints, *data.draw(st.sets(st.sampled_from(pool), max_size=len(pool)))}) \
                if pool else []
            values = [value_at(f, t) for t in (0.0, *breaks)]
            if data.draw(st.booleans()):
                values[data.draw(st.integers(0, len(values) - 1))] = data.draw(elements)
            g = PiecewiseMap(group, breaks, tuple(values))
        else:
            g = draw_map()
        zero = disagreement(f, g) == 0.0
        assert (f == g) is zero and (g == f) is zero
        if zero:
            assert hash(f) == hash(g)
            assert f.breakpoints == g.breakpoints and f.values == g.values

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_group_laws_hold_as_equality(self, data):
        group = data.draw(st.sampled_from([Z, CyclicGroup(7), FreeGroup2()]))
        maps = st.one_of(step_map_strategy(group=group), piecewise_strategy(group=group))
        f, g, h = data.draw(maps), data.draw(maps), data.draw(maps)
        inverse = PiecewiseMap(group, g.breakpoints, tuple(group.inv(v) for v in g.values))
        identity = h_embed(group, (group.identity,))
        assert manual_product_map(inverse, g) == identity == manual_product_map(g, inverse)
        assert manual_product_map(identity, g) == g
        assert manual_product_map(manual_product_map(f, g), h) == manual_product_map(f, manual_product_map(g, h))


class TestIntegralMemberValidation:
    # IntegralMember checks its breakpoints as PiecewiseMap does, and takes one kernel per piece

    @pytest.mark.parametrize(
        "breaks,kernels",
        [((0.7, 0.3), 3), ((0.5, 0.5), 3), ((1.2,), 2), ((0.0,), 2), ((float("nan"),), 2), ((0.5,), 1),
         ((0.5,), 3), ((), 0)],
        ids=["decreasing", "repeated", "above-one", "zero", "nan", "too-few-kernels", "too-many-kernels", "none"],
    )
    def test_bad_pieces_are_refused(self, breaks, kernels):
        with pytest.raises(ValueError):
            IntegralMember(breaks, (float,) * kernels)

    def test_kernels_stay_in_their_range(self):
        # with breakpoints (0.7, 0.3), kernels 0, 1, 0 would integrate a constant map to -0.4
        member = IntegralMember((0.3, 0.7), (lambda x: 0.0, lambda x: 1.0, lambda x: 0.0))
        assert evaluate(member, h_embed(Z, (A,))) == pytest.approx(0.4, abs=1e-15)
        assert MeanApprox(point_mass(Z, (A,))).expect(member) == pytest.approx(0.4, abs=1e-15)

    def test_breakpoints_are_stored_as_floats(self):
        member = IntegralMember([Fraction(1, 2)], [float, float])
        assert member.breakpoints == (0.5,) and member.kernel == (float, float)
