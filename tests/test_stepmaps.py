import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    UNEVEN_BREAKS,
    alternate_cell_lengths,
    element_strategy,
    group_strategy,
    left_sum,
    manual_product_map,
    piecewise_strategy,
    step_map_strategy,
)
from levylab import (
    CarrierMismatch,
    EmptyTuple,
    PiecewiseMap,
    StepMap,
    ZdGroup,
    disagreement,
    grid_approximate,
    h_embed,
    hamming_distance,
    identity_map,
    in_neighborhood,
    pointwise_translate,
)
from levylab.stepmaps import merge_breakpoints

Z = ZdGroup(1)

A, B, C = (1,), (2,), (3,)


class TestEmbed:
    def test_single_cell(self):
        m = h_embed(Z, (A,))
        assert m.n == 1 and m.values == (A,)

    def test_identity_tuple(self):
        assert h_embed(Z, ((0,), (0,))) == identity_map(Z, 2)

    def test_two_cells(self):
        m = h_embed(Z, (A, B))
        assert m.value_at(0.0) == A
        assert m.value_at(0.49) == A
        assert m.value_at(0.5) == B
        assert m.value_at(0.99) == B

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
        lhs = pointwise_translate(h_embed(group, xs), h_embed(group, ys))
        rhs = h_embed(group, tuple(group.op(a, b) for a, b in zip(xs, ys)))
        assert lhs == rhs


class TestPointwiseTranslate:
    def test_inverse_gives_identity(self):
        f = h_embed(Z, (A, B, C))
        inverse = h_embed(Z, tuple(Z.inv(v) for v in f.values))
        assert pointwise_translate(f, inverse) == identity_map(Z, 3)

    def test_merged_breakpoints(self):
        f = h_embed(Z, (A, B))
        g = h_embed(Z, (A, B, C))
        m = pointwise_translate(f, g)
        assert isinstance(m, PiecewiseMap)
        assert m.breakpoints == (1 / 3, 1 / 2, 2 / 3)
        assert m.values == ((2,), (3,), (4,), (5,))

    def test_identity_neutral(self):
        f = h_embed(Z, (A, B))
        assert pointwise_translate(identity_map(Z), f) == f

    def test_coprime_grids(self):
        f = StepMap(Z, (A,) * 1021)
        g = StepMap(Z, (B,) * 1031)
        m = pointwise_translate(f, g)
        assert len(m.values) == 1021 + 1031 - 1
        assert set(m.values) == {C}

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            pointwise_translate(h_embed(Z, (A,)), h_embed(ZdGroup(2), ((1, 1),)))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_manual_product(self, data):
        group = data.draw(group_strategy())
        g = data.draw(st.one_of(step_map_strategy(group=group), piecewise_strategy(group=group)))
        h = data.draw(st.one_of(step_map_strategy(group=group), piecewise_strategy(group=group)))
        m = pointwise_translate(g, h)
        oracle = manual_product_map(g, h)
        assert m.breakpoints == oracle.breakpoints and m.values == oracle.values


class TestDisagreement:
    def test_self(self):
        f = h_embed(Z, (A, B))
        assert disagreement(f, f) == 0.0

    def test_one_cell_of_two(self):
        assert disagreement(h_embed(Z, (A, B)), h_embed(Z, (A, C))) == 0.5

    def test_refinement(self):
        assert disagreement(h_embed(Z, (A,)), h_embed(Z, (A, B))) == 0.5

    def test_coprime_grids(self):
        f = StepMap(Z, (A,) * 1020 + (B,))
        g = StepMap(Z, (A,) * 1031)
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
        assert disagreement(h_embed(group, xs), h_embed(group, ys)) == hamming_distance(xs, ys)

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
    def test_shared_and_distinct_breakpoints(self):
        assert list(merge_breakpoints((0.5,), (0.25, 0.5))) == [
            (0.0, 0.25, 0, 0),
            (0.25, 0.5, 0, 1),
            (0.5, 1.0, 1, 2),
        ]

    def test_no_breakpoints(self):
        assert list(merge_breakpoints((), ())) == [(0.0, 1.0, 0, 0)]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_cells_cover_unit_interval(self, data):
        group = data.draw(group_strategy())
        a = data.draw(st.one_of(step_map_strategy(group=group), piecewise_strategy(group=group)))
        b = data.draw(st.one_of(step_map_strategy(group=group), piecewise_strategy(group=group)))
        cells = list(merge_breakpoints(a.breakpoints, b.breakpoints))
        assert cells[0][0] == 0.0 and cells[-1][1] == 1.0
        assert all(c[1] == d[0] for c, d in zip(cells, cells[1:]))
        for start, stop, ia, ib in cells:
            assert start < stop
            assert a.value_at(start) == a.values[ia] and b.value_at(start) == b.values[ib]


class TestNeighborhood:
    def test_identity_always_inside(self):
        assert in_neighborhood(identity_map(Z, 3), 1, 0.01)

    def test_strictness(self):
        m = h_embed(Z, ((0,), (5,)))
        assert in_neighborhood(m, 1, 0.6)
        assert not in_neighborhood(m, 1, 0.5)

    def test_radius_controls_membership(self):
        m = h_embed(Z, ((0,), (5,)))
        assert in_neighborhood(m, 6, 0.01)

    def test_lengths_added_left_to_right(self):
        lengths = alternate_cell_lengths(UNEVEN_BREAKS)
        offending = left_sum(lengths)
        assert math.fsum(lengths) < offending
        f = PiecewiseMap(Z, UNEVEN_BREAKS, ((5,), (0,)) * 3 + ((5,),))
        assert not in_neighborhood(f, 1, offending)
        assert in_neighborhood(f, 1, math.nextafter(offending, 1.0))


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
    @given(step_map_strategy(max_n=64))
    def test_already_on_grid(self, f):
        assert grid_approximate(f, f.n) == (f.values, 0.0)

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
