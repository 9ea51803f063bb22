import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNEVEN_BREAKS, alternate_cell_lengths, element_strategy, group_strategy, left_sum
from conftest import compose_with_translation, disagreement, pullback_family, pullback_member, splice, spot_check_lipschitz
from levylab import (
    BLFamily,
    CarrierMismatch,
    CyclicGroup,
    DimensionMismatch,
    FinSuppMeasure,
    FreeGroup2,
    GroupCarrier,
    L0Carrier,
    LipschitzViolation,
    PiecewiseMap,
    ZdGroup,
    cell_window_family,
    disagreement_family,
    disagreement_member,
    h_embed,
    invariance_defect,
    wordlen_clamp_family,
)

Z = ZdGroup(1)
F2 = FreeGroup2()
E = (0,)


def z_elems(*ints):
    return tuple((i,) for i in ints)


class TestEvalMember:
    def test_constant(self):
        fam = BLFamily(GroupCarrier(Z), (lambda x: 0.25,), bound=1.0, lipschitz=0.0)
        assert fam.members[0]((7,)) == 0.25

    def test_wordlen_clamp(self):
        fam = wordlen_clamp_family(Z, [5])
        assert fam.members[0]((3,)) == pytest.approx(0.6, abs=1e-12)

    def test_disagreement_of_identity_map(self):
        member = disagreement_member(h_embed(Z, (Z.identity,) * 4))
        fam = BLFamily(L0Carrier(Z), (member,), bound=1.0, lipschitz=1.0)
        assert fam.members[0](h_embed(Z, (Z.identity,) * 2)) == 0.0
        # a reference of 4 cells against the same function on 2: one kernel piece per value
        member = disagreement_member(h_embed(Z, (E, E, (2,), (2,))))
        assert len(member.kernel) == 2 and member(h_embed(Z, (E, (2,)))) == 0.0


class TestPullback:
    def test_identity_padding(self):
        F = disagreement_member(h_embed(Z, (Z.identity,)))
        member = pullback_member(F, Z, 4, 2, (E, E, E))
        assert member(E) == 0.0
        assert member((3,)) == 0.25

    def test_nonidentity_padding(self):
        F = disagreement_member(h_embed(Z, (Z.identity,)))
        member = pullback_member(F, Z, 4, 2, ((5,), E, E))
        assert member(E) == 0.25
        assert member((3,)) == 0.5

    def test_constant_pullback(self):
        member = pullback_member(lambda h: 0.75, Z, 3, 1, (E, E))
        assert member((9,)) == 0.75

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pullback_member(lambda h: 0.0, Z, 3, 4, (E, E))
        with pytest.raises(DimensionMismatch):
            pullback_member(lambda h: 0.0, Z, 3, 1, (E,))

    def test_family_inherits_bound_and_shrinks_lipschitz(self):
        fam = disagreement_family(Z, 4, seed=7)
        pulled = pullback_family(fam, 5, 3, z_elems(1, -1, 2, 0))
        assert pulled.bound == fam.bound
        assert pulled.lipschitz == pytest.approx(fam.lipschitz / 5)
        spot_check_lipschitz(pulled, seed=1, pairs=50)
        assert all(abs(m((2,))) <= pulled.bound for m in pulled.members)  # within the inherited bound


class TestComposeWithTranslation:
    def test_identity_translation(self):
        f = lambda x: min(Z.word_length(x), 3) / 3  # noqa: E731
        g = compose_with_translation(f, E, Z)
        for x in z_elems(-2, 0, 5):
            assert g(x) == f(x)

    def test_abelian_isometry(self):
        fam = wordlen_clamp_family(Z, [4])
        shifted = compose_with_translation(fam.members[0], (2,), Z)
        translated = BLFamily(GroupCarrier(Z), (shifted,), fam.bound, fam.lipschitz)
        spot_check_lipschitz(translated, seed=3, pairs=60)

    def test_free_group_evaluation(self):
        f = lambda x: min(F2.word_length(x), 1)  # noqa: E731
        g = compose_with_translation(f, "a", F2)
        assert g("A") == 0
        assert g("b") == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_splice_translation_identities(data):
    # the two commutation identities behind the telescoping construction:
    #   lambda_{a_j}     o c_{j,z} = c_{j, b_j z} o lambda_{g'_j}
    #   lambda_{a_{j-1}} o c_{j,z} = c_{j, b_j z}
    group = data.draw(group_strategy())
    n = data.draw(st.integers(1, 5))
    j = data.draw(st.integers(1, n))
    gp = tuple(data.draw(element_strategy(group)) for _ in range(n))
    z = tuple(data.draw(element_strategy(group)) for _ in range(n - 1))
    x = data.draw(element_strategy(group))
    e = group.identity

    a_j = gp[:j] + (e,) * (n - j)
    a_prev = gp[: j - 1] + (e,) * (n - j + 1)
    b_j = gp[: j - 1] + (e,) * (n - j)
    bz = tuple(group.op(b, zz) for b, zz in zip(b_j, z))

    lhs = tuple(group.op(a, c) for a, c in zip(a_j, splice(j, z, x)))
    rhs = splice(j, bz, group.op(gp[j - 1], x))
    assert lhs == rhs

    lhs2 = tuple(group.op(a, c) for a, c in zip(a_prev, splice(j, z, x)))
    assert lhs2 == splice(j, bz, x)


class TestBuilders:
    def test_disagreement_family_is_bl(self):
        fam = disagreement_family(Z, 8, seed=21)
        assert isinstance(fam.carrier, L0Carrier)
        assert fam.bound == 1.0 and fam.lipschitz == 1.0
        spot_check_lipschitz(fam, seed=2, pairs=40)

    def test_disagreement_family_deterministic(self):
        fam1 = disagreement_family(Z, 3, seed=5)
        fam2 = disagreement_family(Z, 3, seed=5)
        h = h_embed(Z, z_elems(1, 0, -2))
        assert [m(h) for m in fam1.members] == [m(h) for m in fam2.members]

    def test_disagreement_member_matches_disagreement(self):
        refs = (
            h_embed(Z, z_elems(0, 2, 1)),
            PiecewiseMap(Z, (0.2, 0.5), z_elems(3, 1, 4)),
            PiecewiseMap(Z, (1 / 3, 0.7), z_elems(0, 1, 2)),
        )
        for ref in refs:
            member = disagreement_member(ref)
            for n in (1, 2, 3, 5, 8):
                h = h_embed(Z, z_elems(*range(n)))
                assert member(h) == pytest.approx(disagreement(ref, h), abs=1e-12)

    def test_integral_adds_pieces_left_to_right(self):
        lengths = alternate_cell_lengths(UNEVEN_BREAKS)
        assert left_sum(lengths) != math.fsum(lengths)
        member = disagreement_member(PiecewiseMap(Z, UNEVEN_BREAKS, z_elems(1, 0, 1, 0, 1, 0, 1)))
        assert member(h_embed(Z, (Z.identity,))) == left_sum(lengths)

    def test_cell_window_family(self):
        fam = cell_window_family(Z, 6, seed=3, width=0.25)
        assert fam.lipschitz == 4.0
        spot_check_lipschitz(fam, seed=4, pairs=40)

    @pytest.mark.parametrize("build, message", [
        (partial(disagreement_family, max_pieces=0), "max_pieces must be >= 1"),
        (partial(disagreement_family, radius=-1), "radius must be >= 0"),
        (partial(cell_window_family, radius=-1), "radius must be >= 0"),
    ])
    def test_bad_parameters_are_named_before_drawing(self, build, message):
        # drawing with them raises numpy's "low >= high"
        for group in (Z, CyclicGroup(5), F2):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(group, 2, 0)

    def test_wordlen_clamp_unnormalized(self):
        fam = wordlen_clamp_family(Z, [3], normalize=False)
        assert fam.bound == 3.0 and fam.lipschitz == 1.0
        assert fam.members[0]((2,)) == 2.0

    def test_lipschitz_violation_detected(self):
        bad = BLFamily(
            GroupCarrier(Z), (lambda x: min(Z.word_length(x), 8) / 2,), bound=4.0, lipschitz=0.1
        )
        with pytest.raises(LipschitzViolation):
            spot_check_lipschitz(bad, seed=0, pairs=80, radius=6)


class TestInvarianceDefect:
    def test_interval_example(self):
        mu = FinSuppMeasure.uniform(Z, z_elems(0, 1, 2, 3))
        fam = wordlen_clamp_family(Z, [5])
        assert invariance_defect(mu, (1,), fam) == pytest.approx(0.2, abs=1e-12)

    def test_carrier_mismatch(self):
        mu = FinSuppMeasure.uniform(Z, z_elems(0, 1))
        fam = wordlen_clamp_family(ZdGroup(2), [5])
        with pytest.raises(CarrierMismatch):
            invariance_defect(mu, (1,), fam)

    def test_l0_family_rejected(self):
        mu = FinSuppMeasure.uniform(Z, z_elems(0, 1))
        fam = disagreement_family(Z, 2, seed=1)
        with pytest.raises(CarrierMismatch):
            invariance_defect(mu, (1,), fam)

    def test_zero_iff_translate_matches(self):
        mu = FinSuppMeasure.uniform(Z, z_elems(0, 1, 2))
        fam = BLFamily(GroupCarrier(Z), (lambda x: float(np.cos(x[0])),), 1.0, 1.0)
        assert invariance_defect(mu, (0,), fam) == 0.0
        assert invariance_defect(mu, (1,), fam) > 0.0
