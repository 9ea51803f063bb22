import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import element_strategy, group_with_elements
from levylab import (
    CyclicGroup,
    FinSuppMeasure,
    FreeGroup2,
    InvalidElement,
    InvalidMeasure,
    WrongKind,
    ZdGroup,
    ball_uniform,
    folner_measure,
    invariance_defect,
    make_group,
    wordlen_clamp_family,
)

Z = ZdGroup(1)
F2 = FreeGroup2()


# the single member min(wl(x), 5) / 5
CLAMP5 = wordlen_clamp_family(Z, [5])


class TestWordLength:
    def test_z_l1(self):
        assert Z.word_length((5,)) == 5
        assert ZdGroup(2).word_length((1, -2)) == 3

    def test_f2_reduced(self):
        assert F2.word_length("abA") == 3
        assert F2.op("ab", "BA") == ""
        assert F2.word_length(F2.op("a", "A")) == 0

    def test_z6_cyclic(self):
        assert CyclicGroup(6).word_length(4) == 2

    def test_invalid(self):
        with pytest.raises(InvalidElement):
            Z.word_length((1, 2))
        with pytest.raises(InvalidElement):
            F2.validate("xyz")
        with pytest.raises(InvalidElement):
            CyclicGroup(5).validate("3")


@settings(max_examples=150, deadline=None)
@given(group_with_elements())
def test_group_axioms(data):
    group, x, y, z = data
    e = group.identity
    assert group.op(group.op(x, y), z) == group.op(x, group.op(y, z))
    assert group.op(x, e) == x
    assert group.op(e, x) == x
    assert group.op(x, group.inv(x)) == e
    assert group.word_length(e) == 0
    assert group.word_length(x) == group.word_length(group.inv(x))


@settings(max_examples=150, deadline=None)
@given(group_with_elements())
def test_right_invariance(data):
    group, x, y, z = data
    assert group.distance(group.op(x, z), group.op(y, z)) == group.distance(x, y)


class TestBalls:
    def test_f2_ball_sizes(self):
        for k in range(0, 6):
            assert len(F2.ball(k)) == 2 * 3**k - 1

    def test_z_ball(self):
        assert sorted(Z.ball(2)) == [(-2,), (-1,), (0,), (1,), (2,)]

    def test_make_group(self):
        assert make_group("Z") == Z
        assert make_group("Z^3") == ZdGroup(3)
        assert make_group("Zm:12") == CyclicGroup(12)
        assert make_group("F2") == F2
        with pytest.raises(WrongKind):
            make_group("S5")

    def test_element_literals_round_trip(self):
        z2 = ZdGroup(2)
        assert z2.parse("(1,-2)") == (1, -2)
        assert z2.format((1, -2)) == "(1,-2)"
        assert Z.parse("5") == (5,) and Z.format((5,)) == "5"
        assert CyclicGroup(6).parse("10") == 4
        assert F2.parse("e") == "" and F2.format("") == "e"
        assert F2.parse("abA") == "abA"


class TestMeasures:
    def test_point_mass_translation(self):
        mu = FinSuppMeasure.point_mass(Z, (3,))
        assert mu.translate((2,)).support == ((5,),)

    def test_uniform_shift(self):
        mu = FinSuppMeasure.uniform(Z, [(i,) for i in range(4)])
        nu = mu.translate((1,))
        assert nu.support == ((1,), (2,), (3,), (4,))
        assert sum(nu.weights) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_support_rejected(self):
        with pytest.raises(InvalidMeasure):
            FinSuppMeasure(Z, ((1,), (1,)), (0.5, 0.5))

    @settings(max_examples=80, deadline=None)
    @given(group_with_elements(count=1), st.data())
    def test_translation_expectation_identity(self, data, draws):
        # E_{g mu}(f o lambda_{g^-1}) = E_mu(f), the defining push-forward identity
        group, g = data
        elems = draws.draw(
            st.lists(element_strategy(group), min_size=1, max_size=5, unique=True)
        )
        mu = FinSuppMeasure.uniform(group, elems)
        f = lambda x: min(group.word_length(x), 7) / 7.0  # noqa: E731
        ginv = group.inv(g)
        lhs = mu.translate(g).expectation(lambda x: f(group.op(ginv, x)))
        rhs = mu.expectation(f)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestExpectation:
    def test_dirac(self):
        mu = FinSuppMeasure.point_mass(CyclicGroup(3), 1)
        assert mu.expectation(lambda x: [5.0, 7.0, 9.0][x]) == 7.0

    def test_uniform_clamped_wordlength(self):
        mu = FinSuppMeasure.uniform(Z, [(i,) for i in range(4)])
        assert mu.expectation(CLAMP5.members[0]) == pytest.approx(0.3, abs=1e-12)

    def test_cube_symmetry(self):
        mu = FinSuppMeasure.uniform(ZdGroup(2), [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert mu.expectation(lambda x: sum(x) / 2) == 0.5


class TestTranslationDefect:
    def test_uniform_interval(self):
        mu = FinSuppMeasure.uniform(Z, [(i,) for i in range(4)])
        assert invariance_defect(mu, (1,), CLAMP5) == pytest.approx(0.2, abs=1e-12)

    def test_haar_invariance(self):
        group = CyclicGroup(8)
        mu = FinSuppMeasure.haar(group)
        fam = wordlen_clamp_family(group, [3])
        for g in (1, 3, 5):
            assert invariance_defect(mu, g, fam) == pytest.approx(0.0, abs=1e-12)

    def test_dirac_against_generator(self):
        mu = FinSuppMeasure.point_mass(Z, (0,))
        assert invariance_defect(mu, (1,), wordlen_clamp_family(Z, [1])) == 1.0


class TestFolner:
    def test_k2_support(self):
        mu = folner_measure(Z, 2)
        assert len(mu.support) == 5
        assert all(w == pytest.approx(0.2, abs=1e-15) for w in mu.weights)

    def test_k2_defect(self):
        mu = folner_measure(Z, 2)
        assert invariance_defect(mu, (1,), CLAMP5) == pytest.approx(0.04, abs=1e-12)

    def test_defect_bound_and_decay(self):
        defects = {}
        for k in range(1, 11):
            mu = folner_measure(Z, k)
            d = invariance_defect(mu, (1,), CLAMP5)
            assert d <= 2.0 / (2 * k + 1) + 1e-12
            defects[k] = d
        for k in range(1, 6):
            assert defects[2 * k] <= defects[k] + 1e-12

    def test_z2_box(self):
        mu = folner_measure(ZdGroup(2), 1)
        assert len(mu.support) == 9
        fam = wordlen_clamp_family(ZdGroup(2), [4])
        assert invariance_defect(mu, (1, 0), fam) <= 2.0 / 3 + 1e-12

    def test_wrong_kind(self):
        with pytest.raises(WrongKind):
            folner_measure(F2, 2)

    def test_large_box_mass(self):
        # 401^2 equal weights: the plain float sum misses 1 by more than 1e-12
        mu = folner_measure(ZdGroup(2), 200)
        assert len(mu.support) == 401**2
        assert math.fsum(mu.weights) == 1.0


class TestF2Contrast:
    def test_defect_stays_large(self):
        # uniform ball measures on the free group never become almost
        # invariant against the clamped word length
        for k in range(1, 7):
            mu = ball_uniform(F2, k)
            assert len(mu.support) == 2 * 3**k - 1
            fam = wordlen_clamp_family(F2, [k + 1], normalize=False)
            assert invariance_defect(mu, "a", fam) >= 0.2

    def test_k1_value(self):
        mu = ball_uniform(F2, 1)
        fam = wordlen_clamp_family(F2, [2], normalize=False)
        assert invariance_defect(mu, "a", fam) == pytest.approx(0.6, abs=1e-12)

    def test_large_ball_mass(self):
        # 2*3^10 - 1 equal weights: the plain float sum misses 1 by more than 1e-12
        mu = ball_uniform(F2, 10)
        assert len(mu.support) == 2 * 3**10 - 1
        assert math.fsum(mu.weights) == 1.0

    def test_tv_distance_large(self):
        mu = ball_uniform(F2, 3)
        assert mu.tv_distance(mu.translate("a")) >= 0.4
