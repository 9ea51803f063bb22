import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import element_strategy, group_strategy, group_with_elements, left_sum, loop_invariance_defect
from levylab import (
    ClampedLength,
    CyclicGroup,
    FinSuppMeasure,
    FreeGroup2,
    InvalidElement,
    InvalidMeasure,
    WrongKind,
    ZdGroup,
    ball_uniform,
    disagreement_family,
    folner_measure,
    invariance_defect,
    make_group,
    pullback_family,
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

    def test_f2_random_words_are_pinned(self):
        # reduced words from fixed seeds; a change here changes every seeded F2 run
        expected = {
            (0, 1): ["b", "A", "", ""],
            (1, 4): ["bb", "aaBB", "A", "AABa"],
            (7, 7): ["bbbABBa", "", "AB", "abbaBab"],
        }
        for (seed, radius), words in expected.items():
            gen = np.random.default_rng(seed)
            assert [F2.random_element(gen, radius) for _ in range(4)] == words


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

    def test_empty_uniform_rejected(self):
        with pytest.raises(InvalidMeasure):
            FinSuppMeasure.uniform(Z, [])

    def test_tv_distance_adds_left_to_right(self):
        # twenty terms of 0.1 add to 2.0000000000000004 left to right, to 2.0 correctly rounded
        mu = FinSuppMeasure.uniform(Z, [(i,) for i in range(10)])
        nu = FinSuppMeasure.uniform(Z, [(i,) for i in range(10, 20)])
        terms = [0.1] * 20
        assert left_sum(terms) != math.fsum(terms)
        assert mu.tv_distance(nu) == 0.5 * left_sum(terms)

    def test_tv_distance_adds_in_support_order(self):
        # unequal terms over words: a set's order of them changes with PYTHONHASHSEED
        words = F2.ball(3)
        raw = [1.0 / (i + 3) for i in range(len(words))]
        mu = FinSuppMeasure(F2, words, [r / math.fsum(raw) for r in raw])
        nu = mu.translate("a")
        mine, theirs = dict(zip(mu.support, mu.weights)), dict(zip(nu.support, nu.weights))
        keys = dict.fromkeys(mu.support + nu.support)
        assert mu.tv_distance(nu) == 0.5 * left_sum(abs(mine.get(k, 0.0) - theirs.get(k, 0.0)) for k in keys)

    def test_nan_weight_rejected(self):
        with pytest.raises(InvalidMeasure):
            FinSuppMeasure(Z, ((0,), (1,)), (float("nan"), 1.0))

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


def raw_entry_strategy(group):
    """Inputs of the group's own kind that validate rewrites or rejects."""
    if isinstance(group, ZdGroup):
        coord = st.one_of(st.integers(-5, 5), st.sampled_from([np.int64(-1), 2.0, 2.5, True, "3"]))
        return st.one_of(
            st.tuples(*[coord] * group.d),
            st.lists(st.integers(-5, 5), min_size=group.d, max_size=group.d),
            st.tuples(*[st.integers(-5, 5)] * (group.d + 1)),
        )
    if isinstance(group, CyclicGroup):
        return st.one_of(st.integers(-30, 30), st.sampled_from([np.int64(1), 1.0, True, False]))
    return st.text("aAbB|x", max_size=6)


JUNK = st.sampled_from([1.0, True, None, "1", [1], np.int64(2), "a|A", "ab|", ()])


def typed(x):
    """x with the type of every entry, so np.int64(2) and 2, or (1,) and [1], differ."""
    if isinstance(x, (tuple, list)):
        return type(x), tuple(map(typed, x))
    return type(x), x


def outcome(fn, *args):
    try:
        return "ok", typed(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is the result compared
        return "raises", type(exc)


def checked_outcome(group, entries):
    """What the checked constructor makes of entries under equal weights: the support, or the error type."""
    weights = [1.0 / max(len(entries), 1)] * len(entries)
    return outcome(lambda xs: FinSuppMeasure(group, xs, weights).support, entries)


def validate_outcome(group, entries):
    """The same from per-element validate: the canonical forms, refused when empty or repeated."""
    per_element = outcome(lambda xs: tuple(map(group.validate, xs)), entries)
    if per_element[0] == "ok" and not 0 < len(entries) == len(set(map(group.validate, entries))):
        return "raises", InvalidMeasure
    return per_element


class TestBulkKernels:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_checked_constructor_matches_validate(self, data):
        group = data.draw(group_strategy())
        canonical = element_strategy(group)
        kind = data.draw(st.sampled_from(["canonical", "own kind", "any"]))
        entry = {
            "canonical": canonical,
            "own kind": st.one_of(canonical, raw_entry_strategy(group)),
            "any": st.one_of(canonical, raw_entry_strategy(group), JUNK),
        }[kind]
        entries = data.draw(st.lists(entry, max_size=8))
        expected = validate_outcome(group, entries)
        assert checked_outcome(group, entries) == expected
        if kind == "canonical" and 0 < len(set(entries)) == len(entries):
            assert expected[0] == "ok"

    @pytest.mark.parametrize(
        "group, entries",
        [
            (ZdGroup(2), [(1, 2), (1, True)]),
            (ZdGroup(2), [(0, 0), (np.int64(1), 2)]),
            (ZdGroup(2), [(1.0, 2)]),
            (ZdGroup(2), [[1, 2]]),
            (ZdGroup(2), [(1, 2, 3)]),
            (ZdGroup(1), [(1,), 1]),
            (CyclicGroup(5), [0, 4, np.int64(3)]),
            (CyclicGroup(5), [1, True]),
            (CyclicGroup(5), [1, 5]),
            (CyclicGroup(5), [-1, 2]),
            (CyclicGroup(5), [2.0]),
            (F2, ["ab", "aA"]),
            (F2, ["", "Bb"]),
            (F2, ["abAB", "ba", "bB"]),
            (F2, ["a|A"]),
            (F2, ["a", "x"]),
            (F2, ["a", 1]),
        ],
    )
    def test_non_canonical_input_takes_validate(self, group, entries):
        # the checked constructor canonicalizes each entry, or raises, as validate does
        assert checked_outcome(group, entries) == validate_outcome(group, entries)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_translate_all_and_word_lengths_match_per_element(self, data):
        group = data.draw(group_strategy())
        if isinstance(group, FreeGroup2):
            letters = st.lists(st.sampled_from("aAbB"), max_size=4)
            g = group.validate("".join(data.draw(letters)))
        else:
            g = data.draw(element_strategy(group))
        elements = tuple(data.draw(st.lists(element_strategy(group), max_size=10)))
        assert typed(group.translate_all(g, elements)) == typed(tuple(group.op(g, x) for x in elements))
        lengths = group.word_lengths(elements)
        assert lengths.tolist() == [group.word_length(x) for x in elements]
        for cap in (1, 3):
            for scale in (1, cap):
                member = ClampedLength(group, cap, scale)
                assert member.values(elements).tolist() == [member(x) for x in elements]

    def test_f2_shifts_of_length_zero_to_four(self):
        ball = F2.ball(5)
        for g in F2.ball(4):
            assert F2.translate_all(g, ball) == tuple(F2.op(g, x) for x in ball)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_invariance_defect_matches_loop_oracle(self, data):
        group = data.draw(group_strategy())
        elements = data.draw(st.lists(element_strategy(group), min_size=1, max_size=12, unique=True))
        raw = data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(elements), max_size=len(elements)))
        mu = FinSuppMeasure(group, elements, [w / math.fsum(raw) for w in raw])
        g = data.draw(element_strategy(group))
        caps = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
        for normalize in (True, False):
            family = wordlen_clamp_family(group, caps, normalize=normalize)
            assert invariance_defect(mu, g, family) == loop_invariance_defect(mu, g, family)

    def test_sweeps_match_loop_oracle(self):
        # supports of hundreds of atoms, where a pairwise sum would round differently
        for k in (3, 6):
            mu = ball_uniform(F2, k)
            for g in ("a", "Ab", "bbaB"):
                family = wordlen_clamp_family(F2, [k + 1, 2], normalize=False)
                assert invariance_defect(mu, g, family) == loop_invariance_defect(mu, g, family)
        mu = folner_measure(ZdGroup(2), 12)
        family = wordlen_clamp_family(ZdGroup(2), [5, 30])
        for g in ((1, 0), (-2, 3)):
            assert invariance_defect(mu, g, family) == loop_invariance_defect(mu, g, family)

    @pytest.mark.parametrize(
        "group, g",
        [
            (ZdGroup(2), (2**62, 2**62)),
            (ZdGroup(2), (-(2**62), 3)),
            (Z, (2**63,)),
            (Z, (-(2**63),)),
            (Z, (2**70,)),
        ],
    )
    def test_large_shifts_stay_exact(self, group, g):
        # translated coordinates that leave int64, or whose l1 sums would
        mu = folner_measure(group, 4)
        for normalize in (True, False):
            family = wordlen_clamp_family(group, [3, 2**60], normalize=normalize)
            assert invariance_defect(mu, g, family) == loop_invariance_defect(mu, g, family)
        moved = mu.translate(g).support
        assert group.word_lengths(moved).tolist() == [group.word_length(x) for x in moved]

    def test_caps_beyond_float_precision_match_per_element(self):
        # 3531295936391233072 / 66 rounds differently once the length is a float64
        for elements in (((3531295936391233072,), (-3,)), ((2**60 + 1,), (2**70,))):
            for cap, scale in ((2**80, 1), (2**62, 66), (2**80, 2**80), (5, 2**60 + 1)):
                member = ClampedLength(Z, cap, scale)
                assert member.values(elements).tolist() == [member(x) for x in elements]
        cyclic = CyclicGroup(2**70)
        assert cyclic.word_lengths((2**69, 3)).tolist() == [2**69, 3]

    def test_member_on_another_group_takes_per_element_calls(self):
        # 6 is not a residue mod 5: the member reduces it, as its call does
        member = ClampedLength(CyclicGroup(5), 5, 5)
        mu = FinSuppMeasure.haar(CyclicGroup(7))
        assert mu.expectation(member) == left_sum(w * member(x) for x, w in zip(mu.support, mu.weights))
        assert member(6) == 0.2
        # a Z member on a Z^2 support refuses each element, as its call does
        with pytest.raises(InvalidElement):
            folner_measure(ZdGroup(2), 1).expectation(ClampedLength(Z, 5, 5))
        with pytest.raises(InvalidElement):
            folner_measure(Z, 1).expectation(ClampedLength(F2, 5, 5))

    def test_pullback_members_match_loop_oracle(self):
        # opaque callables are called once per element, in the same order
        pulled = pullback_family(disagreement_family(Z, 3, 11), 3, 2, ((1,), (-2,)))
        for k in (1, 4):
            mu = folner_measure(Z, k)
            for g in ((1,), (-3,)):
                assert invariance_defect(mu, g, pulled) == loop_invariance_defect(mu, g, pulled)


Z7 = CyclicGroup(7)


def library_built_measures():
    """(group, measure, checked) for boxes, balls of radius 0-6 and Haar, each with its
    checked public construction from the same support and weights."""
    for group in (Z, ZdGroup(2), Z7, F2):
        for k in range(7):
            yield group, ball_uniform(group, k), FinSuppMeasure.uniform(group, group.ball(k))
    for group, ks in ((Z, range(1, 7)), (ZdGroup(2), range(1, 5))):
        for k in ks:
            box = itertools.product(range(-k, k + 1), repeat=group.d)
            yield group, folner_measure(group, k), FinSuppMeasure.uniform(group, box)
    yield Z7, FinSuppMeasure.haar(Z7), FinSuppMeasure.uniform(Z7, range(7))


class TestLibraryBuiltMeasures:
    # the builders skip the checks; each must give what the checked constructor gives

    def assert_same(self, built, checked):
        assert built == checked
        assert typed(built.support) == typed(checked.support)
        assert typed(built.weights) == typed(checked.weights)

    def test_builders_match_checked_constructor(self):
        for _, built, checked in library_built_measures():
            self.assert_same(built, checked)

    def test_translates_match_checked_constructor(self):
        f2_words = [w for w in F2.ball(4) if len(w) >= 2]
        for group, mu, _ in library_built_measures():
            shifts = group.generators() + (tuple(f2_words) if group == F2 else ())
            for g in shifts:
                checked = FinSuppMeasure(group, [group.op(g, x) for x in mu.support], mu.weights)
                self.assert_same(mu.translate(g), checked)
