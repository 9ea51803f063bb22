import itertools
import math
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import element_strategy, group_strategy, group_with_elements, left_sum, loop_invariance_defect
from conftest import per_element_column, pullback_family, set_escape_count, tuple_translate_all, word_distance
from conftest import dict_tv_distance
from conftest import bfs_ball, f2_ball_words, f2_translate_words, run_capped
from levylab import limits
from levylab.wordgroups import Mismatch
from levylab import (
    ClampedLength,
    CyclicGroup,
    FinSuppMeasure,
    FreeGroup2,
    InvalidElement,
    InvalidMeasure,
    Schedule,
    SpaceTooLarge,
    WordGroup,
    WrongKind,
    ZdGroup,
    ball_uniform,
    disagreement_family,
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
    assert word_distance(group, group.op(x, z), group.op(y, z)) == word_distance(group, x, y)


class TestBalls:
    def test_f2_ball_sizes(self):
        for k in range(0, 6):
            assert len(f2_ball_words(k)) == len(ball_uniform(F2, k).weights) == 2 * 3**k - 1

    def test_z_ball(self):
        assert sorted(bfs_ball(Z, 2)) == [(-2,), (-1,), (0,), (1,), (2,)]
        assert ball_uniform(Z, 2).support == ((0,), (1,), (-1,), (2,), (-2,))

    def test_make_group(self):
        assert make_group("Z") == Z
        assert make_group("Z^3") == ZdGroup(3)
        assert make_group("Zm:12") == CyclicGroup(12)
        assert make_group("F2") == F2
        with pytest.raises(WrongKind):
            make_group("S5")

    def test_group_kinds_are_a_closed_set(self):
        # WordGroup is the union of the three kinds, with no base class for a fourth to derive from
        assert typing.get_args(WordGroup) == (ZdGroup, CyclicGroup, FreeGroup2)
        for spec in ("Z", "Z^3", "Zm:7", "F2"):
            assert isinstance(make_group(spec), WordGroup)
        assert all(kind.__bases__ == (object,) for kind in typing.get_args(WordGroup))
        assert not isinstance(object(), WordGroup)

    def test_element_literals_round_trip(self):
        z2 = ZdGroup(2)
        assert z2.parse("(1,-2)") == (1, -2)
        assert Z.parse("5") == (5,)
        assert CyclicGroup(6).parse("10") == 4
        assert F2.parse("e") == ""
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
        mu = FinSuppMeasure(Z, ((3,),), (1.0,))
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
        words = f2_ball_words(3)
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
        mu = FinSuppMeasure(CyclicGroup(3), (1,), (1.0,))
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
        mu = FinSuppMeasure(Z, ((0,),), (1.0,))
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

    def test_support_limit(self, monkeypatch):
        monkeypatch.setattr(limits, "SUPPORT_LIMIT", 25)
        assert len(folner_measure(ZdGroup(2), 2).support) == 25
        with pytest.raises(SpaceTooLarge, match=r"\[-3, 3\]\^2"):
            folner_measure(ZdGroup(2), 3)
        with pytest.raises(SpaceTooLarge):
            folner_measure(Z, 13)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 40), st.integers(-2, 2), st.integers(-3, 10**6))
    def test_powers_are_compared_with_caps_without_being_formed(self, k, n, delta, cap):
        # a cap of k^n + delta puts the comparison on its edge
        for c in (k**n + delta, cap):
            text = limits.power_over(k, n, c)
            assert bool(text) == (k**n > c)
            assert text in ("", str(k**n), f"{k}^{n}")


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

    def test_ball_limit(self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(limits, "SUPPORT_LIMIT", 53)
            assert len(ball_uniform(F2, 3).support) == 53
            m.setattr(limits, "SUPPORT_LIMIT", 52)
            with pytest.raises(SpaceTooLarge):
                ball_uniform(F2, 3)
        # 2*3^10 - 1 = 118,097 words pass the default limit; radius 10**9 is refused at once
        with pytest.raises(SpaceTooLarge, match="radius 1000000000"):
            ball_uniform(F2, 10**9)

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
        packed = group.pack(elements)
        assert typed(group.unpack(packed)) == typed(elements)
        moved = group.unpack(group.translate_each((g,), packed)[0])
        assert typed(moved) == typed(tuple(group.op(g, x) for x in elements))
        lengths = group.word_lengths(packed)
        assert lengths.tolist() == [group.word_length(x) for x in elements]
        for cap in (1, 3):
            for scale in (1, cap):
                member = ClampedLength(group, cap, scale)
                assert member.values(packed).tolist() == [member(x) for x in elements]

    def test_f2_shifts_of_length_zero_to_four(self):
        ball = f2_ball_words(5)
        codes = F2.pack(ball)
        for g in f2_ball_words(4):
            want = tuple(F2.op(g, x) for x in ball)
            assert F2.unpack(F2.translate_each((g,), codes)[0]) == want
            assert f2_translate_words(g, ball) == want

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
        moved = mu.translate(g)
        assert group.word_lengths(moved.elements).tolist() == [group.word_length(x) for x in moved.support]

    def test_caps_beyond_float_precision_match_per_element(self):
        # 3531295936391233072 / 66 rounds differently once the length is a float64
        for elements in (((3531295936391233072,), (-3,)), ((2**60 + 1,), (2**70,))):
            for cap, scale in ((2**80, 1), (2**62, 66), (2**80, 2**80), (5, 2**60 + 1)):
                member = ClampedLength(Z, cap, scale)
                assert member.values(Z.pack(elements)).tolist() == [member(x) for x in elements]
        cyclic = CyclicGroup(2**70)
        assert cyclic.word_lengths(cyclic.pack((2**69, 3))).tolist() == [2**69, 3]

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


# coordinates at and past the ends of int64, and small ones that collide
EDGE = (2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**62, 2**64, -(2**70))
coordinates = st.one_of(st.integers(-3, 3), st.sampled_from(EDGE), st.integers(-(2**65), 2**65))
# moduli below, at and past int64, where x + g may leave it
MODULI = (2, 7, 12, 2**62 + 1, 2**63, 2**63 + 1, 2**64 + 3, 2**70)


def int_array_group():
    return st.one_of(st.sampled_from([Z, ZdGroup(2), ZdGroup(3)]), st.sampled_from(MODULI).map(CyclicGroup))


def int_element(group):
    if isinstance(group, ZdGroup):
        return st.tuples(*[coordinates] * group.d)
    residue = st.one_of(st.integers(0, min(group.m - 1, 5)), st.integers(0, group.m - 1))
    return st.one_of(residue, st.sampled_from([group.m - 1, group.m // 2]))


def fits_int64(elements) -> bool:
    flat = [c for x in elements for c in (x if isinstance(x, tuple) else (x,))]
    return all(-(2**63) <= c < 2**63 for c in flat)


class TestIntArraySupports:
    # Z^d and Z_m hold supports as int64 arrays, or as Python ints past int64; every bulk
    # kernel must equal the tuple oracles of tests/conftest.py exactly

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_array_path_equals_the_tuple_oracles(self, data):
        group = data.draw(int_array_group(), label="group")
        elements = tuple(data.draw(st.lists(int_element(group), min_size=1, max_size=8, unique=True)))
        g = data.draw(int_element(group), label="g")
        packed = group.pack(elements)
        assert packed.dtype == (np.int64 if fits_int64(elements) else object)
        assert typed(group.unpack(packed)) == typed(elements)
        want = tuple_translate_all(group, g, elements)
        moved = group.translate_each((g,), packed)[0]
        assert moved.dtype == (np.int64 if fits_int64(want) else object)
        assert typed(group.unpack(moved)) == typed(want)
        assert group.word_lengths(moved).tolist() == [group.word_length(x) for x in want]
        kernels = [Mismatch(group, g), Mismatch(group, elements[0], 0.0), ClampedLength(group, 3, 3)]
        for kernel in kernels:
            assert kernel.values(moved).tolist() == per_element_column(kernel, want).tolist()
        mu = FinSuppMeasure.uniform(group, elements)
        assert mu.escape_count(g) == set_escape_count(mu, g)
        for kernel in kernels:
            assert mu.column(kernel).tolist() == per_element_column(kernel, mu.support).tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bulk_translates_and_columns_equal_one_at_a_time(self, data):
        # translate_each adds every shift in one broadcast add with one int64 bound check, and
        # Mismatch.columns compares a support with every kernel's value at once; each row must
        # equal a translate by its g alone and values, with an int64 support and values past int64 mixed
        group = data.draw(int_array_group(), label="group")
        elements = tuple(data.draw(st.lists(int_element(group), min_size=1, max_size=8, unique=True)))
        gs = data.draw(st.lists(int_element(group), min_size=1, max_size=4), label="gs")
        packed = group.pack(elements)
        rows = group.translate_each(gs, packed)
        assert len(rows) == len(gs)
        for g, row in zip(gs, rows):
            assert typed(group.unpack(row)) == typed(group.unpack(group.translate_each((g,), packed)[0]))
        weight = st.sampled_from([1.0, 0.0, -0.0, 0.5, 3.0])
        kernels = [Mismatch(group, data.draw(int_element(group)), data.draw(weight))
                   for _ in range(data.draw(st.integers(1, 5)))]
        for row in (packed, *rows):
            columns = Mismatch.columns(kernels, row[None])  # one support for every kernel
            assert columns.shape == (len(kernels), len(elements))
            assert [c.view(np.int64).tolist() for c in columns] == [
                k.values(row).view(np.int64).tolist() for k in kernels
            ]
            assert columns.tolist() == [per_element_column(k, group.unpack(row)).tolist() for k in kernels]
        # one support per kernel, as expectations passes them: each kernel against its own translate
        own = [data.draw(st.integers(0, len(rows) - 1)) for _ in kernels]
        supports = np.asarray(rows)[own]
        assert Mismatch.columns(kernels, supports).tolist() == [
            per_element_column(k, group.unpack(rows[i])).tolist() for k, i in zip(kernels, own)
        ]

    def test_f2_translate_each_takes_each_shift(self):
        codes = F2.pack(f2_ball_words(3) + ["ab" * 20])
        gs = ["", "a", "Ab", "aB" * 17]
        rows = F2.translate_each(gs, codes)
        assert [F2.unpack(r) for r in rows] == [f2_translate_words(g, F2.unpack(codes)) for g in gs]
        kernels = [Mismatch(F2, w) for w in ("", "ab" * 20, "a" + "ab" * 20, "b")]
        assert Mismatch.columns(kernels, rows[3][None]).tolist() == [
            per_element_column(k, F2.unpack(rows[3])).tolist() for k in kernels
        ]
        # codes of int64 and past it, stacked as Python ints, one support per kernel
        assert Mismatch.columns(kernels, np.asarray(rows)).tolist() == [
            per_element_column(k, F2.unpack(row)).tolist() for k, row in zip(kernels, rows)
        ]

    @pytest.mark.parametrize(
        "group, g",
        [(Z, (2**63,)), (ZdGroup(2), (-(2**63), 1)), (ZdGroup(3), (1, 2**70, -1)), (CyclicGroup(2**64 + 3), 2**63)],
    )
    def test_translates_past_int64_come_back(self, group, g):
        mu = ball_uniform(group, 2) if isinstance(group, ZdGroup) else FinSuppMeasure.uniform(group, range(5))
        assert mu.elements.dtype == np.int64
        moved = mu.translate(g)
        assert moved.elements.dtype == object
        back = moved.translate(group.inv(g))
        assert back.elements.dtype == np.int64
        assert back == mu and hash(back) == hash(mu)
        assert typed(back.support) == typed(mu.support)
        assert moved.escape_count(group.inv(g)) == set_escape_count(moved, group.inv(g)) == len(mu.weights)

    def test_equality_and_immutability(self):
        mu = folner_measure(ZdGroup(2), 2)
        same = FinSuppMeasure.uniform(ZdGroup(2), itertools.product(range(-2, 3), repeat=2))
        assert mu == same and hash(mu) == hash(same)
        assert mu != folner_measure(ZdGroup(2), 1) and mu != folner_measure(Z, 2)
        assert mu != mu.translate((1, 0)) and mu != FinSuppMeasure(ZdGroup(2), same.support[::-1], same.weights)
        assert repr(mu) == f"FinSuppMeasure(group={ZdGroup(2)!r}, support={same.support!r}, weights={same.weights!r})"
        with pytest.raises(AttributeError):
            mu.weights = (1.0,)
        with pytest.raises(ValueError):
            mu.weights[0] = 0.5
        with pytest.raises(ValueError):  # the array support is read-only, so == and hash cannot drift
            mu.elements[0] = (5, 5)
        assert mu.translate((1, 0)).elements.flags.writeable is False

    @pytest.mark.parametrize("group, near, far", [
        (CyclicGroup(2**64 + 3), 2**63 - 1, 2**63),
        (Z, (2**63 - 1,), (2**63,)),
        (ZdGroup(2), (2**63 - 1, 0), (2**63, 0)),
    ])
    def test_mismatch_is_exact_between_int64_supports_and_values_past_it(self, group, near, far):
        # near and far round to one float64; an int64 support against a value past
        # int64 must still compare as integers
        mu = FinSuppMeasure.uniform(group, (near,))
        assert mu.elements.dtype == np.int64
        assert mu.column(Mismatch(group, far)).tolist() == [1.0]
        assert mu.column(Mismatch(group, near)).tolist() == [0.0]
        beyond = FinSuppMeasure.uniform(group, (far,))
        assert beyond.column(Mismatch(group, near)).tolist() == [1.0]

    def test_support_is_built_once_on_first_access(self):
        mu = folner_measure(ZdGroup(2), 3)
        assert mu.support is mu.support
        assert typed(mu.support) == typed(tuple(itertools.product(range(-3, 4), repeat=2)))

    def test_large_supports_unpack_in_blocks_with_shared_ints(self):
        # 6,561 rows, past one block of rows; the translate past int64 has dtype object
        big = folner_measure(ZdGroup(2), 40)
        assert typed(big.support) == typed(tuple(itertools.product(range(-40, 41), repeat=2)))
        assert big.support[0][0] is big.support[1][0]
        far = big.translate((2**63, -1))
        assert typed(far.support) == typed(tuple_translate_all(ZdGroup(2), (2**63, -1), big.support))


def searched_ball(group, k) -> np.ndarray:
    """conftest's breadth-first search as a measure stores it: int64, or Python ints once one leaves int64."""
    ball = bfs_ball(group, k)
    rows = np.array(ball, object)
    return rows.astype(np.int64) if fits_int64(ball) else rows


def assert_searched(mu: FinSuppMeasure, k: int) -> None:
    want = searched_ball(mu.group, k)
    assert mu.elements.dtype == want.dtype and mu.elements.shape == want.shape
    assert mu.elements.tolist() == want.tolist()


# the largest radius whose Z^d ball, d = 1..6, the search builds in a few milliseconds
SEARCH_RADII = (40, 12, 6, 4, 3, 3)
lattice_balls = st.integers(1, 6).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, SEARCH_RADII[d - 1])))
# m = 2, small odd and even m (below 2k + 1 for most k), and m at and past int64
ball_moduli = st.one_of(st.integers(2, 61), st.sampled_from(MODULI))


class TestClosedFormBalls:
    # ball_uniform builds Z^d and Z_m balls in closed form, in the order of the breadth-first search

    @settings(max_examples=200, deadline=None)
    @given(lattice_balls)
    def test_lattice_balls_are_the_search(self, ball):
        d, k = ball
        assert_searched(ball_uniform(ZdGroup(d), k), k)

    @settings(max_examples=200, deadline=None)
    @given(ball_moduli, st.integers(0, 40))
    def test_cyclic_balls_are_the_search(self, m, k):
        assert_searched(ball_uniform(CyclicGroup(m), k), k)

    @pytest.mark.parametrize("d, k", [(1, 300), (2, 39), (3, 12), (7, 3), (9, 2), (40, 1), (500, 0)])
    def test_larger_lattice_balls_are_the_search(self, d, k):
        assert_searched(ball_uniform(ZdGroup(d), k), k)

    def test_cyclic_balls_past_int64_hold_python_ints(self):
        m = 2**70
        mu = ball_uniform(CyclicGroup(m), 2)
        assert mu.elements.dtype == object and mu.elements.tolist() == [0, 1, m - 1, 2, m - 2]
        assert ball_uniform(CyclicGroup(m), 0).elements.dtype == np.int64
        assert ball_uniform(CyclicGroup(2**63), 5).elements.dtype == np.int64  # m - 1 = 2^63 - 1 fits
        assert ball_uniform(CyclicGroup(2**63 + 1), 1).elements.dtype == object

    def test_builds_call_no_per_element_method(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a per-element method was called")

        for cls in (ZdGroup, CyclicGroup):
            for name in ("generators", "op", "pack", "validate"):
                monkeypatch.setattr(cls, name, refuse)
        for group, k in ((ZdGroup(3), 4), (Z, 9), (Z7, 2), (Z7, 9), (CyclicGroup(2**70), 3)):
            ball_uniform(group, k)
        FinSuppMeasure.haar(Z7)

    def test_negative_radius_refused(self):
        for group in (Z, ZdGroup(3), Z7, F2):
            with pytest.raises(ValueError, match="^k must be >= 0$"):
                ball_uniform(group, -1)


@st.composite
def reduced_word(draw, min_size=0, max_size=40):
    """A reduced word of min_size to max_size letters: each letter is one that does not cancel the last."""
    word = ""
    for pick in draw(st.lists(st.integers(0, 3), min_size=min_size, max_size=max_size)):
        choices = "aAbB".replace(F2.inv(word[-1:]), "") if word else "aAbB"
        word += choices[pick % len(choices)]
    return word


class TestF2Codes:
    # a reduced word of L letters is the code 4^L + sum d_i 4^(L-i): int64 up to 31 letters,
    # Python ints (dtype object) past that, equal to the string oracles of tests/conftest.py

    @settings(max_examples=200, deadline=None)
    @given(st.lists(reduced_word(), max_size=8))
    def test_pack_and_unpack_round_trip(self, words):
        codes = F2.pack(words)
        assert codes.dtype == (np.int64 if all(len(w) <= 31 for w in words) else object)
        assert F2.unpack(codes) == tuple(words)
        assert F2.word_lengths(codes).tolist() == [len(w) for w in words]
        assert codes.tolist() == [int("1" + w.translate(str.maketrans("aAbB", "0123")), 4) for w in words]

    @settings(max_examples=200, deadline=None)
    @given(reduced_word(), st.lists(reduced_word(), max_size=8), st.integers(0, 40))
    def test_translate_all_matches_op(self, g, words, short):
        # short words keep int64 input codes; a long g takes the product past int64 or not
        for batch in (words, [w[:short % 12] for w in words]):
            want = tuple(F2.op(g, x) for x in batch)
            moved = F2.translate_each((g,), F2.pack(batch))[0]
            assert moved.dtype == (np.int64 if all(len(w) <= 31 for w in want) else object)
            assert F2.unpack(moved) == want == f2_translate_words(g, batch)
            assert F2.word_lengths(moved).tolist() == [len(w) for w in want]

    @pytest.mark.parametrize("g, x", [("a", "a" * 30), ("a", "a" * 31), ("b" * 16, "a" * 15), ("b" * 16, "a" * 16),
                                      ("B" * 31, "b"), ("B" * 31, "a"), ("A", "a" * 32), ("A", "a" * 33)])
    def test_products_at_the_int64_edge(self, g, x):
        # 31 letters are the longest int64 code; a product of 32 comes out in Python ints, and
        # one of 31 from a word of 32 in int64
        want = F2.op(g, x)
        moved = F2.translate_each((g,), F2.pack([x, ""]))[0]
        assert moved.dtype == (np.int64 if len(want) <= 31 else object)
        assert F2.unpack(moved) == (want, g)

    @settings(max_examples=50, deadline=None)
    @given(reduced_word(min_size=40, max_size=40))
    def test_a_long_shift_and_its_inverse_come_back_to_int64(self, g):
        mu = ball_uniform(F2, 4)
        moved = mu.translate(g)
        assert moved.elements.dtype == object
        back = moved.translate(F2.inv(g))
        assert back.elements.dtype == np.int64
        assert np.array_equal(back.elements, mu.elements) and back == mu
        assert moved.escape_count(F2.inv(g)) == set_escape_count(moved, F2.inv(g)) == len(mu.weights)

    def test_word_lengths_where_float64_rounds_codes_up(self):
        lengths = range(25, 32)
        codes = np.array([2 * 4**n - 1 for n in lengths], np.int64)
        # 2L + 1 one bits: exact in float64 up to L = 26, rounded up to 2 * 4^L from L = 27
        assert [float(c) == 2 * 4**n for c, n in zip(codes.tolist(), lengths)] == [False] * 2 + [True] * 5
        assert F2.word_lengths(codes).tolist() == list(lengths)
        assert F2.word_lengths(codes.astype(object)).tolist() == list(lengths)

    def test_ball_order_matches_the_string_enumeration(self):
        for radius in range(9):
            want = f2_ball_words(radius)
            assert list(ball_uniform(F2, radius).support) == want
            assert ball_uniform(F2, radius).elements.tolist() == F2.pack(want).tolist()

    def test_elements_are_read_only(self):
        for mu in (ball_uniform(F2, 3), FinSuppMeasure.uniform(F2, ["ab", "B"]), ball_uniform(F2, 2).translate("ab")):
            with pytest.raises(ValueError):
                mu.elements[0] = 1

    def test_ball_build_peaks_under_12_mib(self):
        # 354,293 int64 codes are 2.7 MiB; a build through strings peaked near 25 MiB
        tracemalloc.start()
        try:
            mu = ball_uniform(F2, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(mu.weights) == 354_293 and peak < 12 * 2**20


Z7 = CyclicGroup(7)


def library_built_measures():
    """(group, measure, checked) for boxes, balls of radius 0-6 and Haar, each with its
    checked public construction from the same support and weights."""
    for group in (Z, ZdGroup(2), Z7, F2):
        for k in range(7):
            ball = f2_ball_words(k) if group == F2 else bfs_ball(group, k)
            yield group, ball_uniform(group, k), FinSuppMeasure.uniform(group, ball)
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
        assert (built.weights.dtype, built.weights.tobytes()) == (checked.weights.dtype, checked.weights.tobytes())

    def test_builders_match_checked_constructor(self):
        for _, built, checked in library_built_measures():
            self.assert_same(built, checked)

    def test_translates_match_checked_constructor(self):
        f2_words = [w for w in f2_ball_words(4) if len(w) >= 2]
        for group, mu, _ in library_built_measures():
            shifts = group.generators() + (tuple(f2_words) if group == F2 else ())
            for g in shifts:
                checked = FinSuppMeasure(group, [group.op(g, x) for x in mu.support], mu.weights)
                self.assert_same(mu.translate(g), checked)


ZM = CyclicGroup(2**64 + 3)


def weighted(group, atoms, raw) -> FinSuppMeasure:
    """The checked measure on atoms with weights proportional to raw."""
    return FinSuppMeasure(group, atoms, [r / math.fsum(raw) for r in raw])


@st.composite
def measure_pairs(draw):
    """Two measures on one group whose supports overlap: subsets of one pool, or a measure and a translate.

    Pools past int64 (coordinates, residues of Z_m with m = 2^64 + 3, F2 words past 31
    letters) give pairs where one support is int64 and the other has dtype object."""
    group = draw(st.sampled_from([Z, ZdGroup(2), ZM, F2]), label="group")
    element = st.one_of(reduced_word(max_size=8), reduced_word(28, 40)) if group == F2 else int_element(group)
    pool = draw(st.lists(element, min_size=1, max_size=10, unique=True), label="pool")

    def measure():
        atoms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
        return weighted(group, atoms, draw(st.lists(st.integers(1, 9), min_size=len(atoms), max_size=len(atoms))))

    mu = measure()
    return mu, mu.translate(draw(element)) if draw(st.booleans()) else measure()


class TestArrayMeasures:
    # a measure is two read-only arrays, elements and weights; every measure operation works on them alone

    @settings(max_examples=400, deadline=None)
    @given(measure_pairs())
    def test_tv_distance_matches_the_dictionary_oracle(self, pair):
        mu, nu = pair
        assert mu.tv_distance(nu).hex() == dict_tv_distance(mu, nu).hex()
        assert nu.tv_distance(mu).hex() == dict_tv_distance(nu, mu).hex()

    @pytest.mark.parametrize("group, mine, theirs", [
        (Z, [(0,), (1,), (2**63,)], [(2**63,), (5,), (0,)]),
        (ZdGroup(2), [(0, 0), (1, -(2**63) - 1)], [(1, -(2**63) - 1), (0, 1), (0, 0)]),
        (ZM, [0, 2**64 + 2, 2**63], [2**63 - 1, 2**63, 0]),
        (F2, ["a" * 32, "b", ""], ["", "a" * 32, "ab" * 20, "B"]),
        (F2, ["a" * 31, "b"], ["b", "a" * 30]),
    ])
    def test_tv_distance_across_int64_and_object_supports(self, group, mine, theirs):
        mu, nu = weighted(group, mine, range(1, len(mine) + 1)), weighted(group, theirs, range(len(theirs), 0, -1))
        assert {mu.elements.dtype, nu.elements.dtype} <= {np.dtype(np.int64), np.dtype(object)}
        assert mu.tv_distance(nu).hex() == dict_tv_distance(mu, nu).hex()
        assert nu.tv_distance(mu).hex() == dict_tv_distance(nu, mu).hex()

    def test_tv_distance_on_balls_and_boxes(self):
        for mu, g in ((ball_uniform(F2, 3), "a"), (ball_uniform(F2, 8), "aB"), (folner_measure(ZdGroup(2), 12), (3, -1))):
            size = len(mu.weights)
            skewed = np.arange(1.0, size + 1) / (size * (size + 1) // 2)
            for nu in (mu.translate(g), FinSuppMeasure._unchecked(mu.group, mu.translate(g).elements, skewed)):
                assert mu.tv_distance(nu).hex() == dict_tv_distance(mu, nu).hex()

    def test_measure_operations_never_unpack(self, monkeypatch):
        def refuse(self, elements):
            raise AssertionError("unpack called")

        for cls in (ZdGroup, CyclicGroup, FreeGroup2):
            monkeypatch.setattr(cls, "unpack", refuse)
        for mu, g in ((folner_measure(ZdGroup(2), 3), (1, 0)), (FinSuppMeasure.haar(Z7), 3), (ball_uniform(F2, 4), "a")):
            group = mu.group
            skewed = FinSuppMeasure._unchecked(group, mu.elements, np.arange(1.0, len(mu.weights) + 1) / 2)
            for nu in (mu, skewed):
                nu.expectation(ClampedLength(group, 3, 3))
                nu.expectation(Mismatch(group, g))
                moved = nu.translate(g)
                assert moved.weights is nu.weights
                nu.escape_count(g)
                nu.tv_distance(moved)
                assert nu == FinSuppMeasure._unchecked(group, nu.elements, nu.weights) and nu != moved
                hash(nu)
                Schedule(((1, nu),), 1.0).witnesses
                assert nu._support is None

    def test_weights_are_a_read_only_float64_array(self):
        unchecked = FinSuppMeasure._unchecked(Z7, Z7.pack([1, 2]))
        measures = [
            FinSuppMeasure(Z, [(0,), (1,)], (0.25, 0.75)), FinSuppMeasure(Z7, [3], [1]), FinSuppMeasure.uniform(F2, "ab"),
            FinSuppMeasure.haar(Z7), folner_measure(ZdGroup(2), 2), ball_uniform(F2, 2), ball_uniform(Z, 2),
            ball_uniform(F2, 2).translate("b"), unchecked,
        ]
        for mu in measures:
            assert mu.weights.dtype == np.float64 and mu.weights.flags.writeable is False
        assert unchecked.weights.tolist() == [0.5, 0.5]

    def test_huge_weights_rejected_before_summing(self):
        # math.fsum overflows on 1e308 + 1e308; no weight above 1 reaches it
        with pytest.raises(InvalidMeasure, match="^weights must be positive and sum to 1$"):
            FinSuppMeasure(Z, [(0,), (1,)], (1e308, 1e308))

    def test_lattice_ball_limit_at_its_edge(self, monkeypatch):
        # the l1 ball of radius k in Z^d holds sum_i 2^i C(d, i) C(k, i) points
        for d in (1, 2, 3, 4):
            group = ZdGroup(d)
            for k in range(5):
                size = len(bfs_ball(group, k))
                monkeypatch.setattr(limits, "SUPPORT_LIMIT", size)
                assert len(ball_uniform(group, k).weights) == size
                monkeypatch.setattr(limits, "SUPPORT_LIMIT", size - 1)
                with pytest.raises(SpaceTooLarge, match=f"radius {k}"):
                    ball_uniform(group, k)
        monkeypatch.undo()
        with pytest.raises(SpaceTooLarge):  # 2,333,121 points
            ball_uniform(ZdGroup(3), 120)

    def test_cyclic_ball_limit_at_its_edge(self, monkeypatch):
        # min(m, 2k + 1) residues: the ball of radius 2 in Z_7 holds 5, and from radius 3 on all 7
        for k, size in ((0, 1), (2, 5), (3, 7), (10, 7)):
            assert len(bfs_ball(Z7, k)) == size
            monkeypatch.setattr(limits, "SUPPORT_LIMIT", size)
            assert len(ball_uniform(Z7, k).weights) == size
            monkeypatch.setattr(limits, "SUPPORT_LIMIT", size - 1)
            with pytest.raises(SpaceTooLarge, match=f"radius {k}"):
                ball_uniform(Z7, k)
        monkeypatch.undo()
        with pytest.raises(SpaceTooLarge):
            ball_uniform(CyclicGroup(10**7), 10**7)

    def test_haar_limit_at_its_edge(self, monkeypatch):
        monkeypatch.setattr(limits, "SUPPORT_LIMIT", 7)
        mu = FinSuppMeasure.haar(Z7)
        assert mu.elements.dtype == np.int64 and mu.elements.tolist() == list(range(7))
        monkeypatch.setattr(limits, "SUPPORT_LIMIT", 6)
        with pytest.raises(SpaceTooLarge, match="^the Haar measure of CyclicGroup\\(m=7\\) has more than 6 atoms$"):
            FinSuppMeasure.haar(Z7)
        monkeypatch.undo()
        for m in (1_500_000, 2**70):  # refused before anything is built
            with pytest.raises(SpaceTooLarge):
                FinSuppMeasure.haar(CyclicGroup(m))

    def test_lattice_ball_coordinate_limit_at_its_edge(self, monkeypatch):
        # Z^20 at radius 1 holds 41 points of 20 coordinates: 820 in all, under a point limit of 81
        group = ZdGroup(20)
        monkeypatch.setattr(limits, "SUPPORT_LIMIT", 82)
        assert len(ball_uniform(group, 1).weights) == 41
        monkeypatch.setattr(limits, "SUPPORT_LIMIT", 81)
        with pytest.raises(SpaceTooLarge, match="radius 1 .* 810 coordinates$"):
            ball_uniform(group, 1)

    def test_lattice_balls_at_the_caps_build_or_are_refused_under_768_mib(self):
        # Z^11 at radius 7 holds the most coordinates of any d <= 12 under the point limit
        # (8,750,005), Z^2235 at radius 1 the most a ball of radius 1 may hold (9,992,685);
        # Z^20000 at radius 1 (8 x 10^8) once ended in a MemoryError under this cap
        proc = run_capped(["-c", LATTICE_BALLS_AT_THE_CAPS], 768)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "11 7 795455", "2235 1 4471", "1 499999 999999", "6 14 880685",
            "2236 1 refused", "20000 1 refused", "34 4 refused", "11 8 refused",
        ]


LATTICE_BALLS_AT_THE_CAPS = """
from levylab import SpaceTooLarge, ZdGroup, ball_uniform
for d, k in ((11, 7), (2235, 1), (1, 499999), (6, 14), (2236, 1), (20000, 1), (34, 4), (11, 8)):
    try:
        print(d, k, len(ball_uniform(ZdGroup(d), k).weights))
    except SpaceTooLarge:
        print(d, k, "refused")
"""
