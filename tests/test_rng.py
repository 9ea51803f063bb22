from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counter_uniforms, searchsorted_choice
from levylab import (
    DiscreteBase,
    HammingProduct,
    IntegralMember,
    hamming,
    lipschitz_profile,
    rng,
    sample_indices,
    weighted_median,
)
from levylab.hamming import PROFILE_BLOCK_DRAWS

MASK = (1 << 64) - 1
GOLDEN, MIX1, MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def splitmix64(z: int) -> int:
    """The splitmix64 finalizer on Python integers."""
    z = ((z ^ (z >> 30)) * MIX1) & MASK
    z = ((z ^ (z >> 27)) * MIX2) & MASK
    return z ^ (z >> 31)


# bases for the bucket-edge test: two bisect, three look values up from the bucket
EDGE_BASES = [(0.2, 0.3, 0.5), (0.5, 0.5), (0.25,) * 4, (0.1,) * 10, (0.0, 0.7, 0.0, 0.3), (1.0,)]


@st.composite
def cum_weights(draw, max_k=600):
    """Cumulative weights of k in [1, max_k] atoms: uniform, Dirichlet(1), Dirichlet(0.05),
    a point mass, or Dirichlet(1) with about half the weights set to zero."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    kind = draw(st.sampled_from(["uniform", "dirichlet", "skewed", "point", "zeros"]))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "uniform":
        w = np.full(k, 1.0 / k)
    elif kind == "skewed":
        # Dirichlet(0.05) as normalized Gamma(0.05) draws; many underflow to 0
        w = gen.gamma(0.05, size=k)
    else:
        w = gen.exponential(size=k)
    if kind == "zeros":
        w[gen.random(k) < 0.5] = 0.0
    if kind == "point" or not w.sum() > 0:
        w = np.zeros(k)
        w[gen.integers(k)] = 1.0
    return np.cumsum(w / w.sum())


class TestHash:
    def test_uniforms_are_the_top_53_bits_of_splitmix64(self):
        for seed, start in ((0, 0), (12345, 10**9), (MASK, 7)):
            xs = [splitmix64((seed + (c + 1) * GOLDEN) & MASK) >> 11 for c in range(start, start + 40)]
            assert counter_uniforms(seed, start, 40).tolist() == [x * 2.0**-53 for x in xs]

    def test_derive_seed_uses_the_same_mixer(self):
        state = 99
        for part in (3, 0, MASK):
            state = splitmix64(((state ^ part) + GOLDEN) & MASK)
        assert rng.derive_seed(99, 3, 0, MASK) == state


class TestCounterChoice:
    @settings(max_examples=150, deadline=None)
    @given(
        cum=cum_weights(),
        seed=st.integers(min_value=0, max_value=MASK),
        start=st.integers(min_value=0, max_value=2**40),
        count=st.integers(min_value=1, max_value=3000),
    )
    def test_matches_binary_search_of_the_uniforms(self, cum, seed, start, count):
        got = rng.counter_choice(seed, start, count, cum)
        want = searchsorted_choice(seed, start, count, cum)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("last", [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
    @pytest.mark.parametrize("weights", [(0.2, 0.3, 0.5), (0.25,) * 4, (0.0, 1.0, 0.0), (1.0,)])
    def test_last_weight_an_ulp_off(self, weights, last):
        cum = np.cumsum(weights)
        cum[-1] = last
        for seed in range(4):
            assert np.array_equal(rng.counter_choice(seed, 0, 50_000, cum), searchsorted_choice(seed, 0, 50_000, cum))

    @settings(max_examples=40, deadline=None)
    @given(cum=cum_weights(max_k=60), seed=st.integers(min_value=0, max_value=MASK),
           cuts=st.lists(st.integers(min_value=0, max_value=500), max_size=4))
    def test_blocks_concatenate_to_one_call(self, cum, seed, cuts):
        edges = [0, *sorted(cuts), 500]
        blocks = [rng.counter_choice(seed, a, b - a, cum) for a, b in zip(edges, edges[1:])]
        assert np.array_equal(np.concatenate(blocks), rng.counter_choice(seed, 0, 500, cum))

    def test_edge_bases_drive_both_lookups(self):
        # bases whose thresholds all sit on bucket edges look values up from the bucket
        spans = {w: rng.Guide(np.cumsum(w), 1 << 10).span for w in EDGE_BASES}
        assert {w for w, span in spans.items() if span == 0} == {(0.5, 0.5), (0.25,) * 4, (1.0,)}

    @pytest.mark.parametrize("weights", EDGE_BASES)
    def test_hashes_on_and_next_to_every_threshold_and_bucket_edge(self, monkeypatch, weights):
        # the hash is replaced by chosen 53-bit values: 0, the last, and each threshold
        # and each edge of the 2^B buckets, with its two neighbours; the indices and the
        # values of a table are checked
        cum = np.cumsum(weights)
        k = len(cum)
        bits = (k - 1).bit_length()
        thresh = [int(np.ceil(c * 2.0**53)) for c in cum]
        edges = [b << (53 - bits) for b in range(1 << bits)]
        xs = sorted({x + d for x in (*thresh, *edges) for d in (-1, 0, 1)} | {0, (1 << 53) - 1})
        xs = np.array([x for x in xs if 0 <= x < 1 << 53], dtype=np.uint64)

        def finalize(z, scratch=None):
            # the finalizer mixes in place: its hashes become xs, as the top 53 bits
            z[...] = xs << np.uint64(11)
            return z

        monkeypatch.setattr(rng, "_finalize", finalize)
        want = np.minimum(np.searchsorted(cum, xs.astype(np.float64) * 2.0**-53, side="right"), k - 1)
        assert np.array_equal(rng.counter_choice(0, 0, len(xs), cum), want)
        table = np.arange(k) * -1.5 + 0.25
        draw = rng.Guide(cum, len(xs), table)
        assert np.array_equal(draw(rng.hashes(0, 0, rng.counter_offsets(1, len(xs))))[0], table[want])


@st.composite
def profile_weights(draw):
    """Weights of k <= 40 atoms whose cumulative sums cover both guide branches: those of
    cum_weights, uniform ones (2^B atoms put every threshold on a bucket edge), one atom,
    and sums that end an ulp below 1 (ten of 0.1) or above it."""
    kind = draw(st.sampled_from(["drawn", "uniform", "fixed"]))
    if kind == "drawn":
        return tuple(np.diff(draw(cum_weights(max_k=40)), prepend=0.0).tolist())
    if kind == "uniform":
        k = draw(st.sampled_from([2, 3, 4, 7, 8, 16, 37]))
        return (1.0 / k,) * k
    return draw(st.sampled_from([(1.0,), (0.1,) * 10, (0.05, 0.53, 0.32, 0.1), (0.0, 0.7, 0.0, 0.3)]))


class TestProfileDraws:
    @settings(max_examples=150, deadline=None)
    @given(
        weights=profile_weights(),
        seed=st.integers(min_value=0, max_value=MASK),
        n=st.integers(min_value=1, max_value=12),
        samples=st.integers(min_value=1, max_value=120),
        block=st.integers(min_value=1, max_value=200),
    )
    def test_values_add_the_looked_up_table_left_to_right(self, weights, seed, n, samples, block):
        # blocks of max(1, block // n) samples, the last one cut, and one-sample blocks
        # (a lone column); against the binary search of the uniforms, summed left to right
        table = 10.0 ** np.random.default_rng(n).uniform(-8.0, 8.0, size=len(weights))
        product = HammingProduct(DiscreteBase(tuple(range(len(weights))), weights), n)
        f = IntegralMember((), (lambda a: float(table[a]),))
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hamming, "PROFILE_BLOCK_DRAWS", block)
            mp.setattr(hamming, "weighted_median", lambda v, w: seen.append(v.copy()) or weighted_median(v, w))
            lipschitz_profile(product, f, bound=1.0, lipschitz=float(table.max() - table.min()), eps=1.0,
                              mode="sampled", samples=samples, seed=seed)
        codes = searchsorted_choice(seed, 0, samples * n, np.cumsum(weights)).reshape(samples, n)
        assert seen[0].tolist() == [reduce(add, row) / n for row in table[codes].tolist()]

    def test_offsets_are_the_counters_coordinate_major(self):
        offsets = rng.counter_offsets(3, 4)
        assert offsets.shape == (3, 4) and offsets.flags.c_contiguous
        assert offsets.tolist() == [[(i * 3 + j + 1) * GOLDEN & MASK for i in range(4)] for j in range(3)]


class TestRowSums:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 100, 1000])
    def test_each_sampled_value_adds_its_row_left_to_right(self, monkeypatch, n):
        gen = np.random.default_rng(n)
        table = 10.0 ** gen.uniform(-8.0, 8.0, size=5)
        product = HammingProduct(DiscreteBase.uniform(range(5)), n)
        f = IntegralMember((), (lambda a: float(table[a]),))
        spread = float(table.max() - table.min())
        # two blocks of rows, the second one partial
        samples = PROFILE_BLOCK_DRAWS // n + 3
        seen = []
        monkeypatch.setattr(hamming, "weighted_median", lambda v, w: seen.append(v.copy()) or weighted_median(v, w))
        lipschitz_profile(product, f, bound=1.0, lipschitz=spread, eps=spread / 20, mode="sampled",
                          samples=samples, seed=n)
        rows = table[sample_indices(product.base.weights, n, samples, n)]
        assert seen[0].tolist() == [reduce(add, row) / n for row in rows.tolist()]
        if n >= 8:
            # numpy's pairwise sum along a row does differ from the left-to-right one
            assert not np.array_equal(rows.sum(axis=1) / n, seen[0])
