"""Counter-based random streams.

Every draw is a pure function of (seed, counter), so draw i of a run does
not depend on batch boundaries: generating counters [0, m) in one call or
in several chunks (or in parallel) yields bit-identical output.

A draw hashes its counter to 64 bits, keeps the top 53 bits x and inverts
the cumulative weights at u = x * 2^-53 by a guide table and bisection on
integers (Chen and Asau).  As cum[j] <= u exactly when
ceil(cum[j] * 2^53) <= x, the indices are those of
np.searchsorted(cum, u, "right") on the float uniforms, bit for bit.  One
Guide serves many blocks of hashes, laid out coordinate-major by
counter_offsets, and can return a table's values in place of the indices.
"""

from __future__ import annotations

import hashlib

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF


def _finalize(z):
    """The splitmix64 finalizer; an array is mixed in place, a numpy scalar is replaced."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def derive_seed(seed: int, *parts: int | str) -> int:
    """Domain-separated child seed, stable across runs and platforms."""
    state = np.uint64(seed & _MASK)
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.blake2b(part.encode(), digest_size=8).digest()
            part = int.from_bytes(digest, "little")
        # uint64 wraparound is intended; silence numpy's scalar overflow warning
        with np.errstate(over="ignore"):
            state = _finalize((state ^ np.uint64(part & _MASK)) + _GOLDEN)
    return int(state)


class Guide:
    """Maps hashes h to table[min(#{j : cum_weights[j] <= x * 2^-53}, k - 1)], or to that index, at x = h >> 11.

    Bucket x >> shift holds the index in [low, low + span]; if all spans are 0, the bucket decides it.
    """

    def __init__(self, cum_weights, draws: int, table=None):
        k = len(cum_weights)
        shift = 53 - min((k - 1).bit_length(), draws.bit_length())  # few draws build no large table
        thresh = np.ceil(np.asarray(cum_weights, np.float64) * 2.0**53).astype(np.uint64)
        # the answer for an x in bucket b, which holds [edges[b], edges[b + 1]), lies in [low[b], high[b]]
        edges = np.arange((1 << (53 - shift)) + 1, dtype=np.uint64) << np.uint64(shift)
        self.low = np.searchsorted(thresh, edges[:-1], "right")
        self.span = int((np.searchsorted(thresh, edges[1:], "left") - self.low).max())
        self.thresh = np.append(thresh, np.full(max(self.span, 1), 1 << 53, np.uint64))  # no probe passes the end
        self.shift, self.last, self.table = np.uint64(shift), k - 1, table
        # bucket x >> shift of x = h >> 11 is h >> (11 + shift); numpy shifts a uint64 by 64 to 0
        self.hash_shift = np.uint64(11 + shift)
        self.direct = np.minimum(self.low, k - 1) if table is None else table[np.minimum(self.low, k - 1)]

    def __call__(self, h: np.ndarray) -> np.ndarray:
        """The draws at the 64-bit hashes h, which are shifted in place."""
        if self.span == 0:
            bucket = np.right_shift(h, self.hash_shift, out=h).view(np.int64)
            return np.take(self.direct, bucket, mode="clip")  # every bucket is in range
        x = np.right_shift(h, np.uint64(11), out=h)
        lo = self.low[(x >> self.shift).view(np.int64)]
        # while the answer is in [lo, lo + 2 * step), probing lo + step - 1 leaves it in [lo, lo + step)
        for step in (1 << j for j in reversed(range(self.span.bit_length()))):
            np.add(lo, step, out=lo, where=self.thresh[lo + (step - 1)] <= x)
        lo = np.minimum(lo, self.last, out=lo)
        return lo if self.table is None else np.take(self.table, lo, mode="clip")


def counter_offsets(n: int, rows: int) -> np.ndarray:
    """(i * n + j + 1) * golden at [j, i]: the counters of rows i < rows of n, coordinate-major and C-ordered."""
    return (np.arange(rows, dtype=np.uint64) * np.uint64(n) + np.arange(1, n + 1, dtype=np.uint64)[:, None]) * _GOLDEN


def hashes(seed: int, first: int, offsets: np.ndarray) -> np.ndarray:
    """The 64-bit hashes of counters first + c, from offsets (c + 1) * golden as counter_offsets gives them."""
    return _finalize(offsets + np.uint64((seed + first * int(_GOLDEN)) & _MASK))


def counter_choice(seed: int, start: int, count: int, cum_weights: np.ndarray) -> np.ndarray:
    """For counters start..start+count-1, min(#{j : cum_weights[j] <= u}, k - 1) at each one's uniform u."""
    return Guide(cum_weights, count)(hashes(seed, start, counter_offsets(1, count)[0]))
