"""Counter-based random streams.

Every draw is a pure function of (seed, counter), so draw i of a run does
not depend on batch boundaries: generating counters [0, m) in one call or
in several chunks (or in parallel) yields bit-identical output.

A draw hashes its counter to 53 bits x and inverts the cumulative weights at
u = x * 2^-53 by a guide table and bisection on integers (Chen and Asau).  As
cum[j] <= u exactly when ceil(cum[j] * 2^53) <= x, the indices are those of
np.searchsorted(cum, u, "right") on the float uniforms, bit for bit.
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


def counter_choice(seed: int, start: int, count: int, cum_weights: np.ndarray) -> np.ndarray:
    """For counters start..start+count-1, min(#{j : cum_weights[j] <= u}, k - 1) at each one's uniform u."""
    k = len(cum_weights)
    shift = 53 - min((k - 1).bit_length(), count.bit_length())  # few draws build no large table
    thresh = np.ceil(np.asarray(cum_weights, np.float64) * 2.0**53).astype(np.uint64)
    # the answer for an x in bucket b, which holds [edges[b], edges[b + 1]), lies in [low[b], high[b]]
    edges = np.arange((1 << (53 - shift)) + 1, dtype=np.uint64) << np.uint64(shift)
    low = np.searchsorted(thresh, edges[:-1], "right")
    span = int((np.searchsorted(thresh, edges[1:], "left") - low).max())
    thresh = np.append(thresh, np.full(max(span, 1), 1 << 53, np.uint64))  # no probe passes the end
    x = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    x *= _GOLDEN
    x += np.uint64(seed & _MASK)
    np.right_shift(_finalize(x), np.uint64(11), out=x)
    lo = low[(x >> np.uint64(shift)).view(np.int64)]
    # while the answer is in [lo, lo + 2 * step), probing lo + step - 1 leaves it in [lo, lo + step)
    for step in (1 << j for j in reversed(range(span.bit_length()))):
        np.add(lo, step, out=lo, where=thresh[lo + (step - 1)] <= x)
    return np.minimum(lo, k - 1, out=lo)
