"""Word-metric groups and finitely supported measures on them.

There are three group kinds, and they are the whole set: integer
lattices Z^d under the l1 word length, cyclic groups Z_m under the cyclic
distance, and the free group on two letters as reduced words over
{a, A, b, B}.  ``WordGroup`` is their union, ``ZdGroup | CyclicGroup |
FreeGroup2``, with no base class.  Every kind defines ``identity``,
``op``, ``inv``, ``validate`` (the canonical form of x, or
InvalidElement), ``word_length``, ``pack`` and ``unpack`` (to and from
the bulk form below), ``translate_each`` (g * x over a whole support in
bulk form, one row per g: on Z^d and Z_m in one broadcast add, on F2 one
g at a time), ``word_lengths`` (int64, or Python ints past int64),
``generators``, ``random_element`` and ``parse``.  The word length
induces the right-invariant metric d(x, y) = wl(x * y^-1), which realizes
the right uniformity all defect computations refer to.

``validate`` is the one definition of an element's canonical form.  The
public ``FinSuppMeasure`` constructors apply it to every element of
outside input, and the ``stepmaps.PiecewiseMap`` constructor to every
map value, so measures and maps hold canonical elements and nothing
downstream validates them again.  The library's own
measure builders (boxes, balls, Haar measure, translates) produce
canonical, distinct supports and valid weights by construction and skip
those checks.

A measure is two read-only arrays: float64 weights, and its support in
the group's bulk form (``pack``, undone by ``unpack``): an integer
array, (m, d) on Z^d, (m,) on Z_m and (m,) of word codes on F2, where
the reduced word d_1 ... d_L, its letters numbered 0..3 in the order a,
A, b, B, is 4^L + sum d_i 4^(L-i).  The array is int64 when every entry
fits it (on F2, words of at most 31 letters) and else of dtype object
holding Python ints, so one code path is exact at any size.  In the
bulk kernels, Z^d and Z_m add in int64 only where no sum can leave it;
F2 translates by one letter of g at a time, cancelling or prepending a
first letter, in int64 while no product can pass 31 letters; a
translate of several g checks the int64 bound once for all of them.  A
kernel with a ``group`` and a method ``values(elements)``, its float
column over a bulk support of that group, has a bulk path:
``ClampedLength`` and ``Mismatch`` do, and ``FinSuppMeasure.column``
takes it.  ``Mismatch.columns`` builds the columns of many Mismatch
kernels, each over its own support, from one comparison per
coordinate.  Measures pair their atoms (``_join``) by one stable sort
of their stacked rows.

Balls are built as arrays in breadth-first order over the generators
e_1, -e_1, ..., e_d, -e_d: by word length, then coordinate by coordinate,
each positive before negative before 0 and a larger |x_i| first within a
sign, in d passes (``_lattice_ball``) and one stable sort by length.  A
Z_m ball is the start of the ball of Z reduced mod m; F2's is ``_f2_ball``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidElement, InvalidMeasure, LengthMismatch, SpaceTooLarge, WrongKind

_MASS_TOL = 1e-12
# the most elements a box or ball measure may hold, checked before it is built: CLI `defect`
# on 998,001 Z^2 points peaks near 265 MB, under a 768 MiB address-space cap
SUPPORT_LIMIT = 10**6

_F2_LETTERS = "aAbB"
_F2_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}
# the letters that may follow a word's last letter, in _F2_LETTERS order
_F2_NEXT = {"": "aAbB", "a": "abB", "A": "AbB", "b": "aAb", "B": "aAB"}
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# float64 holds every integer up to 2^53 exactly
_EXACT_FLOAT_INT = 1 << 53
_UNPACK_ROWS = 4096  # rows of a bulk array made into elements at a time
_F2_DIGITS = str.maketrans(_F2_LETTERS, "0123")  # code digits (module docstring); letter d has inverse d ^ 1
_F2_CHARS = np.array(list(map(ord, _F2_LETTERS)), np.uint32)  # UCS4, numpy's str character
# row d: the letters that may follow letter d, as digits in _F2_NEXT order
_F2_FOLLOW = np.array([[_F2_LETTERS.index(ch) for ch in _F2_NEXT[last]] for last in _F2_LETTERS], np.int8)


def _int_array(values) -> np.ndarray:
    """Integers as an int64 array, or as Python ints (dtype object) when one does not fit int64."""
    array = np.array(values, object)
    if array.size and not (_INT64_MIN <= array.min() and array.max() <= _INT64_MAX):
        return array
    return array.astype(np.int64)


def _shift(elements: np.ndarray, gs) -> np.ndarray:
    """elements + g along the last axis for each g of gs, stacked on a new first axis: in int64 when every g
    and the array's extremes plus them fit it, else in Python ints."""
    shape = (len(gs), *[1] * (elements.ndim - 1), -1)
    if elements.dtype == np.int64 and elements.size:
        low, high = min(map(min, gs)), max(map(max, gs))
        if _INT64_MIN <= min(low, int(elements.min()) + low) and max(high, int(elements.max()) + high) <= _INT64_MAX:
            return elements + np.array(gs, np.int64).reshape(shape)
    return _int_array(elements.astype(object) + np.array(gs, object).reshape(shape))


@dataclass(frozen=True)
class ZdGroup:
    """Z^d with the l1 word length; elements are integer d-tuples."""

    d: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def identity(self):
        return (0,) * self.d

    def op(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def inv(self, x):
        return tuple(-a for a in x)

    def validate(self, x):
        try:
            vec = tuple(int(c) for c in x)
        except TypeError as exc:
            raise InvalidElement(f"{x!r} is not an integer vector") from exc
        if len(vec) != self.d or any(c != int(ci) for c, ci in zip(vec, x)):
            raise InvalidElement(f"{x!r} is not an element of Z^{self.d}")
        return vec

    def word_length(self, x) -> int:
        return sum(abs(c) for c in self.validate(x))

    def pack(self, elements) -> np.ndarray:
        elements = tuple(elements)
        return _int_array(elements).reshape(len(elements), self.d)

    def unpack(self, elements) -> tuple:
        # the tuples share one int per distinct coordinate, as itertools.product's do, and
        # are made a block of rows at a time, so no full-length list of coordinates is held
        shared, rows = {}, range(0, len(elements), _UNPACK_ROWS)
        blocks = (elements[i : i + _UNPACK_ROWS].ravel().tolist() for i in rows)
        coords = itertools.chain.from_iterable(map(shared.setdefault, block, block) for block in blocks)
        return tuple(zip(*[coords] * self.d))

    def translate_each(self, gs, elements) -> np.ndarray:
        return _shift(elements, gs)

    def word_lengths(self, elements) -> np.ndarray:
        # d * max |x_i| bounds every sum; |x_i| of -2^63 itself leaves int64
        bound = max(-int(elements.min()), int(elements.max())) if elements.size else 0
        if elements.dtype == np.int64 and self.d * bound <= _INT64_MAX:
            return np.abs(elements).sum(axis=1)
        return _int_array(np.abs(elements.astype(object)).sum(axis=1))

    def generators(self) -> tuple:
        gens = []
        for i in range(self.d):
            unit = tuple(1 if j == i else 0 for j in range(self.d))
            gens.append(unit)
            gens.append(self.inv(unit))
        return tuple(gens)

    def random_element(self, gen: np.random.Generator, radius: int = 4):
        return tuple(int(c) for c in gen.integers(-radius, radius + 1, size=self.d))

    def parse(self, text: str):
        body = text.strip().strip("()")
        parts = [p for p in body.split(",") if p.strip() != ""]
        try:
            vec = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise InvalidElement(f"cannot parse {text!r} as a Z^{self.d} element") from exc
        return self.validate(vec)


@dataclass(frozen=True)
class CyclicGroup:
    """Z_m with the cyclic word length min(x, m - x); elements are residues."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be >= 2")

    @property
    def identity(self):
        return 0

    def op(self, x, y):
        return (x + y) % self.m

    def inv(self, x):
        return (-x) % self.m

    def validate(self, x):
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise InvalidElement(f"{x!r} is not a residue mod {self.m}")
        return int(x) % self.m

    def word_length(self, x) -> int:
        r = self.validate(x)
        return min(r, self.m - r)

    def pack(self, elements) -> np.ndarray:
        return _int_array(tuple(elements))

    def unpack(self, elements) -> tuple:
        return tuple(elements.tolist())

    def translate_each(self, gs, elements) -> np.ndarray:
        sums = _shift(elements, [(g,) for g in gs])
        if sums.dtype == np.int64 and self.m <= _INT64_MAX:
            return sums % self.m
        return _int_array(sums.astype(object) % self.m)

    def word_lengths(self, elements) -> np.ndarray:
        if elements.dtype == np.int64 and self.m <= _INT64_MAX:
            return np.minimum(elements, self.m - elements)
        elements = elements.astype(object)
        return _int_array(np.minimum(elements, self.m - elements))

    def generators(self) -> tuple:
        return (1, self.m - 1)

    def random_element(self, gen: np.random.Generator, radius: int = 4):
        del radius
        return int(gen.integers(0, self.m))

    def parse(self, text: str):
        try:
            return self.validate(int(text.strip()))
        except ValueError as exc:
            raise InvalidElement(f"cannot parse {text!r} as a residue mod {self.m}") from exc


def _reduce_word(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == _F2_INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


@dataclass(frozen=True)
class FreeGroup2:
    """The free group on {a, b}; elements are reduced words, A = a^-1."""

    @property
    def identity(self):
        return ""

    def op(self, x, y):
        return _reduce_word(x + y)

    def inv(self, x):
        return "".join(_F2_INVERSE[ch] for ch in reversed(x))

    def validate(self, x):
        if not isinstance(x, str) or any(ch not in _F2_LETTERS for ch in x):
            raise InvalidElement(f"{x!r} is not a word over a, A, b, B")
        return _reduce_word(x)

    def word_length(self, x) -> int:
        return len(self.validate(x))

    def pack(self, elements) -> np.ndarray:
        return _int_array([int("1" + word.translate(_F2_DIGITS), 4) for word in elements])

    def unpack(self, elements) -> tuple:
        def words(codes: np.ndarray) -> list:
            # letter j of a word of L letters is (code >> 2(L - 1 - j)) & 3; numpy strips the zero
            # characters past L from the end of each word
            lengths = self.word_lengths(codes)[:, None]
            shifts = 2 * (lengths - 1) - 2 * np.arange(max(1, lengths.max(initial=0)))
            digits = ((codes[:, None] >> np.maximum(shifts, 0)) & 3).astype(np.intp)
            letters = _F2_CHARS[digits] * (shifts >= 0)
            return letters.view(f"U{letters.shape[1]}").ravel().tolist()

        blocks = (elements[i : i + _UNPACK_ROWS] for i in range(0, len(elements), _UNPACK_ROWS))
        return tuple(itertools.chain.from_iterable(map(words, blocks)))

    def translate_each(self, gs, elements) -> list:
        return [self._translate(g, elements) for g in gs]

    def _translate(self, g, elements) -> np.ndarray:
        # the letters of g from the right: each cancels x's first letter when that is its
        # inverse and is prepended otherwise (a reduced g cancels nothing after a prepend)
        lengths = self.word_lengths(elements)
        if elements.dtype != np.int64 or lengths.max(initial=0) + len(g) > 31:  # a longer word leaves int64
            elements, lengths = elements.astype(object), lengths.astype(object)
        for d in map(_F2_LETTERS.index, reversed(g)):
            below = np.maximum(2 * lengths - 2, 0)  # x's first letter sits above the 4^(L-1) place
            lead = elements >> below  # 4 + that letter, or 1 for the identity
            cancel = lead == 4 + (d ^ 1)
            elements = np.where(cancel, elements - ((lead - 1) << below), elements + ((3 + d) << 2 * lengths))
            lengths = np.where(cancel, lengths - 1, lengths + 1)
        return elements if elements.dtype == np.int64 else _int_array(elements)

    def word_lengths(self, elements) -> np.ndarray:
        # a code in [4^L, 2 * 4^L) has binary exponent 2L + 1, and 2L + 2 if float64 rounds it up to 2 * 4^L
        if elements.dtype == np.int64:
            return (np.frexp(elements.astype(np.float64))[1].astype(np.int64) - 1) // 2
        return _int_array([(code.bit_length() - 1) // 2 for code in elements.tolist()])

    def generators(self) -> tuple:
        return ("a", "A", "b", "B")

    def random_element(self, gen: np.random.Generator, radius: int = 4):
        length = int(gen.integers(0, radius + 1))
        word = ""
        for _ in range(length):
            choices = _F2_NEXT[word[-1:]]
            word += choices[int(gen.integers(0, len(choices)))]
        return word

    def parse(self, text: str):
        body = text.strip()
        if body in ("e", "1"):
            return ""
        return self.validate(body)


WordGroup = ZdGroup | CyclicGroup | FreeGroup2


def _f2_ball(radius: int) -> np.ndarray:
    """The codes of the F2 ball of radius r, 2*3^r - 1 words, breadth first: a word of length l < r is
    followed at length l + 1 by word * 4 + c for each letter c of _F2_NEXT of its last letter, in order."""
    codes = np.empty(2 * 3**radius - 1, np.int64)
    codes[:5] = (1, 4, 5, 6, 7)[: len(codes)]
    start, stop = 1, min(5, len(codes))
    while stop < len(codes):
        front, end = codes[start:stop], stop + 3 * (stop - start)
        np.add(front[:, None] << 2, _F2_FOLLOW[front & 3], out=codes[stop:end].reshape(-1, 3))
        start, stop = stop, end
    return codes


def _lattice_ball(d: int, radius: int) -> np.ndarray:
    """The l1 ball of radius r >= 0 in Z^d as int64 rows, in breadth-first order (module docstring): pass i
    gives each row of the ball in Z^(i-1) every value its unused radius s allows, as s..1, -s..-1, 0; the
    columns are gathered from each pass's values and parent rows, last first, in O(points * d)."""
    used, passes = np.zeros(1, np.int64), []  # each row's word length so far
    for _ in range(d if radius else 0):  # radius 0: the one row of zeros, with no pass per coordinate
        spare = radius - used
        counts = 2 * spare + 1
        parent = np.repeat(np.arange(len(used)), counts)
        s, j = spare[parent], np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent]
        value = np.where(j < s, s - j, j - 2 * s)
        used = used[parent] + np.abs(value)
        passes.append((value, parent))
    rows, index = np.zeros((len(used), d), np.int64), np.argsort(used, kind="stable")
    for i, (value, parent) in reversed(list(enumerate(passes))):
        rows[:, i] = value[index]
        index = parent[index]
    return rows


def make_group(spec: str) -> WordGroup:
    """Parse a group descriptor: "Z", "Z^d", "Zm:<m>", or "F2"."""
    text = spec.strip()
    if text == "Z":
        return ZdGroup(1)
    if text.startswith("Z^"):
        return ZdGroup(int(text[2:]))
    if text.startswith("Zm:"):
        return CyclicGroup(int(text[3:]))
    if text == "F2":
        return FreeGroup2()
    raise WrongKind(f"unknown group descriptor {spec!r}")


@dataclass(frozen=True)
class ClampedLength:
    """The member x -> min(wl(x), cap) / scale on a group carrier."""

    group: WordGroup
    cap: int
    scale: int

    def __call__(self, x) -> float:
        return min(self.group.word_length(x), self.cap) / self.scale

    def values(self, elements) -> np.ndarray:
        """The member on canonical elements in bulk form, from one word_lengths call.

        min(length, cap) / scale is exact in float64 while cap and scale are
        at most 2^53; larger ones take the per-element call.
        """
        if max(self.cap, self.scale) > _EXACT_FLOAT_INT:
            return np.array(list(map(self, self.group.unpack(elements))), np.float64)
        clamped = np.minimum(self.group.word_lengths(elements), self.cap)
        return np.asarray(clamped / self.scale, np.float64)


class Mismatch:
    """The kernel x -> weight * (x != value), value canonical in group; weight 0.0 is the zero kernel."""

    def __init__(self, group: WordGroup, value, weight: float = 1.0):
        self.group, self.value, self.weight = group, value, weight
        # value in bulk form, an array of one row, so that an int64 support and a value
        # past int64 (or the reverse) are compared as Python ints, exactly
        self._packed = group.pack((value,))

    def __call__(self, x) -> float:
        return self.weight * (x != self.value)

    def values(self, elements) -> np.ndarray:
        """The kernel on canonical elements in bulk form: one array comparison."""
        return Mismatch.columns((self,), elements[None])[0]

    @staticmethod
    def columns(kernels, supports) -> np.ndarray:
        """Row i is kernels[i].values(supports[i]), for Mismatch kernels of the supports' group.

        supports is a stack of supports in bulk form, one per kernel or one
        for all.  One comparison per coordinate; weight 0.0 gives zeros.
        """
        weights = np.array([k.weight for k in kernels], np.float64)[:, None]
        coords = supports.reshape(*supports.shape[:2], -1)
        packed = np.concatenate([k._packed for k in kernels]).reshape(len(kernels), -1)
        hits = coords[..., 0] != packed[:, :1]
        for c in range(1, coords.shape[2]):
            hits |= coords[..., c] != packed[:, c : c + 1]
        out = hits.astype(np.float64)
        out *= weights
        if not weights.all():
            out[weights[:, 0] == 0] = 0.0  # a -0.0 weight too
        return out


class FinSuppMeasure:
    """A finitely supported probability measure on a word group.

    A measure is two read-only arrays, ``elements`` (the support in the
    group's bulk form) and float64 ``weights``; ``support``, the tuple of
    canonical elements, is built on first access, for ``column``'s per-element
    path and ``repr`` only.  ``==`` is equality of group, elements and weights.  The constructor
    and ``uniform`` check outside input: each element is put in canonical
    form by ``group.validate``, the elements must be distinct, and the
    weights positive with sum 1.  The library's builders
    (``folner_measure``, ``ball_uniform``, ``haar``, ``translate``, and
    ``mean_transfer.point_mass`` for the base of its one map) go through
    ``_unchecked``, which stores the arrays as given.
    ``column(f)`` takes f's bulk path when ``f.group`` is this group, and
    otherwise calls f once per element of ``support``.
    """

    def __init__(self, group: WordGroup, support, weights):
        support = tuple(map(group.validate, support))
        weights = np.fromiter(map(float, weights), np.float64)
        if len(support) != len(weights):
            raise LengthMismatch("support and weights must have equal length")
        if len(support) != len(set(support)):
            raise InvalidMeasure("support entries must be distinct")
        if not support:
            raise InvalidMeasure("support must be non-empty")
        # written so that a NaN weight, or a NaN sum, fails; no weight above 1 reaches fsum, which overflows
        if not ((weights > 0) & (weights <= 1)).all() or not abs(math.fsum(weights) - 1.0) <= _MASS_TOL:
            raise InvalidMeasure("weights must be positive and sum to 1")
        self._set(group, group.pack(support), weights, support)

    def _set(self, group: WordGroup, elements, weights, support: tuple | None = None) -> None:
        elements.flags.writeable = weights.flags.writeable = False
        self.__dict__.update(group=group, elements=elements, weights=weights, _support=support)

    def __setattr__(self, name, value):
        raise AttributeError(f"a FinSuppMeasure is immutable; cannot set {name!r}")

    @classmethod
    def _unchecked(cls, group: WordGroup, elements, weights=None) -> "FinSuppMeasure":
        """A measure whose elements, in bulk form, are canonical and distinct by construction.

        weights are a float64 array, positive with sum 1, or None for the
        uniform weights; nothing is checked.
        """
        if weights is None:
            weights = np.full(len(elements), 1.0 / len(elements))
        measure = object.__new__(cls)
        measure._set(group, elements, weights)
        return measure

    @property
    def support(self) -> tuple:
        if self._support is None:
            self.__dict__["_support"] = self.group.unpack(self.elements)
        return self._support

    def __eq__(self, other):
        if not isinstance(other, FinSuppMeasure):
            return NotImplemented
        same = self.group == other.group and np.array_equal(self.weights, other.weights)
        return same and np.array_equal(self.elements, other.elements)

    def __hash__(self):
        return hash((self.group, len(self.weights)))

    def __repr__(self):
        return f"FinSuppMeasure(group={self.group!r}, support={self.support!r}, weights={self.weights!r})"

    @classmethod
    def uniform(cls, group: WordGroup, elements) -> "FinSuppMeasure":
        elements = tuple(elements)
        # no elements get no weights, which the constructor refuses
        return cls(group, elements, (1.0 / max(len(elements), 1),) * len(elements))

    @classmethod
    def haar(cls, group: CyclicGroup) -> "FinSuppMeasure":
        if not isinstance(group, CyclicGroup):
            raise WrongKind("haar measure is only materialized for cyclic groups")
        if group.m > SUPPORT_LIMIT:
            raise SpaceTooLarge(f"the Haar measure of {group!r} has more than {SUPPORT_LIMIT} atoms")
        return cls._unchecked(group, np.arange(group.m, dtype=np.int64))

    def column(self, f) -> np.ndarray:
        """f at each atom, in support order, as float64: by f.values when f has a bulk path here."""
        if getattr(f, "group", None) == self.group and hasattr(f, "values"):
            return f.values(self.elements)
        return np.fromiter(map(f, self.support), np.float64, len(self.weights))

    def expectation(self, f) -> float:
        """The sum of w * f(x) over the support, added left to right in support order, from column(f)."""
        return float(np.cumsum(self.weights * self.column(f))[-1])

    def translate(self, g) -> "FinSuppMeasure":
        g = self.group.validate(g)
        # left translation is a bijection of canonical elements
        return FinSuppMeasure._unchecked(self.group, self.group.translate_each((g,), self.elements)[0], self.weights)

    def _join(self, other: "FinSuppMeasure") -> tuple[np.ndarray, np.ndarray]:
        """The index pairs (i, j) with self.elements[i] == other.elements[j], as two arrays."""
        # each side holds distinct rows, so sorted together (stably: self's first) a shared row is one equal pair
        both = np.concatenate((self.elements, other.elements)).reshape(len(self.weights) + len(other.weights), -1)
        order = np.lexsort(both.T)
        rows = both[order]
        pairs = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
        return order[pairs], order[pairs + 1] - len(self.weights)

    def escape_count(self, g) -> int:
        """|gA \\ A| for the support A: how many atoms left translation by g moves off the support."""
        return len(self.weights) - len(self._join(self.translate(g))[0])

    def tv_distance(self, other: "FinSuppMeasure") -> float:
        if self.group != other.group:
            raise WrongKind("total variation needs measures on the same group")
        mine, theirs = self._join(other)
        matched = np.zeros(len(self.weights))
        matched[mine] = other.weights[theirs]
        # |w - w'| on self's atoms, then other's unmatched weights, each in support order and added left to right
        terms = np.concatenate((np.abs(self.weights - matched), np.delete(other.weights, theirs)))
        return 0.5 * float(np.cumsum(terms)[-1])


def _power_over(k: int, n: int, cap: int) -> str:
    """k^n as text ("k^n" when it is not formed) if it exceeds cap, else ""; k >= 1 and n >= 0.

    Only k^m, m = min(n, bit length of cap), is formed: for k >= 2 it exceeds cap exactly when k^n does.
    """
    m = min(n, cap.bit_length())
    count = k**m
    if count <= cap:
        return ""
    return str(count) if m == n else f"{k}^{n}"


def _check_support_size(group: WordGroup, k: int) -> None:
    """Refuse a box [-k, k]^d of Z^d or an F2 ball of radius k above SUPPORT_LIMIT points, before building."""
    if isinstance(group, ZdGroup) and _power_over(2 * k + 1, group.d, SUPPORT_LIMIT):
        raise SpaceTooLarge(f"the box [-{k}, {k}]^{group.d} has more than {SUPPORT_LIMIT} points")
    # an F2 ball holds 2*3^k - 1 words, more than the limit exactly when 3^k > (limit + 1) // 2
    if isinstance(group, FreeGroup2) and _power_over(3, k, (SUPPORT_LIMIT + 1) // 2):
        raise SpaceTooLarge(f"the F2 ball of radius {k} has more than {SUPPORT_LIMIT} words")


def folner_measure(group: WordGroup, k: int) -> FinSuppMeasure:
    """Uniform measure on the box [-k, k]^d inside Z^d.

    For any family bounded by B the defect against a generator is at most
    2*B/(2k+1): the translated box overlaps all but a 1/(2k+1) fraction.
    """
    if not isinstance(group, ZdGroup):
        raise WrongKind("folner boxes are defined for Z^d groups")
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_support_size(group, k)
    # the box in itertools.product order: the first coordinate varies slowest
    axes = np.meshgrid(*[np.arange(-k, k + 1, dtype=np.int64)] * group.d, indexing="ij", copy=False)
    return FinSuppMeasure._unchecked(group, np.stack(axes, axis=-1).reshape(-1, group.d))


def ball_uniform(group: WordGroup, k: int) -> FinSuppMeasure:
    """Uniform measure on the word-metric ball of radius k, in breadth-first order; above SUPPORT_LIMIT
    elements, or 10 * SUPPORT_LIMIT coordinates on Z^d, SpaceTooLarge before building."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if isinstance(group, FreeGroup2):
        _check_support_size(group, k)
        return FinSuppMeasure._unchecked(group, _f2_ball(k))
    too_large = f"the ball of radius {k} in {group!r} has more than {SUPPORT_LIMIT} elements"
    if isinstance(group, CyclicGroup):
        # min(m, 2k + 1) residues: the start of the ball of Z, reduced mod m
        if (size := min(group.m, 2 * k + 1)) > SUPPORT_LIMIT:
            raise SpaceTooLarge(too_large)
        line, m = _lattice_ball(1, min(k, group.m // 2))[:size, 0], group.m
        return FinSuppMeasure._unchecked(group, line % m if m <= _INT64_MAX else _int_array(line.astype(object) % m))
    if not isinstance(group, ZdGroup):
        raise WrongKind("word balls are built on Z^d, Z_m and F2")
    # sum_i 2^i C(d, i) C(k, i) points, added only until they pass the cap (term i is at least 2^i), of d
    # coordinates each: at most 10 * SUPPORT_LIMIT, which each d <= 12 ball under the point cap meets (Z^11
    # at radius 7 has the most, 8.75 million)
    cap = min(SUPPORT_LIMIT, 10 * SUPPORT_LIMIT // group.d)
    terms = (2**i * math.comb(group.d, i) * math.comb(k, i) for i in range(min(group.d, k) + 1))
    if any(total > cap for total in itertools.accumulate(terms)):
        raise SpaceTooLarge(f"{too_large} or {10 * SUPPORT_LIMIT} coordinates")
    return FinSuppMeasure._unchecked(group, _lattice_ball(group.d, k))
