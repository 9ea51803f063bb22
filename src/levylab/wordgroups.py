"""Word-metric groups and finitely supported measures on them.

Three concrete group kinds are provided: integer lattices Z^d under the
l1 word length, cyclic groups Z_m under the cyclic distance, and the free
group on two letters as reduced words over {a, A, b, B}.  The word length
induces the right-invariant metric d(x, y) = wl(x * y^-1), which realizes
the right uniformity all defect computations refer to.

``validate`` is the one definition of an element's canonical form.  The
public ``FinSuppMeasure`` constructors apply it to every element of
outside input, and the ``stepmaps.PiecewiseMap`` constructor to every
map value, so measures and maps hold canonical elements and nothing
downstream validates them again.  The library's own
measure builders (boxes, balls, Haar measure, translates) produce
canonical, distinct supports and valid weights by construction and skip
those checks.  Whole canonical supports go through
two bulk kernels: ``translate_all`` (left translation; on F2 only the
junction of g and x cancels) and ``word_lengths`` (an integer array, of
Python ints where a length would not fit int64).  The base class applies
the per-element methods, exact at any coordinate size.  Z^d overrides
``translate_all``, F2 overrides both, Z_m uses the defaults.
Measures, the clamped word-length member ``ClampedLength`` and the
step-map tables evaluate supports through them.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce

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
_INT64_MAX = int(np.iinfo(np.int64).max)
# float64 holds every integer up to 2^53 exactly
_EXACT_FLOAT_INT = 1 << 53


def _length_array(lengths: list) -> np.ndarray:
    """Non-negative lengths as int64, or as Python ints when one does not fit int64."""
    return np.array(lengths, np.int64 if max(lengths, default=0) <= _INT64_MAX else object)


class WordGroup:
    """Group with identity, composition, inverse, and a word-length metric."""

    @property
    def identity(self):
        raise NotImplementedError

    def op(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def validate(self, x):
        """Return the canonical form of x, or raise InvalidElement."""
        raise NotImplementedError

    def word_length(self, x) -> int:
        raise NotImplementedError

    def translate_all(self, g, elements) -> tuple:
        """The products g * x, for canonical g and canonical elements x."""
        return tuple(self.op(g, x) for x in elements)

    def word_lengths(self, elements) -> np.ndarray:
        """The word lengths of canonical elements: int64, or Python ints when one exceeds int64."""
        return _length_array(list(map(self.word_length, elements)))

    def generators(self) -> tuple:
        raise NotImplementedError

    def ball(self, radius: int) -> list:
        """All elements of word length <= radius, in breadth-first order."""
        seen = {self.identity}
        order = [self.identity]
        frontier = [self.identity]
        for _ in range(radius):
            nxt = []
            for x in frontier:
                for g in self.generators():
                    y = self.op(g, x)
                    if y not in seen:
                        seen.add(y)
                        order.append(y)
                        nxt.append(y)
            frontier = nxt
        return order

    def random_element(self, gen: np.random.Generator, radius: int = 4):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError


@dataclass(frozen=True)
class ZdGroup(WordGroup):
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

    def translate_all(self, g, elements) -> tuple:
        # shift each coordinate column by its entry of g, then zip the columns back into tuples
        shifted = (map(operator.add, col, itertools.repeat(c)) for col, c in zip(zip(*elements), g))
        return tuple(zip(*shifted))

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
class CyclicGroup(WordGroup):
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
class FreeGroup2(WordGroup):
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

    def translate_all(self, g, elements) -> tuple:
        # g and x are reduced, so g * x cancels at most the first |g| letters of x:
        # g * x = (g * head) + rest for x = head + rest with |head| = min(|g|, |x|)
        cut = len(g)
        heads = list(map(operator.getitem, elements, itertools.repeat(slice(cut))))
        product = {head: self.op(g, head) for head in set(heads)}
        rests = map(operator.getitem, elements, itertools.repeat(slice(cut, None)))
        return tuple(map(operator.add, map(product.__getitem__, heads), rests))

    def word_lengths(self, elements) -> np.ndarray:
        return np.fromiter(map(len, elements), np.int64, len(elements))

    def generators(self) -> tuple:
        return ("a", "A", "b", "B")

    def ball(self, radius: int) -> list:
        # direct enumeration of reduced words; |ball(k)| = 2*3^k - 1
        order = [""]
        frontier = [""]
        for _ in range(radius):
            frontier = [w + ch for w in frontier for ch in _F2_NEXT[w[-1:]]]
            order.extend(frontier)
        return order

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
        """The member on canonical elements, from one word_lengths call.

        min(length, cap) / scale is exact in float64 while cap and scale are
        at most 2^53; larger ones take the per-element call.
        """
        if max(self.cap, self.scale) > _EXACT_FLOAT_INT:
            return np.array(list(map(self, elements)), np.float64)
        clamped = np.minimum(self.group.word_lengths(elements), self.cap)
        return np.asarray(clamped / self.scale, np.float64)


@dataclass(frozen=True)
class FinSuppMeasure:
    """A finitely supported probability measure on a word group.

    The constructor and ``uniform`` check outside input: each element is
    put in canonical form by ``group.validate``, the elements must be
    distinct, and the weights positive with sum 1.  The library's builders
    (``folner_measure``, ``ball_uniform``, ``haar``, ``translate``) go
    through ``_unchecked``, which stores the fields as given.
    """

    group: WordGroup
    support: tuple
    weights: tuple

    def __post_init__(self):
        support = tuple(map(self.group.validate, self.support))
        weights = tuple(map(float, self.weights))
        if len(support) != len(weights):
            raise LengthMismatch("support and weights must have equal length")
        if len(support) != len(set(support)):
            raise InvalidMeasure("support entries must be distinct")
        if not support:
            raise InvalidMeasure("support must be non-empty")
        # written so that a NaN weight, or a NaN sum, fails
        if not all(w > 0 for w in weights) or not abs(math.fsum(weights) - 1.0) <= _MASS_TOL:
            raise InvalidMeasure("weights must be positive and sum to 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def _unchecked(cls, group: WordGroup, support: tuple, weights: tuple | None = None) -> "FinSuppMeasure":
        """A measure whose support is canonical and distinct by construction.

        weights are float, positive and sum to 1, or None for the uniform
        weights; nothing is checked.
        """
        if weights is None:
            weights = (1.0 / len(support),) * len(support)
        measure = object.__new__(cls)
        object.__setattr__(measure, "group", group)
        object.__setattr__(measure, "support", support)
        object.__setattr__(measure, "weights", weights)
        return measure

    @classmethod
    def uniform(cls, group: WordGroup, elements) -> "FinSuppMeasure":
        elements = tuple(elements)
        # no elements get no weights, which the constructor refuses
        return cls(group, elements, (1.0 / max(len(elements), 1),) * len(elements))

    @classmethod
    def haar(cls, group: CyclicGroup) -> "FinSuppMeasure":
        if not isinstance(group, CyclicGroup):
            raise WrongKind("haar measure is only materialized for cyclic groups")
        return cls._unchecked(group, tuple(range(group.m)))

    def expectation(self, f) -> float:
        """The sum of w * f(x) over the support, added left to right in support order.

        A ClampedLength on the measure's group is evaluated on the whole
        support at once; any other callable is called once per element.
        """
        if isinstance(f, ClampedLength) and f.group == self.group:
            values = f.values(self.support)
        else:
            values = np.fromiter(map(f, self.support), np.float64, len(self.support))
        return float(np.cumsum(np.multiply(self.weights, values))[-1])

    def translate(self, g) -> "FinSuppMeasure":
        g = self.group.validate(g)
        # left translation is a bijection of canonical elements
        return FinSuppMeasure._unchecked(self.group, self.group.translate_all(g, self.support), self.weights)

    def tv_distance(self, other: "FinSuppMeasure") -> float:
        if self.group != other.group:
            raise WrongKind("total variation needs measures on the same group")
        mine = dict(zip(self.support, self.weights))
        theirs = dict(zip(other.support, other.weights))
        # support order, then left to right from 0.0: a set's order of words follows string
        # hashing, which changes between processes, and from Python 3.12 on sum() compensates
        keys = {**mine, **theirs}
        return 0.5 * reduce(operator.add, (abs(mine.get(k, 0.0) - theirs.get(k, 0.0)) for k in keys), 0.0)


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
    return FinSuppMeasure._unchecked(group, tuple(itertools.product(range(-k, k + 1), repeat=group.d)))


def ball_uniform(group: WordGroup, k: int) -> FinSuppMeasure:
    """Uniform measure on the word-metric ball of radius k."""
    if isinstance(group, FreeGroup2):
        _check_support_size(group, k)
    return FinSuppMeasure._unchecked(group, tuple(group.ball(k)))
