"""Exception types used across the package."""


class LevyLabError(Exception):
    """Base class for all levylab errors."""


class LengthMismatch(LevyLabError, ValueError):
    """Sequences that must align index-by-index have different lengths."""


class InvalidFunctionTable(LevyLabError, ValueError):
    """A function table contains non-finite values."""


class InvalidSpace(LevyLabError, ValueError):
    """Distance matrix or measure vector violates a construction invariant."""


class InvalidMeasure(LevyLabError, ValueError):
    """Weights are not a probability vector over a distinct support."""


class InvalidSchedule(LevyLabError, ValueError):
    """Schedule entries violate the monotone-hypothesis invariants."""


class NegativeEps(LevyLabError, ValueError):
    """A radius that must be >= 0 is negative."""


class NonPositiveEps(LevyLabError, ValueError):
    """A radius that must be > 0 is zero or negative."""


class SpaceTooLarge(LevyLabError):
    """A space, support, grid or table would exceed its size limit; checked before it is built."""


class TooLargeForExact(LevyLabError):
    """Product enumeration would exceed the exact-mode cap."""


class TooManySamples(LevyLabError):
    """A sampled run would draw more coordinates than the sampling cap."""


class EmptyTuple(LevyLabError, ValueError):
    """A step map needs at least one cell."""


class InvalidElement(LevyLabError, ValueError):
    """Value is not an element of the given group."""


class WrongKind(LevyLabError, TypeError):
    """Operation requires a different group kind."""


class CarrierMismatch(LevyLabError, TypeError):
    """Objects live over different carriers (groups or step-map spaces)."""


class DimensionMismatch(LevyLabError, ValueError):
    """Tuple lengths/indices are inconsistent with the requested embedding."""


class LipschitzViolation(LevyLabError):
    """A profiled member's exact Lipschitz constant exceeds the declared one."""
