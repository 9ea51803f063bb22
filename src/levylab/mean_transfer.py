"""Averaging group functions along step maps.

The transfer operator sends a bounded function f on G to the function
h -> integral of f(h(t)) dt on step maps, the one-piece IntegralMember
with kernel f: ``phi_member(f)``, evaluated on a map h as
``phi_member(f)(h)``.  For step data the integral is the cell-length-weighted
sum, which makes the algebra exact: unitality, linearity, monotonicity,
and transfer(f o lambda_g) = transfer(f) o lambda_{const g} all hold to
float roundoff.  Composing with the expectation of a measure on step maps
turns almost-invariance at the step-map level into almost-invariance on G.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .families import IntegralMember, compose_with_translation
from .stepmaps import AnyMap, h_embed, pointwise_translate
from .wordgroups import WordGroup

from .amplify import L0Measure, _member_values


def phi_member(f: Callable) -> IntegralMember:
    """f averaged along maps, as a member over the step-map carrier."""
    return IntegralMember((), (f,))


def phi_equivariance_check(group: WordGroup, f: Callable, g, h: AnyMap) -> float:
    """Residual of transfer(f o lambda_g)(h) = transfer(f)(const_g * h).

    Both sides reduce to the same finite cell sum, so the residual is zero
    up to float roundoff (contract: <= 1e-12).
    """
    left = phi_member(compose_with_translation(f, g, group))(h)
    right = phi_member(f)(pointwise_translate(h_embed(group, (g,)), h))
    return abs(left - right)


@dataclass(frozen=True)
class MeanApprox:
    """A measure on step maps acting as a positive unital functional.

    Expectation against it is linear, maps the constant-1 member to 1, and
    is positive on non-negative members; it is the finite-stage stand-in
    for an invariant mean.
    """

    measure: L0Measure

    def expect(self, member: IntegralMember) -> float:
        return float(_member_values(self.measure, (member,))[0] @ self.measure.weights)


def transfer_defect(mean: MeanApprox, f: Callable, g) -> float:
    """|E(transfer f) - E(transfer(f o lambda_g))| under the mean.

    Equals the step-map-level defect of the measure against the constant
    map at g, evaluated on the single member transfer(f).
    """
    moved = compose_with_translation(f, g, mean.measure.base.group)
    return abs(mean.expect(phi_member(f)) - mean.expect(phi_member(moved)))
