"""Averaging group functions along step maps.

The transfer operator sends a bounded function f on G to the function
h -> integral of f(h(t)) dt on step maps, the one-piece IntegralMember
with kernel f: ``phi_member(f)``, evaluated on a map h as
``phi_member(f)(h)``.  For step data the integral is the cell-length-weighted
sum, which makes the algebra exact: unitality, linearity, monotonicity,
and transfer(f o lambda_g) = transfer(f) o lambda_{const g} all hold to
float roundoff.  Composing with the expectation of a measure on step maps
turns almost-invariance at the step-map level into almost-invariance on G.
Expectations come from amplify.expectations, the one place they are
formed, so a member's expectation here has the same bits as in l0_defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .stepmaps import IntegralMember, PiecewiseMap, h_embed, pointwise_translate
from .wordgroups import WordGroup

from .amplify import L0Measure, expectations


def phi_member(f: Callable) -> IntegralMember:
    """f averaged along maps, as a member over the step-map carrier."""
    return IntegralMember((), (f,))


def phi_equivariance_check(group: WordGroup, f: Callable, g, h: PiecewiseMap) -> float:
    """Residual of transfer(f o lambda_g)(h) = transfer(f)(const_g * h).

    Both sides reduce to the same finite cell sum, so the residual is zero
    up to float roundoff (contract: <= 1e-12).
    """
    g = group.validate(g)
    left = phi_member(lambda x: f(group.op(g, x)))(h)
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
        return float(expectations(self.measure, (member,))[0][0, 0])


def transfer_defect(mean: MeanApprox, f: Callable, g) -> float:
    """|E(transfer f) - E(transfer(f o lambda_g))| under the mean.

    Equals the step-map-level defect of the measure against the constant
    map at g on the single member transfer(f), so it is one expectations
    call with the shifts (identity, const g).
    """
    group = mean.measure.base.group
    means = expectations(mean.measure, (phi_member(f),), (None, h_embed(group, (g,))))[0]
    return float(abs(means[0, 0] - means[1, 0]))
