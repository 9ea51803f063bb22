"""Averaging group functions along step maps.

The transfer operator sends a bounded function f on G to the function
h -> integral of f(h(t)) dt on step maps, the one-piece IntegralMember
with kernel f: ``phi_member(f)``; its value at a grid map h is its
expectation under ``point_mass`` at h.  For step data the integral is the
cell-length-weighted sum, which makes the algebra exact: unitality,
linearity, monotonicity, and transfer(f o lambda_g) = transfer(f) o
lambda_{const g} all hold to float roundoff.  Composing with the
expectation of a measure on step maps turns almost-invariance at the
step-map level into almost-invariance on G.  Expectations come from
amplify.expectations, the one place members are evaluated, so a member
has the same bits here as in l0_defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .stepmaps import IntegralMember, h_embed
from .wordgroups import FinSuppMeasure, WordGroup

from .amplify import L0Measure, expectations


def phi_member(f: Callable) -> IntegralMember:
    """f averaged along maps, as a member over the step-map carrier."""
    return IntegralMember((), (f,))


def point_mass(group: WordGroup, values) -> L0Measure:
    """The point mass at the map with value values[i] on grid cell i: one row of codes over its distinct values."""
    index = {}
    codes = [index.setdefault(group.validate(v), len(index)) for v in values]
    return L0Measure(FinSuppMeasure._unchecked(group, group.pack(tuple(index))), len(codes), [codes], (1.0,), "exact")


def phi_equivariance_check(group: WordGroup, f: Callable, g, values) -> float:
    """Residual of transfer(f o lambda_g)(h) = transfer(f)(const_g * h) at the grid map h with these values.

    Both sides come from one expectations call on the point mass at h, f o
    lambda_g at the identity and f at the constant map g: the same finite
    cell sum, so the residual is zero up to float roundoff (contract: <= 1e-12).
    """
    g = group.validate(g)
    members = (phi_member(lambda x: f(group.op(g, x))), phi_member(f))
    means = expectations(point_mass(group, values), members, (None, h_embed(group, (g,))))[0]
    return float(abs(means[0, 0] - means[1, 1]))


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
