"""Concentration of measure and almost-invariance experiments at desk scale.

The package computes exact concentration functions on finite
metric-measure spaces, deviation profiles on Hamming products, invariance
defects of finitely supported measures on word-metric groups, and runs the
amplification pipeline that pushes almost-invariant measures forward onto
the step-function model of measurable maps into a group.
"""

__version__ = "0.1.0"

from .amplify import (
    DefectResult,
    L0Measure,
    Schedule,
    ScheduleReport,
    ScheduleRow,
    l0_defect,
    push_forward,
    run_schedule,
)
from .errors import (
    CarrierMismatch,
    DimensionMismatch,
    EmptyTuple,
    InvalidElement,
    InvalidFunctionTable,
    InvalidMeasure,
    InvalidSchedule,
    InvalidSpace,
    LengthMismatch,
    LevyLabError,
    LipschitzViolation,
    NegativeEps,
    NonPositiveEps,
    SpaceTooLarge,
    TooLargeForExact,
    TooManySamples,
    WrongKind,
)
from .families import (
    BLFamily,
    GroupCarrier,
    L0Carrier,
    cell_window_family,
    disagreement_family,
    disagreement_member,
    invariance_defect,
    wordlen_clamp_family,
)
from .hamming import (
    DiscreteBase,
    HammingProduct,
    ProfileResult,
    coordinate_sum_law,
    fraction_differing,
    lipschitz_profile,
    lipschitz_profiles,
    product_space,
    sample_indices,
    talagrand_bound,
)
from .mean_transfer import (
    MeanApprox,
    phi_equivariance_check,
    phi_member,
    point_mass,
    transfer_defect,
)
from .mmspace import (
    FiniteMMSpace,
    alpha_profile,
    deviation_masses,
    weighted_deviation_mass,
    weighted_median,
)
from .stepmaps import (
    IntegralMember,
    PiecewiseMap,
    grid_approximate,
    h_embed,
)
from .wordgroups import (
    ClampedLength,
    CyclicGroup,
    FinSuppMeasure,
    FreeGroup2,
    WordGroup,
    ZdGroup,
    ball_uniform,
    folner_measure,
    make_group,
)
