"""Potential (renewal) densities of subordinators with positive drift.

Three mutually cross-validating computation routes (alternating series,
Volterra renewal-equation solver, Bromwich inversion), differentiability
analysis driven by the atom-sum sets of the jump measure, limit-law
checks at zero and infinity, and an event-driven Monte Carlo estimator of
creeping probabilities as an independent probabilistic oracle.
"""

from .asymptotics import (
    AsymptoticCheck,
    check_du_infinity,
    check_du_zero,
    check_linear_zero,
    check_zero_series,
)
from .convolve import AtomSumEntry, AtomSumSet, ConvolutionEngine, atom_sums
from .density import (
    BvSplit,
    CrosscheckResult,
    DensityGrid,
    bv_split,
    laplace_crosscheck,
    series_radius,
    u_series,
    u_volterra,
)
from .errors import (
    AccuracyFailureError,
    BudgetExceededError,
    ContourOrderError,
    FitWindowError,
    IndeterminateIndexError,
    ModelValidationError,
    PreconditionError,
    SeriesRadiusError,
    SubpotError,
)
from .inversion import (
    density_integrand,
    derivative_integrand,
    derivative_zero_contour,
    invert_density,
    invert_derivative,
    invert_derivative_pair,
    tail_transform,
)
from .model import AcTail, AtomicPart, LevyModel, Side, load_model, model_from_dict
from .simulate import CreepEstimate, PathOutcome, creep_prob, creep_prob_killed, first_passage
from .smoothness import (
    SmoothnessReport,
    classify_point,
    conv_jump,
    derivative_jump,
    one_sided_fd,
)

__version__ = "0.1.0"

__all__ = [
    "AcTail",
    "AccuracyFailureError",
    "AsymptoticCheck",
    "AtomSumEntry",
    "AtomSumSet",
    "AtomicPart",
    "BudgetExceededError",
    "BvSplit",
    "ContourOrderError",
    "ConvolutionEngine",
    "CreepEstimate",
    "CrosscheckResult",
    "DensityGrid",
    "FitWindowError",
    "IndeterminateIndexError",
    "LevyModel",
    "ModelValidationError",
    "PathOutcome",
    "PreconditionError",
    "SeriesRadiusError",
    "Side",
    "SmoothnessReport",
    "SubpotError",
    "atom_sums",
    "bv_split",
    "check_du_infinity",
    "check_du_zero",
    "check_linear_zero",
    "check_zero_series",
    "classify_point",
    "conv_jump",
    "creep_prob",
    "creep_prob_killed",
    "density_integrand",
    "derivative_integrand",
    "derivative_jump",
    "derivative_zero_contour",
    "first_passage",
    "invert_density",
    "invert_derivative",
    "invert_derivative_pair",
    "laplace_crosscheck",
    "load_model",
    "model_from_dict",
    "one_sided_fd",
    "series_radius",
    "tail_transform",
    "u_series",
    "u_volterra",
]
