"""Potential (renewal) densities of subordinators with positive drift.

Three mutually cross-validating computation routes (alternating series,
Volterra renewal-equation solver, Bromwich inversion), differentiability
analysis driven by the atom-sum sets of the jump measure, limit-law
checks at zero and infinity, and an event-driven Monte Carlo estimator of
creeping probabilities as an independent probabilistic oracle.

Public names resolve on first read (PEP 562): ``import subpot`` loads
nothing but the table below, and reading ``subpot.u_series`` (or ``from
subpot import u_series``) imports the module that defines it.  So
``import subpot`` plus ``load_model`` loads only the model layer.  The
``subpot`` console script imports the compute modules through ``cli.py``
as before, so its start-up does not change.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_OWNERS = {
    "AsymptoticCheck": "asymptotics",
    "check_du_infinity": "asymptotics",
    "check_du_zero": "asymptotics",
    "check_linear_zero": "asymptotics",
    "check_zero_series": "asymptotics",
    "AtomSumEntry": "convolve",
    "AtomSumSet": "convolve",
    "ConvolutionEngine": "convolve",
    "atom_sums": "convolve",
    "BvSplit": "density",
    "CrosscheckResult": "density",
    "DensityGrid": "density",
    "bv_split": "density",
    "evaluate": "density",
    "laplace_crosscheck": "density",
    "series_radius": "density",
    "u_series": "density",
    "u_volterra": "density",
    "AccuracyFailureError": "errors",
    "BudgetExceededError": "errors",
    "ContourOrderError": "errors",
    "IndeterminateIndexError": "errors",
    "ModelValidationError": "errors",
    "PreconditionError": "errors",
    "SeriesRadiusError": "errors",
    "SubpotError": "errors",
    "density_integrand": "inversion",
    "derivative_integrand": "inversion",
    "derivative_zero_contour": "inversion",
    "invert_density": "inversion",
    "invert_derivative_pair": "inversion",
    "tail_transform": "inversion",
    "AcTail": "model",
    "AtomicPart": "model",
    "LevyModel": "model",
    "Side": "model",
    "load_model": "model",
    "model_from_dict": "model",
    "CreepEstimate": "simulate",
    "PathOutcome": "simulate",
    "creep_prob": "simulate",
    "creep_prob_killed": "simulate",
    "first_passage": "simulate",
    "SmoothnessReport": "smoothness",
    "classify_point": "smoothness",
    "conv_jump": "smoothness",
    "derivative_jump": "smoothness",
}
# submodules, which read as attributes after a plain ``import subpot`` too
_SUBMODULES = frozenset({*_OWNERS.values(), "piecewise", "_special"})

__all__ = sorted(_OWNERS)


def __getattr__(name: str):
    # Nothing is cached here: a read always sees the owning module's current
    # attribute, so a patch of ``subpot.density.u_series`` (and its undoing)
    # shows through ``subpot.u_series`` too.
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNERS[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
