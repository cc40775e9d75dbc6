"""Robust estimation of the multivariate t distribution.

Fits location, scatter and degrees of freedom by classical maximum
likelihood (EM) or by a density-power-reweighted variant that keeps the
degrees-of-freedom score bounded, plus a replicated contamination
simulation harness and a CSV/JSON command-line front end.
"""

from .errors import (
    DegenerateData,
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
)
from .estimators import METHOD_ML, METHOD_MLQ, FitConfig, FitResult, fit, fit_many, init_params
from .linalg import cholesky_lower, symmetrize
from .simulation import (
    MethodSummary,
    ReplicateRecord,
    SimulationReport,
    SimulationSpec,
    contaminate,
    distance_metrics,
    generate_replicate,
    preset_case,
    run_simulation,
)
from .tdist import MvtParams, as_data_matrix, cond_expect_u, log_pdf_rows, sample, score_curve

__all__ = [
    "DegenerateData",
    "DimensionMismatch",
    "DomainError",
    "NotPositiveDefinite",
    "METHOD_ML",
    "METHOD_MLQ",
    "FitConfig",
    "FitResult",
    "fit",
    "fit_many",
    "init_params",
    "cholesky_lower",
    "symmetrize",
    "MethodSummary",
    "ReplicateRecord",
    "SimulationReport",
    "SimulationSpec",
    "contaminate",
    "distance_metrics",
    "generate_replicate",
    "preset_case",
    "run_simulation",
    "MvtParams",
    "as_data_matrix",
    "cond_expect_u",
    "log_pdf_rows",
    "sample",
    "score_curve",
]

__version__ = "0.1.0"
