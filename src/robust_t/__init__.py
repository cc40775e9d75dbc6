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
from .estimators import (
    METHOD_ML,
    METHOD_MLQ,
    EStepQuantities,
    FitConfig,
    FitResult,
    NuSolveResult,
    e_step,
    fit,
    fit_many,
    init_params,
    m_step_ml,
    m_step_mlq,
    solve_nu_ml,
    solve_nu_mlq,
)
from .linalg import (
    cholesky_lower,
    spd_repair,
    symmetrize,
)
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
from .special import digamma, log_gamma
from .tdist import (
    MvtParams,
    as_data_matrix,
    cond_expect_log_u,
    cond_expect_u,
    log_pdf_rows,
    sample,
    score_curve,
)

__all__ = [
    "DegenerateData",
    "DimensionMismatch",
    "DomainError",
    "NotPositiveDefinite",
    "METHOD_ML",
    "METHOD_MLQ",
    "EStepQuantities",
    "FitConfig",
    "FitResult",
    "NuSolveResult",
    "e_step",
    "fit",
    "fit_many",
    "init_params",
    "m_step_ml",
    "m_step_mlq",
    "solve_nu_ml",
    "solve_nu_mlq",
    "cholesky_lower",
    "spd_repair",
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
    "digamma",
    "log_gamma",
    "MvtParams",
    "as_data_matrix",
    "cond_expect_log_u",
    "cond_expect_u",
    "log_pdf_rows",
    "sample",
    "score_curve",
]

__version__ = "0.1.0"
