"""Replicated contamination experiments comparing the two estimators.

A SimulationSpec describes one experiment: draw n rows from a known t
distribution, append a handful of uniform outliers placed several marginal
standard deviations above the location, fit with both methods (the
q-weighted one across a grid of q values), and aggregate means, Euclidean
parameter distances and the squared-error of the degrees of freedom over
replications. The q minimizing the combined mean distance is selected.

Replicates are fitted in groups, each group one lockstep batch of the
estimators' engine. Every replicate derives its own generator streams
from (seed, index), and a fit's result does not depend on its batch, so
reports are bitwise reproducible and independent of the grouping and of
how many worker processes execute the groups.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateData, DimensionMismatch, DomainError
from .estimators import DEFAULT_Q, METHOD_ML, METHOD_MLQ, FitConfig, _fit_batch
from .tdist import MvtParams, as_data_matrix, sample

__all__ = [
    "SimulationSpec",
    "SimulationReport",
    "MethodSummary",
    "ReplicateRecord",
    "DistanceMetrics",
    "preset_case",
    "generate_replicate",
    "contaminate",
    "distance_metrics",
    "run_simulation",
]

# Stream tag separating the contamination draws from the data draws.
_CONTAMINATION_STREAM = 1
# Most fit x row elements in one lockstep batch of replicates: about 116
# replicates of the paper's design (11 fits of 205 rows), one at n = 20,000.
GROUP_ELEMENTS = 2**18


def preset_case(case: int) -> MvtParams:
    """The two canonical bivariate truths used by the experiments."""
    if case == 1:
        return MvtParams(np.array([2.0, 1.0]), np.eye(2), 3.0)
    if case == 2:
        return MvtParams(
            np.array([2.0, 1.0]), np.array([[2.0, -0.5], [-0.5, 2.0]]), 3.0
        )
    raise DomainError(f"case must be 1 or 2, got {case}")


@dataclass(frozen=True)
class SimulationSpec:
    """Description of one replicated contamination experiment."""

    true_params: MvtParams
    n: int
    n_outliers: int = 5
    n_replications: int = 100
    q_grid: tuple[float, ...] = (DEFAULT_Q,)
    outlier_low: float = 80.0
    outlier_high: float = 160.0
    seed: int = 0
    fit_config: FitConfig = FitConfig()

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("sample size must be at least 2")
        if self.n_outliers < 0:
            raise DomainError("outlier count must be nonnegative")
        if self.n_replications < 1:
            raise DomainError("need at least one replication")
        grid = tuple(float(q) for q in self.q_grid)
        if not grid:
            raise DomainError("q grid must be non-empty")
        if any(not 0.0 < q <= 1.0 for q in grid):
            raise DomainError("q grid values must lie in (0, 1]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("q grid must be strictly ascending")
        if not -math.inf < self.outlier_low <= self.outlier_high < math.inf:
            raise DomainError("outlier range must be finite with low <= high")
        with np.errstate(over="ignore", invalid="ignore"):
            low, high = _outlier_box(self)
            if not np.isfinite(high - low).all():  # numpy's uniform raises on such a width
                raise DomainError("outlier range overflows at the scale of the truth")
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        if (self.fit_config.method, self.fit_config.q) != (METHOD_ML, 1.0):
            raise DomainError("fit_config must leave method and q unset: the q grid sets them")
        object.__setattr__(self, "q_grid", grid)


class DistanceMetrics(NamedTuple):
    d_mu: float
    d_sigma: float
    sq_err_nu: float


@dataclass(frozen=True)
class ReplicateRecord:
    """One fit outcome inside the raw per-replication table."""

    replicate: int
    method: str
    q: Optional[float]
    failed: bool
    converged: bool
    iterations: int
    mu: tuple[float, ...]
    sigma: tuple[float, ...]  # row-major upper triangle
    nu: float
    d_mu: float
    d_sigma: float
    sq_err_nu: float


@dataclass(frozen=True)
class MethodSummary:
    """Counts over one config's records; means over its n_used converged fits, NaN if none."""

    method: str
    q: Optional[float]
    n_replications: int
    n_failed: int
    n_nonconverged: int
    n_used: int
    mean_mu: np.ndarray
    mean_sigma: np.ndarray
    mean_nu: float
    mean_d_mu: float
    mean_d_sigma: float
    mse_nu: float
    mean_combined: float


@dataclass(frozen=True)
class SimulationReport:
    """The summaries and their records: replicate by replicate, each ML then the q grid."""

    spec: SimulationSpec
    ml: MethodSummary
    mlq: MethodSummary  # q_sweep's least finite mean_combined (first on ties), else q_sweep[0]
    selected_q: float
    q_sweep: tuple[MethodSummary, ...]
    records: tuple[ReplicateRecord, ...]


def _stream(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def generate_replicate(spec: SimulationSpec, replicate_index: int) -> np.ndarray:
    """Draw the clean data of one replicate from its own generator stream."""
    if replicate_index < 0:
        raise DomainError("replicate index must be nonnegative")
    rng = _stream(spec.seed, replicate_index)
    return sample(spec.true_params, spec.n, rng)


def _outlier_box(spec: SimulationSpec) -> tuple[np.ndarray, np.ndarray]:
    """The corners mu + low * sd and mu + high * sd of the outliers' box."""
    sd = np.sqrt(np.diag(spec.true_params.sigma))
    return spec.true_params.mu + spec.outlier_low * sd, spec.true_params.mu + spec.outlier_high * sd


def contaminate(data, spec: SimulationSpec, replicate_index: int) -> np.ndarray:
    """Append the replicate's uniform outliers to the data.

    Each outlier coordinate j is uniform on
    [mu_j + low * sd_j, mu_j + high * sd_j] with sd_j the true marginal
    standard deviation of the scatter, so the points land well outside the
    bulk of the sample.
    """
    rows = as_data_matrix(data)
    if spec.n_outliers == 0:
        return rows
    rng = _stream(spec.seed, replicate_index, _CONTAMINATION_STREAM)
    extra = rng.uniform(*_outlier_box(spec), size=(spec.n_outliers, rows.shape[1]))
    return np.vstack([rows, extra])


def distance_metrics(estimate: MvtParams, truth: MvtParams) -> DistanceMetrics:
    """Euclidean location distance, Frobenius scatter distance, squared nu error."""
    if estimate.dim != truth.dim:
        raise DimensionMismatch("estimate and truth have different dimensions")
    d_mu = float(np.linalg.norm(estimate.mu - truth.mu))
    d_sigma = float(np.linalg.norm(estimate.sigma - truth.sigma, ord="fro"))
    return DistanceMetrics(d_mu, d_sigma, (estimate.nu - truth.nu) ** 2)


def _fit_record(index: int, method: str, q: Optional[float], outcome,
                spec: SimulationSpec, upper: tuple[np.ndarray, np.ndarray]) -> ReplicateRecord:
    if isinstance(outcome, (DegenerateData, DomainError)):
        nan_mu = (math.nan,) * spec.true_params.dim
        nan_sig = (math.nan,) * len(upper[0])
        return ReplicateRecord(index, method, q, True, False, 0, nan_mu,
                               nan_sig, math.nan, math.nan, math.nan, math.nan)
    dist = distance_metrics(outcome.params, spec.true_params)
    return ReplicateRecord(
        replicate=index,
        method=method,
        q=q,
        failed=False,
        converged=outcome.converged,
        iterations=outcome.iterations,
        mu=tuple(outcome.params.mu.tolist()),
        sigma=tuple(outcome.params.sigma[upper].tolist()),
        nu=outcome.params.nu,
        d_mu=dist.d_mu,
        d_sigma=dist.d_sigma,
        sq_err_nu=dist.sq_err_nu,
    )


def _replicate_groups(spec: SimulationSpec, jobs: int) -> list[range]:
    """Contiguous runs of replicate indices, each one lockstep batch.

    A group holds at most GROUP_ELEMENTS fit x row elements (but at least
    one replicate), and there are at least as many groups as jobs, up to one
    per replicate; the groups differ in size by at most one replicate.
    """
    count = spec.n_replications
    elements = (1 + len(spec.q_grid)) * (spec.n + spec.n_outliers)
    per_group = max(1, GROUP_ELEMENTS // elements)
    groups = min(count, max(-(-count // per_group), jobs))
    bounds = [count * k // groups for k in range(groups + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _group_records(args) -> list[ReplicateRecord]:
    """Fit a group of replicates by ML and across the q grid, all in one lockstep batch."""
    spec, indices, upper = args
    datasets = [contaminate(generate_replicate(spec, index), spec, index) for index in indices]
    labels = [(METHOD_ML, None)] + [(METHOD_MLQ, q) for q in spec.q_grid]
    configs = [replace(spec.fit_config, method=method, q=(1.0 if q is None else q))
               for method, q in labels]
    return [_fit_record(index, method, q, outcome, spec, upper)
            for index, outcomes in zip(indices, _fit_batch(datasets, configs))
            for (method, q), outcome in zip(labels, outcomes)]


def _summarize(records: list[ReplicateRecord], truth: MvtParams, upper) -> MethodSummary:
    """One config's summary; its means are the column means of the converged rows."""
    table = np.array([(*r.mu, *r.sigma, r.nu, r.d_mu, r.d_sigma, r.sq_err_nu,
                       r.d_mu + r.d_sigma + abs(r.nu - truth.nu)) for r in records])
    used = np.array([r.converged for r in records])
    means = table[used].mean(axis=0) if used.any() else np.full(table.shape[1], math.nan)
    p = truth.dim
    mean_sigma = np.empty((p, p))
    mean_sigma[upper] = mean_sigma[upper[::-1]] = means[p:-5]
    mean_nu, mean_d_mu, mean_d_sigma, mse_nu, combined = means[-5:].tolist()
    return MethodSummary(
        method=records[0].method,
        q=records[0].q,
        n_replications=len(records),
        n_failed=sum(r.failed for r in records),
        n_nonconverged=sum(not (r.failed or r.converged) for r in records),
        n_used=int(used.sum()),
        mean_mu=means[:p],
        mean_sigma=mean_sigma,
        mean_nu=mean_nu,
        mean_d_mu=mean_d_mu,
        mean_d_sigma=mean_d_sigma,
        mse_nu=mse_nu,
        mean_combined=combined,
    )


def run_simulation(spec: SimulationSpec, jobs: int = 1) -> SimulationReport:
    """Run all replicates, fit both methods, and aggregate.

    The replicates go through the lockstep engine in contiguous groups
    (_replicate_groups): every fit of every replicate in a group, ML and the
    whole q grid, advances in one batch, so a group costs as many
    iterations as its slowest fit. jobs > 1 runs the groups on a process
    pool of at most one worker per usable CPU; the report does not depend on
    either (see the module docstring).
    """
    upper = np.triu_indices(spec.true_params.dim)  # one for the records and summaries
    tasks = [(spec, group, upper) for group in _replicate_groups(spec, jobs)]
    if jobs > 1:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        # the pool starts all its workers at the first submit, so it gets no idle ones
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks), cpus or 1)) as pool:
            chunks = list(pool.map(_group_records, tasks))
    else:
        chunks = [_group_records(t) for t in tasks]
    records = [record for chunk in chunks for record in chunk]

    slots = 1 + len(spec.q_grid)
    ml, *sweep = (_summarize(records[k::slots], spec.true_params, upper) for k in range(slots))
    best = min(sweep, key=lambda s: (not math.isfinite(s.mean_combined), s.mean_combined))
    return SimulationReport(
        spec=spec,
        ml=ml,
        mlq=best,
        selected_q=float(best.q),
        q_sweep=tuple(sweep),
        records=tuple(records),
    )

