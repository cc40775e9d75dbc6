"""Replicated contamination experiments comparing the two estimators.

A SimulationSpec describes one experiment: draw n rows from a known t
distribution, append a handful of uniform outliers placed several marginal
standard deviations above the location, fit with both methods (the
q-weighted one across a grid of q values), and aggregate means, Euclidean
parameter distances and the squared-error of the degrees of freedom over
replications. The q minimizing the combined mean distance is selected.

Replicates are fitted in groups, each group one lockstep batch of the
estimators' engine, whose arrays give one table row per fit; the records
and the summaries are both read from those rows, with no FitResult in
between. Every replicate derives its own generator streams from (seed,
index), and a fit's result does not depend on its batch, so reports
are bitwise reproducible and independent of the grouping and of how many
worker processes execute the groups.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, DomainError
from .estimators import DEFAULT_Q, METHOD_ML, METHOD_MLQ, FitConfig, _from_upper, _lockstep
from .tdist import MvtParams, _integer, as_data_matrix, sample

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
        for name in ("n", "n_outliers", "n_replications", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
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


def _stream(seed: int, index, *tag: int) -> np.random.Generator:
    """Replicate index's generator, or with a tag one of its other streams; index is checked."""
    index = _integer(index, "replicate index")
    if index < 0:
        raise DomainError("replicate index must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence([seed, index, *tag]))


def generate_replicate(spec: SimulationSpec, replicate_index: int) -> np.ndarray:
    """Draw the clean data of one replicate from its own generator stream."""
    return sample(spec.true_params, spec.n, _stream(spec.seed, replicate_index))


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
    rng = _stream(spec.seed, replicate_index, _CONTAMINATION_STREAM)
    extra = rng.uniform(*_outlier_box(spec), size=(spec.n_outliers, rows.shape[1]))
    return np.vstack([rows, extra])


def distance_metrics(estimate: MvtParams, truth: MvtParams) -> DistanceMetrics:
    """Euclidean location distance, Frobenius scatter distance, squared nu error."""
    if estimate.dim != truth.dim:
        raise DimensionMismatch("estimate and truth have different dimensions")
    return _errors(estimate.mu[None], estimate.sigma[None], [estimate.nu], truth)[0]


def _errors(mu, sigma, nu: list[float], truth: MvtParams) -> list[DistanceMetrics]:
    """The DistanceMetrics of B estimates, from their mu (B, p), sigma (B, p, p) and nu.

    Each distance is math.sqrt of a raveled difference's dot, as np.linalg.norm takes it.
    """
    d_mu, d_sigma = mu - truth.mu, (sigma - truth.sigma).reshape(len(sigma), -1)
    return [DistanceMetrics(math.sqrt(a @ a), math.sqrt(b @ b), (v - truth.nu) ** 2)
            for a, b, v in zip(d_mu, d_sigma, nu)]


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


def _group_rows(args) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit a group of replicates by ML and across the q grid, all in one lockstep batch.

    Returns, in record order, each fit's failed and converged flags, iteration count and table
    row: its packed iterate x (mu, sigma's upper triangle, nu), then its _errors. The engine
    leaves a failed fit's x NaN, its iterations 0 and converged False.
    """
    spec, indices, labels, upper = args
    datasets = [contaminate(generate_replicate(spec, index), spec, index) for index in indices]
    configs = [replace(spec.fit_config, method=method, q=(1.0 if q is None else q))
               for method, q in labels]
    report = _lockstep(datasets, configs)
    x, p, truth = report.x, spec.true_params.dim, spec.true_params
    errors = _errors(x[:, :p], _from_upper(x[:, p:-1], upper, p), x[:, -1].tolist(), truth)
    failed = np.array([failure is not None for failure in report.failures])
    return failed, report.converged, report.iterations, np.column_stack((x, errors))


def _summarize(labels, failed, converged, table, truth: MvtParams, upper) -> list[MethodSummary]:
    """Each config's summary, over the columns of the fits' table: slot k is rows k::slots.

    The combined distance d_mu + d_sigma + |nu - truth.nu| is one more column.
    """
    p, slots = truth.dim, len(labels)
    table = np.column_stack((table, table[:, -3] + table[:, -2] + np.abs(table[:, -4] - truth.nu)))
    n_failed, n_used = (np.count_nonzero(flags.reshape(-1, slots), axis=0).tolist()
                        for flags in (failed, converged))
    means = np.array([table[k::slots][converged[k::slots]].mean(axis=0) if n_used[k]
                      else np.full(table.shape[1], math.nan) for k in range(slots)])
    sigma, n = _from_upper(means[:, p:-5], upper, p), len(table) // slots
    # the table's columns in MethodSummary's order, after the counts
    return [MethodSummary(method, q, n, n_failed[k], n - n_failed[k] - n_used[k], n_used[k],
                          means[k, :p], sigma[k], *scalars)
            for k, ((method, q), scalars) in enumerate(zip(labels, means[:, -5:].tolist()))]


def run_simulation(spec: SimulationSpec, jobs: int = 1) -> SimulationReport:
    """Run all replicates, fit both methods, and aggregate.

    The replicates go through the lockstep engine in contiguous groups
    (_replicate_groups): every fit of every replicate in a group, ML and the
    whole q grid, advances in one batch, so a group costs as many
    iterations as its slowest fit. jobs > 1 runs the groups on a process
    pool of at most one worker per usable CPU; the report does not depend on
    either (see the module docstring). The groups' rows, in replicate order,
    give the records and, slot by slot, the summaries (_summarize).
    """
    jobs = _integer(jobs, "jobs")
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    p = spec.true_params.dim
    upper = np.triu_indices(p)  # one for the workers and the summaries
    labels = [(METHOD_ML, None)] + [(METHOD_MLQ, q) for q in spec.q_grid]
    tasks = [(spec, group, labels, upper) for group in _replicate_groups(spec, jobs)]
    if jobs > 1:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        # the pool starts all its workers at the first submit, so it gets no idle ones
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks), cpus or 1)) as pool:
            chunks = list(pool.map(_group_rows, tasks))
    else:
        chunks = [_group_rows(t) for t in tasks]
    failed, converged, iterations, table = (np.concatenate(column) for column in zip(*chunks))
    records = tuple(
        ReplicateRecord(k // len(labels), *labels[k % len(labels)], *flags, tuple(row[:p]),
                        tuple(row[p:-4]), *row[-4:])
        for k, (*flags, row) in enumerate(zip(failed.tolist(), converged.tolist(),
                                              iterations.tolist(), table.tolist())))
    ml, *sweep = _summarize(labels, failed, converged, table, spec.true_params, upper)
    best = min(sweep, key=lambda s: (not math.isfinite(s.mean_combined), s.mean_combined))
    return SimulationReport(spec, ml, best, float(best.q), tuple(sweep), records)

