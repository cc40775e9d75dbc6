"""Benchmark workloads: seeded inputs, one timed unit of work, output checks.

Every workload is a closed loop with one caller: the next unit starts when
the previous one has returned. A unit is the operation whose wall time is
reported as wall_s:

* paper_sim / paper_sim_jobs2: one run_simulation call of case-I
  replicates (n=200 plus 5 outliers at 80-160 sd, q grid 0.80:0.98:0.02,
  so 11 fits per replicate), with jobs=1 or jobs=2;
* fit_small: one cycle of FIT_SMALL_CYCLE, eight fit() calls alternating ML
  with MLq, each on a fresh case-II-shaped dataset (n=200 plus 5 outliers);
* large_fit: robust_t.cli.main(["fit", ...]) by ML and by MLq at q=0.9 on a
  20,000 x 2 and a 2,000 x 10 CSV written before timing starts.

Inputs come from numpy generators keyed by (seed, workload, index); the
package receives only those arrays, or SimulationSpec.seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as _now

import numpy as np

import check

Q_GRID = tuple(round(0.80 + 0.02 * k, 12) for k in range(10))
PAPER_N = 200
PAPER_OUTLIERS = 5
PAPER_REPLICATES = 2
# run_simulation hands replicates to its pool in chunks of 4: eight give
# both workers of jobs=2 a chunk.
JOBS2_REPLICATES = 8
FIT_SMALL_CYCLE = (("ml", 1.0), ("mlq", 0.8), ("ml", 1.0), ("mlq", 0.85),
                   ("ml", 1.0), ("mlq", 0.9), ("ml", 1.0), ("mlq", 0.95))
# p95 needs at least 10 samples beyond it, hence 200 fits per run.
FIT_SMALL_MIN_FITS = 200
# Fewest units per run, so a median is never taken over one or two values;
# a traced run replays the first trace_units units of the timed run.
MIN_UNITS = 3
LARGE_SHAPES = ((20_000, 2), (2_000, 10))
LARGE_METHODS = (("ml", None), ("mlq", 0.9))
LARGE_OUTLIER_SHARE = 0.005

CASE1 = (np.array([2.0, 1.0]), np.eye(2), 3.0)
CASE2 = (np.array([2.0, 1.0]), np.array([[2.0, -0.5], [-0.5, 2.0]]), 3.0)

WORKLOAD_TAGS = {"paper_sim": 1, "fit_small": 2, "large_fit": 3, "paper_sim_jobs2": 1}
# Reference inputs use their own seed, so they never depend on --seed.
REFERENCE_SEED = 1707_01130


def rng_for(seed: int, workload: str, *index: int) -> np.random.Generator:
    key = [int(seed), WORKLOAD_TAGS[workload], *(int(i) for i in index)]
    return np.random.default_rng(np.random.SeedSequence(key))


def t_sample(rng, mu, sigma, nu: float, n: int) -> np.ndarray:
    """n rows of a multivariate t as a normal / chi-squared scale mixture."""
    z = rng.standard_normal((n, mu.shape[0]))
    w = rng.chisquare(nu, size=n) / nu
    return mu + (z @ np.linalg.cholesky(sigma).T) / np.sqrt(w)[:, None]


def contaminated(rng, truth, n: int, n_out: int) -> np.ndarray:
    """t rows plus uniform outliers 80-160 marginal sd above the location."""
    mu, sigma, nu = truth
    rows = t_sample(rng, mu, sigma, nu, n)
    sd = np.sqrt(np.diag(sigma))
    extra = rng.uniform(mu + 80.0 * sd, mu + 160.0 * sd, size=(n_out, mu.shape[0]))
    return np.vstack([rows, extra])


def large_truth(rng, p: int):
    if p == 2:
        return CASE2
    a = rng.standard_normal((p, p))
    return rng.normal(0.0, 1.0, p), a @ a.T / p + 0.5 * np.eye(p), 3.0


def large_dataset(seed: int, index: int, n: int, p: int) -> np.ndarray:
    rng = rng_for(seed, "large_fit", index)
    n_out = max(1, int(round(LARGE_OUTLIER_SHARE * n)))
    return contaminated(rng, large_truth(rng, p), n - n_out, n_out)


def small_dataset(seed: int, index: int) -> np.ndarray:
    return contaminated(rng_for(seed, "fit_small", index), CASE2, PAPER_N, PAPER_OUTLIERS)


def simulation_seed(seed: int, unit: int) -> int:
    return int(rng_for(seed, "paper_sim", unit).integers(0, 2**31 - 1))


def write_csv(path: Path, rows: np.ndarray):
    """CSV with a header and round-trip float formatting, so it parses back exactly."""
    header = ",".join(f"x{j + 1}" for j in range(rows.shape[1]))
    np.savetxt(path, rows, delimiter=",", fmt="%.17g", header=header, comments="")


@dataclass(eq=False)
class FitOutput:
    """One fit as the benchmark saw it, plus what the checks need."""

    method: str
    q: float
    mu: np.ndarray = None
    sigma: np.ndarray = None
    nu: float = None
    converged: bool = False
    iterations: int = 0
    objectives: list = None
    data: np.ndarray = None
    error: str = None
    seconds: float = None

    def as_dict(self) -> dict:
        return {"method": self.method, "q": self.q, "mu": list(map(float, self.mu)),
                "sigma": np.asarray(self.sigma).tolist(), "nu": float(self.nu),
                "converged": bool(self.converged)}

    def key(self) -> tuple:
        """Everything the package reported, for exact comparisons between runs."""
        if self.error is not None:
            return (self.method, self.q, self.error)
        return (self.method, self.q, tuple(np.ravel(self.mu)), tuple(np.ravel(self.sigma)),
                self.nu, self.converged, self.iterations)

    def problems(self) -> list[str]:
        if self.error is not None:
            return [self.error]
        return check.fit_problems(self.data, self.mu, self.sigma, self.nu, self.converged,
                                  self.method, self.q, self.objectives)


class PaperSim:
    """run_simulation on the paper's design; the unit is one call."""

    has_fit_times = False

    def __init__(self, rt, seed: int, workdir: Path, jobs: int = 1):
        self.rt, self.seed, self.jobs = rt, seed, jobs
        self.replicates = PAPER_REPLICATES if jobs == 1 else JOBS2_REPLICATES
        self.fits_per_unit = self.replicates * (1 + len(Q_GRID))
        self.trace_units = 4 if jobs == 1 else 1
        self.min_units = max(MIN_UNITS, self.trace_units)

    def spec(self, sim_seed: int, replicates: int):
        rt = self.rt
        mu, sigma, nu = CASE1
        return rt.SimulationSpec(
            true_params=rt.MvtParams(mu, sigma, nu), n=PAPER_N, n_outliers=PAPER_OUTLIERS,
            n_replications=replicates, q_grid=Q_GRID, outlier_low=80.0,
            outlier_high=160.0, seed=sim_seed,
        )

    def inputs(self, unit: int):
        return self.spec(simulation_seed(self.seed, unit), self.replicates)

    def run(self, spec) -> list:
        return list(self.rt.run_simulation(spec, jobs=self.jobs).records)

    def outputs(self, spec, records) -> list[FitOutput]:
        rt = self.rt
        p = spec.true_params.dim
        data = {}
        out = []
        for rec in records:
            q = 1.0 if rec.q is None else rec.q
            if rec.failed:
                out.append(FitOutput(rec.method, q, error="fit raised DegenerateData"))
                continue
            if rec.replicate not in data:
                clean = rt.generate_replicate(spec, rec.replicate)
                data[rec.replicate] = rt.contaminate(clean, spec, rec.replicate)
            out.append(FitOutput(rec.method, q, np.array(rec.mu),
                                 check.full_sigma(rec.sigma, p), rec.nu, rec.converged,
                                 rec.iterations, data=data[rec.replicate]))
        return out

    def reference_run(self) -> list[FitOutput]:
        spec = self.spec(REFERENCE_SEED, 1)
        return self.outputs(spec, self.run(spec))

    def reference_inputs(self):
        """Datasets of the reference run, with the fits to record for each."""
        spec = self.spec(REFERENCE_SEED, 1)
        data = self.rt.contaminate(self.rt.generate_replicate(spec, 0), spec, 0)
        return [(data, "ml", 1.0)] + [(data, "mlq", q) for q in Q_GRID]


class FitSmall:
    """fit() on fresh n=205 datasets; the unit is one cycle of eight fits."""

    fits_per_unit = len(FIT_SMALL_CYCLE)
    has_fit_times = True
    min_units = trace_units = FIT_SMALL_MIN_FITS // len(FIT_SMALL_CYCLE)

    def __init__(self, rt, seed: int, workdir: Path):
        self.rt, self.seed = rt, seed

    def inputs(self, unit: int):
        first = unit * len(FIT_SMALL_CYCLE)
        return [(small_dataset(self.seed, first + k), method, q)
                for k, (method, q) in enumerate(FIT_SMALL_CYCLE)]

    def run(self, cycle) -> list[FitOutput]:
        out = []
        for data, method, q in cycle:
            start = _now()
            try:
                result = self.rt.fit(data, self.rt.FitConfig(method=method, q=q))
            except Exception as exc:  # a raising fit is a counted failure
                out.append(FitOutput(method, q, error=f"{type(exc).__name__}: {exc}",
                                     seconds=_now() - start))
                continue
            seconds = _now() - start
            params = result.params
            out.append(FitOutput(method, q, params.mu, params.sigma, params.nu,
                                 result.converged, result.iterations,
                                 [rec.objective for rec in result.trace], data, seconds=seconds))
        return out

    def outputs(self, cycle, results) -> list[FitOutput]:
        return results

    def reference_inputs(self):
        return [(small_dataset(REFERENCE_SEED, k), method, q)
                for k, (method, q) in enumerate(FIT_SMALL_CYCLE)]

    def reference_run(self) -> list[FitOutput]:
        return self.run(self.reference_inputs())


class LargeFit:
    """The in-process CLI on two large CSVs; the unit is the four fits."""

    fits_per_unit = len(LARGE_SHAPES) * len(LARGE_METHODS)
    has_fit_times = True
    trace_units = 2
    min_units = MIN_UNITS
    reference_shapes = ((4_000, 2), (1_000, 10))

    def __init__(self, rt, seed: int, workdir: Path):
        self.rt, self.workdir = rt, workdir
        self.jobs = self._write(seed, LARGE_SHAPES, "run")

    def _write(self, seed, shapes, tag):
        jobs = []
        for index, (n, p) in enumerate(shapes):
            data = large_dataset(seed, index, n, p)
            path = self.workdir / f"{tag}_{n}x{p}.csv"
            write_csv(path, data)
            for method, q in LARGE_METHODS:
                jobs.append((path, data, method, q))
        return jobs

    def inputs(self, unit: int):
        return self.jobs

    def run(self, jobs) -> list[FitOutput]:
        out = []
        for path, data, method, q in jobs:
            result_path = path.with_suffix(f".{method}.json")
            argv = ["fit", str(path), "--method", method, "--output", str(result_path)]
            if q is not None:
                argv += ["--q", repr(q)]
            start = _now()
            try:
                code = self.rt.cli.main(argv)
            except Exception as exc:
                out.append(FitOutput(method, q or 1.0, error=f"{type(exc).__name__}: {exc}",
                                     seconds=_now() - start))
                continue
            seconds = _now() - start
            if code not in (0, 2):
                out.append(FitOutput(method, q or 1.0, error=f"cli exit code {code}",
                                     seconds=seconds))
                continue
            res = json.loads(result_path.read_text())
            out.append(FitOutput(method, q or 1.0, np.array(res["mu"]), np.array(res["sigma"]),
                                 res["nu"], res["converged"], res["iterations"],
                                 data=data, seconds=seconds))
        return out

    def outputs(self, jobs, results) -> list[FitOutput]:
        return results

    def reference_inputs(self):
        return [(data, method, q or 1.0) for _, data, method, q
                in self._write(REFERENCE_SEED, self.reference_shapes, "reference")]

    def reference_run(self) -> list[FitOutput]:
        return self.run(self._write(REFERENCE_SEED, self.reference_shapes, "reference"))


def make(name: str, rt, seed: int, workdir: Path):
    if name == "paper_sim":
        return PaperSim(rt, seed, workdir, jobs=1)
    if name == "paper_sim_jobs2":
        return PaperSim(rt, seed, workdir, jobs=2)
    if name == "fit_small":
        return FitSmall(rt, seed, workdir)
    if name == "large_fit":
        return LargeFit(rt, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
