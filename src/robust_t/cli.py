"""Command-line front end.

Subcommands: fit, sample, score-curve, density-grid, simulate, showcase.
All input and output is plain CSV and JSON. Exit codes: 0 success,
1 input or usage error, 2 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateData,
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
)
from .estimators import METHOD_ML, METHOD_MLQ, FitConfig, FitResult, fit
from .simulation import (
    ShowcaseResult,
    SimulationReport,
    SimulationSpec,
    fit_and_grid,
    preset_case,
    run_simulation,
    run_single_showcase,
)
from .tdist import MvtParams, sample, score_curve

_INPUT_ERRORS = (
    DegenerateData,
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
    OSError,
)

DEFAULT_Q = 0.85


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; reserve 2 for non-convergence
    def error(self, message):
        raise _UsageError(message)


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _parse_csv_row(path: str, row: list[str], number: int) -> list[float]:
    values = []
    for column, cell in enumerate(row, start=1):
        try:
            value = float(cell)
        except ValueError:
            raise _UsageError(
                f"{path}: non-numeric value {cell.strip()!r} "
                f"at row {number}, column {column}"
            ) from None
        if not math.isfinite(value):
            raise _UsageError(
                f"{path}: non-finite value at row {number}, column {column}"
            )
        values.append(value)
    return values


def _is_header_row(row: list[str]) -> bool:
    """True when no cell of the row parses as a number."""
    for cell in row:
        try:
            float(cell)
        except ValueError:
            continue
        return False
    return True


def read_matrix_csv(path: str) -> np.ndarray:
    """Read an n x p numeric CSV, auto-detecting a single header row.

    The first non-blank row is a header only when none of its cells is a
    number; a first row with some numeric cells is data, so a bad cell in
    it is reported like one in any other row.
    """
    try:
        with open(path, newline="") as handle:
            raw = [
                (number, row)
                for number, row in enumerate(csv.reader(handle), start=1)
                if any(cell.strip() for cell in row)
            ]
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    if raw and _is_header_row(raw[0][1]):
        raw = raw[1:]  # header row
    if not raw:
        raise _UsageError(f"{path}: no observations")
    width = len(raw[0][1])
    body = []
    for number, row in raw:
        if len(row) != width:
            raise _UsageError(
                f"{path}: row {number} has {len(row)} fields, expected {width}"
            )
        body.append(_parse_csv_row(path, row, number))
    return np.array(body, dtype=float)


def write_matrix_csv(path: str, rows: np.ndarray, header: list[str] | None = None):
    with open(path, "w", newline="") as handle:
        if header:
            handle.write(",".join(header) + "\n")
        for row in np.atleast_2d(rows):
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise _UsageError(f"cannot parse vector {text!r}") from None


def parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise _UsageError(f"cannot parse matrix {text!r}") from None
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise _UsageError(f"matrix rows of {text!r} have unequal lengths")
    return np.array(rows)


def parse_q_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) != 3:
            raise ValueError
        low, high, step = (float(v) for v in parts)
    except ValueError:
        raise _UsageError(f"q grid must be lo:hi:step, got {text!r}") from None
    if step <= 0 or high < low:
        raise _UsageError(f"invalid q grid {text!r}")
    count = int(round((high - low) / step)) + 1
    grid = tuple(round(low + k * step, 12) for k in range(count) if low + k * step <= high + step * 1e-9)
    return grid


def parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    try:
        low, high = (float(v) for v in parts)
    except ValueError:
        raise _UsageError(f"range must be lo:hi, got {text!r}") from None
    return low, high


def _result_dict(result: FitResult) -> dict:
    return {
        "method": result.method,
        "q": result.q,
        "mu": [float(v) for v in result.params.mu],
        "sigma": [[float(v) for v in row] for row in result.params.sigma],
        "nu": float(result.params.nu),
        "iterations": result.iterations,
        "converged": result.converged,
        "objective": float(result.objective),
        "stopping_norm": float(result.change_norm),
        "stopping_norm_definition": result.norm_definition,
        "nu_estimated": result.nu_estimated,
        "nu_clamped": result.nu_clamped,
    }


def _dump_json(payload: dict, handle):
    handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_json(path: str | None, payload: dict):
    if path:
        with open(path, "w") as handle:
            _dump_json(payload, handle)
    else:
        _dump_json(payload, sys.stdout)


def _fit_config_from(args, method: str, q: float) -> FitConfig:
    return FitConfig(method=method, q=q, fixed_nu=args.nu, epsilon=args.epsilon,
                     max_iter=args.max_iter)


def cmd_fit(args) -> int:
    data = read_matrix_csv(args.input)
    method = args.method
    if method == METHOD_ML and args.q is not None:
        raise _UsageError("--q applies to --method mlq only")
    q = args.q if args.q is not None else (DEFAULT_Q if method == METHOD_MLQ else 1.0)
    config = _fit_config_from(args, method, q)
    result = fit(data, config)
    _write_json(args.output, _result_dict(result))
    return 0 if result.converged else 2


def cmd_sample(args) -> int:
    mu = parse_vector(args.mu)
    sigma = parse_matrix(args.sigma)
    params = MvtParams(mu, sigma, args.nu)
    rng = np.random.default_rng(args.seed)
    rows = sample(params, args.n, rng)
    write_matrix_csv(args.output, rows)
    return 0


def cmd_score_curve(args) -> int:
    if args.points < 1:
        raise _UsageError("--points must be at least 1")
    if not 0.0 < args.s_min < args.s_max:
        raise _UsageError("need 0 < --s-min < --s-max for the log-spaced grid")
    params = MvtParams(np.zeros(args.p), np.eye(args.p), args.nu)
    grid = np.geomspace(args.s_min, args.s_max, args.points)
    q = None
    if args.method == METHOD_ML and args.q is not None:
        raise _UsageError("--q applies to --method mlq only")
    if args.method == METHOD_MLQ:
        q = args.q if args.q is not None else DEFAULT_Q
        if not 0.0 < q < 1.0:
            raise _UsageError("--q must lie strictly between 0 and 1")
    curve = score_curve(params, grid, q=q)
    write_matrix_csv(args.output, curve, header=["s", "value"])
    return 0


def _jobs(args) -> int:
    if args.jobs is not None:
        if args.jobs < 1:
            raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
        return args.jobs
    env = os.environ.get("ROBUST_T_JOBS", "")
    if not env:
        return 1
    try:
        jobs = int(env)
    except ValueError:
        raise _UsageError(f"ROBUST_T_JOBS={env!r} is not an integer") from None
    if jobs < 1:
        raise _UsageError(f"ROBUST_T_JOBS must be at least 1, got {jobs}")
    return jobs


def _spec_from(args, truth: MvtParams, q_grid: tuple[float, ...],
               n_replications: int) -> SimulationSpec:
    low, high = args.outlier_range
    return SimulationSpec(
        true_params=truth,
        n=args.n,
        n_outliers=args.outliers,
        n_replications=n_replications,
        q_grid=q_grid,
        outlier_low=low,
        outlier_high=high,
        seed=args.seed,
        fit_config=FitConfig(epsilon=args.epsilon, max_iter=args.max_iter),
    )


def _number(value) -> float | None:
    """value as a float, or None (JSON null) where it is NaN or infinite."""
    value = float(value)
    return value if math.isfinite(value) else None


def _summary_dict(summary) -> dict:
    return {
        "method": summary.method,
        "q": summary.q,
        "n_replications": summary.n_replications,
        "n_failed": summary.n_failed,
        "n_nonconverged": summary.n_nonconverged,
        "n_used": summary.n_used,
        "mean_mu": [_number(v) for v in summary.mean_mu],
        "mean_sigma": [[_number(v) for v in row] for row in summary.mean_sigma],
        "mean_nu": _number(summary.mean_nu),
        "mean_d_mu": _number(summary.mean_d_mu),
        "mean_d_sigma": _number(summary.mean_d_sigma),
        "mse_nu": _number(summary.mse_nu),
        "mean_combined_distance": _number(summary.mean_combined),
    }


def _report_rows(report: SimulationReport) -> list[list[str]]:
    truth = report.spec.true_params
    p = truth.dim
    rows = []
    for j in range(p):
        rows.append([
            f"mu_{j + 1}", _fmt(truth.mu[j]),
            _fmt(report.ml.mean_mu[j]), _fmt(report.ml.mean_d_mu),
            _fmt(report.mlq.mean_mu[j]), _fmt(report.mlq.mean_d_mu),
        ])
    for i in range(p):
        for j in range(i, p):
            rows.append([
                f"sigma_{i + 1}_{j + 1}", _fmt(truth.sigma[i, j]),
                _fmt(report.ml.mean_sigma[i, j]), _fmt(report.ml.mean_d_sigma),
                _fmt(report.mlq.mean_sigma[i, j]), _fmt(report.mlq.mean_d_sigma),
            ])
    rows.append([
        "nu", _fmt(truth.nu),
        _fmt(report.ml.mean_nu), _fmt(report.ml.mse_nu),
        _fmt(report.mlq.mean_nu), _fmt(report.mlq.mse_nu),
    ])
    return rows


def cmd_simulate(args) -> int:
    q_grid = parse_q_grid(args.q_grid)
    spec = _spec_from(args, preset_case(args.case), q_grid, args.replications)
    jobs = _jobs(args)
    out = Path(args.output)
    csv_path = out if out.suffix == ".csv" else Path(str(out) + ".csv")
    # both outputs are opened before the run, so an unwritable path fails at once
    with (open(csv_path, "w", newline="") as csv_out,
          open(csv_path.with_suffix(".json"), "w") as json_out):
        report = run_simulation(spec, jobs=jobs)
        csv_out.write("parameter,true,ml_mean,ml_distance,mlq_mean,mlq_distance\n")
        for row in _report_rows(report):
            csv_out.write(",".join(row) + "\n")
        _dump_json({
            "case": args.case,
            "n": args.n,
            "outliers": args.outliers,
            "replications": args.replications,
            "seed": args.seed,
            "outlier_range": list(args.outlier_range),
            "selected_q": report.selected_q,
            "q_grid": list(report.spec.q_grid),
            "ml": _summary_dict(report.ml),
            "mlq": _summary_dict(report.mlq),
            "q_sweep": [_summary_dict(s) for s in report.q_sweep],
        }, json_out)
    if all(record.failed for record in report.records):
        raise DegenerateData(f"all {len(report.records)} fits failed; counts in {json_out.name}")
    return 0


def _write_showcase_outputs(prefix: str, show: ShowcaseResult, extra: dict | None = None) -> int:
    write_matrix_csv(f"{prefix}_data.csv", show.data)
    payload = {"ml": _result_dict(show.ml_fit), "mlq": _result_dict(show.mlq_fit)}
    if extra:
        payload.update(extra)
    _write_json(f"{prefix}_fits.json", payload)
    with open(f"{prefix}_grid.csv", "w", newline="") as handle:
        handle.write("x,y,ml_density,mlq_density\n")
        for iy in range(show.grid_y.shape[0]):
            for ix in range(show.grid_x.shape[0]):
                handle.write(",".join([
                    _fmt(show.grid_x[ix]), _fmt(show.grid_y[iy]),
                    _fmt(show.ml_density[iy, ix]), _fmt(show.mlq_density[iy, ix]),
                ]) + "\n")
    return 0 if (show.ml_fit.converged and show.mlq_fit.converged) else 2


def cmd_density_grid(args) -> int:
    data = read_matrix_csv(args.input)
    q = args.q if args.q is not None else DEFAULT_Q
    show = fit_and_grid(data, _fit_config_from(args, METHOD_ML, 1.0), q, args.grid_points)
    return _write_showcase_outputs(args.out, show)


def cmd_showcase(args) -> int:
    if args.case is not None:
        truth = preset_case(args.case)
    else:
        if args.mu is None or args.sigma is None or args.nu is None:
            raise _UsageError("showcase needs --case or all of --mu/--sigma/--nu")
        truth = MvtParams(parse_vector(args.mu), parse_matrix(args.sigma), args.nu)
    q = args.q if args.q is not None else DEFAULT_Q
    show = run_single_showcase(_spec_from(args, truth, (q,), 1), grid_points=args.grid_points)
    truth_dict = {
        "truth": {
            "mu": [float(v) for v in truth.mu],
            "sigma": [[float(v) for v in row] for row in truth.sigma],
            "nu": float(truth.nu),
        }
    }
    return _write_showcase_outputs(args.out, show, truth_dict)


def _add_fit_flags(sub):
    sub.add_argument("--epsilon", type=float, default=1e-6,
                     help="stopping rule on the parameter-change norm")
    sub.add_argument("--max-iter", type=int, default=1000)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robust-t", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="fit a CSV of observations")
    p_fit.add_argument("input")
    p_fit.add_argument("--method", choices=[METHOD_ML, METHOD_MLQ], default=METHOD_ML)
    p_fit.add_argument("--q", type=float, default=None)
    p_fit.add_argument("--nu", type=float, default=None,
                       help="hold the degrees of freedom fixed at this value (default: estimate)")
    p_fit.add_argument("--output", default=None, help="result JSON path (stdout if omitted)")
    _add_fit_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sample = subs.add_parser("sample", help="draw observations to a CSV")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--mu", required=True, help="comma-separated location, e.g. 2,1")
    p_sample.add_argument("--sigma", required=True,
                          help="scatter rows separated by ';', e.g. 1,0;0,1")
    p_sample.add_argument("--nu", type=float, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--output", required=True)
    p_sample.set_defaults(func=cmd_sample)

    p_curve = subs.add_parser("score-curve", help="export the nu-score curve")
    p_curve.add_argument("--method", choices=[METHOD_ML, METHOD_MLQ], default=METHOD_ML)
    p_curve.add_argument("--q", type=float, default=None)
    p_curve.add_argument("--nu", type=float, default=3.0)
    p_curve.add_argument("--p", type=int, default=2)
    p_curve.add_argument("--s-min", type=float, default=1e-2)
    p_curve.add_argument("--s-max", type=float, default=1e8)
    p_curve.add_argument("--points", type=int, default=200)
    p_curve.add_argument("--output", required=True)
    p_curve.set_defaults(func=cmd_score_curve)

    p_sim = subs.add_parser("simulate", help="replicated contamination experiment")
    p_sim.add_argument("--case", type=int, choices=[1, 2], required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--outliers", type=int, default=5)
    p_sim.add_argument("--replications", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--q-grid", default="0.8:0.98:0.02",
                       help="lo:hi:step sweep of q values")
    p_sim.add_argument("--outlier-range", type=parse_range, default=(80.0, 160.0),
                       help="lo:hi offsets in marginal standard deviations")
    p_sim.add_argument("--jobs", type=int, default=None,
                       help="worker processes (env ROBUST_T_JOBS as fallback)")
    p_sim.add_argument("--output", required=True, help="report CSV path")
    _add_fit_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_grid = subs.add_parser("density-grid", help="fit a CSV and export contour data")
    p_grid.add_argument("input")
    p_grid.add_argument("--q", type=float, default=None)
    p_grid.add_argument("--nu", type=float, default=None,
                        help="hold the degrees of freedom fixed at this value (default: estimate)")
    p_grid.add_argument("--grid-points", type=int, default=60)
    p_grid.add_argument("--out", required=True, help="output file prefix")
    _add_fit_flags(p_grid)
    p_grid.set_defaults(func=cmd_density_grid)

    p_show = subs.add_parser("showcase", help="one contaminated replicate, both fits")
    p_show.add_argument("--case", type=int, choices=[1, 2], default=None)
    p_show.add_argument("--mu", default=None)
    p_show.add_argument("--sigma", default=None)
    p_show.add_argument("--nu", type=float, default=None, help="true degrees of freedom")
    p_show.add_argument("--n", type=int, default=100)
    p_show.add_argument("--outliers", type=int, default=5)
    p_show.add_argument("--seed", type=int, default=0)
    p_show.add_argument("--q", type=float, default=None)
    p_show.add_argument("--outlier-range", type=parse_range, default=(80.0, 160.0))
    p_show.add_argument("--grid-points", type=int, default=60)
    p_show.add_argument("--out", required=True, help="output file prefix")
    _add_fit_flags(p_show)
    p_show.set_defaults(func=cmd_showcase)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_UsageError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
