"""Command-line front end.

Subcommands: fit, sample, score-curve, density-grid, simulate, showcase.
All input and output is plain CSV and JSON; numpy reads and writes every
CSV, each number as %.17g so that it reads back bit for bit. A CSV is one
numpy parse; blank rows and bad cells are sought only where numpy refuses
it. Exit codes: 0 success; 1 input or usage error, or a size too large to
allocate; 2 non-convergence: a fit of fit, density-grid or showcase
stopped at --max-iter, or simulate ran fits and none converged. Every
output is written before a 2 is returned.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import replace
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateData,
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
)
from .estimators import DEFAULT_Q, METHOD_ML, METHOD_MLQ, FitConfig, FitResult, fit, fit_many
from .simulation import (
    SimulationReport,
    SimulationSpec,
    contaminate,
    generate_replicate,
    preset_case,
    run_simulation,
)
from .tdist import MvtParams, log_pdf_rows, sample, score_curve

_INPUT_ERRORS = (
    DegenerateData,
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
    OSError,
    MemoryError,
)

# numpy's CSV dialect: '"' quotes a cell, and '#' is a cell like any other
_CSV = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 2}
# a line of only whitespace, commas and quotes, matched from the \n before it
_BLANK_CANDIDATE = re.compile(r'\n(?:[^\S\n]|[,"])*(?=\n|\Z)')
_NUMBER = "%.17g"
# a longer q grid is rejected before any value is built; simulate fits each one
_MAX_Q_VALUES = 10_000
_MAX_GRID_POINTS = 1_000  # per axis; a contour grid holds its square, each row as text
_parser = functools.cache(lambda: build_parser())  # main's, built at its first call


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; reserve 2 for non-convergence
    def error(self, message):
        raise _UsageError(message)


def _cells(line: str) -> list[str]:
    """The cells of one non-empty line as numpy splits them, quotes and trailing NULs removed."""
    return [cell.rstrip("\x00") for cell in np.loadtxt([line], dtype=object, **_CSV)[0]]


def _non_blank_lines(text: str) -> tuple[list[int], list[str]]:
    """The numbers (from 1) and the text of the lines with a cell that is not blank."""
    lines, padded = text.split("\n"), "\n" + text
    keep, index, start = [True] * len(lines), 0, 0
    for match in _BLANK_CANDIDATE.finditer(padded):
        index += padded.count("\n", start, match.start())
        start, line = match.start(), lines[index]
        # a quote may stay in a cell, as in ' "'
        keep[index] = bool(line.strip()) and any(cell.strip() for cell in _cells(line))
    return list(compress(range(1, len(lines) + 1), keep)), list(compress(lines, keep))


def _is_header_row(row: list[str]) -> bool:
    """True when no cell of the row parses as a number."""
    for cell in row:
        try:
            float(cell)
        except ValueError:
            continue
        return False
    return True


def _read_finite(lines: list[str]) -> np.ndarray | None:
    """lines as a float matrix, or None where numpy refuses them or reads a NaN or infinity."""
    try:
        values = np.loadtxt(lines, **_CSV)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _bad_row_error(path: str, numbers: list[int], lines: list[str]) -> _UsageError:
    """The error naming the first bad row or cell of lines by its number in numbers."""
    # bisection; each half is read with the first line, whose width every row must have
    good, bad = 0, len(lines)  # lines[:good] read, and a row of lines[good:bad] does not
    while bad - good > 1:
        middle = (good + bad) // 2
        if _read_finite(lines[:1] + lines[good:middle]) is None:
            bad = middle
        else:
            good = middle
    number, line = numbers[good], lines[good]
    row, width = _cells(line), len(_cells(lines[0]))
    if len(row) != width:
        return _UsageError(f"{path}: row {number} has {len(row)} fields, expected {width}")
    for column, cell in enumerate(row, start=1):
        try:
            value = np.loadtxt([line], usecols=column - 1, **_CSV)[0, 0]
        except ValueError:
            return _UsageError(f"{path}: non-numeric value {cell.strip()!r} "
                               f"at row {number}, column {column}")
        if not np.isfinite(value):
            return _UsageError(f"{path}: non-finite value at row {number}, column {column}")
    return _UsageError(f"{path}: unreadable row {number}")


def read_matrix_csv(path: str) -> np.ndarray:
    """Read an n x p numeric CSV, auto-detecting a single header row.

    Rows whose cells are all blank are skipped. The first remaining row is a
    header only when none of its cells is a number; a first row with some
    numeric cells is data. numpy parses the lines in one call, skipping "".
    Only where line 0 is blank, no data or a quote follows the header, or
    numpy refuses the lines (as at any other blank row) or reads a NaN or
    infinity, are blank rows found by a scan and the rest searched, to name
    the first bad row or cell by its row number in the file.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    lines = text.split("\n")
    if lines[0].strip():
        header = _is_header_row(_cells(lines[0]))
        body = lines[header:]
        # a quoted cell may span lines, so no quote may follow the header
        if any(body) and text.find('"', header * len(lines[0])) < 0:
            if (values := _read_finite(body)) is not None:
                return values
    numbers, body = _non_blank_lines(text)
    if numbers and _is_header_row(_cells(body[0])):
        numbers, body = numbers[1:], body[1:]
    if not numbers:
        raise _UsageError(f"{path}: no observations")
    values = _read_finite(body)
    if values is None:
        raise _bad_row_error(path, numbers, body)
    return values


def write_matrix_csv(target, rows, header: str = "", fmt=_NUMBER):
    """Write rows to a path or open file, each number as %.17g so it reads back exactly."""
    np.savetxt(target, np.atleast_2d(rows), fmt=fmt, delimiter=",", header=header, comments="")


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
    # below 1e-12, the grid's rounding, values repeat; the ends are checked before any is made
    if not all(map(math.isfinite, (low, high, step))) or step < 1e-12 or high < low:
        raise _UsageError(f"invalid q grid {text!r}: need finite lo <= hi and step >= 1e-12")
    count = int(round(min((high - low) / step, _MAX_Q_VALUES))) + 1  # capped, so finite
    if low + (count - 1) * step > high + step * 1e-9:
        count -= 1
    if count > _MAX_Q_VALUES:
        raise _UsageError(f"q grid {text!r} has more than {_MAX_Q_VALUES} values")
    if not (0.0 < round(low, 12) and round(low + (count - 1) * step, 12) <= 1.0):
        raise _UsageError(f"q grid {text!r} leaves (0, 1]")
    return tuple(round(low + k * step, 12) for k in range(count))


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


def _q_for(args, method: str) -> float:
    """q for method: --q, or DEFAULT_Q without it, for mlq; 1 for ml, which takes no --q."""
    if method == METHOD_ML:
        if args.q is not None:
            raise _UsageError("--q applies to --method mlq only")
        return 1.0
    return DEFAULT_Q if args.q is None else args.q


def cmd_fit(args) -> int:
    data = read_matrix_csv(args.input)
    result = fit(data, _fit_config_from(args, args.method, _q_for(args, args.method)))
    _write_json(args.output, _result_dict(result))
    return 0 if result.converged else 2


def cmd_sample(args) -> int:
    mu = parse_vector(args.mu)
    sigma = parse_matrix(args.sigma)
    params = MvtParams(mu, sigma, args.nu)
    if args.seed < 0:
        raise _UsageError("--seed must be nonnegative")
    rng = np.random.default_rng(args.seed)
    rows = sample(params, args.n, rng)
    write_matrix_csv(args.output, rows)
    return 0


def cmd_score_curve(args) -> int:
    for flag, value in (("--points", args.points), ("--p", args.p)):
        if value < 1:
            raise _UsageError(f"{flag} must be at least 1")
    if not 0.0 < args.s_min < args.s_max < math.inf:
        raise _UsageError("need 0 < --s-min < --s-max < inf for the log-spaced grid")
    params = MvtParams(np.zeros(args.p), np.eye(args.p), args.nu)
    grid = np.geomspace(args.s_min, args.s_max, args.points)
    curve = score_curve(params, grid, q=_q_for(args, args.method))
    write_matrix_csv(args.output, curve, header="s,value")
    return 0


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


def _report_rows(report: SimulationReport) -> np.ndarray:
    """One row per parameter: its label, true value, and each method's mean and distance."""
    truth = report.spec.true_params
    upper = np.triu_indices(truth.dim)
    counts = [truth.dim, len(upper[0]), 1]

    def values(mu, sigma, nu):
        return np.concatenate([mu, sigma[upper], [nu]])

    columns = [values(truth.mu, truth.sigma, truth.nu)]
    for summary in (report.ml, report.mlq):
        columns.append(values(summary.mean_mu, summary.mean_sigma, summary.mean_nu))
        columns.append(np.repeat([summary.mean_d_mu, summary.mean_d_sigma, summary.mse_nu],
                                 counts))
    labels = ([f"mu_{j + 1}" for j in range(truth.dim)]
              + [f"sigma_{i + 1}_{j + 1}" for i, j in zip(*upper)] + ["nu"])
    return np.column_stack([np.array(labels, dtype=object), *columns])


def cmd_simulate(args) -> int:
    q_grid = parse_q_grid(args.q_grid)
    spec = _spec_from(args, preset_case(args.case), q_grid, args.replications)
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    out = Path(args.output)
    csv_path = out if out.suffix == ".csv" else Path(str(out) + ".csv")
    # both outputs are opened before the run, so an unwritable path fails at once
    with (open(csv_path, "w", newline="") as csv_out,
          open(csv_path.with_suffix(".json"), "w") as json_out):
        report = run_simulation(spec, jobs=args.jobs)
        write_matrix_csv(csv_out, _report_rows(report),
                         "parameter,true,ml_mean,ml_distance,mlq_mean,mlq_distance",
                         fmt=["%s"] + 5 * [_NUMBER])
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
    return 0 if any(record.converged for record in report.records) else 2


def _write_density_grid(prefix: str, data: np.ndarray, config: FitConfig, q: float,
                        grid_points: int, extra: dict | None = None) -> int:
    """Fit bivariate data by ML and MLq at q in one fit_many batch, and write both densities.

    A fit that fails raises its DegenerateData error. The grid has grid_points values per
    axis, x varying fastest, over the data's bounding box padded by two marginal standard
    deviations (ddof = 1). Writes prefix_data.csv, prefix_fits.json (with extra's keys) and
    prefix_grid.csv; returns 2 if a fit stopped at max_iter, else 0.
    """
    if data.shape[1] != 2:
        raise DimensionMismatch("density grids require bivariate data")
    if not 2 <= grid_points <= _MAX_GRID_POINTS:
        raise DomainError(f"grid needs 2 to {_MAX_GRID_POINTS} points per axis")
    fits = fit_many(data, [replace(config, method=METHOD_ML, q=1.0),
                           replace(config, method=METHOD_MLQ, q=q)])
    for outcome in fits:
        if isinstance(outcome, DegenerateData):
            raise outcome
    sd = np.std(data, axis=0, ddof=1)
    axes = np.linspace(data.min(axis=0) - 2.0 * sd, data.max(axis=0) + 2.0 * sd, grid_points)
    points = np.column_stack([axis.ravel() for axis in np.meshgrid(*axes.T)])
    densities = [np.exp(log_pdf_rows(points, result.params)) for result in fits]
    write_matrix_csv(f"{prefix}_data.csv", data)
    _write_json(f"{prefix}_fits.json",
                {"ml": _result_dict(fits[0]), "mlq": _result_dict(fits[1]), **(extra or {})})
    write_matrix_csv(f"{prefix}_grid.csv", np.column_stack([points, *densities]),
                     header="x,y,ml_density,mlq_density")
    return 0 if all(result.converged for result in fits) else 2


def cmd_density_grid(args) -> int:
    data = read_matrix_csv(args.input)
    return _write_density_grid(args.out, data, _fit_config_from(args, METHOD_ML, 1.0),
                               _q_for(args, METHOD_MLQ), args.grid_points)


def cmd_showcase(args) -> int:
    if args.case is not None:
        if (args.mu, args.sigma, args.nu) != (None, None, None):
            raise _UsageError("--case sets the truth; it takes no --mu, --sigma or --nu")
        truth = preset_case(args.case)
    else:
        if args.mu is None or args.sigma is None or args.nu is None:
            raise _UsageError("showcase needs --case or all of --mu/--sigma/--nu")
        truth = MvtParams(parse_vector(args.mu), parse_matrix(args.sigma), args.nu)
    spec = _spec_from(args, truth, (_q_for(args, METHOD_MLQ),), 1)
    data = contaminate(generate_replicate(spec, 0), spec, 0)
    truth_dict = {"mu": truth.mu.tolist(), "sigma": truth.sigma.tolist(), "nu": float(truth.nu)}
    return _write_density_grid(args.out, data, spec.fit_config, spec.q_grid[0], args.grid_points,
                               {"truth": truth_dict})


def _add_fit_flags(sub):
    sub.add_argument("--epsilon", type=float, default=FitConfig.epsilon,
                     help="stopping rule on the parameter-change norm")
    sub.add_argument("--max-iter", type=int, default=FitConfig.max_iter)


def _add_contamination_flags(sub):
    sub.add_argument("--outliers", type=int, default=SimulationSpec.n_outliers)
    sub.add_argument("--seed", type=int, default=SimulationSpec.seed)
    sub.add_argument("--outlier-range", type=parse_range,
                     default=(SimulationSpec.outlier_low, SimulationSpec.outlier_high),
                     help="lo:hi offsets in marginal standard deviations; a negative lo "
                          "takes the = form: --outlier-range=-5:5")


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
    _add_contamination_flags(p_sim)
    p_sim.add_argument("--replications", type=int, default=SimulationSpec.n_replications)
    p_sim.add_argument("--q-grid", default="0.8:0.98:0.02",
                       help="lo:hi:step sweep of q values")
    p_sim.add_argument("--jobs", type=int, default=1, help="worker processes")
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
    p_show.add_argument("--case", type=int, choices=[1, 2], default=None,
                        help="preset truth, instead of --mu, --sigma and --nu")
    p_show.add_argument("--mu", default=None)
    p_show.add_argument("--sigma", default=None)
    p_show.add_argument("--nu", type=float, default=None, help="true degrees of freedom")
    p_show.add_argument("--n", type=int, default=100)
    _add_contamination_flags(p_show)
    p_show.add_argument("--q", type=float, default=None)
    p_show.add_argument("--grid-points", type=int, default=60)
    p_show.add_argument("--out", required=True, help="output file prefix")
    _add_fit_flags(p_show)
    p_show.set_defaults(func=cmd_showcase)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
