#!/usr/bin/env python3
"""Fit-by-fit parity of the fitting engine between two git revisions.

    python3 tools/parity.py --parent HEAD~1 --change HEAD

Run from the root of a git checkout. Each revision is exported with
bench_pairs.export, and bench_pairs.import_as imports its src/robust_t into
this one process as robust_t_parent and robust_t_change; without --workdir
the exports go under a temp directory that is removed when the run ends.
Each side records the estimators._fit_batch outcome of every fit of five
sets:

* case_i: case I, n = 200 plus 5 outliers, 2 replicates, ML plus q
  0.80:0.98:0.02, SimulationSpec seeds 100-159 (1,320 fits);
* case_ii: case II, 30 replicates, seed 7, ML plus q 0.70:0.98:0.02
  (480 fits);
* large: large_dataset(0, 0, 2000, 10) by ML and by MLq at q = 0.9 and
  0.7 (3 fits), from the change tree's perfbench/workloads.py, so both
  sides fit the same arrays;
* held_nu: nu held, so no nu search runs: case_i's replicates of seeds
  100-119 by ML and q 0.8 and 0.9 at fixed_nu = 3 (120 fits), then the
  large set's three fits at fixed_nu = 500, above NU_BRACKET (3 fits);
* failing: case I, n = 5 with no outliers, 30 replicates, seed 5, ML plus q
  0.7 and 0.9 (90 fits, some of which fail), so that failed fits and their
  records are compared too.

Per set it prints one JSON line: the fits; the failures on each side; the
fits whose failure state, iteration count or (converged, nu_clamped)
differ; the fits both sides finished whose objective or trace (each
evaluation's change norm and objective) differ in any bit; the fits with
bitwise-equal mu, sigma and nu, by method; the largest |d mu|, |d sigma|
and |d nu| over the fits both sides finished;
by method, on each side, the mean iterations and the count of unconverged
fits over the fits that side finished; and, on each side, the counts of
the set's nu search that counting_nu_search takes. Every line also holds
each side's src_lines, the line count of src/robust_t/*.py, and
public_names, the length of robust_t.__all__.

For case_i, case_ii, held_nu and failing the line also holds, under "simulation",
the parity of run_simulation on the same specs (one report per seed): for
each MethodSummary field and each ReplicateRecord field (as record_<name>),
the largest |d| between parent and change (0 where both are NaN, inf where
one is), and whether every selected_q, every summary's (method, q) and
every record's (replicate, method, q) is equal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bench_pairs import export, export_dir, import_as  # a sibling of this script

SETS = ("case_i", "case_ii", "large", "held_nu", "failing")
SIMULATED = ("case_i", "case_ii", "held_nu", "failing")
# the large set's (method, q), and the nu held_nu fits them at, above NU_BRACKET's 200
LARGE_LABELS = (("ml", 1.0), ("mlq", 0.9), ("mlq", 0.7))
LARGE_HELD_NU = 500.0
# the per-set counts of record_outcomes, each reported per side
COUNTS = ("nu_score_evaluations", "nu_score_calls", "nu_solves", "nu_end_reads",
          "squarem_nu_solves", "squarem_nu_score_calls")
# the sizes of each tree's package, reported on every set's line
SIZES = ("src_lines", "public_names")


def _grid(low: float, count: int) -> tuple[float, ...]:
    return tuple(round(low + 0.02 * k, 2) for k in range(count))


@contextmanager
def counting_nu_search(estimators):
    """Count the engine's nu search, one count per key of COUNTS, while open.

    Wraps estimators._bracketed_root and the evaluator g it is given, whose
    calls take one row of candidates per fit, NaN where a fit or candidate
    is not evaluated. Yields a dict that counts the calls of g
    ("nu_score_calls") and the candidates that are not NaN among them
    ("nu_score_evaluations"); the solves ("nu_solves") and those that read
    a bracket end ("nu_end_reads"), that is, hold a candidate at lo or hi in
    a call after their first (the first holds each fit's start, which may be
    an end); and the solves from SQUAREM points, those given a finite Newton
    tolerance ("squarem_nu_solves"), with their calls of g
    ("squarem_nu_score_calls").
    """
    count = dict.fromkeys(COUNTS, 0)
    original = estimators._bracketed_root

    def counted_root(g, lo, hi, start, newton_tol=estimators._NU_XTOL):
        at_end = []

        def counted(nu):
            at_end.append(bool(((nu == lo) | (nu == hi)).any()))
            count["nu_score_evaluations"] += int(np.count_nonzero(~np.isnan(nu)))
            return g(nu)

        result = original(counted, lo, hi, start, newton_tol)
        squarem = newton_tol != math.inf
        count["nu_score_calls"] += len(at_end)
        count["nu_solves"] += 1
        count["nu_end_reads"] += any(at_end[1:])
        count["squarem_nu_solves"] += squarem
        count["squarem_nu_score_calls"] += squarem * len(at_end)
        return result

    estimators._bracketed_root = counted_root
    try:
        yield count
    finally:
        estimators._bracketed_root = original


def simulated_specs(rt) -> dict:
    """The SimulationSpecs of each set of SIMULATED, by the package rt: one batch per spec."""

    def specs(case, seeds, replicates, grid, n=200, n_outliers=5, **fit):
        return [rt.SimulationSpec(true_params=rt.preset_case(case), n=n, n_outliers=n_outliers,
                                  n_replications=replicates, q_grid=grid, seed=seed,
                                  fit_config=rt.FitConfig(**fit))
                for seed in seeds]

    return {"case_i": specs(1, range(100, 160), 2, _grid(0.8, 10)),
            "case_ii": specs(2, [7], 30, _grid(0.7, 15)),
            "held_nu": specs(1, range(100, 120), 2, (0.8, 0.9), fixed_nu=3.0),
            "failing": specs(1, [5], 30, (0.7, 0.9), n=5, n_outliers=0)}


def record_outcomes(rt, large_dataset) -> dict:
    """Every fit of SETS by the package rt, the large sets' data made by large_dataset."""
    estimators = rt.estimators

    def run(datasets, labels, fixed_nu=None):
        configs = [rt.FitConfig(method=method, q=q, fixed_nu=fixed_nu) for method, q in labels]
        return [_record(method, outcome)
                for outcomes in estimators._fit_batch(datasets, configs)
                for (method, _), outcome in zip(labels, outcomes)]

    def paper(spec):
        datasets = [rt.contaminate(rt.generate_replicate(spec, k), spec, k)
                    for k in range(spec.n_replications)]
        return run(datasets, [("ml", 1.0)] + [("mlq", q) for q in spec.q_grid],
                   spec.fit_config.fixed_nu)

    simulated = simulated_specs(rt)
    # the sets that fit the large data, each with its fixed_nu
    large = {"large": None, "held_nu": LARGE_HELD_NU}
    outcomes = {key: {} for key in COUNTS}
    for name in SETS:
        with counting_nu_search(estimators) as count:
            fits = [fit for spec in simulated.get(name, ()) for fit in paper(spec)]
            if name in large:
                fits += run([large_dataset(0, 0, 2000, 10)], LARGE_LABELS, large[name])
            outcomes[name] = fits
        for key in COUNTS:
            outcomes[key][name] = count[key]
    sources = Path(rt.__file__).parent.glob("*.py")
    outcomes["src_lines"] = sum(len(path.read_text().splitlines()) for path in sources)
    outcomes["public_names"] = len(rt.__all__)
    outcomes["simulations"] = {name: [_report(rt.run_simulation(spec)) for spec in simulated[name]]
                               for name in SIMULATED}
    return outcomes


def _record(method: str, outcome) -> dict:
    """A fit outcome as plain values, readable without robust_t."""
    if isinstance(outcome, Exception):
        return {"method": method, "failure": str(outcome)}
    params = outcome.params
    return {"method": method, "failure": None, "iterations": outcome.iterations,
            "converged": outcome.converged, "nu_clamped": outcome.nu_clamped,
            "mu": np.array(params.mu), "sigma": np.array(params.sigma), "nu": params.nu,
            "objective": outcome.objective,
            "trace": np.array([(r.change_norm, r.objective) for r in outcome.trace])}


def _report(report) -> dict:
    """A SimulationReport's selected q, summaries and records as plain values."""
    return {"selected_q": report.selected_q,
            "summaries": [dict(vars(summary)) for summary in (report.ml, *report.q_sweep)],
            "records": [dict(vars(record)) for record in report.records]}


def _largest_gap(a, b) -> float:
    """The largest |a - b| over the entries, 0 where both are NaN and inf where one is."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    gap = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
    return float(np.max(np.where(np.isnan(gap), np.inf, gap)))


def _same_trace(a: dict, b: dict) -> bool:
    """Whether two finished fits' objectives and traces are bitwise equal; absent ones are."""
    return (a.get("objective") == b.get("objective")
            and np.array_equal(a.get("trace", ()), b.get("trace", ())))


def _field_gaps(pairs: list, labels: tuple, prefix: str = "") -> tuple[bool, dict]:
    """Whether every pair's labels are equal, and each other field's largest gap, prefixed."""
    same = all([a[key] for key in labels] == [b[key] for key in labels] for a, b in pairs)
    fields = [key for key in (pairs[0][0] if pairs else ()) if key not in labels]
    return same, {prefix + key: max(_largest_gap(a[key], b[key]) for a, b in pairs)
                  for key in fields}


def compare_simulations(parent: list[dict], change: list[dict]) -> dict:
    """The summary and record parity of one set, report k of parent against report k of change.

    max_abs_d holds each summary field's largest gap, then each record field's, as
    record_<name>; a record's (replicate, method, q) counts as its label.
    """
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent reports against {len(change)} change reports")
    summaries, records = ([pair for a, b in zip(parent, change)
                           for pair in zip(a[kind], b[kind], strict=True)]
                          for kind in ("summaries", "records"))
    same_summaries, summary_gaps = _field_gaps(summaries, ("method", "q"))
    same_records, record_gaps = _field_gaps(records, ("replicate", "method", "q"), "record_")
    return {
        "reports": len(parent),
        "summaries": len(summaries),
        "records": len(records),
        "labels_equal": same_summaries and same_records,
        "selected_q_equal": all(a["selected_q"] == b["selected_q"]
                                for a, b in zip(parent, change)),
        "max_abs_d": {**summary_gaps, **record_gaps},
    }


def compare(parent: list[dict], change: list[dict]) -> dict:
    """The parity summary of one set, fit k of parent against fit k of change."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent fits against {len(change)} change fits")
    pairs = list(zip(parent, change))
    both = [(a, b) for a, b in pairs if a["failure"] is None and b["failure"] is None]

    def largest(key):
        return max((float(np.max(np.abs(np.subtract(a[key], b[key])))) for a, b in both),
                   default=0.0)

    finished = {side: [fit for fit in fits if fit["failure"] is None]
                for side, fits in (("parent", parent), ("change", change))}

    def by_method(summarise):
        methods = sorted({fit["method"] for fits in finished.values() for fit in fits})
        return {m: {side: summarise([fit for fit in fits if fit["method"] == m])
                    for side, fits in finished.items()} for m in methods}

    bitwise: dict[str, int] = {}
    for a, b in both:
        same = (np.array_equal(a["mu"], b["mu"]) and np.array_equal(a["sigma"], b["sigma"])
                and a["nu"] == b["nu"])
        bitwise[a["method"]] = bitwise.get(a["method"], 0) + same
    return {
        "fits": len(pairs),
        "failures": {"parent": sum(a["failure"] is not None for a in parent),
                     "change": sum(b["failure"] is not None for b in change)},
        "failure_mismatches": sum(a["failure"] != b["failure"] for a, b in pairs),
        "iteration_mismatches": sum(a["iterations"] != b["iterations"] for a, b in both),
        "flag_mismatches": sum((a["converged"], a["nu_clamped"])
                               != (b["converged"], b["nu_clamped"]) for a, b in both),
        "trace_mismatches": sum(not _same_trace(a, b) for a, b in both),
        "fits_by_method": {m: sum(a["method"] == m for a, _ in both) for m in sorted(bitwise)},
        "bitwise_equal_by_method": dict(sorted(bitwise.items())),
        "max_abs_d_mu": largest("mu"),
        "max_abs_d_sigma": largest("sigma"),
        "max_abs_d_nu": largest("nu"),
        "mean_iterations_by_method": by_method(
            lambda fits: float(np.mean([fit["iterations"] for fit in fits])) if fits else None),
        "unconverged_by_method": by_method(
            lambda fits: sum(not fit["converged"] for fit in fits)),
    }


def set_line(name: str, parent: dict, change: dict) -> dict:
    """The printed parity line of set name, from each side's record_outcomes."""
    sides = {"parent": parent, "change": change}
    line = {"set": name, **compare(parent[name], change[name])}
    for key in COUNTS:
        if key in parent:  # each count the records hold
            line[key] = {side: outcomes[key][name] for side, outcomes in sides.items()}
    for key in SIZES:
        if key in parent:
            line[key] = {side: outcomes[key] for side, outcomes in sides.items()}
    if name in SIMULATED:
        line["simulation"] = compare_simulations(parent["simulations"][name],
                                                 change["simulations"][name])
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workdir", default=None,
                        help="where the exports go (default: a temp dir, removed at the end)")
    args = parser.parse_args(argv)

    with export_dir(args.workdir, "parity-") as workdir:
        trees = {side: export(rev, workdir) for side, rev in (("parent", args.parent),
                                                                ("change", args.change))}
        sys.path.insert(0, str(trees["change"][1] / "perfbench"))
        from workloads import large_dataset

        sides = {}
        for side, (sha, tree) in trees.items():
            print(f"{side}: {sha}", file=sys.stderr, flush=True)
            rt = import_as(f"robust_t_{side}", tree / "src" / "robust_t")
            sides[side] = record_outcomes(rt, large_dataset)
    for name in SETS:
        print(json.dumps(set_line(name, sides["parent"], sides["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
