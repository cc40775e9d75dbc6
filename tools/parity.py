#!/usr/bin/env python3
"""Fit-by-fit parity of the fitting engine between two git revisions.

    python3 tools/parity.py --parent HEAD~1 --change HEAD

Run from the root of a git checkout. Each revision is exported with
bench_pairs.export, and a fresh interpreter imports that tree's src/ and
perfbench/ and records the estimators._fit_batch outcome of every fit of
three sets:

* case_i: case I, n = 200 plus 5 outliers, 2 replicates, ML plus q
  0.80:0.98:0.02, SimulationSpec seeds 100-159 (1,320 fits);
* case_ii: case II, 30 replicates, seed 7, ML plus q 0.70:0.98:0.02
  (480 fits);
* large: perfbench's large_dataset(0, 0, 2000, 10) by ML and by MLq at
  q = 0.9 and 0.7 (3 fits).

Per set it prints one JSON line: the fits; the failures on each side; the
fits whose failure state, iteration count or (converged, nu_clamped)
differ; the fits with bitwise-equal mu, sigma and nu, by method; the
largest |d mu|, |d sigma| and |d nu| over the fits both sides finished;
by method, on each side, the mean iterations and the count of unconverged
fits over the fits that side finished; and, on each side, the nu-score
evaluations of the set's fits, one per fit and candidate nu, the
evaluator calls that made them, the nu solves (estimators._bracketed_root
calls) and the solves that read a bracket end, that is, held a candidate
at an end of the bracket after their first call; and, apart from the
one-step solves, the solves from SQUAREM points (those given a finite
Newton tolerance) and the evaluator calls they made.

For case_i and case_ii the line also holds, under "simulation", the parity
of run_simulation on the same specs (one report per seed): for each
MethodSummary field, the largest |d| between parent and change (0 where
both are NaN, inf where one is), and whether every selected_q and every
summary's (method, q) is equal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

SETS = ("case_i", "case_ii", "large")
SIMULATED = ("case_i", "case_ii")
# the per-set counts of record_outcomes, each reported per side
COUNTS = ("nu_score_evaluations", "nu_score_calls", "nu_solves", "nu_end_reads",
          "squarem_nu_solves", "squarem_nu_score_calls")


def _grid(low: float, count: int) -> tuple[float, ...]:
    return tuple(round(low + 0.02 * k, 2) for k in range(count))


@contextmanager
def counting_nu_scores(estimators):
    """Count the engine's nu-score evaluator calls and evaluations while open.

    Wraps estimators._observed_nu_score, whose evaluators take one row of
    candidates per fit, NaN where a fit or candidate is not evaluated.
    Yields a dict whose "calls" counts the evaluator calls and whose
    "evaluations" counts the (fit, candidate nu) pairs they evaluate.
    """
    count = {"calls": 0, "evaluations": 0}
    original = estimators._observed_nu_score

    def counted_score(*args):
        g = original(*args)

        def counted(nu):
            count["calls"] += 1
            count["evaluations"] += int(np.count_nonzero(~np.isnan(nu)))
            return g(nu)

        return counted

    estimators._observed_nu_score = counted_score
    try:
        yield count
    finally:
        estimators._observed_nu_score = original


@contextmanager
def counting_end_reads(estimators):
    """Count the engine's nu solves, and those that read a bracket end, while open.

    Wraps estimators._bracketed_root. A solve reads an end when a call after
    its first holds a candidate at lo or hi; the first call holds each fit's
    start, which may be an end. Yields a dict whose "solves" counts the
    solves and whose "end_reads" counts those that read an end.
    """
    count = {"solves": 0, "end_reads": 0}
    original = estimators._bracketed_root

    def counted_root(g, lo, hi, *args):
        reads = []

        def watched(nu):
            reads.append(bool(((nu == lo) | (nu == hi)).any()))
            return g(nu)

        result = original(watched, lo, hi, *args)
        count["solves"] += 1
        count["end_reads"] += any(reads[1:])
        return result

    estimators._bracketed_root = counted_root
    try:
        yield count
    finally:
        estimators._bracketed_root = original


@contextmanager
def counting_squarem_solves(estimators):
    """Count the engine's nu solves from SQUAREM points, and their evaluator calls, while open.

    Wraps estimators._bracketed_root. A solve is from a SQUAREM point when its Newton
    tolerance is finite (the default is); the one-step solves get an infinite one. Yields
    a dict whose "solves" counts those solves and whose "calls" counts their calls of g.
    """
    count = {"solves": 0, "calls": 0}
    original = estimators._bracketed_root

    def counted_root(g, lo, hi, start, newton_tol=estimators._NU_XTOL):
        if newton_tol == math.inf:
            return original(g, lo, hi, start, newton_tol)

        def counted(nu):
            count["calls"] += 1
            return g(nu)

        count["solves"] += 1
        return original(counted, lo, hi, start, newton_tol)

    estimators._bracketed_root = counted_root
    try:
        yield count
    finally:
        estimators._bracketed_root = original


def record_outcomes() -> dict:
    """Every fit of SETS under the robust_t and perfbench found on sys.path."""
    import robust_t as rt
    from robust_t import estimators
    from workloads import large_dataset

    def run(datasets, labels):
        configs = [rt.FitConfig(method=method, q=q) for method, q in labels]
        return [_record(method, outcome)
                for outcomes in estimators._fit_batch(datasets, configs)
                for (method, _), outcome in zip(labels, outcomes)]

    def paper(spec):
        datasets = [rt.contaminate(rt.generate_replicate(spec, k), spec, k)
                    for k in range(spec.n_replications)]
        return run(datasets, [("ml", 1.0)] + [("mlq", q) for q in spec.q_grid])

    def specs(case, seeds, replicates, grid):
        return [rt.SimulationSpec(true_params=rt.preset_case(case), n=200, n_outliers=5,
                                  n_replications=replicates, q_grid=grid, seed=seed)
                for seed in seeds]

    simulated = {"case_i": specs(1, range(100, 160), 2, _grid(0.8, 10)),
                 "case_ii": specs(2, [7], 30, _grid(0.7, 15))}
    outcomes = {}
    counts = {key: {} for key in COUNTS}
    for name in SETS:
        with (counting_nu_scores(estimators) as count, counting_end_reads(estimators) as solves,
              counting_squarem_solves(estimators) as squarem):
            outcomes[name] = ([fit for spec in simulated[name] for fit in paper(spec)]
                              if name in SIMULATED else
                              run([large_dataset(0, 0, 2000, 10)],
                                  [("ml", 1.0), ("mlq", 0.9), ("mlq", 0.7)]))
        for key, value in zip(COUNTS, (count["evaluations"], count["calls"],
                                       solves["solves"], solves["end_reads"],
                                       squarem["solves"], squarem["calls"]), strict=True):
            counts[key][name] = value
    outcomes.update(counts)
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
            "mu": np.array(params.mu), "sigma": np.array(params.sigma), "nu": params.nu}


def _report(report) -> dict:
    """A SimulationReport's selected q and summaries as plain values."""
    return {"selected_q": report.selected_q,
            "summaries": [dict(vars(summary)) for summary in (report.ml, *report.q_sweep)]}


def _largest_gap(a, b) -> float:
    """The largest |a - b| over the entries, 0 where both are NaN and inf where one is."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    gap = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
    return float(np.max(np.where(np.isnan(gap), np.inf, gap)))


def compare_simulations(parent: list[dict], change: list[dict]) -> dict:
    """The summary parity of one set, report k of parent against report k of change."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent reports against {len(change)} change reports")
    pairs = [pair for a, b in zip(parent, change)
             for pair in zip(a["summaries"], b["summaries"], strict=True)]
    fields = [key for key in parent[0]["summaries"][0] if key not in ("method", "q")]
    return {
        "reports": len(parent),
        "summaries": len(pairs),
        "labels_equal": all((a["method"], a["q"]) == (b["method"], b["q"]) for a, b in pairs),
        "selected_q_equal": all(a["selected_q"] == b["selected_q"]
                                for a, b in zip(parent, change)),
        "max_abs_d": {key: max(_largest_gap(a[key], b[key]) for a, b in pairs)
                      for key in fields},
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
    if name in SIMULATED:
        line["simulation"] = compare_simulations(parent["simulations"][name],
                                                 change["simulations"][name])
    return line


def outcomes_of(tree: Path) -> dict[str, list[dict]]:
    """record_outcomes run by a fresh interpreter on tree's committed files."""
    target = tree / "parity.pickle"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]))
    subprocess.run([sys.executable, __file__, "--record", str(target)], cwd=tree, env=env,
                   check=True)
    with open(target, "rb") as handle:
        return pickle.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="git revision of the baseline")
    parser.add_argument("--change", help="git revision of the change")
    parser.add_argument("--workdir", default=None, help="where the exports go (a temp dir)")
    parser.add_argument("--record", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        with open(args.record, "wb") as handle:
            pickle.dump(record_outcomes(), handle)
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    from bench_pairs import export  # a sibling of this script

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="parity-"))
    workdir.mkdir(parents=True, exist_ok=True)
    sides = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        sha, tree = export(rev, workdir)
        print(f"{side}: {sha}", file=sys.stderr, flush=True)
        sides[side] = outcomes_of(tree)
    for name in SETS:
        print(json.dumps(set_line(name, sides["parent"], sides["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
