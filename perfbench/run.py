#!/usr/bin/env python3
"""robust_t benchmark: one workload, timed, checked, optionally traced.

    python3 perfbench/run.py --workload paper_sim --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory. The command

1. measures set-up (a fresh interpreter importing robust_t and making one
   warm-up fit) SETUP_REPEATS times;
2. runs units of the workload (workloads.py) in a closed loop for --seconds
   (longer only where a minimum unit count demands it), times each unit and
   measures the machine's speed right before and after it (see
   machine_slowdown);
3. checks every fit of the run and the fixed reference fits (check.py),
   and exits 1 when any check fails;
4. with --trace 1, replays the first units of the run with every layer
   wrapped (tracing.py) and reports per-layer metrics instead of
   end-to-end ones.

fit_small and paper_sim_jobs2 run but are not listed in BENCHMARK.json;
baseline.json records why.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it give the environment and
every metric by name and unit, including those defined for one workload
only (fit_s.p50, fit_s.p95), fail_frac, and the wall time and slowdown as
measured before the speed correction (raw_wall_s, machine_slowdown).

Speed correction. A shared host's speed drifts by up to 2x over seconds to
minutes, and a whole run can fall into a slow stretch. So every timed
operation (a unit, a set-up) is bracketed by calibration blocks: a fixed mix
of interpreter and small-array work that does not use robust_t. A block's
median item time over CALIBRATION_REFERENCE_S is the machine's slowdown at
that moment. wall_s and cpu_s are medians over units of the unit's time
divided by the mean slowdown of its two blocks; setup_s is the median set-up
time divided by the median slowdown of the blocks between set-ups. Each is a
time at the reference speed. A change to robust_t moves them in proportion,
since the calibration does not run its code; the uncorrected median wall
time and the median slowdown are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("paper_sim", "fit_small", "large_fit", "paper_sim_jobs2")
SETUP_REPEATS = 9
TAIL_PERCENTILES = (99.9, 99, 95, 90)
SETUP_CODE = """
import numpy as np
import robust_t
rows = np.random.default_rng(0).standard_t(3.0, size=(205, 2))
robust_t.fit(rows, robust_t.FitConfig())
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "fits_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}
CALIBRATION_ITEMS = 60
# Median time of one calibration item on an undisturbed 2.1 GHz Xeon vCPU
# (Python 3.11, numpy 2.4), so that corrected times read close to seconds
# on a quiet machine of that kind.
CALIBRATION_REFERENCE_S = 8.0e-4
_CALIBRATION_ROWS = np.random.default_rng(0).standard_normal((205, 2))


def calibration_item() -> float:
    """Fixed interpreter and small-array work; no BLAS call, no robust_t."""
    total = 0.0
    for i in range(3000):
        total += i * 0.5
    for _ in range(20):
        centred = _CALIBRATION_ROWS - _CALIBRATION_ROWS.mean(axis=0)
        weights = 4.0 / (3.0 + np.sum(centred * centred, axis=1))
        total += float(np.sort(np.log(weights)).sum())
    return total


def machine_slowdown() -> float:
    """Median time of CALIBRATION_ITEMS calibration items over the reference."""
    times = []
    for _ in range(CALIBRATION_ITEMS):
        start = perf_counter()
        calibration_item()
        times.append(perf_counter() - start)
    return statistics.median(times) / CALIBRATION_REFERENCE_S


def tail_percentile(n: int):
    """Highest reported percentile with at least ten of n samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def load_package():
    """Import robust_t from the checkout's src/ and nowhere else."""
    if not (SRC / "robust_t" / "__init__.py").is_file():
        raise SystemExit(f"error: no robust_t package under {SRC}")
    sys.path.insert(0, str(SRC))
    import robust_t
    import robust_t.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(robust_t.__file__).resolve().parent != (SRC / "robust_t").resolve():
        raise SystemExit(f"error: robust_t imported from {robust_t.__file__}, not {SRC}")
    return robust_t


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(args) -> dict:
    import scipy

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas": blas_library(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def measure_setup() -> float:
    """Speed-corrected median time of SETUP_REPEATS fresh-interpreter set-ups.

    A set-up runs in another process, for under a second, so a calibration
    block next to one set-up says little about it; the median time is divided
    by the median slowdown of the calibration blocks between the set-ups.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    slowdowns = [machine_slowdown()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - start)
        slowdowns.append(machine_slowdown())
    return statistics.median(times) / statistics.median(slowdowns)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Unit:
    __slots__ = ("inputs", "results", "wall", "cpu", "error", "slowdown")

    def __init__(self, inputs, results, wall, cpu, error):
        self.inputs, self.results, self.wall, self.cpu, self.error = (
            inputs, results, wall, cpu, error)
        self.slowdown = 1.0


def run_unit(wl, inputs) -> Unit:
    cpu0 = cpu_seconds()
    start = perf_counter()
    try:
        results, error = wl.run(inputs), None
    except Exception as exc:  # counted as failed fits of the unit
        results, error = None, f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - start
    return Unit(inputs, results, wall, cpu_seconds() - cpu0, error)


def timed_loop(wl, seconds: float, min_units: int) -> list[Unit]:
    units = []
    deadline = perf_counter() + seconds
    before = machine_slowdown()
    while perf_counter() < deadline or len(units) < min_units:
        unit = run_unit(wl, wl.inputs(len(units)))
        after = machine_slowdown()
        unit.slowdown = (before + after) / 2.0
        before = after
        units.append(unit)
    return units


def unit_outputs(wl, unit: Unit):
    """FitOutputs of a unit; a unit that raised yields one failure per fit."""
    if unit.error is not None:
        return [workloads.FitOutput("?", None, error=unit.error)] * wl.fits_per_unit
    return wl.outputs(unit.inputs, unit.results)


def check_units(wl, units, problems: list[str]) -> tuple[int, int]:
    attempted = failed = 0
    for k, unit in enumerate(units):
        for j, out in enumerate(unit_outputs(wl, unit)):
            attempted += 1
            found = out.problems()
            if found:
                failed += 1
                problems.append(f"unit {k} fit {j} ({out.method} q={out.q}): {'; '.join(found)}")
    return attempted, failed


def check_reference(wl, reference: list[dict], problems: list[str]) -> tuple[int, int]:
    outs = wl.reference_run()
    failed = 0
    if len(outs) != len(reference):
        problems.append(f"reference run gave {len(outs)} fits, expected {len(reference)}")
        return len(reference), len(reference)
    for j, (out, ref) in enumerate(zip(outs, reference)):
        found = out.problems()
        if not found:
            found = check.reference_problems(out.as_dict(), ref)
        if found:
            failed += 1
            problems.append(f"reference fit {j} ({out.method} q={out.q}): {'; '.join(found)}")
    return len(outs), failed


def end_to_end(units, setup_s, fits_per_unit) -> dict:
    """Medians over units of their speed-corrected times."""
    wall = statistics.median(u.wall / u.slowdown for u in units)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "fits_per_s": fits_per_unit / wall,
        "cpu_s": statistics.median(u.cpu / u.slowdown for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_wall_s": statistics.median(u.wall for u in units),
        "machine_slowdown": statistics.median(u.slowdown for u in units),
    }


def fit_time_metrics(wl, units) -> dict:
    """Per-fit latency, for workloads whose fits are timed one by one."""
    if not wl.has_fit_times:
        return {}
    times = [out.seconds for u in units if u.results for out in u.results]
    out = {"fit_s.p50": float(np.percentile(times, 50)), "fit_s.samples": len(times)}
    highest = tail_percentile(len(times))
    for p in TAIL_PERCENTILES:
        if highest is not None and p <= highest:
            out[f"fit_s.p{p:g}"] = float(np.percentile(times, p))
    return out


def traced_replay(wl, units, workload: str, seed: int, env: dict):
    """Re-run the given units with every layer wrapped; spans go to OUT."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        replay = [run_unit(wl, u.inputs) for u in units]
    finally:
        tracer.restore()
    OUT.mkdir(exist_ok=True)
    np.savez_compressed(OUT / f"trace_{workload}_seed{seed}.npz",
                        env=json.dumps(env), absent=np.array(tracer.absent, dtype=str),
                        **tracer.arrays())
    return tracer, replay


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "machine_slowdown":
        return "ratio"
    if name.endswith("_s") or name.startswith("fit_s.p"):
        return "s"
    return "fraction" if name.endswith("_frac") else "count"


def emit(line: str):
    print(line, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rt = load_package()
    env = environment(args)
    emit("# env " + json.dumps(env, sort_keys=True))
    setup_s = measure_setup()
    reference = json.loads((HERE / "reference.json").read_text())
    ref_key = "paper_sim" if args.workload == "paper_sim_jobs2" else args.workload

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.make(args.workload, rt, args.seed, Path(tmp))
        problems: list[str] = []
        # The reference fits run the same code paths on smaller inputs, so
        # they also warm the process before timing starts.
        ref_attempted, ref_failed = check_reference(wl, reference["workloads"][ref_key], problems)
        units = timed_loop(wl, args.seconds, wl.min_units)

        attempted, failed = check_units(wl, units, problems)
        attempted += ref_attempted
        failed += ref_failed
        if args.workload == "paper_sim_jobs2":
            serial = workloads.PaperSim(rt, args.seed, Path(tmp), jobs=1)
            if serial.run(units[0].inputs) != units[0].results:
                problems.append("jobs=2 records differ from jobs=1 records for the same spec")

        metrics = end_to_end(units, setup_s, wl.fits_per_unit)
        metrics.update(fit_time_metrics(wl, units))
        metrics["fail_frac"] = failed / attempted
        metrics["units"] = len(units)
        layer = {}
        if args.trace:
            # A fixed number of units from the start of the seeded sequence,
            # so call counts repeat exactly for one seed and one commit.
            untraced = units[:wl.trace_units]
            tracer, replay = traced_replay(wl, untraced, args.workload, args.seed, env)
            same = all(
                r.error is None and [o.key() for o in unit_outputs(wl, r)]
                == [o.key() for o in unit_outputs(wl, u)]
                for r, u in zip(replay, untraced)
            )
            if not same:
                problems.append("traced outputs differ from untraced outputs")
            layer = tracer.metrics()
            layer["trace.overhead_s"] = (statistics.mean(r.wall for r in replay)
                                         - statistics.mean(u.wall for u in untraced))
            for name in tracer.absent:
                emit(f"# absent hook {name}")

    emit("# unit_walls_s " + json.dumps([round(u.wall, 6) for u in units]))
    for name, value in metrics.items():
        emit(f"metric {name} = {value:.6g} {metric_unit(name)}")
    for name, value in layer.items():
        emit(f"layer {name} = {value:.6g} {metric_unit(name)}")
    for line in problems[:50]:
        print(f"check failed: {line}", file=sys.stderr)

    correct = not problems
    chosen = layer if args.trace else {k: metrics[k] for k in END_TO_END_UNITS}
    emit(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
