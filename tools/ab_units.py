#!/usr/bin/env python3
"""In-process A/B timing of two revisions on perfbench's workload units.

    python3 tools/ab_units.py --parent HEAD~1 --change HEAD --workload paper_sim --units 200

Run from the root of a git checkout. Each revision is exported with
bench_pairs.export, and its src/robust_t is imported into this one process
under its own name (robust_t_parent and robust_t_change). perfbench's
workloads.py, from the change's tree, makes one workload per side from the
same --seed, so both sides get the same inputs. After one untimed warm-up
unit each, unit k runs on both sides, the parent first on even k and the
change first on odd k; only the workload's run() is timed.

It prints one JSON line: each side's median and quartiles of the unit times
in seconds, the median over units of the change's time over the parent's,
and the share of units in which the change was faster.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from bench_pairs import export, import_as  # a sibling of this script

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(times: dict[str, list[float]]) -> dict:
    """Each side's quartiles, the median per-unit ratio and the change's win share."""
    pairs = list(zip(times["parent"], times["change"], strict=True))
    return {
        **{side: quartiles(times[side]) for side in SIDES},
        "median_ratio": statistics.median(c / p for p, c in pairs),
        "change_win_share": sum(c < p for p, c in pairs) / len(pairs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workload", required=True, choices=("paper_sim", "large_fit"))
    parser.add_argument("--units", type=int, required=True, help="timed units per side")
    parser.add_argument("--seed", type=int, default=1, help="perfbench's input seed")
    parser.add_argument("--workdir", default=None, help="where the exports go (a temp dir)")
    args = parser.parse_args(argv)
    if args.units < 2:
        parser.error("--units must be at least 2")

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="ab-units-"))
    workdir.mkdir(parents=True, exist_ok=True)
    trees = {side: export(rev, workdir) for side, rev in (("parent", args.parent),
                                                            ("change", args.change))}
    sys.path.insert(0, str(trees["change"][1] / "perfbench"))
    import workloads

    work = {}
    for side in SIDES:
        package = import_as(f"robust_t_{side}", trees[side][1] / "src" / "robust_t")
        (scratch := workdir / f"{side}-files").mkdir(exist_ok=True)
        work[side] = workloads.make(args.workload, package, args.seed, scratch)
        work[side].run(work[side].inputs(0))  # warm-up
    times = {side: [] for side in SIDES}
    for unit in range(args.units):
        for side in SIDES if unit % 2 == 0 else SIDES[::-1]:
            inputs = work[side].inputs(unit)
            start = perf_counter()
            work[side].run(inputs)
            times[side].append(perf_counter() - start)
    print(json.dumps({"workload": args.workload, "units": args.units, "seed": args.seed,
                      "parent_sha": trees["parent"][0], "change_sha": trees["change"][0],
                      **summarise(times)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
