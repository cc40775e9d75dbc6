#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarised into one JSON record.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload paper_sim --workload large_fit --seeds 9301-9310 \\
        --seconds 50 --output BENCH_name.json

Run from the root of a git checkout. Each revision is exported with
`git archive` into a fresh directory under --workdir (without it, under a
temp directory removed when the run ends), so the runs see only committed
files. For every workload and seed the two trees run
`python3 perfbench/run.py --workload W --seed S --seconds T` back to back,
the parent first on even pairs and the change first on odd ones, with
bytecode caching off. The record holds every run's end-to-end metrics and
check verdict; per metric, over the pairs where both runs reported it, the
parent and change medians and quartiles, the relative change of the
medians and the number of pairs the change won (direction from the
change's BENCHMARK.json); the environment (see environment()), both git
shas and the hashes of both src/ trees.
Standard library only; numpy's BLAS is read in a child interpreter.
"""

from __future__ import annotations

import argparse
import datetime
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_KEYS = ("name", "version", "openblas configuration")
READ_BLAS = ("import json, numpy; "
             "print(json.dumps(numpy.show_config(mode='dicts')['Build Dependencies']['blas']))")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


@contextmanager
def export_dir(workdir: str | None, prefix: str) -> Iterator[Path]:
    """workdir, made if missing; without one, a fresh temp dir removed however the block ends."""
    if workdir is not None:
        (path := Path(workdir)).mkdir(parents=True, exist_ok=True)
        yield path
        return
    with tempfile.TemporaryDirectory(prefix=prefix) as temp:
        yield Path(temp)


def export(rev: str, workdir: Path) -> tuple[str, Path]:
    """The full sha of rev and a fresh directory holding its committed files."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = Path(tempfile.mkdtemp(prefix=f"{sha[:12]}-", dir=workdir))
    archive = tree / "tree.tar"
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", sha], check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return sha, tree


def import_as(name: str, package: Path):
    """The package in directory package, imported as name, with its CLI module."""
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")  # the package does not import its CLI
    return module


def cpu_model(cpuinfo: Path) -> str | None:
    """The first "model name" of a /proc/cpuinfo file; None where it is missing or has none."""
    try:
        lines = cpuinfo.read_text().splitlines()
    except OSError:
        return None
    names = [line.partition(":")[2].strip() for line in lines if line.startswith("model name")]
    return names[0] if names else None


def blas_library() -> dict | None:
    """Name, version and OpenBLAS configuration of the BLAS numpy was built with.

    Read by a child of this interpreter, so that this script imports no
    numpy; None where that fails.
    """
    done = subprocess.run([sys.executable, "-c", READ_BLAS], capture_output=True, text=True)
    try:
        blas = json.loads(done.stdout)
    except json.JSONDecodeError:
        return None
    return {key: blas.get(key) for key in BLAS_KEYS}


def environment(cpuinfo: Path = Path("/proc/cpuinfo")) -> dict:
    """Where the pairs ran: CPUs, the BLAS and its thread variables, versions.

    OpenBLAS built with DYNAMIC_ARCH picks its kernels for the CPU it finds,
    and the engine's scatter and substitution sums run through them.
    """
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(cpuinfo),
        "blas": blas_library(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARIABLES},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def parse_seeds(text: str) -> list[int]:
    """'9301-9310' or '1,5,7' (or a mix) as a list of seeds; a range may not run backwards."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        low, high = int(low), int(high or low)
        if high < low:
            raise argparse.ArgumentTypeError(f"seed range {part!r} runs backwards")
        seeds.extend(range(low, high + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its last stdout line, parsed, plus the exit code."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": done.stderr.strip().splitlines()[-5:]}
    result["exit_code"] = done.returncode
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: medians, quartiles, relative change and pairs won by the change.

    Each metric is taken over the pairs in which both runs reported it (a
    failed run reports none), and "pairs" counts them.
    """
    reported = [p["parent"]["metrics"].keys() & p["change"]["metrics"].keys() for p in pairs]
    out = {}
    for name in sorted(set().union(*reported)):
        both = [p for p, names in zip(pairs, reported) if name in names]
        parent = [p["parent"]["metrics"][name] for p in both]
        change = [p["change"]["metrics"][name] for p in both]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (c - b) > 0.0 for b, c in zip(parent, change))
        entry = {"better": better.get(name, "lower"), "pairs": len(both), "change_wins": wins}
        for side, values in (("parent", parent), ("change", change)):
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else (values[0],) * 3)
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        entry["median_change"] = entry["change"]["median"] / entry["parent"]["median"] - 1.0
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 9301-9310")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--workdir", default=None,
                        help="where the exports go (default: a temp dir, removed at the end)")
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)

    with export_dir(args.workdir, "bench-pairs-") as workdir:
        trees = {side: export(rev, workdir) for side, rev in (("parent", args.parent),
                                                                ("change", args.change))}
        return run_pairs(args, argv, trees)


def run_pairs(args, argv, trees: dict[str, tuple[str, Path]]) -> int:
    """main's run of every pair on the exported trees; writes the record to args.output."""
    spec = json.loads((trees["change"][1] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = {
        "command": " ".join([Path(sys.argv[0]).name, *(argv or sys.argv[1:])]),
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seconds": args.seconds,
        "parent_sha": trees["parent"][0],
        "change_sha": trees["change"][0],
        # the content hashes of src/, which later commits that leave src/ alone keep
        "parent_src_tree": git("rev-parse", f"{trees['parent'][0]}:src"),
        "change_src_tree": git("rev-parse", f"{trees['change'][0]}:src"),
        "environment": environment(),
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side][1], workload, seed, args.seconds)
                print(f"{workload} seed {seed} {side}: correct={pair[side]['correct']} "
                      f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr, flush=True)
            pairs.append(pair)
        record["workloads"][workload] = {
            "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
            "metrics": summarise(pairs, better),
            "pairs": pairs,
        }
        Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    record["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if all(w["all_correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
