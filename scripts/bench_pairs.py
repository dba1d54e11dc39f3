"""Paired parent/change runs of the benchmark, written as one BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --out BENCH_14.json
    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 3 --seed 2 --workload twist-long --out seed2.json

The change side is HEAD.  Each side runs from an export of its git revision,
made with git archive into a temporary directory, so both sides run
committed files only and nothing is left in the repository.  The workloads
and the run length come from the change's BENCHMARK.json: every workload,
or those named by --workload (repeatable).  The seed is --seed, 1 by
default; another seed re-checks a claim on op lists it was not written on.
For each workload, pair k runs perfbench/run.py --trace 0 once on each side,
the parent first in even pairs and the change first in odd ones; one
--trace 1 run per side then gives the layer rows.  Every run has
PYTHONDONTWRITEBYTECODE=1 and starts with no __pycache__ in its export:
setup_s includes compiling twistlab, and cached bytecode would cut it by
more than half on one side only.

The output holds a description naming the seed, both revisions, the
Python version and the CPU count, and
per workload and end-to-end metric the runs, median and quartiles of both
sides (statistics.quantiles, n=4), the pairs the change wins, the ratio of
the medians and gain_rule_met: whether a gain may be claimed, that is, the
change wins at least nine tenths of the pairs (a tie wins for neither side)
and its median is better than the parent's by more than the parent's
q3 - q1.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def summarize(parent: Sequence[float], change: Sequence[float], better: str, unit: str) -> dict:
    """One metric's row: both sides' runs, medians and quartiles; run k of each side forms pair k."""
    row: dict = {"unit": unit}
    for side, runs in (("parent", parent), ("change", change)):
        q1, _, q3 = statistics.quantiles(runs, n=4)
        row[side] = {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": list(runs)}
    wins = (c < p if better == "lower" else c > p for p, c in zip(parent, change))
    row["change_better_in_pairs"] = sum(wins)
    row["median_ratio"] = row["change"]["median"] / row["parent"]["median"]
    return row


def gain_rule_met(row: dict, better: str) -> bool:
    """A summarized row shows a gain: wins in at least 9/10 of the pairs, and a median gap past the parent's q3 - q1."""
    parent, change = row["parent"], row["change"]
    gap = parent["median"] - change["median"] if better == "lower" else change["median"] - parent["median"]
    return 10 * row["change_better_in_pairs"] >= 9 * len(parent["runs"]) and gap > parent["q3"] - parent["q1"]


def _git(*args: str) -> bytes:
    return subprocess.run(("git", "-C", ROOT) + args, check=True, capture_output=True).stdout


def export(rev: str, into: str) -> str:
    """The full hash of rev, after writing its committed tree into the directory into."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        tar.extractall(into, **safe)
    return sha


def run_once(tree: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """The result line of one perfbench/run.py run in tree, without bytecode."""
    for here, dirs, _ in os.walk(tree):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(here, "__pycache__"))
            dirs.remove("__pycache__")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def bench_workload(trees: Dict[str, str], spec: dict, workload: str, pairs: int, seed: int) -> dict:
    seconds = spec["run_seconds"]
    runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
    first = []
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed, seconds, False))
        print(f"{workload}: pair {k + 1}/{pairs} done", file=sys.stderr)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    metrics = {}
    for name, value in runs["parent"][0]["metrics"].items():
        series = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        direction = better.get(name, "lower")
        row = metrics[name] = summarize(series["parent"], series["change"], direction, value["unit"])
        row["gain_rule_met"] = gain_rule_met(row, direction)
    traced = {side: run_once(trees[side], workload, seed, seconds, True)["metrics"] for side in SIDES}
    # a layer row that reads 0 on both sides shows nothing
    layers = {
        name: {side: traced[side].get(name, {}).get("value", 0) for side in SIDES}
        for name in (m["name"] for m in spec["per_layer"])
        if any(traced[side].get(name, {}).get("value") for side in SIDES)
    }
    return {
        "pairs": pairs,
        "first_in_pair": first,
        "metrics": metrics,
        "layers": layers,
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "all_checks_passed": all(r["correct"] for side in SIDES for r in runs[side]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="the seed of every run (default 1)")
    parser.add_argument("--workload", action="append", help="a workload to run (repeatable; default: every workload)")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs per side)")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        revisions = {side: export(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, "HEAD"))}
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        names = [w["name"] for w in spec["workloads"]]
        unknown = sorted(set(args.workload or ()) - set(names))
        if unknown:
            parser.error(f"unknown workload(s) {', '.join(unknown)}; BENCHMARK.json has {', '.join(names)}")
        chosen = [n for n in names if not args.workload or n in args.workload]
        report = {
            "description": (
                f"Paired parent/change runs of perfbench/run.py, --seconds {spec['run_seconds']}, seed {args.seed}, "
                "alternating which side runs first, PYTHONDONTWRITEBYTECODE=1; "
                "layer rows from one --trace 1 run per side."
            ),
            "revisions": revisions,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "workloads": {n: bench_workload(trees, spec, n, args.pairs, args.seed) for n in chosen},
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
