"""Run one workload of the twistlab benchmark and print its metrics.

    python3 perfbench/run.py --workload twist-long --seed 1 --seconds 30 --trace 0

The run is serial and single-process.  It runs at least three rounds, and
more while the next would end within --seconds of wall time.  Each round
loads twistlab afresh from src/ (so module caches start empty, as in a new
CLI process), builds its inputs and warms up; that is one set-up.  The round
then times each op of the seed's op list and checks each output outside the
timed section.  One more set-up follows each round; setup_s is the median of
all set-ups.

Times are taken at reference speed.  The VM this was built on slows down
by up to 60% for seconds or minutes at a time, as other tenants load the
host; no run is long enough to average that out.  So each timed span (an
op, a set-up) is followed by calibration(), a fixed pure-Python loop, and
the span is reported as its seconds over the loop's seconds, times the
loop's best time on that VM (REFERENCE_CALIBRATION_S).  A slow host slows
both alike; a slower program slows only the span.  ops_per_s is the op
count of a round over the sum of the ops' best times over the rounds; the
latencies are percentiles of all op times of all rounds.

--trace 0 reports the end-to-end metrics; --trace 1 traces the first round
and reports per-layer metrics from it, and writes its spans under
perfbench/out/.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import program  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(HERE, "out")
MIN_ROUNDS = 3  # every op is timed at least this often
# calibration()'s best time on the 2-core VM where the benchmark was defined
REFERENCE_CALIBRATION_S = 0.0022
MAX_SECONDS = 150  # no round starts that would end past this, whatever --seconds says


def tail_percentile(ops_per_round: int) -> int:
    """The highest whole percentile with at least ten of one round's ops beyond it."""
    return math.floor(100 * (1 - 10 / ops_per_round))


def percentile(values, pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def calibration() -> float:
    """Seconds taken by a fixed pure-Python loop of dict, tuple and int work."""
    start = time.perf_counter()
    acc: dict = {}
    for i in range(10_000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i * 7 % 11
    return time.perf_counter() - start


def at_reference_speed(seconds: float) -> float:
    """Seconds scaled by the calibration loop timed right after them."""
    return seconds / calibration() * REFERENCE_CALIBRATION_S


def set_up(wl, seed: int, checker):
    start = time.perf_counter()
    prog = program.load()
    specs = wl.inputs(workloads.load_pool(), seed)
    ops = wl.bind(prog, specs, checker)
    wl.warm_up(prog)
    return at_reference_speed(time.perf_counter() - start), prog, ops


def run(name: str, seed: int, seconds: int, traced: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    checker = workloads.Checker()
    setups = [set_up(wl, seed, checker)[0] for _ in range(2)]
    tracer = layers.Tracer() if traced else None
    rounds: list = []  # per round, each op's seconds (None when it failed)
    attempted = failed = 0
    problems = []
    began = time.perf_counter()
    while True:
        setup_s, prog, ops = set_up(wl, seed, checker)
        setups.append(setup_s)
        first = not rounds
        if tracer is not None and first:
            tracer.install(prog)
        gc.collect()
        times = []
        out = None
        for op in ops:
            attempted += 1
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed op is counted, and the run goes on
                times.append(None)
                failed += 1
                problems.append(f"op failed: {exc!r}")
                continue
            times.append(at_reference_speed(time.perf_counter() - start))
            problems.extend(op.check(out))
        if tracer is not None and first:
            tracer.uninstall()
        rounds.append(times)
        del prog, ops, op, out
        program.unload()  # frees the round's caches outside the timed set-up
        setups.append(set_up(wl, seed, checker)[0])
        spent = time.perf_counter() - began
        ahead = spent + spent / len(rounds)
        if ahead > MAX_SECONDS or (len(rounds) >= MIN_ROUNDS and ahead > seconds):
            break
    best = [min(t) for t in zip(*rounds) if None not in t]
    samples = [t for r in rounds for t in r if t is not None]
    pct = tail_percentile(len(rounds[0]))
    info = {
        "workload": name,
        "seed": seed,
        "rounds": len(rounds),
        "ops_per_round": len(rounds[0]),
        "tail_percentile": pct,
        "round_work_s": [sum(t for t in r if t is not None) for r in rounds],
        "setups_s": setups,
    }
    if tracer is not None:
        metrics = tracer.metrics()
        if len(rounds) > 1:
            info["trace_overhead"] = info["round_work_s"][0] / statistics.median(info["round_work_s"][1:]) - 1
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"trace-{name}-{seed}.jsonl"))
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(best) / sum(best), "1/s"),
            "latency_p50_s": (statistics.median(samples), "s"),
            "latency_tail_s": (percentile(samples, pct), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not any(not p.startswith("op failed") for p in problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{name}-{seed}-trace{int(traced)}.json"), "w") as fh:
        json.dump({**result, "info": info}, fh, indent=1)
    print(json.dumps(info))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(program.SRC, "twistlab")):
        print(f"no twistlab sources under {program.SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
