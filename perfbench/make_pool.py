"""Build pool.json: the stratified word pools the seeded workloads draw from.

    python3 perfbench/make_pool.py            # measure candidates, write pool.json

For each group (a diagram, or a diagram and a field) the script draws random
words from the group's own fixed seed and times each one, at reference speed
(see run.py):

- twist-long and recover-roundtrip: one op of the workload;
- word-oracle: ``braid_class`` on the word in fresh module state, the cold
  enumeration of its class.  Words whose class, counted with
  ``checks.Garside``, exceeds CLASS_LIMIT are dropped first.

A word's cost is the best of three timings, taken in three passes over the
group so that each word is timed at moments well apart.  Strata are cut at
log-evenly spaced cost targets; each holds the word whose cost is nearest
its target and the GROUP - 1 words nearest that one (for recover-roundtrip,
nearest in cost and in class size).  A benchmark seed picks one word per
stratum, so every seed runs the same cost profile.  Costs are written to
perfbench/out/candidates.json and reused, group by group, by later runs of
this script; delete that file to measure again.  Timings differ from run to
run, so a rebuilt pool differs from the committed one but serves as well.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import program  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CANDIDATES = os.path.join(HERE, "out", "candidates.json")
GROUP = 3  # candidates per stratum
TIMINGS = 3  # a cost is the best of this many timings
COST_WEIGHT = 4  # in matching a stratum, a cost ratio counts this much more than a class-size ratio
CLASS_LIMIT = 100_000  # word-oracle candidates with larger classes are dropped

# workload -> (groups, candidates per group, word lengths, strata per group, cost range)
PLAN = {
    "twist-long": ([("A4", "f2"), ("D5", "f2"), ("E6", "f2")], 160, (10, 17), 17, (0.01, 0.35)),
    "recover-roundtrip": (
        [(d, f) for d in ("A4", "D5", "E6") for f in ("f2", "q", "f3")],
        120, (8, 12), None, (0.03, 0.25),
    ),
    "word-oracle": ([("A4", None), ("D5", None), ("E6", None)], 220, (12, 16), 12, (0.002, 0.6)),
}
# recover-roundtrip: strata per group, by field; GF(2) carries about half of
# the ops.  An odd count per diagram puts the median op in the middle of a
# cost level, not on the gap between two.
RECOVER_STRATA = {"f2": 9, "q": 4, "f3": 4}


def class_size(g: checks.Garside, letters) -> int:
    """Number of words equal to letters: sum over left divisors s of |class(s^-1 x)|."""
    memo = {}

    def count(word) -> int:
        nf = g.normal_form(word)
        if not nf:
            return 1
        if nf in memo:
            return memo[nf]
        total = sum(count(g.strip(s, word)) for s in g.left_divisors(word))
        memo[nf] = total
        return total

    return count(tuple(letters))


def measure(workload: str, prog, d: str, f, letters) -> float:
    if workload == "word-oracle":
        # the cold enumeration of the class, in fresh module state
        prog = program.load()
        w = prog.braid.word(prog.braid.diagram_from_name(d), letters)
        t0 = time.perf_counter()
        prog.braid.braid_class(w)
        return run.at_reference_speed(time.perf_counter() - t0)
    wl = workloads.WORKLOADS[workload]
    alg = workloads._algebra(prog, d, f)
    op = wl._op(prog, alg, tuple(letters)) if workload == "twist-long" else wl._op(prog, alg, tuple(letters), workloads.Checker())
    t0 = time.perf_counter()
    op.run()
    return run.at_reference_speed(time.perf_counter() - t0)


def candidates() -> dict:
    out = {}
    if os.path.exists(CANDIDATES):
        with open(CANDIDATES) as fh:
            out = json.load(fh)
    for workload, (groups, count, (lo, hi), _, cost_range) in PLAN.items():
        for d, f in groups:
            key = f"{workload}|{d}|{f}"
            if key in out:
                continue
            rng = random.Random(key)
            prog = program.load()
            words = [[rng.randint(1, checks.rank_of(d)) for _ in range(rng.randint(lo, hi))] for _ in range(count)]
            if workload == "word-oracle":
                # classes far beyond the range would take minutes to enumerate
                g = checks.Garside(d)
                words = [w for w in words if class_size(g, w) <= CLASS_LIMIT]
            costs = [measure(workload, prog, d, f, w) for w in words]
            # best of three passes over the group: each word is timed at
            # three moments well apart
            for _ in range(TIMINGS - 1):
                for i, w in enumerate(words):
                    if costs[i] <= 2 * cost_range[1]:
                        costs[i] = min(costs[i], measure(workload, prog, d, f, w))
            out[key] = [{"w": w, "cost": c} for w, c in zip(words, costs)]
            print(key, count, file=sys.stderr, flush=True)
            os.makedirs(os.path.dirname(CANDIDATES), exist_ok=True)
            with open(CANDIDATES, "w") as fh:
                json.dump(out, fh)
    return out


def _distance(a: dict, b: dict) -> float:
    d = COST_WEIGHT * abs(math.log(a["cost"] / b["cost"]))
    if "size" in a:
        d += abs(math.log(a["size"] / b["size"]))
    return d


def strata(rows: list, k: int, cost_range) -> list:
    lo, hi = (math.log(c) for c in cost_range)
    free = [r for r in rows if cost_range[0] / 2 <= r["cost"] <= cost_range[1] * 2]
    out = []
    for i in range(k):
        target = lo + (hi - lo) * i / (k - 1)
        head = min(free, key=lambda r: abs(math.log(r["cost"]) - target))
        chosen = sorted(free, key=lambda r: _distance(r, head))[:GROUP]
        out.append(sorted(chosen, key=lambda r: r["cost"]))
        free = [r for r in free if r not in chosen]
    return out


def main() -> None:
    cands = candidates()
    # recover-roundtrip verifies through the class enumeration, whose cache
    # sets the run's memory: its strata match class sizes as well as costs
    for d in ("A4", "D5", "E6"):
        g = checks.Garside(d)
        for f in ("f2", "q", "f3"):
            for r in cands[f"recover-roundtrip|{d}|{f}"]:
                if "size" not in r:
                    r["size"] = class_size(g, r["w"])
    with open(CANDIDATES, "w") as fh:
        json.dump(cands, fh)
    pool = {}
    for workload, (groups, _, _, k, cost_range) in PLAN.items():
        pool[workload] = {}
        for d, f in groups:
            rows = cands[f"{workload}|{d}|{f}"]
            n = k if k is not None else RECOVER_STRATA[f]
            name = d if workload != "recover-roundtrip" else f"{d}/{f}"
            pool[workload][name] = [
                [{"w": r["w"], "cost": round(r["cost"], 4)} for r in stratum]
                for stratum in strata(rows, n, cost_range)
            ]
    with open(workloads.POOL, "w") as fh:
        fh.write(dumps(pool))


def dumps(pool: dict) -> str:
    """JSON text of a pool, one stratum per line."""
    lines = ["{"]
    for i, workload in enumerate(sorted(pool)):
        lines.append(f"{json.dumps(workload)}: {{")
        groups = sorted(pool[workload])
        for j, group in enumerate(groups):
            lines.append(f"{json.dumps(group)}: [")
            strata = pool[workload][group]
            for k, stratum in enumerate(strata):
                lines.append(json.dumps(stratum) + ("," if k < len(strata) - 1 else ""))
            lines.append("]" + ("," if j < len(groups) - 1 else ""))
        lines.append("}" + ("," if i < len(pool) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
