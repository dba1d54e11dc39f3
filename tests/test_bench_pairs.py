"""scripts/bench_pairs.py's summary reproduces the rows of a committed BENCH file from its own runs."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


with open(os.path.join(ROOT, "BENCH_13.json")) as _fh:
    BENCH_13 = json.load(_fh)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BETTER = {m["name"]: m["better"] for m in json.load(_fh)["end_to_end"]}


@pytest.mark.parametrize("workload", sorted(BENCH_13["workloads"]))
def test_summary_reproduces_bench_13(workload):
    summarize = _load_tool().summarize
    metrics = BENCH_13["workloads"][workload]["metrics"]
    assert set(metrics) == set(BETTER)
    for name, row in metrics.items():
        got = summarize(row["parent"]["runs"], row["change"]["runs"], BETTER[name], row["unit"])
        assert got == row, name


def test_summary_counts_wins_by_direction():
    summarize = _load_tool().summarize
    lower = summarize([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower", "s")
    higher = summarize([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "higher", "1/s")
    # a tie is no win
    assert (lower["change_better_in_pairs"], higher["change_better_in_pairs"]) == (1, 1)
    assert lower["median_ratio"] == 1.0 and lower["parent"]["median"] == 2.0
