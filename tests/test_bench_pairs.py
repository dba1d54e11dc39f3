"""scripts/bench_pairs.py's summary reproduces the rows of a committed BENCH file from its own runs."""

import importlib.util
import json
import os
import shutil
import subprocess

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


# ten pairs: the parent's q3 - q1 is 0.25, and the change is 1.0 lower in every pair
PARENT = [10.0, 10.2, 10.4, 10.1, 10.3, 10.0, 10.2, 10.4, 10.1, 10.3]
FASTER = [p - 1.0 for p in PARENT]


def test_gain_rule_met_when_nine_tenths_win_past_the_spread():
    tool = _load_tool()
    row = tool.summarize(PARENT, FASTER, "lower", "s")
    assert row["change_better_in_pairs"] == 10
    assert tool.gain_rule_met(row, "lower")
    # the same runs read as a rate that should rise show a loss
    assert not tool.gain_rule_met(tool.summarize(PARENT, FASTER, "higher", "1/s"), "higher")


def test_gain_rule_not_met_on_eight_wins_of_ten():
    tool = _load_tool()
    row = tool.summarize(PARENT, [11.0, 11.0] + FASTER[2:], "lower", "s")
    # the medians still differ by more than the parent's spread
    assert row["change_better_in_pairs"] == 8
    assert row["parent"]["median"] - row["change"]["median"] > row["parent"]["q3"] - row["parent"]["q1"]
    assert not tool.gain_rule_met(row, "lower")



def _export(rev, into):
    """A stand-in for bench_pairs.export: the tree holds BENCHMARK.json alone."""
    os.makedirs(into)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), into)
    return f"sha-of-{rev}"


def test_seed_and_workload_filter_reach_every_run(monkeypatch, tmp_path):
    tool = _load_tool()
    commands = []

    def run(cmd, **kwargs):
        commands.append(cmd)
        metrics = {name: {"value": 1.0 + len(commands), "unit": "s"} for name in BETTER}
        line = json.dumps({"correct": True, "failed": 0, "metrics": metrics})
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(tool, "export", _export)
    monkeypatch.setattr(tool.subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", "p", "--pairs", "2", "--seed", "7", "--workload", "corpus-sweep", "--out", str(out)]) == 0
    # two pairs of untraced runs and one traced run per side
    assert len(commands) == 6
    for cmd in commands:
        assert cmd[1] == "perfbench/run.py"
        assert cmd[cmd.index("--seed") + 1] == "7"
        assert cmd[cmd.index("--workload") + 1] == "corpus-sweep"
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == ["corpus-sweep"]
    assert "seed 7" in report["description"]
    assert report["revisions"] == {"parent": "sha-of-p", "change": "sha-of-HEAD"}


def test_defaults_are_seed_1_and_every_workload(monkeypatch, tmp_path):
    tool = _load_tool()
    seen = []
    monkeypatch.setattr(tool, "export", _export)
    monkeypatch.setattr(tool, "bench_workload", lambda trees, spec, name, pairs, seed: seen.append((name, seed)) or {})
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", "p", "--out", str(out)]) == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert seen == [(name, 1) for name in names]
    assert "seed 1" in json.loads(out.read_text())["description"]
