"""Tests for tools/bench_pairs.py, the paired two-tree benchmark comparison."""

import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def result(run_s, ops_per_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 8, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "ops_per_s": {"value": ops_per_s, "unit": "1/s"}}}


def records(parent, change, workload="w"):
    """Run records of one workload from per-pair parent and change results, in run order."""
    out = []
    for pair, sides in enumerate(zip(parent, change)):
        by_side = dict(zip(bench_pairs.SIDES, sides))
        for side in bench_pairs.order(pair):
            out.append({"pair": pair, "workload": workload, "side": side,
                        "result": by_side[side]})
    return out


def test_sides_alternate_parent_first_on_even_pairs():
    assert [bench_pairs.order(pair) for pair in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]


def test_last_json_line_is_the_result():
    line = json.dumps(result(1.0, 2.0))
    assert bench_pairs.last_json(f"machine {{}}\nchecks: 3/3\n{line}\n") == result(1.0, 2.0)
    assert bench_pairs.last_json("checks: 3/3\n") is None
    assert bench_pairs.last_json("") is None


def test_medians_ratios_and_wins_in_each_direction():
    # the change is 10% faster in run_s and 10% slower in ops_per_s in pairs
    # 0-2, and equal in pair 3, a tie that neither side wins
    parent = [result(2.0, 4.0), result(1.0, 8.0), result(3.0, 2.0), result(4.0, 1.0)]
    change = [result(1.8, 3.6), result(0.9, 7.2), result(2.7, 1.8), result(4.0, 1.0)]
    rows, problems = bench_pairs.summarize(records(parent, change), METRICS)
    assert problems == []
    run_s, ops = rows
    assert (run_s["metric"], ops["metric"]) == ("run_s", "ops_per_s")
    assert run_s["parent_median"] == 2.5 and math.isclose(run_s["change_median"], 2.25)
    assert math.isclose(run_s["ratio_median"], 0.9) and math.isclose(ops["ratio_median"], 0.9)
    assert (run_s["wins"], ops["wins"], run_s["pairs"]) == (3, 0, 4)
    # parent run_s 1, 2, 3, 4: quartiles 1.75 and 3.25 around the median 2.5
    assert math.isclose(run_s["parent_iqr_rel"], 1.5 / 2.5)
    assert not run_s["outside_bound"] and not ops["outside_bound"]


def test_a_median_worse_than_its_bound_is_flagged_in_each_direction():
    parent = [result(1.0, 10.0)] * 3
    slower = [result(1.3, 7.0)] * 3  # 30% worse in both
    rows, problems = bench_pairs.summarize(records(parent, slower), METRICS)
    assert [row["outside_bound"] for row in rows] == [True, True]
    assert len(problems) == 2 and all("by more than 25%" in p for p in problems)
    faster = [result(0.7, 13.0)] * 3  # 30% better in both
    rows, problems = bench_pairs.summarize(records(parent, faster), METRICS)
    assert [row["outside_bound"] for row in rows] == [False, False] and problems == []
    within = [result(1.2, 8.0)] * 3  # 20% worse in both
    rows, _ = bench_pairs.summarize(records(parent, within), METRICS)
    assert [row["outside_bound"] for row in rows] == [False, False]


def test_failed_runs_incorrect_runs_and_failed_operations_are_problems():
    parent = [result(1.0, 1.0), result(1.0, 1.0, failed=1), result(1.0, 1.0)]
    change = [None, result(1.0, 1.0, failed=2), result(1.0, 1.0, correct=False)]
    _, problems = bench_pairs.summarize(records(parent, change), METRICS)
    assert problems == ["pair 0 w change: the run failed",
                        "pair 2 w change: correct is false",
                        "w: 2 failed operations on the change side against 1 on the parent's"]


def test_every_benchmark_metric_is_summarized_per_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    values = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in metrics}}
    recs = records([values] * 2, [values] * 2, "a") + records([values] * 2, [values] * 2, "b")
    rows, problems = bench_pairs.summarize(recs, metrics)
    assert problems == []
    assert [(row["workload"], row["metric"]) for row in rows] == [
        (w, m["name"]) for w in "ab" for m in metrics]
    assert all(line.startswith(("pair 0  a  parent:", "pair 0  a  change:"))
               for line in map(bench_pairs.run_line, recs[:2]))
