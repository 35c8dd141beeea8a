"""Run the benchmark on two source trees in alternating pairs and compare them pair by pair.

    python tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT [--pairs 10] [--seconds 45]
                                [--workload NAME ...]

For each pair and workload (by default every workload of BENCHMARK.json), runs
`perfbench/run.py --trace 0` in each root with the pair's index as the seed,
the parent first on even pairs and the change first on odd ones, and prints
one line per run.  Then prints, per (workload, metric) of BENCHMARK.json's
end-to-end list: both medians, the parent's interquartile range over its
median, the median of the per-pair change/parent ratios, and the pairs the
change won in the metric's direction.  Exits 1 on a run that failed or has
no result line, on `correct: false`, on more failed operations on the change
side than on the parent's, or on a change median worse than the parent's by
more than the metric's bound.  Writes nothing under either root's perfbench/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SIDES = ("parent", "change")


def order(pair: int) -> tuple[str, str]:
    """The sides in run order: the parent first on even pairs, the change first on odd ones."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def last_json(stdout: str) -> dict | None:
    """The run's result, its last stdout line parsed as JSON, or None without one."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One `perfbench/run.py --trace 0` run in root: its result, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])  # the end of its log, where the error is
        return None
    return last_json(proc.stdout)


def run_line(record: dict) -> str:
    result = record["result"]
    head = f"pair {record['pair']}  {record['workload']}  {record['side']}:"
    if result is None:
        return f"{head} FAILED (no result)"
    values = " ".join(f"{name}={metric['value']:.4g}"
                      for name, metric in result["metrics"].items())
    return (f"{head} {values} correct={str(result['correct']).lower()} "
            f"failed={result['failed']}/{result['attempted']}")


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(records: list[dict], metrics: list[dict]) -> tuple[list[dict], list[str]]:
    """(rows, problems) from run records {pair, workload, side, result}.

    rows holds one dict per (workload, metric) in first-seen workload order;
    problems names every failed run, `correct: false`, excess of failed
    operations and median outside its bound, and is empty when none is found.
    """
    problems = []
    for record in records:
        where = f"pair {record['pair']} {record['workload']} {record['side']}"
        if record["result"] is None:
            problems.append(f"{where}: the run failed")
        elif not record["result"]["correct"]:
            problems.append(f"{where}: correct is false")
    done = [r for r in records if r["result"] is not None]
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        by_pair: dict[int, dict[str, dict]] = {}
        for r in done:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
        if not pairs:
            problems.append(f"{workload}: no complete pair")
            continue
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
        if failed["change"] > failed["parent"]:
            problems.append(f"{workload}: {failed['change']} failed operations on the change "
                            f"side against {failed['parent']} on the parent's")
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            worse = (c_med - p_med if lower else p_med - c_med) / p_med
            row = {
                "workload": workload, "metric": name, "better": metric["better"],
                "parent_median": p_med, "change_median": c_med,
                "parent_iqr_rel": _iqr(parent) / p_med if len(parent) > 1 else float("nan"),
                "ratio_median": statistics.median(c / p for c, p in zip(change, parent)),
                "wins": sum((c < p) if lower else (c > p) for c, p in zip(change, parent)),
                "pairs": len(pairs), "bound": metric["bound"],
                "outside_bound": worse > metric["bound"],
            }
            rows.append(row)
            if row["outside_bound"]:
                problems.append(f"{workload} {name}: change median {c_med:.4g} is worse than "
                                f"the parent's {p_med:.4g} by more than {metric['bound']:.0%}")
    return rows, problems


def row_line(row: dict) -> str:
    return (f"{row['workload']}  {row['metric']} ({row['better']} is better): "
            f"parent {row['parent_median']:.4g}, change {row['change_median']:.4g}, "
            f"parent IQR/median {row['parent_iqr_rel']:.3f}, "
            f"median change/parent {row['ratio_median']:.4f}, "
            f"change won {row['wins']} of {row['pairs']} pairs"
            + ("  OUTSIDE BOUND" if row["outside_bound"] else ""))


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", nargs="+", action="extend",
                        help="workloads to run (default: every one in BENCHMARK.json)")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    records = []
    for pair in range(args.pairs):
        for workload in workloads:
            for side in order(pair):
                result = run_once(roots[side], workload, pair, args.seconds)
                records.append({"pair": pair, "workload": workload, "side": side,
                                "result": result})
                print(run_line(records[-1]), flush=True)
    rows, problems = summarize(records, spec["end_to_end"])
    for row in rows:
        print(row_line(row))
    for problem in problems:
        print(f"PROBLEM  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
