"""qstrength benchmark: one workload, timed in fresh interpreters, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/qstrength).
A run repeats whole passes of the workload, each in a new interpreter with
one BLAS thread per process, until the next pass would end after S seconds
(at least one pass; with --trace 1 at least one untraced and one traced pass,
alternating).  It then checks every pass's outputs against independent
computations (checks.py) and prints, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
(medians over passes) with --trace 0, the per-layer metrics with --trace 1.
Machine facts, figures and any failed check go to the lines before it.

Workloads: ensemble-k2, ensemble-k4-moments, analytic (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# Every process of a run, this one included, uses one BLAS thread.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(ONE_BLAS_THREAD)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import passrun  # noqa: E402
import tracing  # noqa: E402

PASS_TIMEOUT_S = 150
MIN_SETUPS = 5
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("ops_per_s", "1/s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def child_env(root: Path) -> dict[str, str]:
    return os.environ | {"PYTHONPATH": str(root / "src")}


def run_batch(root: Path, workdir: Path, workload: str, seed: int, indices: range,
              trace: bool = False, setup_only: bool = False) -> list[dict]:
    """Run passes with the given indices side by side, one interpreter each.

    With --trace 1 the odd indices are traced.  A failed or hung pass stops
    the run: its processes are killed and waited for, and RuntimeError is raised.
    """
    procs = []
    for index in indices:
        flags = ["--trace"] if trace and index % 2 else []
        flags += ["--setup-only"] if setup_only else []
        log = open(workdir / f"pass-{index}.log", "w")
        argv = [sys.executable, str(HERE / "passrun.py"), workload, str(seed),
                str(index), str(workdir)]
        procs.append((index, log, subprocess.Popen(
            [*argv, repr(time.perf_counter()), *flags], cwd=root, env=child_env(root),
            stdout=log, stderr=subprocess.STDOUT)))
    deadline = time.perf_counter() + PASS_TIMEOUT_S
    failed = []
    for index, log, proc in procs:
        try:
            code = proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        log.close()
        sys.stderr.write((workdir / f"pass-{index}.log").read_text())
        if code != 0:
            failed.append(f"pass {index} exited with {code}")
    if failed:
        raise RuntimeError(f"{workload}: " + ", ".join(failed))
    results = []
    for index in indices:
        with open(workdir / f"pass-{index}.json") as fh:
            results.append(json.load(fh) | {"index": index})
    return results


def machine_facts(passes: list[dict], workload: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_per_process": sorted({p["blas_threads"] for p in passes}, key=str),
        "workers": passrun.workers_for(workload),
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "scipy": scipy.__version__,
    }


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    def med(key):
        return statistics.median(p[key] for p in passes)

    return {
        "setup_s": statistics.median(setups),
        "run_s": med("run_s"),
        "ops_per_s": statistics.median(p["ops"] / p["op_stage_s"] for p in passes),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def layer_metrics(passes: list[dict], workdir: Path) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        spans = tracing.load_spans(workdir / f"spans-{p['index']}")
        per_pass.append(tracing.reduce_spans(spans, p["pid"], p["run_s"], p["workers"],
                                             p["layer_setup"]))
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_s"] = (statistics.median(p["run_s"] for p in traced)
                               - statistics.median(p["run_s"] for p in plain))
    return {name: out[name] for name, _ in tracing.LAYER_METRICS}


def run_checks(workload: str, passes: list[dict], workdir: Path):
    results, figures = [], {}
    outs = [workdir / f"pass-{p['index']}" for p in passes]
    for p, out in zip(passes, outs):
        if workload == "analytic":
            found = checks.check_analytic_pass(out, p["inputs"])
        else:
            found = checks.check_ensemble_pass(out, p["inputs"])
        results += [(f"pass {p['index']}: {name}", ok, detail) for name, ok, detail in found]
    if workload != "analytic":
        members = sum(p["inputs"]["members"] for p in passes)
        pooled, figures = checks.check_pooled_statistics(outs, members)
        results += pooled
        if passrun.ENSEMBLES[workload]["moments"]:
            figures["xi_sq_from_traces"] = checks.bivariate_xi_sq(outs)
        figures["program_checks_failed"] = sorted(
            {name for p in passes for name in p["program_checks_failed"]})
    return results, figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=passrun.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qstrength" / "__init__.py").is_file():
        print(f"no qstrength sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # for the embedding check
    workdir = root / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        return measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, root: Path, workdir: Path) -> int:
    # Passes of a one-worker workload run side by side, one per core, like the
    # two workers of ensemble-k4-moments: every workload keeps all cores busy,
    # and a run gets twice the samples for its medians (see README.md).
    lanes = max(1, (os.cpu_count() or 1) // passrun.workers_for(args.workload))
    start = time.perf_counter()
    passes: list[dict] = []
    durations: list[float] = []
    while True:
        began = time.perf_counter()
        passes += run_batch(root, workdir, args.workload, args.seed,
                            range(len(passes), len(passes) + lanes), trace=bool(args.trace))
        durations.append(time.perf_counter() - began)
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start + statistics.median(durations) > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups += [probe["setup_s"] for probe in run_batch(
            root, workdir, args.workload, args.seed,
            range(1000 + len(setups), 1000 + len(setups) + lanes), setup_only=True)]

    results, figures = run_checks(args.workload, passes, workdir)
    facts = machine_facts(passes, args.workload)
    print("machine " + json.dumps(facts))
    print("figures " + json.dumps(figures))
    for name, ok, detail in results:
        if not ok:
            print(f"CHECK FAILED  {name}: {detail}")
    if args.trace:
        metrics, units = layer_metrics(passes, workdir), dict(tracing.LAYER_METRICS)
    else:
        metrics, units = end_to_end(passes, setups), dict(END_TO_END)
    summary = {
        "correct": all(ok for _, ok, _ in results),
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(f"checks: {sum(ok for _, ok, _ in results)}/{len(results)} passed over "
          f"{len(passes)} passes")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
