"""One benchmark pass in a fresh interpreter: set-up, then one workload's commands.

Started by run.py with the BLAS thread count pinned in the environment and
src/ on PYTHONPATH.  It times set-up from the moment the parent spawned it
(interpreter start, package import, basis enumeration and embedding-plan
construction for the ranks the workload uses), then runs the workload through
qstrength.cli.main and writes one JSON result file.  Every output of the
commands goes to the pass's own directory, where run.py checks it.

Usage (internal): passrun.py WORKLOAD SEED INDEX WORKDIR SPAWN_TIME [--trace] [--setup-only]
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

N, M, T, XI_SQ = 12, 6, 1, 0.5

# Ensemble workloads: one operation is one member.  Members per pass are fixed
# so that every pass attempts the same whole round of operations.
ENSEMBLES = {
    "ensemble-k2": {"k": 2, "members": 8, "workers": 1, "moments": False},
    "ensemble-k4-moments": {"k": 4, "members": 12, "workers": 2, "moments": True},
}

# Analytic workload: `tables`, then params / npc / qnormal for each system.
# The systems span q_hv from 0.07 (12,6,1,6) to 0.76 (50,10,1,2).
ANALYTIC_SYSTEMS = ((12, 6, 1, 2), (12, 6, 1, 4), (12, 6, 1, 6), (20, 8, 1, 2),
                    (50, 10, 1, 2), (50, 10, 1, 4), (24, 8, 2, 3))
QNORMAL_POINTS = 1025  # fine enough for a trapezoid check of gamma2 at 5e-4
WORKLOADS = (*ENSEMBLES, "analytic")


def workers_for(workload: str) -> int:
    if workload not in ENSEMBLES:
        return 1
    return min(ENSEMBLES[workload]["workers"], os.cpu_count() or 1)


def member_seed(seed: int, index: int) -> int:
    return (seed % 2**32) * 1000 + index


def conditioning_points(seed: int, index: int) -> list[float]:
    """One y per analytic system, drawn in (-1.5, 1.5) from (seed, pass index)."""
    import numpy as np

    rng = np.random.default_rng([seed % 2**32, index])
    return [float(y) for y in rng.uniform(-1.5, 1.5, len(ANALYTIC_SYSTEMS))]


def system_flags(N, m, t, k) -> list[str]:
    return ["--N", str(N), "--m", str(m), "--t", str(t), "--k", str(k), "--xi-sq", repr(XI_SQ)]


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


class Pass:
    def __init__(self, workload: str, seed: int, index: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.index = index
        self.out = workdir / f"pass-{index}"
        self.workers = workers_for(workload)
        self.ops = 0
        self.failed = 0
        self.op_stage_s = 0.0
        self.inputs: dict = {}
        self.program_checks: list[str] = []

    def ranks(self) -> tuple[int, ...]:
        if self.workload in ENSEMBLES:
            return (T, ENSEMBLES[self.workload]["k"])
        return ()

    def run(self, cli, ensemble) -> None:
        if self.workload in ENSEMBLES:
            self._run_ensemble(cli, ensemble)
        else:
            self._run_analytic(cli)

    def _run_ensemble(self, cli, ensemble) -> None:
        spec = ENSEMBLES[self.workload]
        seed = member_seed(self.seed, self.index)
        self.inputs = {"k": spec["k"], "members": spec["members"], "seed": seed}
        captured = {}
        inner = ensemble.run_ensemble

        def timed_run_ensemble(cfg):
            start = time.perf_counter()
            result = inner(cfg)
            captured["op_stage_s"] = time.perf_counter() - start
            captured["failed"] = len(result.failures)
            return result

        ensemble.run_ensemble = timed_run_ensemble
        argv = ["simulate", *system_flags(N, M, T, spec["k"]), "--members", str(spec["members"]),
                "--seed", str(seed), "--workers", str(self.workers), "--out", str(self.out),
                "--check"]
        if spec["moments"]:
            argv.append("--moments")
        log = self.out.parent / f"pass-{self.index}-check.txt"
        with open(log, "w") as fh, contextlib.redirect_stdout(fh):
            try:
                cli.main(argv)  # exit code 1 only reports the program's own FAIL lines
            except SystemExit as exc:
                print(f"simulate exited: {exc}", file=sys.stderr)
        ensemble.run_ensemble = inner
        self.ops = spec["members"]
        self.failed = captured.get("failed", spec["members"])
        self.op_stage_s = captured.get("op_stage_s", float("nan"))
        self.program_checks = [line.split(":")[0].split()[-1]
                               for line in log.read_text().splitlines() if line.startswith("FAIL")]

    def _run_analytic(self, cli) -> None:
        import checks

        ys = conditioning_points(self.seed, self.index)
        self.inputs = {"systems": []}
        start = time.perf_counter()
        self._command(cli, ["tables", "--out", str(self.out / "tables")])
        for (N_, m, t, k), y in zip(ANALYTIC_SYSTEMS, ys):
            sysdir = self.out / f"{N_}-{m}-{t}-{k}"
            flags = system_flags(N_, m, t, k)
            if not self._command(cli, ["params", *flags, "--out", str(sysdir)]):
                self.ops += 2
                self.failed += 2
                continue
            values = checks.read_key_values(sysdir / "params.csv")
            q, xi = float(values["q_hv_finite"]), math.sqrt(float(values["xi_sq_finite"]))
            half = 2.0 / math.sqrt(1.0 - q)
            self._command(cli, ["npc", *flags, "--out", str(sysdir / "npc.csv")])
            self._command(cli, ["qnormal", "--q", repr(q), "--y", repr(y), "--xi", repr(xi),
                                f"--grid={-half!r}:{half!r}:{QNORMAL_POINTS}",
                                "--out", str(sysdir / "qnormal.csv")])
            self.inputs["systems"].append({"system": [N_, m, t, k], "dir": sysdir.name,
                                           "q": q, "y": y, "xi": xi,
                                           "grid": [-half, half, QNORMAL_POINTS]})
        self.op_stage_s = time.perf_counter() - start

    def _command(self, cli, argv: list[str]) -> bool:
        self.ops += 1
        try:
            ok = cli.main(argv) == 0
        except (SystemExit, ValueError, RuntimeError) as exc:
            print(f"{argv[0]} failed: {exc!r}", file=sys.stderr)
            ok = False
        self.failed += not ok
        return ok


def main(argv: list[str]) -> int:
    workload, seed, index, workdir, spawned = argv[:5]
    trace = "--trace" in argv
    setup_only = "--setup-only" in argv
    src = Path.cwd() / "src"
    p = Pass(workload, int(seed), int(index), Path(workdir))
    p.out.mkdir(parents=True, exist_ok=True)

    t_import = time.perf_counter()
    import numpy as np

    import qstrength
    from qstrength import bca, cli, ensemble, fock, qnormal, spectral

    import_s = time.perf_counter() - t_import
    if not Path(qstrength.__file__).resolve().is_relative_to(src.resolve()):
        print(f"qstrength imported from {qstrength.__file__}, not from {src}", file=sys.stderr)
        return 2
    t_basis = time.perf_counter()
    bases = {r: fock.build_basis(N, r) for r in p.ranks()}
    basis_m = fock.build_basis(N, M) if bases else None
    basis_s = time.perf_counter() - t_basis
    first = {}
    for r, basis_r in bases.items():
        start = time.perf_counter()
        fock.embed_k_body(np.zeros((basis_r.dim, basis_r.dim)), basis_m, basis_r)
        first[r] = time.perf_counter() - start
    setup_s = time.perf_counter() - float(spawned)  # both clocks are CLOCK_MONOTONIC
    result = {"setup_s": setup_s}

    if not setup_only:
        recorder = None
        if trace:
            import tracing

            setup = {"import_s": import_s, "basis_s": basis_s, "plan_build_s": 0.0}
            for r, basis_r in bases.items():  # a steady call, once the plan is cached
                start = time.perf_counter()
                fock.embed_k_body(np.zeros((basis_r.dim, basis_r.dim)), basis_m, basis_r)
                setup["plan_build_s"] += first[r] - (time.perf_counter() - start)
            recorder = tracing.Recorder(Path(workdir) / f"spans-{index}")
            tracing.install(recorder, {"qstrength": qstrength, "bca": bca, "cli": cli,
                                       "ensemble": ensemble, "fock": fock,
                                       "qnormal": qnormal, "spectral": spectral})
        self_0 = resource.getrusage(resource.RUSAGE_SELF)
        child_0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        p.run(cli, ensemble)
        run_s = time.perf_counter() - start
        self_1 = resource.getrusage(resource.RUSAGE_SELF)
        child_1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_s = (self_1.ru_utime + self_1.ru_stime - self_0.ru_utime - self_0.ru_stime
                 + child_1.ru_utime + child_1.ru_stime - child_0.ru_utime - child_0.ru_stime)
        result |= {
            "run_s": run_s,
            "op_stage_s": p.op_stage_s,
            "ops": p.ops,
            "failed": p.failed,
            "cpu_s": cpu_s,
            "peak_rss_mb": (self_1.ru_maxrss + child_1.ru_maxrss) / 1024.0,
            "workers": p.workers,
            "blas_threads": blas_threads(),
            "inputs": p.inputs,
            "program_checks_failed": p.program_checks,
            "traced": trace,
            "pid": os.getpid(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        }
        if recorder is not None:
            recorder.flush()
            result["layer_setup"] = setup
    with open(Path(workdir) / f"pass-{index}.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
