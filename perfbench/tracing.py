"""Span recording for the traced benchmark pass, and its reduction to layer metrics.

The recorder wraps public functions of the qstrength modules from outside the
package: nothing under src/ knows it is being traced.  Each call becomes one
span (id, parent id, name, start, end) held in memory; spans are written out as
JSON lines when the pass ends, and by worker processes after every member they
compute, so the two-worker workload keeps its member-level numbers.  Worker
processes are forked from the pass process (the package's ProcessPoolExecutor
uses the platform default), so they inherit the wrapped functions; a pool that
spawned fresh interpreters instead would record no worker spans.

All times come from time.perf_counter, which is CLOCK_MONOTONIC on Linux and
therefore comparable between the pass process and its workers.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from pathlib import Path

# (module attribute path, span name).  Methods are given as Class.method.
TARGETS = (
    ("fock.build_basis", "fock.build_basis"),
    ("fock.sample_goe", "fock.sample_goe"),
    ("fock.embed_k_body", "fock.embed_k_body"),
    ("spectral.diagonalize", "spectral.diagonalize"),
    ("spectral.overlaps", "spectral.overlaps"),
    ("spectral.StrengthReport.add_member", "spectral.strength_add"),
    ("spectral.ChaosMeasures.add_member", "spectral.chaos_add"),
    ("spectral.BivariateMomentAccumulator.add_member", "spectral.moments_add"),
    ("spectral.StrengthReport.merge", "spectral.merge"),
    ("spectral.ChaosMeasures.merge", "spectral.merge"),
    ("spectral.BivariateMomentAccumulator.merge", "spectral.merge"),
    ("spectral.npc_integral", "spectral.npc_integral"),
    ("spectral.strength_l1", "spectral.strength_l1"),
    ("spectral.window_predictions", "spectral.window_predictions"),
    ("qnormal.f_cqn", "qnormal.f_cqn"),
    ("qnormal.f_qn", "qnormal.f_qn"),
    ("bca.lam_for_xi_sq", "bca.lam_for_xi_sq"),
    ("bca.q_params_finite", "bca.q_params_finite"),
    ("bca.strength_moment_prediction", "bca.strength_moment_prediction"),
    ("bca.delta_table_rows", "bca.tables"),
    ("bca.composition_table_rows", "bca.tables"),
    ("ensemble.run_ensemble", "ensemble.run_ensemble"),
    ("ensemble.run_member", "ensemble.run_member"),
    ("ensemble.run_checks", "ensemble.run_checks"),
    ("cli.cmd_tables", "cli.tables"),
    ("cli.cmd_params", "cli.params"),
    ("cli.cmd_qnormal", "cli.qnormal"),
    ("cli.cmd_npc", "cli.npc"),
    ("cli.cmd_simulate", "cli.simulate"),
)

# Per-layer metrics in the order they are reported; every workload reports all
# of them, with 0 where a layer does no work on that workload.
LAYER_METRICS = (
    ("qstrength.import_s", "s"),
    ("fock.build_basis_s", "s"),
    ("fock.plan_build_s", "s"),
    ("fock.sample_goe_s", "s"),
    ("fock.embed_k_body_s", "s"),
    ("fock.embed_k_body_calls", "count"),
    ("spectral.diagonalize_s", "s"),
    ("spectral.diagonalize_calls", "count"),
    ("spectral.eigh_s", "s"),
    ("spectral.guard_s", "s"),
    ("spectral.overlaps_s", "s"),
    ("spectral.strength_add_s", "s"),
    ("spectral.chaos_add_s", "s"),
    ("spectral.moments_add_s", "s"),
    ("spectral.merge_s", "s"),
    ("spectral.npc_integral_s", "s"),
    ("spectral.strength_l1_s", "s"),
    ("spectral.window_predictions_s", "s"),
    ("qnormal.f_cqn_calls", "count"),
    ("qnormal.f_cqn_s", "s"),
    ("qnormal.f_qn_calls", "count"),
    ("qnormal.f_qn_s", "s"),
    ("bca.lam_for_xi_sq_s", "s"),
    ("bca.q_params_finite_s", "s"),
    ("bca.strength_moment_prediction_s", "s"),
    ("bca.tables_s", "s"),
    ("ensemble.run_ensemble_s", "s"),
    ("ensemble.run_member_s", "s"),
    ("ensemble.self_s", "s"),
    ("ensemble.parallel_efficiency", "ratio"),
    ("ensemble.run_checks_s", "s"),
    ("cli.report_s", "s"),
    ("cli.npc_s", "s"),
    ("cli.qnormal_s", "s"),
    ("cli.params_s", "s"),
    ("cli.tables_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


class Recorder:
    """In-memory span store for one process; forked children start empty."""

    def __init__(self, prefix: Path) -> None:
        self.prefix = prefix
        self.main_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((self.pid, sid, parent, name, start, end))

        return traced

    def flush(self) -> None:
        """Append this process's spans to its own file and forget them."""
        with open(f"{self.prefix}-{self.pid}.jsonl", "a") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in self.spans)
        self.spans = []


def install(recorder: Recorder, modules: dict) -> None:
    """Replace every target, and every module-level alias of it, by a traced wrapper.

    modules maps short names ("fock", "cli", ...) to the imported modules; an
    alias is any module global bound to the same function object (spectral
    imports f_cqn, f_qn and strength_moment_prediction by name).
    """
    import numpy.linalg

    patches = [(numpy.linalg, "eigh", "spectral.eigh")]
    for path, name in TARGETS:
        head, *rest = path.split(".")
        owner = modules[head]
        for part in rest[:-1]:
            owner = getattr(owner, part)
        patches.append((owner, rest[-1], name))
    for owner, attr, name in patches:
        original = getattr(owner, attr)
        wrapped = recorder.wrap(name, original)
        if name == "ensemble.run_member":
            wrapped = _flushing_in_workers(recorder, wrapped)
        setattr(owner, attr, wrapped)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def _flushing_in_workers(recorder: Recorder, fn):
    @functools.wraps(fn)
    def member(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            if os.getpid() != recorder.main_pid:
                recorder.flush()

    return member


def load_spans(prefix: Path) -> list[tuple]:
    spans = []
    for path in sorted(prefix.parent.glob(prefix.name + "-*.jsonl")):
        with open(path) as fh:
            spans.extend(tuple(json.loads(line)) for line in fh)
    return spans


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def reduce_spans(spans: list[tuple], main_pid: int, run_s: float, workers: int,
                 setup: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all except trace.overhead_s).

    Times are summed over every process of the pass; ensemble.run_member_s is
    the median member span and ensemble.parallel_efficiency the member busy
    time over workers x run_ensemble wall time.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time: dict[tuple[int, int], float] = {}
    by_id = {(pid, sid): (parent, name, start, end) for pid, sid, parent, name, start, end in spans}
    for pid, sid, parent, name, start, end in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[(pid, parent)] = child_time.get((pid, parent), 0.0) + (end - start)

    def self_time(name: str) -> float:
        return sum(end - start - child_time.get(key, 0.0)
                   for key, (_, n, start, end) in by_id.items() if n == name)

    eigh_s = sum(end - start for parent, name, start, end in by_id.values()
                 if name == "spectral.eigh" and parent >= 0)
    members = [end - start for _, name, start, end in by_id.values()
               if name == "ensemble.run_member"]
    ens = [(start, end) for _, name, start, end in by_id.values()
           if name == "ensemble.run_ensemble"]
    ens_wall = sum(end - start for start, end in ens)
    covered = sum(
        _union_length([(max(s, e0), min(e, e1)) for _, name, s, e in by_id.values()
                       if name == "ensemble.run_member" and s < e1 and e > e0])
        for e0, e1 in ens
    )
    report_s = 0.0
    for key, (_, name, start, end) in by_id.items():
        if name == "cli.simulate":
            ends = [e for (pid, _), (parent, n, _, e) in by_id.items()
                    if pid == key[0] and parent == key[1] and n == "ensemble.run_ensemble"]
            report_s += end - max(ends, default=start)
    # Main-process time inside some layer below the CLI commands: the outermost
    # non-CLI spans, i.e. those whose parent is a CLI span or that have none.
    attributed = sum(
        end - start for (pid, _), (parent, name, start, end) in by_id.items()
        if pid == main_pid and not name.startswith("cli.")
        and (parent < 0 or by_id[(pid, parent)][1].startswith("cli."))
    )

    def t(name: str) -> float:
        return total.get(name, 0.0)

    return {
        "qstrength.import_s": setup["import_s"],
        "fock.build_basis_s": setup["basis_s"] + t("fock.build_basis"),
        "fock.plan_build_s": setup["plan_build_s"],
        "fock.sample_goe_s": t("fock.sample_goe"),
        "fock.embed_k_body_s": t("fock.embed_k_body"),
        "fock.embed_k_body_calls": calls.get("fock.embed_k_body", 0),
        "spectral.diagonalize_s": t("spectral.diagonalize"),
        "spectral.diagonalize_calls": calls.get("spectral.diagonalize", 0),
        "spectral.eigh_s": eigh_s,
        "spectral.guard_s": self_time("spectral.diagonalize"),
        "spectral.overlaps_s": t("spectral.overlaps"),
        "spectral.strength_add_s": t("spectral.strength_add"),
        "spectral.chaos_add_s": t("spectral.chaos_add"),
        "spectral.moments_add_s": t("spectral.moments_add"),
        "spectral.merge_s": t("spectral.merge"),
        "spectral.npc_integral_s": t("spectral.npc_integral"),
        "spectral.strength_l1_s": t("spectral.strength_l1"),
        "spectral.window_predictions_s": t("spectral.window_predictions"),
        "qnormal.f_cqn_calls": calls.get("qnormal.f_cqn", 0),
        "qnormal.f_cqn_s": t("qnormal.f_cqn"),
        "qnormal.f_qn_calls": calls.get("qnormal.f_qn", 0),
        "qnormal.f_qn_s": t("qnormal.f_qn"),
        "bca.lam_for_xi_sq_s": t("bca.lam_for_xi_sq"),
        "bca.q_params_finite_s": t("bca.q_params_finite"),
        "bca.strength_moment_prediction_s": t("bca.strength_moment_prediction"),
        "bca.tables_s": t("bca.tables"),
        "ensemble.run_ensemble_s": ens_wall,
        "ensemble.run_member_s": statistics.median(members) if members else 0.0,
        "ensemble.self_s": ens_wall - covered,
        "ensemble.parallel_efficiency": sum(members) / (workers * ens_wall) if ens_wall else 0.0,
        "ensemble.run_checks_s": t("ensemble.run_checks"),
        "cli.report_s": report_s,
        "cli.npc_s": t("cli.npc"),
        "cli.qnormal_s": t("cli.qnormal"),
        "cli.params_s": t("cli.params"),
        "cli.tables_s": t("cli.tables"),
        "trace.unattributed_s": run_s - attributed,
    }
