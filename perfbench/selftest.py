"""Show that the benchmark's checks can fail: perturbed outputs must be rejected.

    python3 perfbench/selftest.py      (from the root of a source checkout)

Produces a small set of real outputs (a 2-member k = 2 simulate, `tables`,
and one system's params / npc / qnormal), confirms that every check passes
on them, then perturbs one number at a time and confirms that the check
watching it fails:

* a window weight shifted by one state in moments.csv;
* the analytic NPC curve scaled by 1.01 in npc.csv;
* a Table 1 value moved 2e-3 away from the paper's printed value;
* one point of the conditional q-normal curve scaled by 1.001.

Exits 0 when every perturbation is rejected and the clean outputs pass.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import passrun  # noqa: E402


def perturb(path: Path, column: str, rows, change) -> None:
    """Rewrite cells of one column of a qstrength CSV (rows None: every number in it).

    The '#' metadata lines are kept; nan cells are left alone.
    """
    lines = path.read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    col = table[0].index(column)
    for row in range(len(table) - 1) if rows is None else rows:
        value = float(table[1 + row][col])
        if not math.isnan(value):
            table[1 + row][col] = repr(change(value))
    path.write_text("\n".join(meta + [",".join(r) for r in table]) + "\n")


def failing(results) -> list[str]:
    return [name for name, ok, _ in results if not ok]


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from qstrength import cli

    work = root / ".perfbench-work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(cli, work: Path) -> int:
    sim, ana = work / "simulate", work / "analytic"
    inputs_sim = {"k": 2, "members": 2, "seed": 77}
    system = (12, 6, 1, 4)
    sysdir = ana / "12-6-1-4"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["simulate", *passrun.system_flags(12, 6, 1, 2), "--members", "2",
                  "--seed", "77", "--out", str(sim)])
        cli.main(["tables", "--out", str(ana / "tables")])
        cli.main(["params", *passrun.system_flags(*system), "--out", str(sysdir)])
        cli.main(["npc", *passrun.system_flags(*system), "--out", str(sysdir / "npc.csv")])
        params = checks.read_key_values(sysdir / "params.csv")
        q = float(params["q_hv_finite"])
        xi = math.sqrt(float(params["xi_sq_finite"]))
        half = 2.0 / math.sqrt(1.0 - q)
        grid = [-half, half, passrun.QNORMAL_POINTS]
        cli.main(["qnormal", "--q", repr(q), "--y", "0.9", "--xi", repr(xi),
                  f"--grid={-half!r}:{half!r}:{passrun.QNORMAL_POINTS}",
                  "--out", str(sysdir / "qnormal.csv")])
    inputs_ana = {"systems": [{"system": list(system), "dir": sysdir.name, "q": q, "y": 0.9,
                               "xi": xi, "grid": grid}]}

    def sim_checks():
        return checks.check_ensemble_pass(sim, inputs_sim)

    def ana_checks():
        return checks.check_analytic_pass(ana, inputs_ana)

    status = 0
    clean = failing(sim_checks()) + failing(ana_checks())
    print(f"clean outputs: {'all checks pass' if not clean else 'FAILED ' + str(clean)}")
    status |= bool(clean)

    table1 = checks.read_csv(ana / "tables" / "table1.csv")
    first = table1[0]
    key = (int(first["N"]), int(first["m"]), int(first["k"]))
    paper = checks.TABLE_1[key][checks.TABLE_1_COLUMNS.index("q_hv")]
    away = 2e-3 if float(first["q_hv"]) >= paper else -2e-3

    cases = (
        ("window weight shifted by one state", sim / "moments.csv", "weight", [4],
         lambda v: v + 1.0, sim_checks, "window weight = n_kappa"),
        ("NPC curve scaled by 1.01", sysdir / "npc.csv", "npc", None,
         lambda v: v * 1.01, ana_checks, "npc vs fine-grid quadrature"),
        (f"table 1 q_hv of {key} off by {away:+g}", ana / "tables" / "table1.csv", "q_hv", [0],
         lambda v: paper + away, ana_checks, "table1.csv = paper values"),
        ("one f_cqn point scaled by 1.001", sysdir / "qnormal.csv", "f_cqn", [512],
         lambda v: v * 1.001, ana_checks, "f_cqn = product formula"),
    )
    for label, path, column, rows, change, run_checks, expect in cases:
        saved = path.read_text()
        perturb(path, column, rows, change)
        failed = failing(run_checks())
        rejected = any(expect in name for name in failed)
        print(f"{label}: {'rejected' if rejected else 'NOT REJECTED'} (failing: {failed})")
        status |= not rejected
        path.write_text(saved)
    return status


if __name__ == "__main__":
    sys.exit(main())
