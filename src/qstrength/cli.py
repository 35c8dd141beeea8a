"""Command-line front end: table reproduction, parameter queries, density
evaluation, Monte-Carlo simulation, and the analytic NPC curve.

Every command is a pure function of (config, seed): rerunning with the same
inputs produces byte-identical files.  CSV output carries '#'-prefixed
metadata lines (tool version, config hash, seed) and no timestamps.  Numeric
columns are printed at 6 significant digits; table commands add 3-decimal
display columns for diffing against the printed references.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__, bca, ensemble, qnormal, spectral

_FMT = ".6g"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, _FMT)
    if isinstance(value, tuple):
        return ";".join(_fmt(item) for item in value)
    return str(value)


def _config_hash(items: dict) -> str:
    blob = "".join(f"{key}={_fmt(items[key])}\n" for key in sorted(items))
    return hashlib.sha256(blob.encode()).hexdigest()


def _meta_lines(config_items: dict, seed=None) -> list[str]:
    lines = [f"# qstrength {__version__}", f"# config_hash sha256={_config_hash(config_items)}"]
    if seed is not None:
        lines.append(f"# seed {seed}")
    return lines


def _write_csv(target, meta: list[str], columns: list[str], rows) -> None:
    out = [*meta, ",".join(columns)]
    out.extend(",".join(_fmt(value) for value in row) for row in rows)
    text = "\n".join(out) + "\n"
    if target is None:
        sys.stdout.write(text)
    else:
        Path(target).write_text(text)


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise SystemExit(f"bad grid spec {text!r}; expected lo:hi:count")
    if not lo < hi or n < 1:
        raise SystemExit(f"bad grid spec {text!r}; need lo < hi and count >= 1")
    return lo, hi, n


def _parse_centers(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise SystemExit(f"bad window list {text!r}; expected comma-separated numbers")


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"bad config line {raw!r}; expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


# ---------------------------------------------------------------------------
# tables


def _with_display(columns: list[str], rows: list[dict], display: list[str]):
    names = columns + [f"{c}_3dp" for c in display]
    out_rows = [
        [row[c] for c in columns] + [format(row[c], ".3f") for c in display] for row in rows
    ]
    return names, out_rows


def cmd_tables(args) -> int:
    which = args.which
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    if which in ("1", "both"):
        rows = []
        for N, m in ((20, 8), (50, 10)):
            rows.extend(bca.delta_table_rows(N, m))
        columns = ["N", "m", "t", "k", "q_h", "q_h_inf", "q_v", "q_v_inf", "q_hv", "q_hv_inf",
                   "delta_0", "delta_1", "delta_2"]
        display = columns[4:]
        meta = _meta_lines({"table": 1})
        names, out_rows = _with_display(columns, rows, display)
        _write_csv(out_dir / "table1.csv" if out_dir else None, meta, names, out_rows)
    if which in ("2", "both"):
        rows = bca.composition_table_rows()
        columns = ["N", "m", "t", "k", "q_h", "q_v", "q_hv", "q_H"]
        display = columns[4:]
        meta = _meta_lines({"table": 2})
        names, out_rows = _with_display(columns, rows, display)
        _write_csv(out_dir / "table2.csv" if out_dir else None, meta, names, out_rows)
    return 0


# ---------------------------------------------------------------------------
# params


def _coupling_block(N, m, t, k, lam, xi_sq_target):
    """Key-value rows describing the system in both variance conventions.

    A bad system exits with one line before any coupling is solved for.
    """
    rows: list[tuple[str, object]] = [("N", N), ("m", m), ("t", t), ("k", k)]
    try:
        params = bca.SystemParams(N, m, t, k)
        if xi_sq_target is not None:
            lam = bca.lam_for_xi_sq(N, m, t, k, xi_sq_target)
            lam_inf = bca.lam_from_bold(
                bca.lambda_thermo(m, t, k) * (1.0 / xi_sq_target - 1.0), N, t, k
            )
            rows += [("xi_sq_target", xi_sq_target), ("lambda_infinite_n", lam_inf),
                     ("lambda_finite_n", lam)]
        else:
            rows.append(("lambda", lam))
        params = dataclasses.replace(params, lam=lam)
    except ValueError as exc:
        raise SystemExit(f"bad system: {exc}")
    xi_sq_inf = bca.xi_infinite(params) ** 2
    xi_sq_fin = bca.xi_sq_finite(N, m, t, k, lam)
    rows += [
        ("dim", params.dim),
        ("bold_lambda_sq", bca.bold_lambda_sq(params)),
        ("lambda_thermo_sq", bca.lambda_thermo(m, t, k)),
        ("xi_sq_infinite", xi_sq_inf),
        ("xi_sq_finite", xi_sq_fin),
    ]
    for label, qs in (("infinite", bca.q_params_infinite(m, t, k, xi_sq_inf)),
                      ("finite", bca.q_params_finite(N, m, t, k, xi_sq_fin))):
        rows += [(f"q_h_{label}", qs.q_h), (f"q_v_{label}", qs.q_v),
                 (f"q_hv_{label}", qs.q_hv), (f"q_big_h_{label}", qs.q_H)]
    return rows, params, xi_sq_fin


def _prediction_rows(N, m, t, k, xi_sq, e_hats):
    qs = bca.q_params_finite(N, m, t, k, xi_sq)
    rows = []
    for e_hat in e_hats:
        p = bca.strength_moment_prediction(e_hat, qs, m, t, k)
        rows.append([e_hat, p.centroid, p.variance, p.gamma1, p.gamma2, p.mu4_leading, p.delta])
    return rows


def cmd_params(args) -> int:
    cfg = _merged(args, _PARAM_KEYS)
    N, m, t, k = cfg["N"], cfg["m"], cfg["t"], cfg["k"]
    rows, params, xi_sq_fin = _coupling_block(N, m, t, k, cfg["lam"], cfg["xi_sq"])
    enabled = params.lam > 0.0 and 0.0 < xi_sq_fin < 1.0
    rows.append(("predictions_enabled", enabled))
    meta = _meta_lines({key: cfg[key] for key in _PARAM_KEYS if cfg[key] is not None})
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "params.csv" if out_dir else None, meta, ["key", "value"], rows)
    if enabled:
        pred = _prediction_rows(N, m, t, k, xi_sq_fin, cfg["windows"])
        _write_csv(
            out_dir / "predictions.csv" if out_dir else None,
            meta,
            ["e_hat", "centroid", "variance", "gamma1", "gamma2", "mu4_leading", "delta"],
            pred,
        )
    return 0


# ---------------------------------------------------------------------------
# qnormal


def cmd_qnormal(args) -> int:
    lo, hi, n = _parse_grid(args.grid)
    x = np.linspace(lo, hi, n)
    items = {"grid": args.grid, "q": args.q}
    if (args.y is None) != (args.xi is None):
        raise SystemExit("--y and --xi must be supplied together")
    if args.y is not None:
        items |= {"y": args.y, "xi": args.xi}
        f = qnormal.f_cqn(x, args.y, args.xi, args.q)
        columns = ["x", "f_cqn"]
    else:
        f = qnormal.f_qn(x, args.q)
        columns = ["x", "f_qn"]
    _write_csv(
        Path(args.out) if args.out else None,
        _meta_lines(items),
        columns,
        zip(x.tolist(), f.tolist()),
    )
    return 0


# ---------------------------------------------------------------------------
# npc


def cmd_npc(args) -> int:
    cfg = _merged(args, _PARAM_KEYS)
    N, m, t, k = cfg["N"], cfg["m"], cfg["t"], cfg["k"]
    _, params, xi_sq_fin = _coupling_block(N, m, t, k, cfg["lam"], cfg["xi_sq"])
    if not 0.0 < xi_sq_fin < 1.0:
        raise SystemExit("NPC curve needs 0 < xi^2 < 1 (nonzero coupling)")
    qs = bca.q_params_finite(N, m, t, k, xi_sq_fin)
    lo, hi, n = _parse_grid(cfg["grid"])
    x = np.linspace(lo, hi, n)
    values = spectral.npc_integral(x, qs, dim=params.dim)
    meta = _meta_lines({key: cfg[key] for key in _PARAM_KEYS if cfg[key] is not None})
    _write_csv(
        Path(args.out) if args.out else None,
        meta,
        ["x", "npc"],
        zip(x.tolist(), values.tolist()),
    )
    return 0


# ---------------------------------------------------------------------------
# simulate


def _run_config(cfg: dict) -> ensemble.RunConfig:
    lo, hi, n = _parse_grid(cfg["grid"])
    try:
        return ensemble.RunConfig(
            N=cfg["N"], m=cfg["m"], t=cfg["t"], k=cfg["k"],
            grid_lo=lo, grid_hi=hi, grid_bins=n,
            **{field: cfg[key] for key, field in _RUN_FIELDS.items()},
        )
    except ValueError as exc:
        raise SystemExit(f"bad simulate config: {exc}")


def _strength_rows(rep: spectral.StrengthReport, qs: bca.QParameterSet):
    f_emp, f_pred = rep.f_values(), spectral.predicted_f_values(rep, qs)
    rows = []
    for i, (center, e0) in enumerate(zip(rep.window_centers, rep.e0_mean)):
        rows.extend([center, e0, x, f, p] for x, f, p in zip(rep.bin_centers, f_emp[i], f_pred[i]))
    return rows


def _moment_rows(rep: spectral.StrengthReport, qs: bca.QParameterSet, m, t, k):
    mom = rep.window_moments()
    pred = spectral.window_predictions(rep, qs, m, t, k)
    l1 = spectral.strength_l1(rep, qs)
    rows = []
    for i, center in enumerate(rep.window_centers):
        rows.append([
            center, mom["e0_mean"][i], int(mom["n_kappa"][i]), mom["weight"][i],
            mom["mean"][i], pred["centroid"][i],
            mom["variance"][i], pred["variance"][i],
            mom["gamma1"][i], pred["gamma1"][i],
            mom["gamma2"][i], pred["gamma2"][i],
            l1[i],
        ])
    return rows


def cmd_simulate(args) -> int:
    cfg = _merged(args, _SIM_KEYS)
    run_cfg = _run_config(cfg)
    result = ensemble.run_ensemble(run_cfg)
    if len(result.failures) > 0.01 * run_cfg.members:
        for member, message in result.failures:
            print(f"failed member {member} (seed {run_cfg.seed}): {message}", file=sys.stderr)
        raise SystemExit(f"{len(result.failures)} of {run_cfg.members} members failed (>1%)")
    out_dir = Path(cfg["out"] or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    # The hash covers only result-determining config: execution details like
    # worker count or output directory must not change the emitted bytes.
    config_items = {
        key: cfg[key]
        for key in _SIM_KEYS
        if cfg[key] is not None and key not in ("workers", "out")
    }
    meta = _meta_lines(config_items, seed=run_cfg.seed)

    rows, params, xi_sq_fin = _coupling_block(
        run_cfg.N, run_cfg.m, run_cfg.t, run_cfg.k, cfg["lam"], cfg["xi_sq"]
    )
    enabled = params.lam > 0.0 and 0.0 < xi_sq_fin < 1.0
    rows.append(("predictions_enabled", enabled))
    rows.append(("members_failed", len(result.failures)))
    _write_csv(out_dir / "params.csv", meta, ["key", "value"], rows)

    rep, chaos = result.strength, result.chaos
    if enabled:
        qs = result.qs_finite
        _write_csv(
            out_dir / "strength_functions.csv", meta,
            ["window_center", "e0_mean", "x", "f_empirical", "f_predicted"],
            _strength_rows(rep, qs),
        )
        _write_csv(
            out_dir / "moments.csv", meta,
            ["window_center", "e0_mean", "n_kappa", "weight",
             "centroid", "centroid_pred", "variance", "variance_pred",
             "gamma1", "gamma1_pred", "gamma2", "gamma2_pred", "l1_distance"],
            _moment_rows(rep, qs, run_cfg.m, run_cfg.t, run_cfg.k),
        )
        npc_curve = spectral.npc_integral(chaos.bin_centers, qs, dim=params.dim)
    else:
        npc_curve = np.full(chaos.bin_centers.shape, np.nan)
    _write_csv(
        out_dir / "npc.csv", meta,
        ["x", "npc_mc", "s_info_mc", "npc_analytic"],
        zip(chaos.bin_centers.tolist(), chaos.npc().tolist(), chaos.s_info().tolist(),
            npc_curve.tolist()),
    )
    if result.moments is not None:
        emp = result.moments.finalize()
        mom_rows = [("member_count", emp.member_count), ("sigma_h0", emp.sigma_h0),
                    ("sigma_h", emp.sigma_h)]
        for name in ("mu11", "mu40", "mu04", "mu31", "mu13", "mu22"):
            mom_rows += [
                (name, getattr(emp, name)),
                (f"{name}_member_mean", emp.member_mean[name]),
                (f"{name}_member_std", emp.member_std[name]),
            ]
        _write_csv(out_dir / "bivariate.csv", meta, ["key", "value"], mom_rows)

    if args.check:
        checks = ensemble.run_checks(result)
        all_ok = True
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
            all_ok &= ok
        return 0 if all_ok else 1
    print(f"wrote {out_dir}/params.csv, npc.csv"
          + (", strength_functions.csv, moments.csv" if enabled else "")
          + (", bivariate.csv" if result.moments is not None else ""))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

_PARAM_KEYS = ("N", "m", "t", "k", "lam", "xi_sq", "windows", "grid")
_SIM_KEYS = _PARAM_KEYS + ("members", "seed", "window_width", "workers", "moments", "out")

# CLI keys that map one-to-one onto RunConfig fields; RunConfig holds their
# defaults, and its grid_lo/grid_hi/grid_bins defaults make up the grid's.
_RUN_FIELDS = {
    "lam": "lam", "xi_sq": "xi_sq_target", "windows": "window_centers",
    "members": "members", "seed": "seed", "window_width": "window_width",
    "workers": "workers", "moments": "with_moments",
}
_RUN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ensemble.RunConfig)}
_DEFAULTS = {key: _RUN_DEFAULTS[field] for key, field in _RUN_FIELDS.items()} | {
    "grid": "{grid_lo}:{grid_hi}:{grid_bins}".format(**_RUN_DEFAULTS),
    "out": None,
}

_PARSERS = {
    "N": int, "m": int, "t": int, "k": int, "lam": float, "xi_sq": float,
    "windows": _parse_centers, "grid": str, "members": int, "seed": int,
    "window_width": float, "workers": int,
    "moments": lambda s: s.lower() in ("1", "true", "yes"), "out": str,
}


def _merged(args, keys) -> dict:
    """Resolve config values: flags beat the config file, which beats defaults."""
    from_file = _load_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = {}
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
        elif key in from_file:
            cfg[key] = _PARSERS[key](from_file[key])
        elif key in _DEFAULTS:
            cfg[key] = _DEFAULTS[key]
        else:
            raise SystemExit(f"missing required option --{key.replace('_', '-')}")
    if "lam" in cfg and cfg["lam"] is not None and cfg["xi_sq"] is not None:
        raise SystemExit("supply only one of --lambda and --xi-sq")
    if "lam" in cfg and cfg["lam"] is None and cfg["xi_sq"] is None:
        raise SystemExit("supply one of --lambda and --xi-sq")
    return cfg


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", type=int, help="number of single-particle states")
    p.add_argument("--m", type=int, help="number of fermions")
    p.add_argument("--t", type=int, help="mean-field rank")
    p.add_argument("--k", type=int, help="interaction rank")
    p.add_argument("--lambda", dest="lam", type=float, help="coupling strength")
    p.add_argument("--xi-sq", dest="xi_sq", type=float,
                   help="target correlation xi^2 (coupling solved for it)")
    p.add_argument("--windows", type=_parse_centers,
                   help="comma-separated window centers in standardized energy")
    p.add_argument("--grid", help="energy grid as lo:hi:count")
    p.add_argument("--config", help="key=value config file; flags override")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qstrength",
        description="Strength functions of fermionic k-body ensembles: analytic "
                    "conditional q-normal predictions and Monte-Carlo cross-checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="emit the reference parameter tables")
    p.add_argument("which", nargs="?", default="both", choices=["1", "2", "both"])
    p.add_argument("--out", help="directory for table1.csv / table2.csv (default stdout)")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("params", help="emit couplings, q parameters, and moment predictions")
    _add_system_flags(p)
    p.add_argument("--out", help="directory for params.csv / predictions.csv (default stdout)")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("qnormal", help="evaluate f_qN (or f_CqN with --y/--xi) on a grid")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--y", type=float, help="conditioning value (needs --xi)")
    p.add_argument("--xi", type=float, help="correlation coefficient (needs --y)")
    p.add_argument("--grid", default="-3.2:3.2:129")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_qnormal)

    p = sub.add_parser("simulate", help="run the Monte-Carlo ensemble and write reports")
    _add_system_flags(p)
    p.add_argument("--members", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--window-width", dest="window_width", type=float)
    p.add_argument("--workers", type=int)
    p.add_argument("--moments", action="store_const", const=True, default=None,
                   help="also accumulate bivariate trace moments")
    p.add_argument("--out", help="output directory (default current directory)")
    p.add_argument("--check", action="store_true",
                   help="print PASS/FAIL tolerance lines; nonzero exit on failure")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("npc", help="emit the analytic NPC curve for a system")
    _add_system_flags(p)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_npc)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
