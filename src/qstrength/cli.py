"""Command-line front end: table reproduction, parameter queries, density
evaluation, Monte-Carlo simulation, and the analytic NPC curve.

argparse resolves each option: a --config file's keys (the option names with
underscores) become the command's defaults, so flags win and every value is
parsed as its flag's; bca.resolve_system then turns the values into a system.
Every command is a pure function of (config, seed) and reruns byte-identically:
'#' metadata lines (tool version, config hash, seed), no timestamps, 6
significant digits, and 3-decimal display columns for diffing the tables.
"""

from __future__ import annotations

import argparse
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


def _load_config_file(path: str, keys) -> dict:
    """The file's values for keys, as strings for the flags' own types; other keys are ignored."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"bad config file: {exc}")
    values: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit(f"bad config line {raw!r}; expected key=value")
        key, _, value = line.partition("=")
        if key.strip() in keys:
            values[key.strip()] = value.strip()
    if "moments" in values:  # a flag without a value, so it has no type to convert with
        values["moments"] = values["moments"].lower() in ("1", "true", "yes")
    return values


# ---------------------------------------------------------------------------
# tables


def cmd_tables(args) -> int:
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    tables = (
        ("1", lambda: bca.delta_table_rows(20, 8) + bca.delta_table_rows(50, 10),
         ["N", "m", "t", "k", "q_h", "q_h_inf", "q_v", "q_v_inf", "q_hv", "q_hv_inf",
          "delta_0", "delta_1", "delta_2"]),
        ("2", bca.composition_table_rows, ["N", "m", "t", "k", "q_h", "q_v", "q_hv", "q_H"]),
    )
    for which, rows, columns in tables:
        if args.which in (which, "both"):
            display = columns[4:]
            out_rows = [[row[c] for c in columns] + [format(row[c], ".3f") for c in display]
                        for row in rows()]
            _write_csv(out_dir / f"table{which}.csv" if out_dir else None,
                       _meta_lines({"table": int(which)}),
                       columns + [f"{c}_3dp" for c in display], out_rows)
    return 0


# ---------------------------------------------------------------------------
# params


def _system(args) -> bca.SystemParams:
    """The system the flags define; a bad one exits with one line."""
    try:
        return bca.resolve_system(args.N, args.m, args.t, args.k, args.lam, args.xi_sq)
    except ValueError as exc:
        raise SystemExit(f"bad system: {exc}")


def _coupling_block(params: bca.SystemParams, xi_sq_target):
    """Key-value rows describing a resolved system in both variance conventions."""
    N, m, t, k = params.N, params.m, params.t, params.k
    rows: list[tuple[str, object]] = [("N", N), ("m", m), ("t", t), ("k", k)]
    if xi_sq_target is not None:
        bold_sq = bca.lambda_thermo(m, t, k) * (1.0 / xi_sq_target - 1.0)
        lam_inf = bca.lam_from_bold(bold_sq, N, t, k)
        rows += [("xi_sq_target", xi_sq_target), ("lambda_infinite_n", lam_inf),
                 ("lambda_finite_n", params.lam)]
    else:
        rows.append(("lambda", params.lam))
    xi_sq_inf = bca.xi_infinite(params) ** 2
    xi_sq_fin = params.xi_sq_finite
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
    return rows


def _config_items(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def cmd_params(args) -> int:
    params = _system(args)
    qs = params.qs_finite
    rows = _coupling_block(params, args.xi_sq) + [("predictions_enabled", qs is not None)]
    meta = _meta_lines(_config_items(args, _PARAM_KEYS))
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "params.csv" if out_dir else None, meta, ["key", "value"], rows)
    if qs is not None:
        pred = []
        for e_hat in args.windows:
            p = bca.strength_moment_prediction(e_hat, qs, params.m, params.t, params.k)
            pred.append([e_hat, p.centroid, p.variance, p.gamma1, p.gamma2,
                         p.mu4_leading, p.delta])
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
    try:
        if args.y is not None:
            items |= {"y": args.y, "xi": args.xi}
            f = qnormal.f_cqn(x, args.y, args.xi, args.q)
            columns = ["x", "f_cqn"]
        else:
            f = qnormal.f_qn(x, args.q)
            columns = ["x", "f_qn"]
    except ValueError as exc:
        raise SystemExit(f"bad qnormal input: {exc}")
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
    params = _system(args)
    qs = params.qs_finite
    if qs is None:
        raise SystemExit("NPC curve needs 0 < xi^2 < 1 (nonzero coupling)")
    lo, hi, n = _parse_grid(args.grid)
    x = np.linspace(lo, hi, n)
    values = spectral.npc_integral(x, qs, dim=params.dim)
    _write_csv(
        Path(args.out) if args.out else None,
        _meta_lines(_config_items(args, _PARAM_KEYS)),
        ["x", "npc"],
        zip(x.tolist(), values.tolist()),
    )
    return 0


# ---------------------------------------------------------------------------
# simulate


def _run_config(args) -> ensemble.RunConfig:
    lo, hi, n = _parse_grid(args.grid)
    try:
        return ensemble.RunConfig(
            N=args.N, m=args.m, t=args.t, k=args.k,
            grid_lo=lo, grid_hi=hi, grid_bins=n,
            **{field: getattr(args, key) for key, field in _RUN_FIELDS.items()},
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
    run_cfg = _run_config(args)
    result = ensemble.run_ensemble(run_cfg)
    if len(result.failures) > 0.01 * run_cfg.members:
        for member, message in result.failures:
            print(f"failed member {member} (seed {run_cfg.seed}): {message}", file=sys.stderr)
        raise SystemExit(f"{len(result.failures)} of {run_cfg.members} members failed (>1%)")
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    # The hash covers only result-determining config: execution details like
    # worker count or output directory must not change the emitted bytes.
    hashed = set(_SIM_KEYS) - {"workers", "out"}
    meta = _meta_lines(_config_items(args, hashed), seed=run_cfg.seed)

    qs = result.qs_finite
    rows = _coupling_block(result.system, args.xi_sq) + [
        ("predictions_enabled", qs is not None), ("members_failed", len(result.failures))]
    _write_csv(out_dir / "params.csv", meta, ["key", "value"], rows)

    rep, chaos = result.strength, result.chaos
    if qs is not None:
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
        npc_curve = spectral.npc_integral(chaos.bin_centers, qs, dim=result.system.dim)
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
          + (", strength_functions.csv, moments.csv" if qs is not None else "")
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
_DEFAULTS = {key: getattr(ensemble.RunConfig, field) for key, field in _RUN_FIELDS.items()} | {
    "grid": "{0.grid_lo}:{0.grid_hi}:{0.grid_bins}".format(ensemble.RunConfig),
}


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
    p.set_defaults(**{key: _DEFAULTS[key] for key in _PARAM_KEYS if key in _DEFAULTS})


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
    p.add_argument("--moments", action="store_const", const=True,
                   help="also accumulate bivariate trace moments")
    p.add_argument("--out", help="output directory (default current directory)")
    p.add_argument("--check", action="store_true",
                   help="print PASS/FAIL tolerance lines; nonzero exit on failure")
    p.set_defaults(func=cmd_simulate, **_DEFAULTS)

    p = sub.add_parser("npc", help="emit the analytic NPC curve for a system")
    _add_system_flags(p)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_npc)

    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # parse again with the file's values as defaults: flags still win, and
        # each value goes through its flag's own type
        keys = _SIM_KEYS if args.command == "simulate" else _PARAM_KEYS
        values = _load_config_file(args.config, keys)
        if args.lam is not None or args.xi_sq is not None:
            # a coupling flag replaces the file's coupling, whichever key it is
            values.pop("lam", None)
            values.pop("xi_sq", None)
        sub.choices[args.command].set_defaults(**values)
        args = parser.parse_args(argv)
    for key in ("N", "m", "t", "k"):
        if getattr(args, key, 0) is None:
            raise SystemExit(f"missing required option --{key}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
