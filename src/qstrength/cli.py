"""Command-line front end: table reproduction, parameter queries, density
evaluation, Monte-Carlo simulation, and the analytic NPC curve.

Each command declares only the options it reads; a --config file (its keys are
the option names with underscores) may give all but --config and --check as the
command's defaults, so flags win and every value is parsed as its flag's.
Every command is a pure function of (config, seed) and reruns byte-identically:
'#' metadata lines (tool version, config hash, seed), no timestamps, 6
significant digits, and 3-decimal display columns for diffing the tables.
Each CSV is one {column name: values} mapping, and one writer turns it into
header and rows; a --out that cannot be created or written exits with one line.
"""

from __future__ import annotations

import argparse
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


_UNREAD = {"command", "func", "config", "check"}  # argparse's own, and no file sets these
_UNHASHED = _UNREAD | {"workers", "out"}  # where and how a run goes, not what it computes


def _meta_lines(items: dict, seed=None) -> list[str]:
    """Version, config hash and seed lines; the hash skips _UNHASHED keys and None values."""
    import hashlib  # keeps libcrypto out of `import qstrength.cli`; numpy.random maps it anyway
    blob = "".join(f"{key}={_fmt(value)}\n" for key, value in sorted(items.items())
                   if key not in _UNHASHED and value is not None)
    lines = [f"# qstrength {__version__}",
             f"# config_hash sha256={hashlib.sha256(blob.encode()).hexdigest()}"]
    if seed is not None:
        lines.append(f"# seed {seed}")
    return lines


def _write_csv(target, meta: list[str], table: dict) -> None:
    """Write a {column name: values} table to the file target, or stdout if unset.

    The header is the keys in order; columns of unequal length raise ValueError.
    """
    rows = (",".join(map(_fmt, row)) for row in zip(*table.values(), strict=True))
    text = "\n".join([*meta, ",".join(table), *rows]) + "\n"
    try:
        (Path(target).write_text if target else sys.stdout.write)(text)
    except OSError as exc:
        raise SystemExit(f"cannot write output: {exc}")


def _out_dir(out) -> Path | None:
    """The --out directory, created if missing; None (stdout) when out is unset."""
    if not out:
        return None
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"cannot write output: {exc}")
    return Path(out)


def _write_tables(out_dir: Path | None, meta: list[str], tables: dict) -> None:
    """Write each {filename: table} into out_dir, or all of them to stdout if None."""
    for name, table in tables.items():
        _write_csv(out_dir / name if out_dir else None, meta, table)


def _key_values(items: dict) -> dict:
    return {"key": list(items), "value": list(items.values())}


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise SystemExit(f"bad grid spec {text!r}; expected lo:hi:count")
    if not -np.inf < lo < hi < np.inf or n < 1:
        raise SystemExit(f"bad grid spec {text!r}; need finite lo < hi and count >= 1")
    return lo, hi, n


def _parse_centers(text: str) -> tuple[float, ...]:
    """The --windows type, also for --config values: comma-separated finite numbers, none empty."""
    try:
        centers = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise SystemExit(f"bad window list {text!r}; expected comma-separated numbers")
    if not np.all(np.isfinite(centers)):
        raise SystemExit(f"bad window list {text!r}; need finite centers")
    return centers


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
        word = values["moments"].lower()
        if word not in ("1", "true", "yes", "0", "false", "no"):
            raise SystemExit(f"bad config value moments={values['moments']!r}; "
                             "expected 1, true, yes, 0, false or no")
        values["moments"] = word in ("1", "true", "yes")
    return values


# ---------------------------------------------------------------------------
# tables


def cmd_tables(args) -> int:
    out_dir = _out_dir(args.out)
    tables = (
        ("1", lambda: bca.delta_table_rows(20, 8) + bca.delta_table_rows(50, 10)),
        ("2", bca.composition_table_rows),
    )
    for which, make_rows in tables:
        if args.which in (which, "both"):
            rows = make_rows()
            table = {column: [row[column] for row in rows] for column in rows[0]}
            # every column after N, m, t, k again at 3 decimals, for diffing
            table |= {f"{c}_3dp": [format(v, ".3f") for v in table[c]] for c in list(table)[4:]}
            _write_tables(out_dir, _meta_lines({"table": int(which)}),
                          {f"table{which}.csv": table})
    return 0


# ---------------------------------------------------------------------------
# params


def _system(args) -> bca.SystemParams:
    """The system the flags define; a bad one exits with one line."""
    try:
        return bca.resolve_system(args.N, args.m, args.t, args.k, args.lam, args.xi_sq)
    except ValueError as exc:
        raise SystemExit(f"bad system: {exc}")


def _coupling_block(params: bca.SystemParams, xi_sq_target) -> dict:
    """Keys and values describing a resolved system in both variance conventions."""
    N, m, t, k = params.N, params.m, params.t, params.k
    items: dict[str, object] = {"N": N, "m": m, "t": t, "k": k}
    if xi_sq_target is not None:
        bold_sq = bca.lambda_thermo(m, t, k) * (1.0 / xi_sq_target - 1.0)
        items |= {"xi_sq_target": xi_sq_target,
                  "lambda_infinite_n": bca.lam_from_bold(bold_sq, N, t, k),
                  "lambda_finite_n": params.lam}
    else:
        items["lambda"] = params.lam
    xi_sq_inf = bca.xi_infinite(params) ** 2
    xi_sq_fin = params.xi_sq_finite
    items |= {
        "dim": params.dim,
        "bold_lambda_sq": bca.bold_lambda_sq(params),
        "lambda_thermo_sq": bca.lambda_thermo(m, t, k),
        "xi_sq_infinite": xi_sq_inf,
        "xi_sq_finite": xi_sq_fin,
    }
    for label, qs in (("infinite", bca.q_params_infinite(m, t, k, xi_sq_inf)),
                      ("finite", bca.q_params_finite(N, m, t, k, xi_sq_fin))):
        items |= {f"q_h_{label}": qs.q_h, f"q_v_{label}": qs.q_v,
                  f"q_hv_{label}": qs.q_hv, f"q_big_h_{label}": qs.q_H}
    return items


def cmd_params(args) -> int:
    params = _system(args)
    qs = params.qs_finite
    items = _coupling_block(params, args.xi_sq) | {"predictions_enabled": qs is not None}
    tables = {"params.csv": _key_values(items)}
    if qs is not None:
        e_hat = np.array(args.windows)
        pred = dict(vars(bca.strength_moment_prediction(e_hat, qs, params.m, params.t, params.k)))
        tables["predictions.csv"] = {"e_hat": pred.pop("e_hat_kappa"), **pred}
    _write_tables(_out_dir(args.out), _meta_lines(vars(args)), tables)
    return 0


# ---------------------------------------------------------------------------
# qnormal


def cmd_qnormal(args) -> int:
    x = np.linspace(*_parse_grid(args.grid))
    if (args.y is None) != (args.xi is None):
        raise SystemExit("--y and --xi must be supplied together")
    try:
        if args.y is not None:
            table = {"x": x, "f_cqn": qnormal.f_cqn(x, args.y, args.xi, args.q)}
        else:
            table = {"x": x, "f_qn": qnormal.f_qn(x, args.q)}
    except ValueError as exc:
        raise SystemExit(f"bad qnormal input: {exc}")
    _write_csv(args.out, _meta_lines(vars(args)), table)
    return 0


# ---------------------------------------------------------------------------
# npc


def cmd_npc(args) -> int:
    params = _system(args)
    qs = params.qs_finite
    if qs is None:
        raise SystemExit("NPC curve needs 0 < xi^2 < 1 (nonzero coupling)")
    x = np.linspace(*_parse_grid(args.grid))
    _write_csv(args.out, _meta_lines(vars(args)),
               {"x": x, "npc": spectral.npc_integral(x, qs, dim=params.dim)})
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


def _strength_table(rep: spectral.StrengthReport, qs: bca.QParameterSet) -> dict:
    """One row per (window, bin), windows outermost."""
    bins, windows = len(rep.bin_centers), len(rep.window_centers)
    return {
        "window_center": np.repeat(rep.window_centers, bins),
        "e0_mean": np.repeat(rep.e0_mean, bins),
        "x": np.tile(rep.bin_centers, windows),
        "f_empirical": rep.f_values().ravel(),
        "f_predicted": spectral.predicted_f_values(rep, qs).ravel(),
    }


def _moment_table(rep: spectral.StrengthReport, qs: bca.QParameterSet, m, t, k) -> dict:
    mom = rep.window_moments()
    pred = spectral.window_predictions(rep, qs, m, t, k)
    return {
        "window_center": rep.window_centers, "e0_mean": mom["e0_mean"],
        "n_kappa": mom["n_kappa"].astype(int), "weight": mom["weight"],
        "centroid": mom["mean"], "centroid_pred": pred["centroid"],
        "variance": mom["variance"], "variance_pred": pred["variance"],
        "gamma1": mom["gamma1"], "gamma1_pred": pred["gamma1"],
        "gamma2": mom["gamma2"], "gamma2_pred": pred["gamma2"],
        "l1_distance": spectral.strength_l1(rep, qs),
    }


def cmd_simulate(args) -> int:
    run_cfg = _run_config(args)
    out = Path(args.out or ".")
    created = [p for p in (out, *out.parents) if not p.exists()]  # deepest first
    out_dir = _out_dir(out)
    result = ensemble.run_ensemble(run_cfg)
    for member, message in result.failures:
        print(f"failed member {member} (seed {run_cfg.seed}): {message}", file=sys.stderr)
    if len(result.failures) > 0.01 * run_cfg.members:
        for path in created:  # nothing was written: leave no empty --out behind
            try:
                path.rmdir()
            except OSError:  # written into or removed meanwhile: leave it as it is
                pass
        raise SystemExit(f"{len(result.failures)} of {run_cfg.members} members failed (>1%)")
    meta = _meta_lines(vars(args), seed=run_cfg.seed)

    qs, rep, chaos = result.system.qs_finite, result.strength, result.chaos
    items = _coupling_block(result.system, args.xi_sq) | {
        "predictions_enabled": qs is not None, "members_failed": len(result.failures)}
    npc_curve = (np.full(chaos.bin_centers.shape, np.nan) if qs is None
                 else spectral.npc_integral(chaos.bin_centers, qs, dim=result.system.dim))
    tables = {
        "params.csv": _key_values(items),
        "npc.csv": {"x": chaos.bin_centers, "npc_mc": chaos.npc(), "s_info_mc": chaos.s_info(),
                    "npc_analytic": npc_curve},
    }
    if qs is not None:
        tables["strength_functions.csv"] = _strength_table(rep, qs)
        tables["moments.csv"] = _moment_table(rep, qs, run_cfg.m, run_cfg.t, run_cfg.k)
    if result.moments is not None:
        tables["bivariate.csv"] = _key_values(result.moments.finalize())
    _write_tables(out_dir, meta, tables)

    if args.check:
        checks = ensemble.run_checks(result, tables)
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        return 0 if all(ok for _, ok, _ in checks) else 1
    print(f"wrote {out_dir}/" + ", ".join(tables))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

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


def _add_system_flags(p: argparse.ArgumentParser, *read: str) -> None:
    """The system's flags and --config, plus those of --windows and --grid in read."""
    p.add_argument("--N", type=int, help="number of single-particle states")
    p.add_argument("--m", type=int, help="number of fermions")
    p.add_argument("--t", type=int, help="mean-field rank")
    p.add_argument("--k", type=int, help="interaction rank")
    p.add_argument("--lambda", dest="lam", type=float, help="coupling strength")
    p.add_argument("--xi-sq", dest="xi_sq", type=float,
                   help="target correlation xi^2 (coupling solved for it)")
    if "windows" in read:
        p.add_argument("--windows", type=_parse_centers, default=_DEFAULTS["windows"],
                       help="comma-separated window centers in standardized energy")
    if "grid" in read:
        p.add_argument("--grid", default=_DEFAULTS["grid"], help="energy grid as lo:hi:count")
    p.add_argument("--config", help="key=value config file; flags override")


def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The qstrength parser and its {command: subparser}."""
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
    _add_system_flags(p, "windows")
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
    _add_system_flags(p, "windows", "grid")
    p.add_argument("--members", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--window-width", dest="window_width", type=float)
    p.add_argument("--workers", type=int,
                   help="threads that run members (default: the usable cores, %(default)s here)")
    p.add_argument("--moments", action="store_const", const=True,
                   help="also accumulate bivariate trace moments")
    p.add_argument("--out", help="output directory (default current directory)")
    p.add_argument("--check", action="store_true",
                   help="print PASS/FAIL tolerance lines; nonzero exit on failure")
    p.set_defaults(func=cmd_simulate, **_DEFAULTS)

    p = sub.add_parser("npc", help="emit the analytic NPC curve for a system")
    _add_system_flags(p, "grid")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_npc)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # parse again with the file's values as defaults: flags still win, and
        # each value goes through its flag's own type
        values = _load_config_file(args.config, vars(args).keys() - _UNREAD)
        if args.lam is not None or args.xi_sq is not None:
            # a coupling flag replaces the file's coupling, whichever key it is
            values.pop("lam", None)
            values.pop("xi_sq", None)
        commands[args.command].set_defaults(**values)
        args = parser.parse_args(argv)
    for key in ("N", "m", "t", "k"):
        if getattr(args, key, 0) is None:
            raise SystemExit(f"missing required option --{key}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
