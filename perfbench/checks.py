"""Correctness checks of a pass's outputs against computations made apart from qstrength.

Nothing here calls the package's densities, moment formulas or accumulators.
The exact checks rebuild what they need from first principles: the t = 1 mean
field's spectrum from subset sums of its single-particle eigenvalues, the
q-normal and conditional q-normal densities from their product formulas, the
conditional moments from their closed forms, and the printed reference tables.
The one call into the package is fock.embed_k_body in the trace check, whose
output is the quantity under test.

Every check returns (name, passed, detail).  Figures that are reported but are
not pass conditions (the gate-06d kurtosis excess, the realized xi^2) come back
separately.
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path

import numpy as np

from passrun import M, N, T, XI_SQ

DIM = math.comb(N, M)
WINDOW_HALF_WIDTH = 0.05  # the CLI default window width, 0.1

# Paper Table 1 (t = 1, xi^2 = 1/2), as printed to three decimals:
# (N, m, k) -> q_h, q_h_inf, q_v, q_v_inf, q_hv, q_hv_inf, delta(E=0), delta(1), delta(2).
TABLE_1 = {
    (20, 8, 2): (0.814, 0.875, 0.417, 0.536, 0.654, 0.750, -0.043, -0.071, -0.142),
    (20, 8, 3): (0.814, 0.875, 0.119, 0.179, 0.515, 0.625, -0.087, -0.114, -0.177),
    (20, 8, 4): (0.814, 0.875, 0.015, 0.014, 0.394, 0.500, -0.093, -0.105, -0.130),
    (20, 8, 5): (0.814, 0.875, 0.0, 0.0, 0.287, 0.375, -0.077, -0.077, -0.078),
    (20, 8, 6): (0.814, 0.875, 0.0, 0.0, 0.192, 0.250, -0.055, -0.051, -0.043),
    (20, 8, 7): (0.814, 0.875, 0.0, 0.0, 0.107, 0.125, -0.033, -0.028, -0.020),
    (20, 8, 8): (0.814, 0.875, 0.0, 0.0, 0.031, 0.000, -0.010, -0.008, -0.005),
    (50, 10, 2): (0.879, 0.900, 0.567, 0.622, 0.763, 0.800, -0.026, -0.061, -0.157),
    (50, 10, 3): (0.879, 0.900, 0.240, 0.292, 0.653, 0.700, -0.079, -0.123, -0.240),
    (50, 10, 4): (0.879, 0.900, 0.053, 0.071, 0.548, 0.600, -0.108, -0.143, -0.228),
    (50, 10, 5): (0.879, 0.900, 0.003, 0.004, 0.447, 0.500, -0.106, -0.125, -0.166),
    (50, 10, 6): (0.879, 0.900, 0.0, 0.0, 0.351, 0.400, -0.090, -0.096, -0.109),
    (50, 10, 7): (0.879, 0.900, 0.0, 0.0, 0.259, 0.300, -0.071, -0.069, -0.067),
    (50, 10, 8): (0.879, 0.900, 0.0, 0.0, 0.171, 0.200, -0.050, -0.045, -0.036),
    (50, 10, 9): (0.879, 0.900, 0.0, 0.0, 0.086, 0.100, -0.027, -0.022, -0.015),
    (50, 10, 10): (0.879, 0.900, 0.0, 0.0, 0.005, 0.0, -0.002, -0.001, -0.001),
}
TABLE_1_COLUMNS = ("q_h", "q_h_inf", "q_v", "q_v_inf", "q_hv", "q_hv_inf",
                   "delta_0", "delta_1", "delta_2")

# Paper Table 2 (t = 2, xi^2 = 1/2): (N, m, k) -> q_h, q_v, q_hv, q_H.
TABLE_2 = {
    (12, 6, 2): (0.287, 0.287, 0.287, 0.287),
    (12, 6, 3): (0.287, 0.057, 0.149, 0.160),
    (12, 6, 4): (0.287, 0.005, 0.071, 0.109),
    (24, 8, 2): (0.438, 0.438, 0.438, 0.438),
    (24, 8, 3): (0.438, 0.125, 0.270, 0.276),
    (24, 8, 4): (0.438, 0.013, 0.154, 0.190),
    (40, 12, 2): (0.600, 0.600, 0.600, 0.600),
    (40, 12, 3): (0.600, 0.292, 0.452, 0.449),
    (40, 12, 4): (0.600, 0.092, 0.333, 0.340),
}
TABLE_2_COLUMNS = ("q_h", "q_v", "q_hv", "q_H")
TABLE_TOL = 1e-3

# Tolerances.  CSV numbers carry 6 significant digits.
PRINT_RTOL = 1e-5
NPC_RTOL = 1e-4  # observed quadrature differences <= 2e-6, plus the 6-digit print
MOMENT_TOL = 5e-4  # trapezoid on QNORMAL_POINTS points; observed error <= 1e-4
# Statistical checks: a systematic allowance (realized xi^2 is 0.490, not 0.5)
# plus five per-member standard deviations over sqrt(members).  The per-member
# deviations were measured from 45 independent 4-member ensembles (k = 2, 4).
STAT_SYSTEMATIC = 0.015
SLOPE_SD_1 = 0.04
VARIANCE_SD_1 = 0.055


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_key_values(path: Path) -> dict[str, str]:
    return {row["key"]: row["value"] for row in read_csv(path)}


def column(rows: list[dict[str, str]], name: str) -> np.ndarray:
    return np.array([float(row[name]) for row in rows])


def close(have, want, rtol: float, atol: float = 0.0) -> bool:
    have, want = np.asarray(have, float), np.asarray(want, float)
    same_nan = np.array_equal(np.isnan(have), np.isnan(want))
    ok = np.isnan(want) | (np.abs(have - want) <= rtol * np.abs(want) + atol)
    return bool(same_nan and np.all(ok))


def worst_rel(have, want) -> float:
    have, want = np.asarray(have, float), np.asarray(want, float)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(have - want) / np.abs(want)
    return float(np.nanmax(rel)) if np.any(np.isfinite(rel)) else 0.0


# ---------------------------------------------------------------------------
# q-normal densities from their product formulas


def _powers(q: float, start: int) -> np.ndarray:
    """q^start .. q^K with q^K below 1e-18."""
    top = 1 if q == 0.0 else int(math.ceil(math.log(1e-18) / math.log(q))) + 1
    return q ** np.arange(start, top + 1, dtype=float)


def qn_density(x, q: float) -> np.ndarray:
    """f_qN(x|q) = sqrt(1-q) / (2 pi sqrt(4-(1-q)x^2))
                   * prod_{k>=0} (1-q^{k+1}) ((1+q^k)^2 - (1-q) q^k x^2).

    The k = 0 factor's (4 - (1-q)x^2) is merged with the prefactor, so the
    density vanishes like a square root at the support edges +-2/sqrt(1-q);
    the support is open, so the density is 0 on the edges themselves.
    """
    x = np.asarray(x, float)
    c = 1.0 - q
    s = 4.0 - c * x * x
    inside = (np.abs(x) < 2.0 / math.sqrt(c)) & (s > 0.0)
    xs = np.where(inside, x, 0.0)[..., None]
    qk = _powers(q, 1)
    prod = np.prod((1.0 - qk) * ((1.0 + qk) ** 2 - c * qk * xs * xs), axis=-1)
    dens = math.sqrt(c) / (2.0 * math.pi) * np.sqrt(np.where(inside, s, 0.0)) * prod
    return np.where(inside, dens, 0.0)


def cqn_density(x, y, xi: float, q: float) -> np.ndarray:
    """f_CqN(x|y; xi, q) = f_qN(x|q) prod_{k>=0} (1 - xi^2 q^k) / W_k(x, y), with
    W_k = (1 - xi^2 q^2k)^2 - (1-q) xi q^k (1 + xi^2 q^2k) x y + (1-q) xi^2 q^2k (x^2 + y^2).
    """
    x = np.asarray(x, float)
    fx = qn_density(x, q)
    inside = (fx > 0.0)[..., None]
    xs = x[..., None]
    ys = np.asarray(y, float)[..., None]
    c, r2 = 1.0 - q, xi * xi
    qk = _powers(q, 0)
    q2k = qk * qk
    w = ((1.0 - r2 * q2k) ** 2 - c * xi * qk * (1.0 + r2 * q2k) * xs * ys
         + c * r2 * q2k * (xs * xs + ys * ys))
    return fx * np.prod((1.0 - r2 * qk) / np.where(inside, w, 1.0), axis=-1)


def cqn_moments(y: float, xi: float, q: float) -> dict[str, float]:
    """Closed-form mean, variance, skewness and excess kurtosis of f_CqN(x|y)."""
    v = 1.0 - xi * xi
    return {
        "mean": xi * y,
        "variance": v,
        "gamma1": -xi * (1.0 - q) * y / math.sqrt(v),
        "gamma2": (q - 1.0) + ((1.0 - q) ** 2 * xi * xi * y * y + xi * xi * (1.0 - q * q)) / v,
    }


def npc_curve(x: np.ndarray, q_h: float, q_hv: float, q_big: float, xi: float, dim: int,
              points: int = 4001) -> np.ndarray:
    """(dim/3) f_qN(x|q_H)^2 / integral dy f_qN(y|q_h) f_CqN(x|y)^2 on a fine grid.

    The y range is the support of min(q_h, q_H, q_hv), the range qstrength
    documents for its curve; y = lim sin(theta) absorbs the square-root edges.
    Points outside the q_H or q_hv support, or where f_qN(x|q_H) < 1e-12,
    are nan.
    """
    lim = 2.0 / math.sqrt(1.0 - min(q_h, q_big, q_hv))
    theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, points)
    y = lim * np.sin(theta)
    dy = lim * np.cos(theta) * (theta[1] - theta[0])
    weight = qn_density(y, q_h) * dy
    out = np.full(len(x), np.nan)
    for i, xx in enumerate(x):
        fx = float(qn_density(xx, q_big))
        if fx < 1e-12 or qn_density(xx, q_hv) == 0.0:
            continue
        g = cqn_density(np.full(len(y), xx), y, xi, q_hv)
        out[i] = (dim / 3.0) * fx**2 / float(np.sum(weight * g * g))
    return out


def _lam(n_orb: int, m: int, r: int, nu: int = 0) -> int:
    return math.comb(m - nu, r) * math.comb(n_orb - m + r - nu, r) if r <= m - nu else 0


def _irreducible(n_orb: int, nu: int) -> int:
    return math.comb(n_orb, nu) ** 2 - (math.comb(n_orb, nu - 1) ** 2 if nu else 0)


def q_parameters(n_orb: int, m: int, t: int, k: int, xi_sq: float) -> dict[str, float]:
    """Finite-N q_h, q_v, q_hv and the composed q_H from the paper's rank sums.

    q_r = sum_nu L(m,r,nu) L(m,m-r,nu) D(nu) / (C(N,m) L(m,r)^2), with
    L(m,r,nu) = C(m-nu,r) C(N-m+r-nu,r) and D(nu) = C(N,nu)^2 - C(N,nu-1)^2;
    q_hv sums L(m,k,nu) L(m,m-t,nu) D(nu) over nu <= min(t, m-k) and divides
    by C(N,m) L(m,t) L(m,k).
    """
    dim = math.comb(n_orb, m)

    def q_rank(r: int) -> float:
        num = sum(_lam(n_orb, m, r, nu) * _lam(n_orb, m, m - r, nu) * _irreducible(n_orb, nu)
                  for nu in range(min(r, m - r) + 1))
        return num / (dim * _lam(n_orb, m, r) ** 2)

    num = sum(_lam(n_orb, m, k, nu) * _lam(n_orb, m, m - t, nu) * _irreducible(n_orb, nu)
              for nu in range(min(t, m - k) + 1))
    q_h, q_v = q_rank(t), q_rank(k)
    q_hv = num / (dim * _lam(n_orb, m, t) * _lam(n_orb, m, k))
    q_big = xi_sq**2 * q_h + (1 - xi_sq) ** 2 * q_v + 2 * xi_sq * (1 - xi_sq) * q_hv
    return {"q_h": q_h, "q_v": q_v, "q_hv": q_hv, "q_H": q_big, "xi_sq": xi_sq, "dim": dim}


def check_params(params: dict[str, str], q: dict[str, float], label: str):
    names = {"q_h_finite": "q_h", "q_v_finite": "q_v", "q_hv_finite": "q_hv",
             "q_big_h_finite": "q_H", "xi_sq_finite": "xi_sq", "dim": "dim"}
    have = [float(params[key]) for key in names]
    want = [q[name] for name in names.values()]
    return (f"{label}: params = finite-N rank sums", close(have, want, PRINT_RTOL),
            f"worst rel dev {worst_rel(have, want):.1e}")


def check_npc_file(path: Path, x: np.ndarray, q: dict[str, float], npc_column: str, label: str):
    """The curve at the exact abscissae (the file prints 6 digits of them)."""
    rows = read_csv(path)
    have = column(rows, npc_column)
    want = npc_curve(x, q["q_h"], q["q_hv"], q["q_H"], math.sqrt(q["xi_sq"]), q["dim"])
    ok = close(column(rows, "x"), x, PRINT_RTOL, 1e-12) and close(have, want, NPC_RTOL)
    return (f"{label}: npc vs fine-grid quadrature", ok,
            f"worst rel dev {worst_rel(have, want):.1e} (tol {NPC_RTOL:g})")


# ---------------------------------------------------------------------------
# ensemble workloads


def mean_field_windows(seed: int, members: int, centers: np.ndarray):
    """n_kappa and summed launch energy per window, from subset sums.

    For t = 1, H0 = sum_ab h_ab a+_a a_b, and its m-particle eigenvalues are
    the sums of m distinct eigenvalues of the N x N matrix h.  h is regenerated
    from the documented member seeding: SeedSequence(seed, spawn_key=(member,
    stream 0)), standard normals A, h = (A + A^T)/sqrt(2).
    """
    subsets = np.array(list(itertools.combinations(range(N), M)))
    n_kappa = np.zeros(len(centers))
    sum_e0 = np.zeros(len(centers))
    for member in range(members):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(member, 0)))
        a = rng.standard_normal((N, N))
        eps = np.linalg.eigvalsh((a + a.T) / math.sqrt(2.0))
        energies = np.sort(eps[subsets].sum(axis=1))
        e_hat = (energies - energies.mean()) / energies.std()
        for i, c in enumerate(centers):
            sel = (e_hat >= c - WINDOW_HALF_WIDTH) & (e_hat < c + WINDOW_HALF_WIDTH)
            n_kappa[i] += np.count_nonzero(sel)
            sum_e0[i] += e_hat[sel].sum()
    return n_kappa, sum_e0


def interaction_trace_check(seed: int, member: int, k: int) -> tuple[str, bool, str]:
    """tr V = C(N-k, m-k) tr v for the embedded rank-k interaction of one member."""
    from qstrength import fock

    dim_k = math.comb(N, k)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(member, 1)))
    a = rng.standard_normal((dim_k, dim_k))
    v = (a + a.T) / math.sqrt(2.0)
    big_v = fock.embed_k_body(v, fock.build_basis(N, M), fock.build_basis(N, k))
    want = math.comb(N - k, M - k) * np.trace(v)
    have = float(np.trace(big_v))
    scale = math.comb(N - k, M - k) * float(np.sum(np.abs(np.diag(v))))
    return (f"member {member}: tr V = C(N-k,m-k) tr v", abs(have - want) <= 1e-10 * scale,
            f"{have:.10g} vs {want:.10g}")


def check_ensemble_pass(out: Path, inputs: dict) -> list[tuple[str, bool, str]]:
    seed, members, k = inputs["seed"], inputs["members"], inputs["k"]
    params = read_key_values(out / "params.csv")
    rows = read_csv(out / "moments.csv")
    centers = column(rows, "window_center")
    n_have, e0_have = column(rows, "n_kappa"), column(rows, "e0_mean")
    weight = column(rows, "weight")
    n_want, sum_e0 = mean_field_windows(seed, members, centers)
    with np.errstate(invalid="ignore", divide="ignore"):
        e0_want = np.where(n_want > 0, sum_e0 / n_want, np.nan)
    checks = [
        ("n_kappa = subset-sum count per window", bool(np.array_equal(n_have, n_want)),
         f"{n_have.astype(int).tolist()} vs {n_want.astype(int).tolist()}"),
        ("e0_mean = subset-sum mean per window", close(e0_have, e0_want, PRINT_RTOL, 1e-9),
         f"worst rel dev {worst_rel(e0_have, e0_want):.1e}"),
        ("window weight = n_kappa (doubly stochastic rows)", close(weight, n_want, PRINT_RTOL),
         f"worst rel dev {worst_rel(weight, n_want):.1e}"),
        interaction_trace_check(seed, 0, k),
        interaction_trace_check(seed, members - 1, k),
    ]
    npc_rows = read_csv(out / "npc.csv")
    npc, s_info = column(npc_rows, "npc_mc"), column(npc_rows, "s_info_mc")
    npc, s_info = npc[np.isfinite(npc)], s_info[np.isfinite(s_info)]
    checks.append(("1 <= NPC <= d", bool(np.all((npc >= 1 - 1e-9) & (npc <= DIM * (1 + 1e-9)))),
                   f"range [{npc.min():.4g}, {npc.max():.4g}], d = {DIM}"))
    checks.append(("0 <= S_info <= ln d",
                   bool(np.all((s_info >= 0.0) & (s_info <= math.log(DIM) + 1e-9))),
                   f"range [{s_info.min():.4g}, {s_info.max():.4g}], ln d = {math.log(DIM):.4g}"))
    q = q_parameters(N, M, T, k, XI_SQ)
    checks.append(check_params(params, q, "simulate"))
    edges = np.linspace(-3.2, 3.2, 65)  # the CLI default grid, -3.2:3.2:64
    bins = 0.5 * (edges[:-1] + edges[1:])
    checks.append(check_npc_file(out / "npc.csv", bins, q, "npc_analytic", "simulate"))
    return checks


def pooled_windows(outs: list[Path]) -> dict[str, np.ndarray]:
    """Window moments of all passes together, pooled from the per-pass raw moments.

    The program's gamma2 prediction, evaluated per pass at that pass's e0_mean,
    is averaged with the window weights.
    """
    per_pass = [read_csv(out / "moments.csv") for out in outs]

    def stack(name: str) -> np.ndarray:  # (passes, windows)
        return np.array([column(rows, name) for rows in per_pass])

    wt, nk = stack("weight"), stack("n_kappa")
    mean, var = stack("centroid"), stack("variance")
    c3 = stack("gamma1") * var**1.5
    c4 = (stack("gamma2") + 3.0) * var**2
    raw = (mean, var + mean**2, c3 + 3 * mean * var + mean**3,
           c4 + 4 * mean * c3 + 6 * mean**2 * var + mean**4)
    pred = stack("gamma2_pred")
    pred_w = np.where(np.isfinite(pred), wt, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        w = wt.sum(axis=0)
        m1, m2, m3, m4 = (np.nansum(r * wt, axis=0) / w for r in raw)
        var = m2 - m1**2
        c4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
        return {"center": stack("window_center")[0], "weight": w,
                "e0": np.nansum(stack("e0_mean") * nk, axis=0) / nk.sum(axis=0),
                "mean": m1, "variance": var, "gamma2": c4 / var**2 - 3.0,
                "gamma2_pred": np.nansum(pred * pred_w, axis=0) / pred_w.sum(axis=0)}


def check_pooled_statistics(outs: list[Path], members: int):
    """Centroid slope = xi and window variance = 1 - xi^2 over all passes of a run."""
    pool = pooled_windows(outs)
    e0, w, center = pool["e0"], pool["weight"], pool["center"]
    sel = np.isfinite(e0) & (np.abs(center) <= 2.0) & (w > 0)
    xi = math.sqrt(XI_SQ)
    slope = float(np.sum(w[sel] * e0[sel] * pool["mean"][sel]) / np.sum(w[sel] * e0[sel] ** 2))
    variance = float(np.sum(w[sel] * pool["variance"][sel]) / np.sum(w[sel]))
    root = math.sqrt(members)
    slope_tol = STAT_SYSTEMATIC + 5 * SLOPE_SD_1 / root
    var_tol = STAT_SYSTEMATIC + 5 * VARIANCE_SD_1 / root
    checks = [
        ("centroid slope = xi", abs(slope - xi) <= slope_tol,
         f"{slope:.4f} vs {xi:.4f} (tol {slope_tol:.3f}, {members} members)"),
        ("window variance = 1 - xi^2", abs(variance - (1 - XI_SQ)) <= var_tol,
         f"{variance:.4f} vs {1 - XI_SQ:.4f} (tol {var_tol:.3f}, {members} members)"),
    ]
    outer = sel & (np.abs(center) >= 1.5)
    g2_dev = pool["gamma2"][outer] - pool["gamma2_pred"][outer]
    figures = {
        "members": members,
        "xi_sq_from_slope": slope**2,
        "variance_fraction_from_width": 1.0 - variance,
        "gamma2_dev_outer_max": float(np.max(np.abs(g2_dev))) if g2_dev.size else float("nan"),
    }
    return checks, figures


def bivariate_xi_sq(outs: list[Path]) -> float:
    """Realized xi^2 = sigma_H0^2 / sigma_H^2 from the bivariate trace moments."""
    ratios = []
    for out in outs:
        kv = read_key_values(out / "bivariate.csv")
        ratios.append((float(kv["sigma_h0"]) / float(kv["sigma_h"])) ** 2)
    return float(np.mean(ratios))


# ---------------------------------------------------------------------------
# analytic workload


def check_tables(out: Path) -> list[tuple[str, bool, str]]:
    checks = []
    for name, table, columns in (("table1.csv", TABLE_1, TABLE_1_COLUMNS),
                                 ("table2.csv", TABLE_2, TABLE_2_COLUMNS)):
        rows = {(int(r["N"]), int(r["m"]), int(r["k"])): r for r in read_csv(out / name)}
        worst, missing = 0.0, sorted(set(table) - set(rows))
        for key, want in table.items():
            if key in rows:
                have = [float(rows[key][c]) for c in columns]
                worst = max(worst, float(np.max(np.abs(np.subtract(have, want)))))
        checks.append((f"{name} = paper values", not missing and worst <= TABLE_TOL,
                       f"worst |dev| {worst:.1e} (tol {TABLE_TOL:g}), missing rows {missing}"))
    return checks


def check_qnormal_curve(path: Path, grid: list, q: float, y: float, xi: float, label: str):
    """Pointwise against the product formula, then trapezoid moments on the grid."""
    rows = read_csv(path)
    x = np.linspace(*grid)  # the grid the command was given; the file prints 6 digits of it
    f = column(rows, "f_cqn")
    want = cqn_density(x, y, xi, q)
    checks = [(f"{label}: x = requested grid", close(column(rows, "x"), x, PRINT_RTOL, 1e-12),
               f"{len(rows)} points"),
              (f"{label}: f_cqn = product formula", close(f, want, PRINT_RTOL, 1e-12),
               f"worst rel dev {worst_rel(f[want > 0], want[want > 0]):.1e}")]
    norm = float(np.trapezoid(f, x))
    mean = float(np.trapezoid(x * f, x)) / norm
    c2, c3, c4 = (float(np.trapezoid((x - mean) ** p * f, x)) / norm for p in (2, 3, 4))
    have = {"norm": norm, "mean": mean, "variance": c2, "gamma1": c3 / c2**1.5,
            "gamma2": c4 / c2**2 - 3.0}
    want_m = {"norm": 1.0, **cqn_moments(y, xi, q)}
    dev = {key: have[key] - want_m[key] for key in have}
    worst = max(dev, key=lambda key: abs(dev[key]))
    checks.append((f"{label}: trapezoid moments = closed forms",
                   all(abs(d) <= MOMENT_TOL for d in dev.values()),
                   f"worst {worst} dev {dev[worst]:.1e} (tol {MOMENT_TOL:g})"))
    return checks


def check_analytic_pass(out: Path, inputs: dict) -> list[tuple[str, bool, str]]:
    checks = check_tables(out / "tables")
    for entry in inputs["systems"]:
        sysdir = out / entry["dir"]
        label = entry["dir"]
        q = q_parameters(*entry["system"], XI_SQ)
        checks.append(check_params(read_key_values(sysdir / "params.csv"), q, label))
        checks.append(check_npc_file(sysdir / "npc.csv", np.linspace(-3.2, 3.2, 64), q, "npc",
                                     label))
        checks += check_qnormal_curve(sysdir / "qnormal.csv", entry["grid"], entry["q"],
                                      entry["y"], entry["xi"], label)
    return checks
