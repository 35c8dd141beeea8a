"""End-to-end acceptance gates for the package, one test per numbered gate.

The first five gates are exact/analytic and run in seconds; gates 6-10 share
three Monte-Carlo ensembles at the reference system (N=12, m=6, t=1), each
run on two worker threads (OpenBLAS on one thread while they run); they take
a few minutes combined.  Every test prints a single summary line
(visible with -v via the test outcome, and in captured output on failure).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from cqn_quadrature import cqn_moment_quadrature, verify_cqn_reproducing
from test_bca import TABLE_A, TABLE_B
from trace_formulas import bivariate_moments

from qstrength import bca, fock, spectral
from qstrength.ensemble import RunConfig, run_ensemble
from qstrength.qnormal import cqn_conditional_moments, f_cqn, f_qn, support


def gate(label: str, ok: bool, detail: str) -> None:
    print(f"gate {label}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared Monte-Carlo ensembles (module scope: built once, reused by gates 6-10)


@pytest.fixture(scope="module")
def run_k2():
    cfg = RunConfig(N=12, m=6, t=1, k=2, xi_sq=0.5, members=500, seed=20260822,
                    workers=2)
    return run_ensemble(cfg)


@pytest.fixture(scope="module")
def run_k4():
    cfg = RunConfig(
        N=12, m=6, t=1, k=4, xi_sq=0.5, members=200, seed=20260823,
        moments=True, workers=2,
    )
    return run_ensemble(cfg)


@pytest.fixture(scope="module")
def run_k6():
    cfg = RunConfig(N=12, m=6, t=1, k=6, xi_sq=0.5, members=200, seed=20260824,
                    workers=2)
    return run_ensemble(cfg)


def _interaction_density_mu40(k: int, seed: int, members: int = 200) -> float:
    """Reduced fourth moment of the embedded rank-k interaction's own density.

    Ensemble-trace ratio mu40 = mean(tr v_c^4 / d) / mean(tr v_c^2 / d)^2 over
    members, v_c the traceless part of each embedded member: with b = v_c^2,
    tr v_c^2 = tr b and tr v_c^4 = ||b||_F^2, one matmul per member.
    """
    basis_m = fock.build_basis(12, 6)
    basis_k = fock.build_basis(12, k)
    d = basis_m.dim
    t20 = t40 = 0.0
    for member in range(members):
        g = fock.sample_goe(basis_k.dim, seed, member, 0)
        v = fock.embed_k_body(g, basis_m, basis_k)
        v.flat[:: d + 1] -= np.trace(v) / d
        b = v @ v
        t20 += float(np.trace(b)) / d
        t40 += float(np.sum(b * b)) / d
    return (t40 / members) / (t20 / members) ** 2


# ---------------------------------------------------------------------------
# gates 1-3: exact reproduction of the reference parameter tables


def test_01_finite_and_dilute_q_parameter_tables():
    worst = 0.0
    for (N, m, k), row in TABLE_A.items():
        fin = bca.q_params_finite(N, m, 1, k, 0.5)
        inf_ = bca.q_params_infinite(m, 1, k, 0.5)
        got = (fin.q_h, inf_.q_h, fin.q_v, inf_.q_v, fin.q_hv, inf_.q_hv)
        for have, want in zip(got, row[:6]):
            worst = max(worst, abs(have - want))
    gate("01 q-parameter tables", worst <= 1e-3,
         f"16 systems x 6 columns, worst |dev| {worst:.2e} (printed to 3 decimals)")


def test_02_fourth_moment_correction_columns():
    worst = 0.0
    for (N, m, k), row in TABLE_A.items():
        qs = bca.q_params_finite(N, m, 1, k, 0.5)
        for e_hat, want in zip((0.0, 1.0, 2.0), row[6:9]):
            have = bca.strength_moment_prediction(e_hat, qs, m, 1, k).delta
            worst = max(worst, abs(have - want))
    gate("02 correction columns", worst <= 1e-3,
         f"16 systems x 3 energies, worst |dev| {worst:.2e}")


def test_03_two_body_mean_field_table():
    worst = 0.0
    rows = {(r["N"], r["m"], r["k"]): r for r in bca.composition_table_rows()}
    for key, want in TABLE_B.items():
        r = rows[key]
        for have, ref in zip((r["q_h"], r["q_v"], r["q_hv"], r["q_H"]), want):
            worst = max(worst, abs(have - ref))
    gate("03 rank-2 mean-field table", worst <= 1e-3,
         f"9 systems x 4 columns, worst |dev| {worst:.2e}")


# ---------------------------------------------------------------------------
# gate 4: q-normal family properties


def test_04_qnormal_family_properties():
    # normalization across the q range
    norm_dev = 0.0
    for q in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        hi = support(q).hi
        val, _ = quad(f_qn, -hi, hi, args=(q,), limit=200)
        norm_dev = max(norm_dev, abs(val - 1.0))
    # q = 0 semicircle and q -> 1 Gaussian endpoints
    x = np.linspace(-1.9, 1.9, 41)
    semi_dev = float(np.max(np.abs(f_qn(x, 0.0) - np.sqrt(4 - x**2) / (2 * math.pi))))
    xg = np.linspace(-3.0, 3.0, 13)
    gauss = np.exp(-(xg**2) / 2) / math.sqrt(2 * math.pi)
    gauss_dev = float(np.max(np.abs(f_qn(xg, 0.9999) - gauss)))
    # reproducing property of the conditional density
    rep_dev = 0.0
    for n in range(7):
        for q in (0.0, 0.25, 0.5, 0.75):
            for xi in (0.3, 0.707):
                for y in (0.0, 1.0, -1.0, 1.5, -1.5):
                    rep_dev = max(rep_dev, verify_cqn_reproducing(n, y, xi, q))
    ok = norm_dev < 1e-8 and semi_dev < 1e-12 and gauss_dev < 1e-2 and rep_dev < 1e-6
    gate("04 q-normal family", ok,
         f"normalization {norm_dev:.1e}, semicircle {semi_dev:.1e}, "
         f"gaussian-limit {gauss_dev:.1e}, reproducing {rep_dev:.1e}")


# ---------------------------------------------------------------------------
# gate 5: conditional moments, closed form vs quadrature


def test_05_conditional_moment_identity():
    worst = 0.0
    for q in (0.0, 0.25, 0.5, 0.75):
        for xi in (0.3, 0.707):
            for y in (0.0, 1.0, -1.5):
                mom = cqn_conditional_moments(y, xi, q)
                # quadrature yields central moments about the closed-form mean
                m1 = cqn_moment_quadrature(1, y, xi, q)
                m2 = cqn_moment_quadrature(2, y, xi, q)
                m3 = cqn_moment_quadrature(3, y, xi, q)
                m4 = cqn_moment_quadrature(4, y, xi, q)
                worst = max(
                    worst,
                    abs(m1),
                    abs(m2 - mom.variance),
                    abs(m3 / m2**1.5 - mom.gamma1),
                    abs(m4 / m2**2 - 3.0 - mom.gamma2),
                )
    # the half-coupling center identity gamma2(y=0) = q(1-q)
    id_dev = max(
        abs(cqn_conditional_moments(0.0, math.sqrt(0.5), q).gamma2 - q * (1 - q))
        for q in (0.0, 0.25, 0.5357142857142857, 0.75)
    )
    ok = worst < 1e-6 and id_dev < 1e-14
    gate("05 conditional moments", ok,
         f"closed-vs-quadrature worst {worst:.1e}, center identity dev {id_dev:.1e}")


# ---------------------------------------------------------------------------
# gate 6: strength functions follow the conditional q-normal (reference system)


def test_06a_centroid_slope(run_k2):
    xi = run_k2.system.qs_finite.xi
    mom = run_k2.strength.window_moments()
    slope = spectral.centroid_slope(mom["e0_mean"], mom["mean"], mom["weight"], e0_max=2.0)
    dev = abs(slope - xi) / xi
    gate("06a centroid slope", dev <= 0.03,
         f"slope {slope:.4f} vs xi {xi:.4f}, rel dev {dev:.4f} (tol 0.03)")


def test_06b_variance_flat(run_k2):
    target = 1.0 - run_k2.system.qs_finite.xi_sq
    mom = run_k2.strength.window_moments()
    sel = np.isfinite(mom["e0_mean"]) & (np.abs(mom["e0_mean"]) <= 2.0)
    dev = float(np.max(np.abs(mom["variance"][sel] - target))) / target
    gate("06b variance flat", dev <= 0.05,
         f"max rel dev {dev:.4f} across {int(sel.sum())} windows (tol 0.05)")


def test_06c_skewness_windows(run_k2):
    cfg = run_k2.config
    mom = run_k2.strength.window_moments()
    pred = spectral.window_predictions(run_k2.strength, run_k2.system.qs_finite,
                                       cfg.m, cfg.t, cfg.k)
    e0 = mom["e0_mean"]
    sel = np.isfinite(e0) & (np.abs(e0) >= 0.25) & (np.abs(e0) <= 1.5)
    rel = float(np.max(np.abs(mom["gamma1"][sel] - pred["gamma1"][sel]) / np.abs(pred["gamma1"][sel])))
    flips = bool(np.all(np.sign(mom["gamma1"][sel]) == -np.sign(e0[sel])))
    gate("06c skewness", rel <= 0.10 and flips,
         f"max rel dev {rel:.4f} on 0.25<=|e0|<=1.5 (tol 0.10), sign flip {flips}")


def test_06d_excess_kurtosis_windows(run_k2):
    cfg = run_k2.config
    mom = run_k2.strength.window_moments()
    pred = spectral.window_predictions(run_k2.strength, run_k2.system.qs_finite,
                                       cfg.m, cfg.t, cfg.k)
    e0 = mom["e0_mean"]
    sel = np.isfinite(e0) & (np.abs(e0) <= 2.0)
    dev = np.abs(mom["gamma2"][sel] - pred["gamma2"][sel])
    worst = float(np.max(dev))
    per_window = ", ".join(
        f"{c:+.1f}:{d:.3f}" for c, d in zip(e0[sel], dev)
    )
    # The measured edge kurtosis sits above the corrected prediction: with a
    # 20-block jackknife gamma2 is 0.909 +- 0.013 at e0 = -2 and 0.911 +- 0.021
    # at +2 against 0.592, so the gap is systematic, not statistical.  The gap
    # grows as e0^2 in every rank while the centre window agrees, and the
    # ensemble's own q_hv sits below bca.q_hv_finite.  The gate is stated against
    # the corrected prediction, so it fails honestly at the outermost windows;
    # ROADMAP item 1 holds these numbers and the open question.
    gate("06d excess kurtosis", worst <= 0.15,
         f"abs dev per window [{per_window}] (tol 0.15)")


# ---------------------------------------------------------------------------
# gate 7: interaction-rank endpoints of the spectral-density family


def test_07_regime_endpoints():
    mu40_semi = _interaction_density_mu40(6, 20260825)
    mu40_gauss = _interaction_density_mu40(1, 20260826)
    want_gauss = 2.0 + bca.q_hv_finite(12, 6, 1, 1)
    dev_semi = abs(mu40_semi - 2.0)
    dev_gauss = abs(mu40_gauss - want_gauss)
    gate("07 regime endpoints", dev_semi <= 0.1 and dev_gauss <= 0.1,
         f"rank-6 density mu40 {mu40_semi:.4f} (semicircle 2.0, dev {dev_semi:.4f}); "
         f"rank-1 density mu40 {mu40_gauss:.4f} (target {want_gauss:.4f}, dev {dev_gauss:.4f})")


# ---------------------------------------------------------------------------
# gate 8: bivariate moment asymmetry at k=4


def test_08_bivariate_moment_asymmetry(run_k4):
    emp = run_k4.moments.finalize()
    pred = bivariate_moments(run_k4.system.qs_finite)
    checks = []
    for name in ("mu11", "mu40", "mu04", "mu31", "mu13", "mu22"):
        want = getattr(pred, name)
        have = emp[name]
        band = 3.0 * emp[f"{name}_member_std"]
        checks.append((name, abs(have - want) <= band, have, want, band))
    asym_emp = emp["mu31"] - emp["mu13"]
    asym_pred = pred.mu31 - pred.mu13
    asym_ok = asym_pred > 0 and asym_emp > 0
    ok = all(c[1] for c in checks) and asym_ok
    detail = "; ".join(f"{n} {h:.4f} vs {w:.4f} (3sigma {b:.4f})" for n, _, h, w, b in checks)
    gate("08 bivariate asymmetry", ok,
         detail + f"; mu31-mu13 emp {asym_emp:.4f} pred {asym_pred:.4f}")


# ---------------------------------------------------------------------------
# gate 9: strength-function overlays across interaction ranks


def test_09_overlay_distance(run_k2, run_k4, run_k6):
    worst = {}
    for label, res in (("k=2", run_k2), ("k=4", run_k4), ("k=6", run_k6)):
        rep = res.strength
        l1 = spectral.strength_l1(rep.f_values(),
                                  spectral.predicted_f_values(rep, res.system.qs_finite), rep.edges)
        wc = res.strength.window_centers
        sel = np.isclose(wc, -1.0) | np.isclose(wc, 0.0) | np.isclose(wc, 1.0)
        worst[label] = float(np.nanmax(l1[sel]))
    ok = all(v < 0.1 for v in worst.values())
    gate("09 overlay distance", ok,
         "; ".join(f"{k} max L1 {v:.4f}" for k, v in worst.items()) + " (tol 0.1 at centers -1,0,+1)")


# ---------------------------------------------------------------------------
# gate 10: eigenvector mixing measures


def test_10a_npc_center_matches_analytic(run_k2):
    chaos = run_k2.chaos
    centers = chaos.bin_centers
    sel = np.abs(centers) <= 0.06  # the two bins straddling the spectrum center
    mc = chaos.npc()[sel]
    analytic = spectral.npc_integral(centers[sel], run_k2.system.qs_finite, 924)
    dev = float(np.max(np.abs(mc - analytic) / analytic))
    gate("10a mixing at center", dev <= 0.15,
         f"MC {np.array2string(mc, precision=2)} vs analytic "
         f"{np.array2string(analytic, precision=2)}, rel dev {dev:.4f} (tol 0.15)")


def test_10b_uncoupled_limit_is_exact():
    cfg = RunConfig(N=8, m=4, t=1, k=2, lam=0.0, members=3, seed=5)
    res = run_ensemble(cfg)
    npc = res.chaos.npc()
    s_info = res.chaos.s_info()
    seen = res.chaos.count > 0
    ok = bool(np.all(npc[seen] == 1.0) and np.all(s_info[seen] == 0.0))
    gate("10b uncoupled exactness", ok,
         f"{int(seen.sum())} occupied bins, NPC==1 and S_info==0 bitwise")


# ---------------------------------------------------------------------------
# gate 11: byte-identical simulation outputs


def test_11_deterministic_outputs(tmp_path):
    from test_cli import run_cli

    argv = [
        "simulate", "--N", "10", "--m", "5", "--t", "1", "--k", "2",
        "--xi-sq", "0.5", "--members", "6", "--seed", "11",
        "--windows=-1,0,1", "--window-width", "0.4", "--grid=-3.2:3.2:32",
    ]
    runs = {}
    for name, extra in (("a", ["--workers", "1"]), ("b", ["--workers", "2"]),
                        ("c", ["--workers", "1"])):
        out = tmp_path / name
        code, _, _ = run_cli(argv + extra + ["--out", str(out)])
        assert code == 0
        runs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    same_names = set(runs["a"]) == set(runs["b"]) == set(runs["c"])
    worker_same = all(runs["a"][n] == runs["b"][n] for n in runs["a"])
    rerun_same = all(runs["a"][n] == runs["c"][n] for n in runs["a"])
    gate("11 determinism", same_names and worker_same and rerun_same,
         f"{sorted(runs['a'])} identical across reruns and worker counts")
