"""Acceptance suite: one test per criterion, named by number, each
printing a PASS/FAIL line with the measured quantities.

Criteria 9 (stability clause) and 12 (vanishing clause) encode the stated
thresholds verbatim; see the decisions ledger if they read red."""

import math
import os
import time

import numpy as np
import pytest

from hypercut.covers import (GrowthFunction, normal_cover_requirement,
                             synthetic_density_budget, uniform_budget)
from hypercut.geometry import PointH
from hypercut.mixing import (concentration_fit, cutoff_locator,
                             default_partition, distance_histogram,
                             tv_profile)
from hypercut.modular import (CosetModQ, QuotientPoint, get_enumeration,
                              modq_context, psl2q_order, quotient_R,
                              quotient_distance_pairs,
                              sample_uniform_quotient)
from hypercut.spectral import (clt_constants, complementary_lower_envelope,
                               gaussian_radial_bump, hc_bound,
                               heat_radial_density, helgason_radial,
                               plancherel_check, radial_mixture,
                               spherical_complementary,
                               spherical_principal_grid, two_step_cdf)
from hypercut.torus import (TorusConfig, fourier_series, mixing_time,
                            theta_series, torus_l1, torus_l1_bounds)
from hypercut.walks import (WalkConfig, stream, walk_discrete)
from hypercut.cli import main as cli_main

WORKERS = min(4, os.cpu_count() or 1)


def origin(q):
    return QuotientPoint(PointH(0.0, 1.0), CosetModQ.identity(q))


def report(number, ok, detail):
    line = f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    import conftest
    conftest.ACCEPTANCE_LINES.append(line)
    return ok


def test_criterion_01_harish_chandra_bound_suite():
    t0 = time.monotonic()
    s = np.arange(0.0, 40.0 + 1e-9, 0.05)
    violations = 0
    for r in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
        vals = spherical_principal_grid(s, r, tol=1e-8)
        violations += int(np.count_nonzero(
            np.abs(vals) > hc_bound(r) + 1e-6))
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 60.0
    assert report(1, ok,
                  f"{violations} violations over 7x{s.size} points, "
                  f"{elapsed:.1f}s")


def test_criterion_02_lp_sandwich():
    t0 = time.monotonic()
    rs = np.arange(0.5, 12.0 + 1e-9, 0.1)
    eps = 0.5
    worst = math.inf
    violations = 0
    for p in (2.5, 3.0, 4.0, 8.0):
        vals = np.array([spherical_complementary(p, r) for r in rs])
        env = np.array([complementary_lower_envelope(p, r, eps) for r in rs])
        upper = np.array([hc_bound(r, p) for r in rs])
        violations += int(np.count_nonzero(vals > upper * (1 + 1e-6)))
        # one fitted constant per p, calibrated on a coarse subgrid
        fitted = float((vals / env)[::10].min())
        violations += int(np.count_nonzero(vals < fitted * env - 1e-12))
        worst = min(worst, fitted)
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 60.0
    assert report(2, ok, f"{violations} violations, smallest fitted "
                         f"constant {worst:.3f}, {elapsed:.1f}s")


def test_criterion_03_clt_constants_vs_monte_carlo():
    t0 = time.monotonic()
    k, n, r1 = 200, 100_000, 1.0
    consts = clt_constants(r1)
    stats = walk_discrete(WalkConfig(r1, k, n, seed=20_260_810),
                          workers=WORKERS)
    mean_drift = float(-stats.final_lny.mean() / k)
    mean_tol = 3.0 * math.sqrt(consts.sigma2) * r1 / math.sqrt(k * n)
    var_hat = float(np.var(stats.final_lny / (r1 * math.sqrt(k))))
    bounds_ok = all(
        0.0 < clt_constants(r).alpha < 1.0 and clt_constants(r).sigma2 <= 4.0
        for r in (0.5, 1.0, 2.0, 5.0))
    elapsed = time.monotonic() - t0
    ok = (abs(mean_drift - consts.alpha * r1) <= mean_tol
          and abs(var_hat / consts.sigma2 - 1.0) <= 0.05
          and bounds_ok and elapsed < 300.0)
    assert report(3, ok,
                  f"|mean-alpha|={abs(mean_drift - consts.alpha):.2e} "
                  f"(tol {mean_tol:.2e}), var rel err "
                  f"{abs(var_hat / consts.sigma2 - 1):.4f}, {elapsed:.0f}s")


def test_criterion_04_two_step_radial_law():
    n = 100_000
    worst = 0.0
    for i, r1 in enumerate((0.5, 1.0, 2.0)):
        rng = stream(404, tag=i)
        # two genuine plane steps, distances measured end to end
        th1 = rng.uniform(0, math.pi, n)
        th2 = rng.uniform(0, math.pi, n)
        from hypercut.geometry import sphere_step_arrays
        x, y = sphere_step_arrays(np.zeros(n), np.ones(n), r1, th1)
        x, y = sphere_step_arrays(x, y, r1, th2)
        d = np.arccosh(1.0 + (x * x + (y - 1.0) ** 2) / (2.0 * y))
        grid = np.linspace(0.0, 2.0 * r1, 400)
        emp = np.searchsorted(np.sort(d), grid) / n
        gap = float(np.max(np.abs(emp - two_step_cdf(grid, r1))))
        worst = max(worst, gap)
    ok = worst <= 0.01
    assert report(4, ok, f"sup CDF gap {worst:.4f} (<= 0.01)")


def test_criterion_05_brownian_kernel():
    worst_defect = 0.0
    min_r2 = 1.0
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        m = heat_radial_density(t)
        worst_defect = max(worst_defect,
                           abs(m.meta["normalization_defect"]))
        edges = m.grid.edges
        cdf = m.cdf_at_edges()
        lams = np.linspace(0.5, 3.5, 10)
        tails = np.array([
            1.0 - (np.interp(t + lam * math.sqrt(t), edges, cdf)
                   - np.interp(max(t - lam * math.sqrt(t), 0.0), edges, cdf))
            for lam in lams])
        keep = tails > 1e-14
        slope, intercept = np.polyfit(lams[keep] ** 2,
                                      np.log(tails[keep]), 1)
        resid = np.log(tails[keep]) - (slope * lams[keep] ** 2 + intercept)
        ss = np.sum((np.log(tails[keep]) - np.log(tails[keep]).mean()) ** 2)
        r2 = 1.0 - float(np.sum(resid ** 2) / ss)
        min_r2 = min(min_r2, r2)
        assert slope < 0.0
    ok = worst_defect <= 1e-6 and min_r2 >= 0.9
    assert report(5, ok, f"max |defect|={worst_defect:.2e}, "
                         f"min tail R^2={min_r2:.4f}")


def test_criterion_06_plancherel_and_power_law():
    rep = plancherel_check(gaussian_radial_bump())
    ratio_ok = 0.98 <= rep["ratio"] <= 1.02
    r1 = 1.0
    s = np.linspace(0.0, 10.0, 41)
    phi1 = spherical_principal_grid(s, r1)
    worst = 0.0
    for k in (2, 3, 4, 5):
        m = radial_mixture(k, r1)
        gap = float(np.max(np.abs(helgason_radial(m, s) - phi1 ** k)))
        worst = max(worst, gap / float(np.max(np.abs(phi1 ** k))))
    ok = ratio_ok and worst <= 0.01
    assert report(6, ok, f"energy ratio {rep['ratio']:.4f}, worst relative "
                         f"transform gap {worst:.4f}")


def test_criterion_07_flat_torus_exact():
    t0 = time.monotonic()
    x = np.linspace(0.0, 1.0, 101, endpoint=False)
    worst_gap = 0.0
    sandwich_ok = True
    for lam in (1.0, 10.0, 100.0):
        for ratio in (0.5, 1.0, 2.0, 5.0):
            cfg = TorusConfig(lam, ratio * lam)
            worst_gap = max(worst_gap, float(np.max(np.abs(
                fourier_series(cfg, x) - theta_series(cfg, x)))))
            lo, hi = torus_l1_bounds(cfg)
            val = torus_l1(cfg)
            sandwich_ok = sandwich_ok and lo < val < hi
    ratios = [mixing_time(lam, math.exp(-T)) / (lam * T)
              for lam in (1.0, 10.0, 100.0) for T in (1.0, 2.0, 3.0, 5.0)]
    spread = max(ratios) / min(ratios)
    elapsed = time.monotonic() - t0
    ok = sandwich_ok and worst_gap <= 1e-10 and spread <= 3.0 \
        and elapsed < 30.0
    assert report(7, ok, f"series gap {worst_gap:.2e}, sandwich "
                         f"{'strict' if sandwich_ok else 'VIOLATED'}, "
                         f"mixing-time ratio spread {spread:.2f}, "
                         f"{elapsed:.1f}s")


def test_criterion_08_quotient_geometry():
    closed_ok = all(modq_context(q).size == psl2q_order(q)
                    for q in (2, 3, 4, 5, 6, 7))
    get_enumeration(12.7)  # shared table for the triple tests
    worst_sym = 0.0
    worst_tri = -math.inf
    for q in (2, 3, 5):
        rng = stream(808, tag=q)
        (x, y, sheets), _ = sample_uniform_quotient(q, 10.0, rng, 3000)
        a, b, c = (slice(0, 1000), slice(1000, 2000), slice(2000, 3000))
        d_ab = quotient_distance_pairs(q, x[a], y[a], sheets[a],
                                       x[b], y[b], sheets[b], 8.0)
        d_ba = quotient_distance_pairs(q, x[b], y[b], sheets[b],
                                       x[a], y[a], sheets[a], 8.0)
        d_bc = quotient_distance_pairs(q, x[b], y[b], sheets[b],
                                       x[c], y[c], sheets[c], 8.0)
        d_ac = quotient_distance_pairs(q, x[a], y[a], sheets[a],
                                       x[c], y[c], sheets[c], 8.0)
        finite = (np.isfinite(d_ab) & np.isfinite(d_ba))
        worst_sym = max(worst_sym,
                        float(np.max(np.abs(d_ab - d_ba)[finite])))
        tri = np.isfinite(d_ab) & np.isfinite(d_bc) & np.isfinite(d_ac)
        worst_tri = max(worst_tri, float(
            np.max((d_ac - d_ab - d_bc)[tri])))
        # deck transformations: left sheet translation preserves distances
        ctx = modq_context(q)
        h = ctx.elements[min(3, len(ctx.elements) - 1)]
        mul = {i: ctx.index[h.mul(e).key()]
               for i, e in enumerate(ctx.elements)}
        moved1 = np.array([mul[int(i)] for i in sheets[a]])
        moved2 = np.array([mul[int(i)] for i in sheets[b]])
        d_moved = quotient_distance_pairs(q, x[a], y[a], moved1,
                                          x[b], y[b], moved2, 8.0)
        both = np.isfinite(d_ab) & np.isfinite(d_moved)
        assert np.array_equal(d_ab[both], d_moved[both])
    ok = closed_ok and worst_sym <= 1e-9 and worst_tri <= 1e-9
    assert report(8, ok, f"orders ok={closed_ok}, max symmetry gap "
                         f"{worst_sym:.1e}, max triangle violation "
                         f"{worst_tri:.1e}")


def test_criterion_09_lower_tail_no_spectral_hypothesis():
    hist = distance_histogram(origin(5), 10_000, 8.0, seed=909,
                              cusp_cap=40.0)
    vol_ok = True
    worst_rel = 0.0
    for row in hist["volume_comparison"]:
        if row["ball_fraction"] >= 1e-2 and row["r"] <= 1.6:
            rel = abs(row["fraction"] / row["ball_fraction"] - 1.0)
            worst_rel = max(worst_rel, rel)
            vol_ok = vol_ok and rel <= 0.10
    products = [v["scaled"] for v in hist["lower_tail"].values()]
    spread = max(products) / min(products)
    stable = spread <= 2.0
    ok = vol_ok and stable
    assert report(9, ok, f"worst volume rel err {worst_rel:.3f} (<=0.10), "
                         f"scaled lower-tail spread {spread:.2f} (<=2)")


def test_criterion_10_cutoff_trend():
    t0 = time.monotonic()
    r1 = 1.0
    alpha = clt_constants(r1).alpha
    widths = []
    ok = True
    detail = []
    for q in (2, 3, 5):
        R = quotient_R(q)
        k_lo = int(0.5 * R / (alpha * r1))
        k_hi = int(math.ceil(3.0 * R / (alpha * r1)))
        k_max = int(math.ceil(3.6 * R / (alpha * r1)))
        prof = tv_profile(origin(q), r1, k_max, 1_000_000,
                          default_partition(q), seed=1010, workers=WORKERS)
        early = prof.tv[prof.ks <= k_lo]
        late = prof.tv[prof.ks >= k_hi]
        ok = ok and bool(np.all(early >= 1.5)) and bool(np.all(late <= 0.5))
        loc = cutoff_locator(prof.ks, prof.tv, alpha * r1, R)
        widths.append(loc["width_normalized"])
        detail.append(f"q={q}: tv(k<= {k_lo})>= {early.min():.2f}, "
                      f"tv(k>= {k_hi})<= {late.max():.2f}, "
                      f"width {loc['width_normalized']:.3f}")
    trend_ok = widths[0] >= widths[1] >= widths[2]
    elapsed = time.monotonic() - t0
    ok = ok and trend_ok and elapsed < 1800.0
    assert report(10, ok, "; ".join(detail)
                  + f"; width trend non-increasing={trend_ok}, "
                    f"{elapsed:.0f}s")


def test_criterion_11_concentration():
    hist = distance_histogram(origin(5), 10_000, 8.0, seed=1111,
                              cusp_cap=40.0)
    rep = concentration_fit(hist["distances"], hist["n_exceed"],
                            exceed_floor=8.0)
    fit_ok = rep.a > 1.0 and rep.r2 >= 0.7
    rng = np.random.default_rng(42)
    n = 50_000
    sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    synthetic = 3.0 + sign * (-np.log(rng.random(n)))
    synth = concentration_fit(synthetic)
    synth_ok = abs(synth.slope + 1.0) <= 0.05
    ok = fit_ok and synth_ok
    assert report(11, ok, f"a={rep.a:.3f} (>1), R^2={rep.r2:.3f} (>=0.7); "
                          f"synthetic slope {synth.slope:.3f} (-1 +- 0.05)")


def test_criterion_12_density_checker():
    ns = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
    synthetic = normal_cover_requirement(
        [synthetic_density_budget(n) for n in ns], GrowthFunction(1.2))
    uniform = normal_cover_requirement(
        [uniform_budget(n) for n in ns], GrowthFunction(1.2))
    seq = [r.req_sum for r in synthetic["rows"]]
    ok = synthetic["vanishing"] and not uniform["vanishing"]
    assert report(12, ok,
                  f"synthetic vanishing={synthetic['vanishing']} "
                  f"(req0 sequence {[f'{v:.0f}' for v in seq]}), "
                  f"uniform vanishing={uniform['vanishing']}")


def test_criterion_13_determinism(tmp_path):
    args = ["tv", "--q", "2", "--r1", "1.0", "--n", "30000", "--k-max", "6",
            "--seed", "77"]
    bodies = []
    for name, workers in (("w1", "1"), ("w3", "3")):
        out = tmp_path / name
        out.mkdir()
        assert cli_main(args + ["--workers", workers, "--out", str(out)]) == 0
        with open(out / "tv.csv") as fh:
            bodies.append([ln for ln in fh if not ln.startswith("#")])
    ok = bodies[0] == bodies[1]
    assert report(13, ok, f"CSV bodies identical across worker counts: {ok}")
