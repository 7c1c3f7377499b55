import math

import numpy as np
import pytest
from scipy import stats as sstats

from hypercut import walks
from hypercut.errors import ConfigError
from hypercut.geometry import PointH, distance
from hypercut.spectral import clt_constants, heat_radial_density
from hypercut.walks import (AD_CRIT_1PCT, BLOCK, WalkConfig,
                            ad_statistic_normal, clt_check, stream,
                            tail_checks, walk_discrete)
from oracles import sphere_point, walk_stats_equal


class TestStepDiscrete:
    def test_step_length(self):
        rng = stream(1, 0)
        for _ in range(50):
            z = sphere_point(PointH(0.3, 2.0), 1.3, rng.uniform(0.0, math.pi))
            assert distance(PointH(0.3, 2.0), z) == pytest.approx(
                1.3, abs=1e-9)

    def test_one_step_height_law(self):
        # mean of -ln Im / r1 after one step from i equals the drift
        rng = stream(7, 0)
        r1, n = 1.0, 200_000
        theta = rng.uniform(0, math.pi, n)
        lny = -np.log(np.exp(r1) * np.cos(theta) ** 2
                      + np.exp(-r1) * np.sin(theta) ** 2)
        consts = clt_constants(r1)
        tol = 3.0 * math.sqrt(consts.sigma2) / math.sqrt(n)
        assert np.mean(-lny) / r1 == pytest.approx(consts.alpha, abs=tol)


class TestWalkDiscrete:
    def test_zero_steps(self):
        stats = walk_discrete(WalkConfig(1.0, 0, 100, 3))
        assert np.all(stats.final_dist == 0.0)
        assert stats.final_lny == pytest.approx(0.0)
        for per_step in (stats.mean_lny, stats.var_lny, stats.mean_dist,
                         stats.var_dist):
            assert per_step.shape == (0,)
        assert stats.dist_quantiles == {}

    def test_seed_determinism_bitwise(self):
        cfg = WalkConfig(0.7, 25, 40_000, 123)
        a = walk_discrete(cfg, workers=1)
        b = walk_discrete(cfg, workers=4)
        assert walk_stats_equal(a, b)

    def test_different_seed_differs(self):
        a = walk_discrete(WalkConfig(0.7, 10, 1000, 1))
        b = walk_discrete(WalkConfig(0.7, 10, 1000, 2))
        assert not walk_stats_equal(a, b)

    def test_support_in_ball(self):
        # step k stays in the ball of radius k r1: every walker at the last
        # step, and every kept path at every step
        cfg = WalkConfig(0.9, 30, 20_000, 5)
        stats = walk_discrete(cfg, paths=BLOCK)
        assert float(stats.final_dist.max()) <= 0.9 * 30 + 1e-9
        x, y = stats.paths[..., 0], np.exp(stats.paths[..., 1])
        dist = np.arccosh(1.0 + (x * x + (y - 1.0) ** 2) / (2.0 * y))
        assert np.all(dist <= 0.9 * np.arange(31) + 1e-9)

    def test_distance_drift_with_bounded_correction(self):
        # mean d(z_k, z0)/k approaches alpha r1 from above; the gap is the
        # bounded horizontal-offset correction, an O(1/k) effect
        consts = clt_constants(1.0)
        gaps = []
        for k in (50, 100, 200):
            stats = walk_discrete(WalkConfig(1.0, k, 30_000, 88))
            gap = float(stats.mean_dist[-1]) / k - consts.alpha
            assert gap > 0.0
            assert k * gap <= 2.5
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_long_walk_stays_finite(self):
        # drift pushes log-height to ~ -alpha r1 k; state in (x, log y)
        # keeps distances finite far beyond double underflow of y
        cfg = WalkConfig(5.0, 400, 200, 9)
        stats = walk_discrete(cfg)
        assert np.all(np.isfinite(stats.final_dist))
        assert stats.mean_dist[-1] > 500.0


class TestCltCheck:
    def test_small_run_skipped(self):
        rep = clt_check(walk_discrete(WalkConfig(1.0, 1, 50_000, 0)))
        assert rep["skipped"]
        rep = clt_check(walk_discrete(WalkConfig(1.0, 100, 100, 0)))
        assert rep["skipped"]

    @pytest.mark.parametrize("r1", [0.5, 1.0])
    def test_moderate_run_passes(self, r1):
        cfg = WalkConfig(r1, 80, 30_000, 2026)
        rep = clt_check(walk_discrete(cfg, workers=2))
        assert not rep["skipped"]
        assert rep["ad_pass_1pct"]
        assert rep["mean_ok"]
        assert rep["var_ok"]

    def test_ad_statistic_calibration(self):
        rng = np.random.default_rng(55)
        x = rng.standard_normal(50_000)
        assert ad_statistic_normal(x) < AD_CRIT_1PCT
        assert ad_statistic_normal(x + 0.05) > AD_CRIT_1PCT

    def test_ad_statistic_matches_scipy_stats_formula(self):
        # the statistic as written with scipy.stats' norm.logcdf and
        # norm.logsf, over normal samples and a wide sweep into both tails
        rng = np.random.default_rng(56)
        for x in (rng.standard_normal(50_000), rng.standard_normal(999) + 0.3,
                  np.linspace(-38.0, 38.0, 100_001)):
            xs = np.sort(x)
            n = xs.size
            i = np.arange(1, n + 1)
            expected = float(-n - np.mean(
                (2 * i - 1) * (sstats.norm.logcdf(xs)
                               + sstats.norm.logsf(xs)[::-1])))
            assert ad_statistic_normal(x) == expected


class TestTailChecks:
    def test_refuses_tiny_steps(self):
        with pytest.raises(ConfigError):
            tail_checks(walk_discrete(WalkConfig(0.01, 100, 20_000, 0)))

    def test_three_families_subgaussian(self):
        cfg = WalkConfig(1.0, 100, 50_000, 314)
        rep = tail_checks(walk_discrete(cfg, workers=2))
        for family in ("log_height", "x_squared", "distance"):
            fit = rep[family]
            assert fit["fit_ok"]
            assert fit["slope"] < 0.0
            assert fit["r2"] >= 0.9
            assert fit["c"] > 0.0

    def test_lambda_zero_tail_is_full(self):
        cfg = WalkConfig(1.0, 60, 20_000, 3)
        stats = walk_discrete(cfg)
        consts = clt_constants(1.0)
        dev = np.abs(stats.final_lny + consts.alpha * 60)
        assert (dev >= 0.0).mean() == 1.0

    def test_censoring_reported(self, monkeypatch):
        cfg = WalkConfig(1.0, 60, 20_000, 4)
        monkeypatch.setattr(walks, "LAMBDA_GRID", np.linspace(0.5, 8.0, 10))
        rep = tail_checks(walk_discrete(cfg))
        assert rep["log_height"]["censored"] > 0


class TestBrownianJump:
    def test_mean_distance_near_time(self):
        t = 10.0
        m = heat_radial_density(t)
        mean = float(m.grid.centers @ m.masses)
        assert abs(mean - t) <= 2.0 * math.sqrt(t)

    def test_against_sde_oracle(self):
        # independent route: Euler scheme for the half-plane diffusion
        # dx = sqrt(2) y dW1, dy = sqrt(2) y dW2 (exact log-normal y step),
        # whose generator matches the radial heat law
        t, n, dt = 1.0, 20_000, 1e-3
        rng = stream(99, 0)
        steps = int(round(t / dt))
        x = np.zeros(n)
        y = np.ones(n)
        for _ in range(steps):
            dw1 = rng.standard_normal(n) * math.sqrt(dt)
            dw2 = rng.standard_normal(n) * math.sqrt(dt)
            x = x + math.sqrt(2.0) * y * dw1
            y = y * np.exp(math.sqrt(2.0) * dw2 - dt)
        sde_d = np.arccosh(1.0 + (x ** 2 + (y - 1.0) ** 2) / (2.0 * y))
        measure = heat_radial_density(t)
        emp = np.searchsorted(np.sort(sde_d), measure.grid.edges) / n
        assert np.max(np.abs(emp - measure.cdf_at_edges())) <= 0.02
