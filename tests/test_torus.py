import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from hypercut import torus
from hypercut.errors import NumericRangeError
from hypercut.quadrature import gauss_kronrod
from hypercut.torus import (TorusConfig, fourier_series, mixing_time,
                            no_cutoff_profile, theta_series, torus_density,
                            torus_l1, torus_l1_bounds)


# Rates whose first stopping index is 9,999, 10,000 and 10,001; the scan
# raises at every rate up to the last of them.
CAP_RATES = (4.6824511758629804e-07, 4.6815342712249543e-07,
             4.6806176377159965e-07)


# Reference copy of the truncation search as a scan from m = 1; the search
# from the closed-form root must return the same integer and raise where
# the scan runs past 10,000 terms.
def reference_cutoff(a):
    m = 1
    while math.exp(-a * m * m) / -math.expm1(-a) > 1e-14:
        m += 1
        if m > 10_000:
            raise NumericRangeError("truncation ran away")
    return m + 1


# The (lambda, t) grid of the solver comparisons: short times, whose peaked
# density makes QUADPACK subdivide, up to times where p - 1 is flat.  At
# lambda = 1, t = 0.00572645... scipy's QAGS extrapolates and its sum
# differs from plain bisection's in the last bit.
LAMS = (0.25, 0.5, 1.0, 2.0, 4.0, 10.0)
TIMES = (5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
GRID = ([(lam, t) for lam in LAMS for t in TIMES]
        + [(1.0, 0.0057264564467306815)])


def sign_changes(grid):
    """(p - 1, its root x*) at each (lambda, t) where p - 1 is not flat."""
    for lam, t in grid:
        cfg = TorusConfig(lam, t)
        dev = lambda x, cfg=cfg: torus_density(cfg, x) - 1.0
        if dev(0.0) > 0.0:
            yield dev, brentq(dev, 1e-12, 0.5, xtol=1e-14)


def outcome(cutoff, *args):
    try:
        return cutoff(*args)
    except NumericRangeError:
        return "raises"


class TestDensity:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TorusConfig(0.0, 1.0)
        with pytest.raises(ValueError):
            TorusConfig(1.0, -1.0)

    def test_theta_fourier_agreement(self):
        # the two expansions are Poisson-summation twins
        for lam, t in ((1.0, 0.1), (1.0, 5.0), (10.0, 1.0), (100.0, 50.0)):
            cfg = TorusConfig(lam, t)
            x = np.linspace(0.0, 1.0, 64, endpoint=False)
            gap = np.max(np.abs(fourier_series(cfg, x) - theta_series(cfg, x)))
            assert gap <= 1e-10

    def test_long_time_flattens(self):
        cfg = TorusConfig(1.0, 50.0)
        x = np.linspace(0, 1, 32, endpoint=False)
        assert np.max(np.abs(torus_density(cfg, x) - 1.0)) <= 1e-12

    def test_symmetry(self):
        cfg = TorusConfig(1.0, 0.3)
        for x in (0.1, 0.25, 0.4):
            assert torus_density(cfg, x) == pytest.approx(
                torus_density(cfg, 1.0 - x), abs=1e-12)

    def test_positive_and_normalized(self):
        cfg = TorusConfig(1.0, 0.05)
        x = np.linspace(0, 1, 2048, endpoint=False)
        vals = torus_density(cfg, x)
        assert np.all(vals > 0)
        integral, _ = quad(lambda u: torus_density(cfg, u), 0, 1, limit=200)
        assert integral == pytest.approx(1.0, abs=1e-10)


class TestL1Distance:
    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0, 5.0])
    def test_sandwich(self, rate):
        cfg = TorusConfig(1.0, rate)
        lo, hi = torus_l1_bounds(cfg)
        val = torus_l1(cfg)
        assert lo < val < hi

    @pytest.mark.parametrize("rate", [4.7e-7, 8e-7, 1.1e-6])
    def test_small_rates_match_closed_form(self, rate):
        # rates at which the density's tail past x* is so narrow that one
        # first rule over [x*, 1/2] put no node in it
        cfg = TorusConfig(1.0, rate)
        lo, hi = torus_l1_bounds(cfg)
        val = torus_l1(cfg)
        assert lo <= val <= hi
        assert abs(val - torus_l1(cfg, via_quadrature=False)) <= 1e-9

    def test_edge_of_double_resolution(self):
        # p - 1 is about 2e^{-rate}, some 1000 units of the last place of
        # 1.0 at rate 30, where the value lies inside the sandwich; at the
        # rate of geomspace(4.7e-7, 50, 400) nearest 37.9, p - 1 rounds to 0
        # at the left end of the root bracket, and the closed form found
        # there leaves the sandwich
        cfg = TorusConfig(1.0, 30.0)
        lo, hi = torus_l1_bounds(cfg)
        assert lo <= torus_l1(cfg) <= hi
        with pytest.raises(NumericRangeError, match="sandwich"):
            torus_l1(TorusConfig(1.0, 37.86737147247634))

    @pytest.mark.parametrize("rate", [37.9, 40.0, 45.6])
    @pytest.mark.parametrize("via_quadrature", [True, False])
    def test_rates_below_double_resolution_refused(self, rate,
                                                   via_quadrature):
        # here p - 1 sinks below double resolution: the sign change is
        # lost or the value leaves the sandwich, never l1 = 0
        with pytest.raises(NumericRangeError):
            torus_l1(TorusConfig(1.0, rate), via_quadrature)

    def test_short_time_saturates(self):
        assert torus_l1(TorusConfig(1.0, 0.0005)) > 1.9
        assert torus_l1(TorusConfig(1.0, 0.005)) > \
            torus_l1(TorusConfig(1.0, 0.05))

    def test_l1_below_l2(self):
        # Cauchy-Schwarz on the unit-mass circle, with the L2 norm from
        # Parseval
        for rate in (0.5, 1.0, 3.0):
            cfg = TorusConfig(1.0, rate)
            m = np.arange(1, cfg.fourier_cutoff() + 1)
            l2 = math.sqrt(2.0 * np.sum(np.exp(-2.0 * rate * m * m)))
            assert torus_l1(cfg) <= l2 + 1e-12

    def test_monotonicity(self):
        ts = (0.5, 1.0, 2.0, 4.0)
        vals = [torus_l1(TorusConfig(1.0, t)) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        lams = (0.5, 1.0, 2.0, 4.0)
        vals = [torus_l1(TorusConfig(lam, 1.0)) for lam in lams]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_scale_invariance_in_rate(self):
        assert torus_l1(TorusConfig(2.0, 4.0)) == pytest.approx(
            torus_l1(TorusConfig(1.0, 2.0)), rel=1e-12)


class TestMixingTime:
    def test_inside_sandwich_bracket(self):
        # l1 = e^{-T} forces t/lam in [T, T + ln sqrt(2/(1-e^{-2T}))]
        for T in (1.0, 2.0, 4.0):
            t = mixing_time(1.0, math.exp(-T))
            slack = math.log(math.sqrt(2.0 / -math.expm1(-2.0 * t)))
            assert T <= t <= T + slack + 1e-9

    @pytest.mark.parametrize("T", [-0.69, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0,
                                   12.0, 16.0, 20.0, 25.0, 30.0])
    def test_upper_bracket_end_is_past_the_root(self, T):
        # mixing_time searches [.., ln(1/eps) + 2] without widening it:
        # there the sandwich puts l1 below 0.2 eps
        eps = math.exp(-T)
        cfg = TorusConfig(1.0, math.log(1.0 / eps) + 2.0)
        assert torus_l1(cfg, via_quadrature=False) <= 0.2 * eps

    def test_doubling_lambda_doubles_time(self):
        t1 = mixing_time(1.0, math.exp(-1.5))
        t2 = mixing_time(2.0, math.exp(-1.5))
        assert t2 == pytest.approx(2.0 * t1, rel=1e-9)

    def test_profile_ratio_bounded_and_tightening(self):
        prof = no_cutoff_profile([1.0, 10.0], [1.0, 2.0, 5.0])
        assert prof["ratio_spread"] <= 3.0
        rows = {(r["lam"], r["T"]): r["ratio"] for r in prof["rows"]}
        # the ratio drifts toward 1 as the target tightens
        assert rows[(1.0, 5.0)] < rows[(1.0, 1.0)]
        assert abs(rows[(1.0, 2.0)] - rows[(10.0, 2.0)]) <= 1e-9


class TestTruncation:
    def test_matches_scan_over_rate_sweep(self):
        for rate in np.logspace(-8.0, 3.0, 6000):
            cfg = TorusConfig(1.0, rate)
            # below the cap the scan would run all 10,000 terms to raise
            want = ("raises" if rate <= CAP_RATES[-1]
                    else reference_cutoff(cfg.rate))
            assert outcome(cfg.fourier_cutoff) == want, rate
            assert outcome(cfg.theta_cutoff) == \
                outcome(reference_cutoff, math.pi ** 2 / cfg.rate), rate

    def test_cap_boundary(self):
        # rates whose first stopping index is 9,999, 10,000 and 10,001
        expected = (10_000, 10_001, "raises")
        for rate, want in zip(CAP_RATES, expected):
            assert outcome(reference_cutoff, rate) == want
            assert outcome(TorusConfig(1.0, rate).fourier_cutoff) == want
            theta = TorusConfig(1.0, math.pi ** 2 / rate)
            assert outcome(theta.theta_cutoff) == want


class TestSolvers:
    """torus._brent and quadrature.gauss_kronrod against
    scipy.optimize.brentq and scipy.integrate.quad, which they replace."""

    def test_brent_matches_brentq_on_the_sign_change(self):
        roots = 0
        for dev, x_star in sign_changes(GRID):
            assert torus._brent(dev, 1e-12, 0.5, 1e-14) == x_star
            roots += 1
        assert roots >= 60

    def test_mixing_time_matches_brentq(self, monkeypatch):
        grid = [(lam, T) for lam in (0.5, 1.0, 3.0, 10.0)
                for T in (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0)]
        ours = [mixing_time(lam, math.exp(-T)) for lam, T in grid]
        monkeypatch.setattr(torus, "_brent", lambda f, a, b, xtol:
                            brentq(f, a, b, xtol=xtol))
        assert ours == [mixing_time(lam, math.exp(-T)) for lam, T in grid]
        assert all(type(t) is float for t in ours)

    def test_gauss_kronrod_matches_quad(self):
        single = subdivided = 0
        for dev, x_star in sign_changes(GRID):
            for a, b in ((0.0, x_star), (x_star, 0.5)):
                want, want_err, info = quad(dev, a, b, epsabs=1e-12,
                                            limit=200, full_output=1)
                got, err = gauss_kronrod(dev, a, b, epsabs=1e-12)
                if info["neval"] == 21:
                    assert (got, err) == (want, want_err), (a, b)
                    single += 1
                else:
                    assert abs(got - want) <= 1e-15, (a, b)
                    subdivided += 1
        assert single >= 60 and subdivided >= 30

    def test_brent_refuses_nan_and_no_sign_change(self):
        # NaN at an end point, and at the first step inside the bracket
        with pytest.raises(NumericRangeError, match="NaN"):
            torus._brent(lambda x: math.nan, 0.0, 1.0, 1e-12)
        with pytest.raises(NumericRangeError, match="NaN"):
            torus._brent(lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,
                         0.0, 1.0, 1e-12)
        with pytest.raises(NumericRangeError, match="sign change"):
            torus._brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_brent_refuses_to_run_past_its_steps(self, monkeypatch):
        monkeypatch.setattr(torus, "_BRENT_ITER", 2)
        with pytest.raises(NumericRangeError, match="unsettled"):
            torus._brent(lambda x: x ** 3 - 0.3, 0.0, 1.0, 1e-14)
