import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

import hypercut
from hypercut import spectral
from hypercut.errors import NumericRangeError, QuadratureError, ResolutionError
from hypercut.quadrature import (PRODUCT_COLS, TILE_BYTES, doubling,
                                 panel_nodes)
from hypercut.radial import RadialGrid, RadialMeasure
from hypercut.spectral import (CltConstants, clt_constants,
                               complementary_lower_envelope,
                               gaussian_radial_bump, hc_bound, heat_envelope,
                               heat_radial_density, helgason_radial,
                               phi_on_radii, plancherel_check, radial_mixture,
                               spherical_complementary,
                               spherical_principal_grid, two_step_cdf)
from oracles import convolve, sup_cdf_gap


def legendre_oracle(s: complex, r: float) -> float:
    """Independent conical-function evaluation P_{-1/2+is}(cosh r)."""
    return float(mpmath.re(mpmath.legenp(-0.5 + 1j * s, 0, mpmath.cosh(r))))


def reference_sweep(s, r, tol, wave):
    """The spherical-function sweep as it stood before it ran on
    quadrature.doubling, integrand included.  Kept frozen as the bit-level
    reference for spherical_principal_grid and spherical_complementary,
    computed by the reference_sweeps fixture."""
    if r == 0.0:
        return np.ones_like(s)
    out = np.empty_like(s)
    for lo in range(0, s.size, 512):
        sc = s[lo:lo + 512]
        smax = float(np.max(np.abs(sc)))
        n_panels = max(16, int(smax * r / 3.0) + 8)
        prev = None
        for _ in range(7):
            u, w = panel_nodes(0.0, 1.0, n_panels)
            x = 1.0 - u * u
            den = np.sqrt(2.0 * np.sinh(r * (1.0 + x) / 2.0)
                          * np.sinh(r * (1.0 - x) / 2.0))
            base = 2.0 * u / den
            vals = wave(np.outer(sc, r * x)) @ (base * w)
            vals *= math.sqrt(2.0) / math.pi * r
            if prev is not None:
                err = float(np.max(np.abs(vals - prev)))
                if err <= tol:
                    break
            prev = vals
            n_panels *= 2
        else:
            raise QuadratureError(
                "spherical function sweep did not converge", achieved=err)
        out[lo:lo + 512] = vals
    return out


def reference_trapezoid_doubling(f, a, b, *, tol=1e-12, n0=64,
                                 max_doublings=16):
    """The trapezoid doubling rule that clt_constants ran before
    quadrature.doubling, kept frozen as the bit-level reference for sigma2."""
    n = n0
    x = np.linspace(a, b, n + 1)
    prev = float(np.trapezoid(f(x), x))
    for _ in range(max_doublings):
        n *= 2
        x = np.linspace(a, b, n + 1)
        cur = float(np.trapezoid(f(x), x))
        err = abs(cur - prev)
        if err <= tol:
            return cur, err
        prev = cur
    raise QuadratureError(
        f"trapezoid integral on [{a}, {b}] stalled above {tol:g}",
        achieved=err)


def one_blas_thread_child(code, path):
    """Run ``code`` with ``path`` as its sys.argv[1] in a child process with
    one BLAS thread and this directory importable; return the arrays it
    saved there with np.savez."""
    src = os.path.dirname(os.path.dirname(hypercut.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                   check=True)
    with np.load(path) as data:
        return dict(data)


# 801 and 1,200 parameters make two and three sweep chunks
PRINCIPAL_SIZES = (801, 1200)
PRINCIPAL_RADII = (0.5, 2.0, 8.0)
COMPLEMENTARY_P = (2.5, 4.0, 8.0)
COMPLEMENTARY_RADII = (0.5, 3.0, 10.0)

SWEEP_CHILD = """
import sys
import numpy as np
import test_spectral as ts
out = {f"principal{r!r}_{n}": ts.reference_sweep(np.linspace(0.0, 40.0, n),
                                                r, 1e-8, np.cos)
       for r in ts.PRINCIPAL_RADII for n in ts.PRINCIPAL_SIZES}
out.update({f"complementary{p!r}_{r!r}": ts.reference_sweep(
    np.array([0.5 - 1.0 / p]), r, 1e-10, np.cosh)
    for p in ts.COMPLEMENTARY_P for r in ts.COMPLEMENTARY_RADII})
np.savez(sys.argv[1], **out)
"""


@pytest.fixture(scope="module")
def reference_sweeps(tmp_path_factory):
    """The reference sweeps, computed in a child process with one BLAS
    thread.  The reference's whole-chunk products are split across BLAS
    threads, which changes how they round; the sweep's 4-row products are
    not, so it must match the one-thread reference at any BLAS thread
    count."""
    return one_blas_thread_child(
        SWEEP_CHILD, tmp_path_factory.mktemp("sweep") / "reference.npz")


class TestFrozenReferences:
    @pytest.mark.parametrize("n", PRINCIPAL_SIZES)
    @pytest.mark.parametrize("r", PRINCIPAL_RADII)
    def test_principal_grid_bits(self, reference_sweeps, r, n):
        s = np.linspace(0.0, 40.0, n)
        assert np.array_equal(spherical_principal_grid(s, r),
                              reference_sweeps[f"principal{r!r}_{n}"])

    @pytest.mark.parametrize("p", COMPLEMENTARY_P)
    def test_complementary_bits(self, reference_sweeps, p):
        for r in COMPLEMENTARY_RADII:
            want = reference_sweeps[f"complementary{p!r}_{r!r}"]
            assert spherical_complementary(p, r) == float(want[0]), r

    @pytest.mark.parametrize("r1", [0.3, 1.0, 5.0, 12.0])
    def test_clt_variance_bits(self, r1):
        alpha = 2.0 * math.log(math.cosh(r1 / 2.0)) / r1

        def logheight(theta):
            return np.log(np.exp(r1) * np.cos(theta) ** 2
                          + np.exp(-r1) * np.sin(theta) ** 2)

        iv, _ = reference_trapezoid_doubling(
            lambda t: (logheight(t) / r1 - alpha) ** 2, 0.0, math.pi,
            tol=1e-11, n0=128, max_doublings=14)
        assert clt_constants(r1).sigma2 == iv / math.pi


class TestDoubling:
    def test_returns_result_and_achieved_difference(self):
        assert doubling(lambda n: 1.0 / n, 1, 0.1, 10) == (0.0625, 0.0625)

    def test_unsettled_results_raise_with_achieved(self):
        with pytest.raises(QuadratureError) as exc:
            doubling(lambda n: float(n), 4, 1e-3, 5)
        assert exc.value.achieved == 32.0


class TestSphericalPrincipal:
    def test_unit_at_zero_radius(self):
        for s in (0.0, 3.5, 40.0):
            assert spherical_principal_grid([s], 0.0)[0] == 1.0

    @pytest.mark.parametrize("r", [0.25, 1.0, 2.0, 6.0])
    def test_matches_legendre_at_s_zero(self, r):
        assert spherical_principal_grid([0.0], r)[0] == pytest.approx(
            legendre_oracle(0.0, r), abs=1e-10)

    @pytest.mark.parametrize("s,r", [(2.0, 1.0), (5.0, 0.5), (10.0, 2.0),
                                     (1.0, 4.0), (25.0, 8.0)])
    def test_matches_legendre_generic(self, s, r):
        assert spherical_principal_grid([s], r)[0] == pytest.approx(
            legendre_oracle(s, r), abs=1e-10)

    def test_grid_bound_sweep(self):
        s = np.arange(0.0, 40.0001, 0.1)
        for r in (0.5, 2.0, 8.0):
            vals = spherical_principal_grid(s, r)
            assert np.all(np.abs(vals) <= hc_bound(r) * (1 + 1e-6))
            assert np.all(np.abs(vals) <= 1.0 + 1e-9)


class TestSphericalComplementary:
    def test_p2_equals_principal_at_zero(self):
        for r in (0.5, 1.0, 3.0):
            assert spherical_complementary(2.0, r) == pytest.approx(
                spherical_principal_grid([0.0], r)[0], abs=1e-10)

    def test_trivial_parameter_limit(self):
        # p = inf is the constant eigenfunction: value 1 at every radius
        for r in (1e-6, 0.1, 1.0, 5.0):
            assert spherical_complementary(math.inf, r) == pytest.approx(
                1.0, abs=1e-9)

    def test_regression_value_p4_r3(self):
        # frozen from the real-order Legendre oracle P_{-1/4}(cosh 3)
        assert spherical_complementary(4.0, 3.0) == pytest.approx(
            0.7083716330865784, abs=1e-11)
        assert spherical_complementary(4.0, 3.0) <= hc_bound(3.0, 4.0)

    @pytest.mark.parametrize("p,r", [(2.5, 1.0), (4.0, 3.0), (8.0, 5.0),
                                     (3.0, 0.5), (6.0, 10.0)])
    def test_matches_real_order_legendre(self, p, r):
        assert spherical_complementary(p, r) == pytest.approx(
            legendre_oracle(complex(0, -(0.5 - 1 / p)), r), abs=1e-10)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 8.0])
    def test_sandwich_and_decay_rate(self, p):
        rs = np.linspace(0.5, 12.0, 120)
        vals = np.array([spherical_complementary(p, r) for r in rs])
        assert np.all(vals > 0)
        assert np.all(vals <= np.array([hc_bound(r, p) for r in rs])
                      * (1 + 1e-6))
        # fitted constant on a coarse grid, then zero violations on the
        # fine grid with a 10% safety factor
        eps = 0.5
        env = np.array([complementary_lower_envelope(p, r, eps) for r in rs])
        ratio = vals / env
        coarse = ratio[::8]
        assert np.all(ratio >= 0.9 * coarse.min())
        # fitted log-slope: sharp against the oracle, loose against the
        # sandwich rates (prefactor slack <= mean of 1/(r+1) ~ 0.08 here)
        sel = rs >= 2.0
        slope = -np.polyfit(rs[sel], np.log(vals[sel]), 1)[0]
        oracle = np.array([legendre_oracle(complex(0, -(0.5 - 1 / p)), r)
                           for r in rs[sel]])
        oracle_slope = -np.polyfit(rs[sel], np.log(oracle), 1)[0]
        assert slope == pytest.approx(oracle_slope, abs=5e-3)
        sp = 0.5 - 1.0 / p
        assert 1.0 / p - 0.08 <= slope <= 0.5 - sp * (1 - eps) + 0.02


class TestHcBound:
    def test_values(self):
        assert hc_bound(0.0, 3.0) == 1.0
        assert hc_bound(2.0, 2.0) == pytest.approx(3.0 * math.exp(-1.0))
        assert hc_bound(5.0, 4.0) == pytest.approx(6.0 * math.exp(-1.25))
        # r / inf is 0.0 for finite r >= 0, so p = inf needs no branch
        for r in (0.0, 0.3, 1.0, 2.5, 7.0):
            assert hc_bound(r, math.inf) == r + 1.0


class TestTechnicalDecay:
    @pytest.mark.parametrize("r", [1.0, 4.0])
    def test_weighted_sup_on_bounded_prefix(self, r):
        # |phi(s, r)| sqrt(s) over s in [1, 1000] peaks on a bounded prefix
        s = np.concatenate([np.linspace(1.0, 50.0, 250),
                            np.linspace(50.0, 1000.0, 500)])
        weighted = np.abs(spherical_principal_grid(s, r, tol=1e-7)) \
            * np.sqrt(s)
        assert math.isfinite(weighted.max())
        assert weighted[s >= 500.0].max() <= 2.0 * weighted[s <= 50.0].max()

    def test_vanishes_at_small_s(self):
        # |phi| <= 1 makes the weight sqrt(s) the whole story near zero
        for s in (1e-4, 1e-2):
            phi = spherical_principal_grid([s], 1.0)[0]
            assert abs(phi) * math.sqrt(s) <= math.sqrt(s) + 1e-12


class TestCltConstants:
    @pytest.mark.parametrize("r1", [0.3, 0.5, 1.0, 2.0, 5.0])
    def test_alpha_closed_form(self, r1):
        # independent closed form: alpha r1 = 2 ln cosh(r1 / 2)
        assert clt_constants(r1).alpha == pytest.approx(
            2.0 * math.log(math.cosh(r1 / 2.0)) / r1, abs=1e-10)

    def test_small_step_limit(self):
        assert clt_constants(0.01).alpha < 0.02
        assert clt_constants(0.01).sigma2 == pytest.approx(0.5, abs=0.01)

    def test_large_step_limit(self):
        assert clt_constants(20.0).alpha > 0.9

    @pytest.mark.parametrize("r1", [0.5, 1.0, 2.0, 5.0])
    def test_bounds(self, r1):
        c = clt_constants(r1)
        assert 0.0 < c.alpha < 1.0
        assert c.sigma2 <= 4.0

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            CltConstants(1.0, 1.5, 0.3)
        with pytest.raises(ValueError):
            CltConstants(1.0, 0.5, 5.0)


class TestRadialMixture:
    def test_atomic_orders_rejected(self):
        for k in (0, 1):
            with pytest.raises(ValueError):
                radial_mixture(k, 1.0)

    @pytest.mark.parametrize("r1", [0.5, 1.0, 2.0])
    def test_two_step_closed_form(self, r1):
        m = radial_mixture(2, r1)
        cdf = m.cdf_at_edges()
        expected = two_step_cdf(m.grid.edges, r1)
        # arccos near its endpoints amplifies one-ulp argument noise to
        # sqrt(eps) ~ 1.5e-8; the construction is exact beyond that
        assert np.max(np.abs(cdf - expected)) <= 1e-7
        assert two_step_cdf(2.0 * r1, r1) == pytest.approx(1.0)

    def test_mass_and_support(self):
        for k in (2, 3, 4):
            m = radial_mixture(k, 1.0)
            assert abs(m.total_mass() - 1.0) <= 1e-4
            assert m.grid.r_max == pytest.approx(k * 1.0, abs=1e-9)
            assert np.all(m.masses >= 0)

    def test_three_step_against_monte_carlo(self):
        r1 = 1.0
        m = radial_mixture(3, r1)
        rng = np.random.default_rng(314)
        n = 100_000
        # radial walk by the law of cosines with uniform angles
        r = np.full(n, r1)
        for _ in range(2):
            w = rng.uniform(0.0, math.pi, n)
            ch = np.cosh(r) * math.cosh(r1) \
                - np.sinh(r) * math.sinh(r1) * np.cos(w)
            r = np.arccosh(ch)
        grid_cdf = m.cdf_at_edges()
        emp = np.searchsorted(np.sort(r), m.grid.edges) / n
        assert np.max(np.abs(emp - grid_cdf)) <= 0.01

    def test_consistency_one_more_convolution(self):
        # the 4-step law equals the 2-step law convolved with itself
        # (coarse grids keep the pairwise kernel tensor small)
        m4 = radial_mixture(4, 1.0)
        m2 = RadialMeasure.from_cdf(RadialGrid(0.0, 2.0, 400),
                                    lambda r: two_step_cdf(r, 1.0))
        paired = convolve(m2, m2, RadialGrid(0.0, 4.0, 800))
        assert sup_cdf_gap(m4, paired) <= 1e-3


# Reference copy of the heat density as one (radii x nodes) array
# expression, before the chunked evaluation.  The chunked path must give the
# same bits.
def reference_heat_density_exact(t, r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    pos = r > 0.0
    rp = r[pos]
    v_hi = np.sqrt(np.sqrt(rp * rp + 220.0 * t) + 4.0 * math.sqrt(t) - rp)
    u, w = panel_nodes(0.0, 1.0, 48)
    v = v_hi[:, None] * u[None, :]
    s = rp[:, None] + v * v
    den = np.sqrt(2.0 * np.sinh((s + rp[:, None]) / 2.0)
                  * np.sinh(np.maximum((s - rp[:, None]) / 2.0, 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(den > 0.0, 2.0 * v * s
                             * np.exp(-s * s / (4.0 * t)) / den, 0.0)
    integral = (integrand @ w) * v_hi
    const = math.exp(-t / 4.0) / (2.0 ** 1.5 * math.sqrt(math.pi) * t ** 1.5)
    out[pos] = np.sinh(rp) * const * integral
    return out


HEAT_TIMES = (0.01, 0.5, 4.0, 25.0)
SWEEP_T = 2.0


def sweep_radii():
    """Sorted radius arrays of every length from 1 to 600; every seventh
    starts at r = 0, where the density is set to zero."""
    rng = np.random.default_rng(5)
    for n in range(1, 601):
        r = np.sort(rng.uniform(0.0, 12.0, n))
        if n % 7 == 0:
            r[0] = 0.0
        yield r


REFERENCE_CHILD = """
import sys
import numpy as np
import test_spectral as ts
from hypercut import spectral
spectral._heat_density_exact = lambda t, r, workers=1: ts.reference_heat_density_exact(t, r)
out = {f"t{t!r}": spectral.heat_radial_density(t).masses
       for t in ts.HEAT_TIMES}
out.update({f"n{len(r)}": ts.reference_heat_density_exact(ts.SWEEP_T, r)
            for r in ts.sweep_radii()})
np.savez(sys.argv[1], **out)
"""


@pytest.fixture(scope="module")
def reference_heat(tmp_path_factory):
    """The reference densities, computed in a child process with one BLAS
    thread.  The reference's single matrix-vector product over thousands of
    radii is split across BLAS threads by row count, which changes how it
    rounds; the chunked products are not split that way, so they must match
    the one-thread reference at any BLAS thread count."""
    return one_blas_thread_child(
        REFERENCE_CHILD, tmp_path_factory.mktemp("heat") / "reference.npz")


class TestHeatKernel:
    def test_time_floor(self):
        with pytest.raises(ResolutionError):
            heat_radial_density(5e-4)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_normalization(self, t):
        m = heat_radial_density(t)
        assert abs(m.total_mass() - 1.0) <= 1e-12
        assert abs(m.meta["normalization_defect"]) <= 1e-6

    @pytest.mark.parametrize("t", [2.0, 5.0, 10.0])
    def test_mode_location(self, t):
        m = heat_radial_density(t)
        mode = m.grid.centers[np.argmax(m.density)]
        assert t - 2.0 * math.sqrt(t) <= mode <= t + 2.0 * math.sqrt(t)

    def test_envelope_fit(self):
        # the density sits within constant multiples of the printed
        # envelope shape over r in [t/4, 4t]
        for t in (1.0, 4.0):
            m = heat_radial_density(t)
            centers = m.grid.centers
            sel = (centers >= t / 4.0) & (centers <= 4.0 * t)
            ratio = m.density[sel] / heat_envelope(t, centers[sel])
            assert ratio.min() > 0
            assert ratio.max() / ratio.min() <= 50.0

    def test_matches_spectral_route(self):
        # independent evaluation through the transform side:
        # p(t, r) = sinh r * int exp(-t(1/4+s^2)) phi(s, r) s tanh(pi s) ds
        t = 2.0
        m = heat_radial_density(t)
        idx = np.searchsorted(m.grid.centers, [1.0, 2.0, 3.5, 6.0])
        radii = m.grid.centers[idx]
        s, w = np.polynomial.legendre.leggauss(160)
        s_max = math.sqrt(45.0 / t) + 1.0
        s_nodes = 0.5 * s_max * (s + 1.0)
        s_w = 0.5 * s_max * w
        table = phi_on_radii(s_nodes, radii)
        weight = np.exp(-t * (0.25 + s_nodes ** 2)) * s_nodes \
            * np.tanh(math.pi * s_nodes) * s_w
        spectral_route = np.sinh(radii) * (weight @ table)
        assert np.allclose(m.density[idx], spectral_route, rtol=2e-5)

    def test_matches_reference_at_every_length(self, reference_heat):
        # covers every chunk end below 600 rows, and last chunks of 1, 2
        # and 3 rows, which join the chunk before it
        rows = TILE_BYTES // (8 * 768 * spectral.HEAT_ARRAYS)
        rows -= rows % PRODUCT_COLS
        assert rows < 300
        for r in sweep_radii():
            want = reference_heat[f"n{len(r)}"]
            assert np.array_equal(spectral._heat_density_exact(SWEEP_T, r),
                                  want), len(r)
            if len(r) > rows and len(r) % rows < PRODUCT_COLS:
                assert np.array_equal(
                    spectral._heat_density_exact(SWEEP_T, r, 3), want)

    @pytest.mark.parametrize("t", HEAT_TIMES)
    def test_matches_reference_on_default_grid(self, reference_heat, t):
        assert np.array_equal(heat_radial_density(t).masses,
                              reference_heat[f"t{t!r}"])

    @pytest.mark.parametrize("t", [0.5, 4.0])
    def test_same_at_any_worker_count(self, reference_heat, t):
        for workers in (2, 3):
            got = heat_radial_density(t, workers=workers)
            assert np.array_equal(got.masses, reference_heat[f"t{t!r}"]), \
                workers

    def test_semigroup_property(self):
        t = 1.0
        grid = RadialGrid(0.0, 2.0 * (t + 14.0 * math.sqrt(t) + 2.0), 600)
        half = heat_radial_density(t, RadialGrid(0.0, t + 14 * math.sqrt(t)
                                                 + 2.0, 600))
        doubled = heat_radial_density(2.0 * t)
        composed = convolve(half, half, grid)
        assert sup_cdf_gap(composed, doubled) <= 5e-3


class TestHelgason:
    def test_narrow_measure_transform_is_phi(self):
        # the one-step kernel at radius r0 transforms to phi(s, r0)
        r0 = 1.25
        grid = RadialGrid(0.0, 3.0, 3000)
        masses = np.zeros(3000)
        masses[np.searchsorted(grid.centers, r0)] = 1.0
        atom = RadialMeasure(grid, masses)
        r_used = grid.centers[np.searchsorted(grid.centers, r0)]
        for s in (0.0, 1.0, 4.0):
            assert helgason_radial(atom, s) == pytest.approx(
                spherical_principal_grid([s], float(r_used))[0], abs=1e-9)

    def test_ball_indicator_at_zero_parameter(self):
        # normalized ball indicator: transform at s=0 equals
        # int_0^1 P_{-1/2}(cosh r) sinh r dr / (cosh 1 - 1) = 0.96909375...
        r0 = 1.0
        grid = RadialGrid(0.0, r0, 4000)
        h = 1.0 / (2.0 * math.pi * (math.cosh(r0) - 1.0))
        density = 2.0 * math.pi * np.sinh(grid.centers) * h
        ball = RadialMeasure(grid, density * grid.width)
        assert helgason_radial(ball, 0.0) == pytest.approx(
            0.9690937537855362, abs=1e-6)

    def test_mixture_power_law(self):
        r1 = 1.0
        s = np.linspace(0.0, 10.0, 21)
        phi1 = spherical_principal_grid(s, r1)
        for k in (2, 3, 5):
            m = radial_mixture(k, r1)
            lhs = helgason_radial(m, s)
            assert np.max(np.abs(lhs - phi1 ** k)) <= 0.01 * np.max(
                np.abs(phi1 ** k))

    def test_plancherel_on_bump(self):
        rep = plancherel_check(gaussian_radial_bump())
        assert 0.98 <= rep["ratio"] <= 1.02

    def test_sixth_power_integral_finite(self):
        # the three-step square-integrability mechanism: the weighted
        # sixth-power integral saturates once the |s|^{-1/2} decay kicks in
        r1 = 1.0
        s = np.linspace(0.0, 400.0, 8001)
        phi = np.abs(spherical_principal_grid(s, r1, tol=1e-7))
        integrand = phi ** 6 * s * np.tanh(math.pi * s)
        partial = np.cumsum(integrand) * (s[1] - s[0])
        assert partial[-1] < math.inf
        assert partial[-1] - partial[len(s) // 2] <= 0.01 * partial[-1]


class TestPhiOnRadii:
    def test_negative_radius_refused(self):
        with pytest.raises(ValueError):
            phi_on_radii([0.0, 1.0], [-0.5, 1.0])

    def test_radius_over_cap_refused(self):
        with pytest.raises(NumericRangeError):
            phi_on_radii([1.0], [1.0, 700.0])

    def test_empty_parameters_give_empty_table(self):
        table = phi_on_radii([], [0.5, 1.0])
        assert table.shape == (0, 2)
        assert helgason_radial(gaussian_radial_bump(), np.zeros(0)).shape \
            == (0,)

    @pytest.mark.parametrize("measure, s_max", [
        (gaussian_radial_bump(), 80.0),
        (radial_mixture(5, 1.0), 10.0)])
    def test_fixed_panels_match_certified_sweep(self, measure, s_max):
        # phi_on_radii has no convergence check of its own; on criterion
        # 6's grids and parameter ranges its table must agree with the
        # doubling sweep at tol 1e-10.  Each radius gets one pass at the
        # sweep's starting panel count; 20 radii, the largest among them,
        # are checked.
        s = np.linspace(0.0, s_max, 21)
        centers = measure.grid.centers
        table = phi_on_radii(s, centers)
        picked = np.linspace(0, centers.size - 1, 20).astype(int)
        certified = np.array([spherical_principal_grid(s, centers[i],
                                                       tol=1e-10)
                              for i in picked]).T
        assert np.max(np.abs(table[:, picked] - certified)) <= 1e-10


@pytest.mark.parametrize("call, workers", [
    (lambda: spherical_principal_grid(np.arange(0, 40.025, 0.05), 8.0), 1),
    (lambda: radial_mixture(6, 1.0, workers=2), 2),
    (lambda: heat_radial_density(4.0, workers=2), 2)],
    ids=["spherical", "mixture", "heat"])
def test_kernel_peak_within_tile_budget(call, workers):
    """Each kernel task holds at most TILE_BYTES of (rows x nodes) tiles;
    one budget more covers the output and the per-grid arrays (nodes,
    edges, their cosh and sinh, partial sums), a few hundred kB here."""
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= TILE_BYTES * (workers + 1)
