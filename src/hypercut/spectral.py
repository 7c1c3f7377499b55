"""Spherical functions of the half-plane, their decay bounds, k-step radial
mixtures, the radial heat kernel, and the radial Fourier transform with
its Plancherel check.

Numerical conventions fixed here once and used consistently:

* phi(s, r) is the value at radius r of the radial eigenfunction with
  spectral parameter s, evaluated through the one-dimensional integral
  (sqrt 2 / pi) r int_0^1 cos(s r x) / sqrt(cosh r - cosh r x) dx.
  The endpoint singularity is removed by 1 - x = u^2 together with the
  identity cosh r - cosh(rx) = 2 sinh(r(1+x)/2) sinh(r(1-x)/2), so the
  integrand is bounded and free of cancellation.
* The transform of a radial probability measure nu(dr) is
  nu_hat(s) = int phi(s, r) nu(dr); the transform of a radial function h
  (density with respect to the invariant area measure) is
  2 pi int h(r) phi(s, r) sinh r dr.  With that pairing the exact Parseval
  weight is (1/4pi) s tanh(pi s) ds over the whole real s-line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericRangeError, ResolutionError
from .quadrature import doubling, panel_nodes, spans, tiled_products
from .radial import (MASS_TOL, RadialGrid, RadialMeasure, _kernel_cdf,
                     convolve_step, default_grid)

_R_CAP = 600.0
# (radii x nodes) arrays that one heat-density chunk holds at once
HEAT_ARRAYS = 6
# spectral parameters per chunk of the spherical-function sweep; the
# doubling is decided per chunk, so this fixes where each parameter's panel
# count comes from (tiled_products' TILE_BYTES already bounds the memory)
SWEEP_CHUNK = 512
# the largest spectral parameter of plancherel_check's decay probe
PLANCHEREL_S_CAP = 80.0


@dataclass(frozen=True)
class CltConstants:
    """Drift and variance of the one-step log-height increment."""

    r1: float
    alpha: float
    sigma2: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 <= self.sigma2 <= 4.0:
            raise ValueError(f"sigma2 must lie in [0, 4], got {self.sigma2}")


def _check_radii(r) -> np.ndarray:
    """The radii as a float array, refused below 0 or above the cap."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be >= 0")
    if np.any(r > _R_CAP):
        raise NumericRangeError(
            f"radius {np.max(r)} exceeds evaluation cap {_R_CAP}")
    return r


def _integrand_base(r, u: np.ndarray):
    """(x, weight-free base) of the regularized integrand 2u / sqrt(...)
    at one radius r."""
    x = 1.0 - u * u
    den = np.sqrt(2.0 * np.sinh(r * (1.0 + x) / 2.0)
                  * np.sinh(r * (1.0 - x) / 2.0))
    return x, 2.0 * u / den


def _first_panels(smax: float, r: float) -> int:
    """Starting panel count: panels scale with the oscillation count s r."""
    return max(16, int(smax * r / 3.0) + 8)


def _phi_pass(s: np.ndarray, r: float, n_panels: int, wave) -> np.ndarray:
    """(sqrt 2 / pi) r int wave(s r x) base dx for each s at one radius
    r > 0, on ``n_panels`` Gauss panels, with wave = np.cos for the
    principal series and np.cosh for the complementary one.  The (s x
    nodes) table is reduced by quadrature.tiled_products."""
    u, w = panel_nodes(0.0, 1.0, n_panels)
    x, base = _integrand_base(r, u)
    rx = r * x

    def fill(rows):
        arg = np.multiply.outer(s[rows], rx)
        return wave(arg, out=arg)

    vals = tiled_products(fill, base * w, s.size, 1, 1)
    vals *= math.sqrt(2.0) / math.pi * r
    return vals


def _spherical_sweep(s: np.ndarray, r: float, tol: float, wave):
    """_phi_pass for each s at one radius r, certified to ``tol``.

    The panel count starts at _first_panels and is doubled until the whole
    chunk moves by less than ``tol``.  The parameters of one SWEEP_CHUNK
    chunk share that decision and its starting count.
    """
    r = float(_check_radii(float(r)))
    if r == 0.0:
        return np.ones_like(s)
    out = np.empty_like(s)
    for chunk in spans(s.size, SWEEP_CHUNK):
        sc = s[chunk]
        out[chunk], _ = doubling(
            lambda n: _phi_pass(sc, r, n, wave),
            _first_panels(float(np.max(np.abs(sc))), r), tol, 7)
    return out


def spherical_principal_grid(s_values, r: float, *, tol: float = 1e-8):
    """phi(s, r) for an array of spectral parameters at one radius, to
    ``tol`` (see _spherical_sweep)."""
    s = np.atleast_1d(np.asarray(s_values, dtype=float))
    return _spherical_sweep(s, r, tol, np.cos)


def spherical_complementary(p: float, r: float) -> float:
    """Complementary-series eigenvalue, parameterized by the exponent p >= 2,
    to 1e-10.

    Coincides with the principal phi(0, r) at p = 2; the integrand is the
    cosh analogue of the principal one (no oscillation).
    """
    if p < 2.0:
        raise ValueError("need p >= 2")
    sp = 0.5 - 1.0 / p
    return float(_spherical_sweep(np.array([sp]), r, 1e-10, np.cosh)[0])


def complementary_lower_envelope(p: float, r: float,
                                 eps: float = 0.5) -> float:
    """Lower decay envelope sqrt(eps) exp(-r (1/2 - |sp| (1 - eps))), valid
    up to an absolute constant for r >= 1.
    """
    sp = 0.5 - 1.0 / p
    return math.sqrt(eps) * math.exp(-r * (0.5 - abs(sp) * (1.0 - eps)))


def hc_bound(r: float, p: float = 2.0) -> float:
    """The operator-norm bound (r + 1) e^{-r/p} for the radius-r average."""
    if r < 0.0:
        raise ValueError("radius must be >= 0")
    if p < 2.0:
        raise ValueError("need p >= 2")
    return (r + 1.0) * math.exp(-r / p)


def clt_constants(r1: float) -> CltConstants:
    """Drift alpha and variance sigma^2 of the log-height increment.

    The angular integral for alpha evaluates in closed form,
    (1/pi) int ln(e^r cos^2 t + e^{-r} sin^2 t) dt = 2 ln cosh(r/2),
    which the variance quadrature cross-checks implicitly.  The variance
    integrand is analytic but its nearest poles sit e^{-r1} away from the
    axis, so the trapezoid rule (error <= 1e-10) is used up to r1 = 12 and
    the large-step expansion pi^2 / (3 r1^2) beyond (error ~ e^{-r1}).
    """
    if r1 <= 0.0:
        raise ValueError("need r1 > 0")
    alpha = 2.0 * math.log(math.cosh(r1 / 2.0)) / r1

    def trapezoid(n):
        t = np.linspace(0.0, math.pi, n + 1)
        logheight = np.log(np.exp(r1) * np.cos(t) ** 2
                           + np.exp(-r1) * np.sin(t) ** 2)
        return float(np.trapezoid((logheight / r1 - alpha) ** 2, t))

    if r1 <= 12.0:
        iv, _ = doubling(trapezoid, 128, 1e-11, 15)
        sigma2 = iv / math.pi
    else:
        sigma2 = math.pi ** 2 / (3.0 * r1 * r1)
    return CltConstants(r1=r1, alpha=alpha, sigma2=sigma2)


def two_step_cdf(r, r1: float):
    """Closed-form CDF of the radius after two steps of length r1:
    acos((cosh^2 r1 - cosh r) / sinh^2 r1) / pi on [0, 2 r1].
    """
    c = np.cosh(np.asarray(r, dtype=float))
    return _kernel_cdf(np.empty_like(c), math.cosh(r1) ** 2, c,
                       math.sinh(r1) ** 2)


def radial_mixture(k: int, r1: float, workers: int = 1) -> RadialMeasure:
    """The radial law of the k-step fixed-length walk, as a density on
    [0, k r1].

    k must be at least 2: the 0- and 1-step laws are atoms, not densities.
    k = 2 comes from the closed-form CDF; k >= 3 applies the law-of-cosines
    step kernel once per extra step, on ``workers`` threads, with the same
    result at any worker count.
    """
    if k < 2:
        raise ValueError("the k-step radial law is a density only for k >= 2")
    if r1 <= 0.0:
        raise ValueError("need r1 > 0")
    measure = RadialMeasure.from_cdf(default_grid(2.0 * r1),
                                     lambda r: two_step_cdf(r, r1))
    for j in range(3, k + 1):
        measure = convolve_step(measure, r1, default_grid(j * r1), workers)
    defect = abs(measure.total_mass() - 1.0)
    if defect > MASS_TOL:
        raise ResolutionError(
            f"mixture grid too coarse: mass defect {defect:.3g}")
    return measure


def heat_envelope(t: float, r):
    """The printed two-sided envelope shape t^{-1} r (1+r+t)^{-1/2}
    exp(-(r-t)^2 / 4t), known only up to constants.
    """
    r = np.asarray(r, dtype=float)
    return r / (t * np.sqrt(1.0 + r + t)) * np.exp(-((r - t) ** 2) / (4.0 * t))


def _heat_density_exact(t: float, r: np.ndarray,
                        workers: int = 1) -> np.ndarray:
    """Radial density of the time-t heat flow, through the classical
    integral form

        p(t, r) = sinh(r) e^{-t/4} / (2^{3/2} sqrt(pi) t^{3/2})
                  * int_r^inf s e^{-s^2/4t} / sqrt(cosh s - cosh r) ds,

    regularized by s = r + v^2.  Exactly normalized; the discretization is
    renormalized downstream anyway.  The (radii x nodes) integrand, of
    which HEAT_ARRAYS arrays are live at once, is reduced by
    quadrature.tiled_products on ``workers`` threads.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    pos = r > 0.0
    rp = r[pos]
    v_hi = np.sqrt(np.sqrt(rp * rp + 220.0 * t) + 4.0 * math.sqrt(t) - rp)
    u, w = panel_nodes(0.0, 1.0, 48)

    def fill(rows):
        rc = rp[rows, None]
        v = v_hi[rows, None] * u[None, :]
        s = rc + v * v
        den = np.sqrt(2.0 * np.sinh((s + rc) / 2.0)
                      * np.sinh(np.maximum((s - rc) / 2.0, 0.0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den > 0.0, 2.0 * v * s
                            * np.exp(-s * s / (4.0 * t)) / den, 0.0)

    integral = tiled_products(fill, w, len(rp), HEAT_ARRAYS, workers)
    integral *= v_hi
    const = math.exp(-t / 4.0) / (2.0 ** 1.5 * math.sqrt(math.pi) * t ** 1.5)
    out[pos] = np.sinh(rp) * const * integral
    return out


def heat_radial_density(t: float, grid: RadialGrid | None = None,
                        workers: int = 1) -> RadialMeasure:
    """Radial law of the time-t continuous walk as a RadialMeasure.

    Cell masses use Simpson's rule on the exact density, evaluated on
    ``workers`` threads with the same result at any worker count, then a
    numerical renormalization whose defect is recorded in ``meta``.
    """
    if t <= 1e-3:
        raise ResolutionError("time below 1e-3 is under-resolved")
    if grid is None:
        grid = default_grid(t + 14.0 * math.sqrt(t) + 2.0)
    edges = grid.edges
    centers = grid.centers
    p_edges = _heat_density_exact(t, edges, workers)
    p_centers = _heat_density_exact(t, centers, workers)
    masses = grid.width / 6.0 * (p_edges[:-1] + 4.0 * p_centers + p_edges[1:])
    measure = RadialMeasure(grid, masses)
    defect = abs(measure.total_mass() - 1.0)
    if defect > 1e-6:
        raise ResolutionError(
            f"heat grid too coarse: normalization defect {defect:.3g}")
    return measure.normalized()


def phi_on_radii(s_values, radii) -> np.ndarray:
    """phi(s, r) as a (len(s), len(radii)) table.

    One _phi_pass per positive radius, at the sweep's starting panel count
    _first_panels(max |s|, r), with no doubling; tests pin the table against
    spherical_principal_grid.
    """
    s = np.atleast_1d(np.asarray(s_values, dtype=float))
    r = np.atleast_1d(_check_radii(radii))
    smax = float(np.max(np.abs(s), initial=0.0))
    out = np.ones((s.size, r.size))
    for j in np.flatnonzero(r > 0.0):
        out[:, j] = _phi_pass(s, r[j], _first_panels(smax, r[j]), np.cos)
    return out


def helgason_radial(measure: RadialMeasure, s):
    """Transform of a radial measure: nu_hat(s) = int phi(s, r) nu(dr).

    For the k-step mixture this equals phi(s, r1)^k by the convolution
    property.  Scalar s returns a float, arrays return arrays.
    """
    vals = phi_on_radii(s, measure.grid.centers) @ measure.masses
    return float(vals[0]) if np.isscalar(s) or np.ndim(s) == 0 else vals


def plancherel_check(measure: RadialMeasure) -> dict:
    """Compare the spatial energy of a radial measure with its spectral
    energy under the (1/4pi) s tanh(pi s) ds weight.

    The measure is read as mu-density h(r) = density(r) / (2 pi sinh r);
    spatial energy is int |h|^2 dmu, spectral energy uses the transform
    2 pi int h phi sinh r dr = nu_hat.  Truncation of the s-integral is
    chosen from a decay probe and reported.
    """
    centers = measure.grid.centers
    width = measure.grid.width
    e_space = float(np.sum(measure.masses ** 2 / (width * np.sinh(centers)))
                    / (2.0 * math.pi))
    probe = np.linspace(0.0, PLANCHEREL_S_CAP, 81)
    probe_vals = np.abs(helgason_radial(measure, probe))
    weighted = probe_vals ** 2 * probe * np.tanh(math.pi * probe)
    peak = float(weighted.max())
    above = np.nonzero(weighted > 1e-10 * peak)[0]
    s_max = float(probe[min(above[-1] + 1, probe.size - 1)])
    s_nodes, s_weights = panel_nodes(0.0, s_max, max(24, int(s_max)))
    vals = helgason_radial(measure, s_nodes)
    e_freq = float(np.sum(vals ** 2 * s_nodes * np.tanh(math.pi * s_nodes)
                          * s_weights) / (2.0 * math.pi))
    tail_note = float(weighted[-1] / peak) if peak > 0 else 0.0
    return {"space_energy": e_space, "freq_energy": e_freq,
            "ratio": e_freq / e_space, "s_max": s_max,
            "relative_tail_at_cap": tail_note}


def gaussian_radial_bump() -> RadialMeasure:
    """A smooth radial bump around r = 1.2 of width 0.35 on [0, 4] (as a
    measure over radius), the standard probe for the Plancherel and
    round-trip checks.
    """
    center, width = 1.2, 0.35
    grid = RadialGrid(0.0, 4.0, 800)
    c = grid.centers
    h = np.exp(-((c - center) ** 2) / (2.0 * width ** 2))
    density = 2.0 * math.pi * np.sinh(c) * h
    return RadialMeasure(grid, density * grid.width)
