"""The flat contrast case: the circle-valued continuous walk whose m-th
Fourier mode decays as exp(-t m^2 / lambda).

The density has two expansions, used as mutual correctness oracles:

    Fourier:  p(x) = 1 + 2 sum_{m>=1} e^{-t m^2 / lambda} cos(2 pi m x)
    theta:    p(x) = sqrt(pi lambda / t) sum_n e^{-pi^2 lambda (x+n)^2 / t}

equal by Poisson summation.  The L^1 distance to uniform sits strictly
inside the sandwich

    e^{-t/lambda} <= ||p - 1||_1 <= sqrt(2 / (1 - e^{-2t/lambda})) e^{-t/lambda},

which makes the time to reach e^{-T} grow like lambda T: bounded
window-to-location ratio, hence no abrupt transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericRangeError
from .quadrature import gauss_kronrod

_TAIL_EPS = 1e-14
_MAX_TERMS = 10_000
# the most the two truncated series may disagree by
_SERIES_TOL = 1e-10


def _tail_cutoff(a: float, series: str) -> int:
    """One past the first m >= 1 whose tail bound
    e^{-a m^2} / (1 - e^{-a}) >= sum_{n>m} e^{-a n^2} is at most _TAIL_EPS.

    The search starts at the real root of bound = _TAIL_EPS and steps to
    the first integer that passes, so it finds the m a scan from 1 would;
    an m beyond _MAX_TERMS raises.
    """
    denom = -math.expm1(-a)

    def above(m):
        return math.exp(-a * m * m) / denom > _TAIL_EPS

    root = math.sqrt(-(math.log(_TAIL_EPS) + math.log(denom)) / a)
    m = max(1, math.ceil(min(root, _MAX_TERMS + 1)))
    while m > 1 and not above(m - 1):
        m -= 1
    while m <= _MAX_TERMS and above(m):
        m += 1
    if m > _MAX_TERMS:
        raise NumericRangeError(f"{series} truncation ran away")
    return m + 1


@dataclass(frozen=True)
class TorusConfig:
    """Scale lambda = a^2 > 0 and time t > 0; truncations are chosen from
    geometric tail bounds so the dropped mass is below 1e-12."""

    lam: float
    t: float

    def __post_init__(self):
        if self.lam <= 0.0 or self.t <= 0.0:
            raise ValueError("need lambda > 0 and t > 0")

    @property
    def rate(self) -> float:
        return self.t / self.lam

    def fourier_cutoff(self) -> int:
        return _tail_cutoff(self.rate, "Fourier")

    def theta_cutoff(self) -> int:
        return _tail_cutoff(math.pi ** 2 / self.rate, "theta")


def fourier_series(cfg: TorusConfig, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    m = np.arange(1, cfg.fourier_cutoff() + 1)
    terms = np.exp(-cfg.rate * m * m)
    return 1.0 + 2.0 * np.cos(2.0 * math.pi * np.multiply.outer(x, m)) @ terms


def theta_series(cfg: TorusConfig, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    nmax = cfg.theta_cutoff()
    ns = np.arange(-nmax, nmax + 1)
    shifted = np.add.outer(x, ns.astype(float))
    a = math.pi ** 2 / cfg.rate
    return math.sqrt(math.pi / cfg.rate) * np.exp(-a * shifted ** 2).sum(axis=-1)


def torus_density(cfg: TorusConfig, x):
    """Density at x in [0, 1), evaluated by both series; the truncations
    auto-extend, and any residual disagreement beyond _SERIES_TOL raises."""
    f = fourier_series(cfg, x)
    g = theta_series(cfg, x)
    gap = float(np.max(np.abs(f - g)))
    if gap > _SERIES_TOL:
        raise NumericRangeError(
            f"series expansions disagree by {gap:.3g} after truncation")
    # the theta expansion has positive terms, so it stays positive where
    # the Fourier sum cancels down to rounding noise
    return g if np.ndim(x) else float(g)


# the defaults of scipy's brentq: rtol = 4 eps and 100 iterations
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENT_ITER = 100


def _brent(f, a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b] by Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4), operation for operation
    as scipy's brentq.c runs it.  A NaN value, a bracket without a sign
    change or no convergence in _BRENT_ITER steps raises NumericRangeError.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise NumericRangeError(f"root search met NaN at {x!r}")
        return fx

    def negative(v):  # C's signbit
        return math.copysign(1.0, v) < 0.0

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise NumericRangeError(f"no sign change of f on [{a!r}, {b!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_ITER):
        if fpre != 0.0 and fcur != 0.0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NumericRangeError(f"root search unsettled after {_BRENT_ITER} "
                            "steps")


def _centered_antiderivative(cfg: TorusConfig, x: float) -> float:
    """int_0^x (p - 1) = sum_m e^{-rate m^2} sin(2 pi m x) / (pi m)."""
    m = np.arange(1, cfg.fourier_cutoff() + 1)
    return float(np.sum(np.exp(-cfg.rate * m * m)
                        * np.sin(2.0 * math.pi * m * x) / (math.pi * m)))


def torus_l1(cfg: TorusConfig, via_quadrature: bool = True) -> float:
    """||p - 1||_1 on [0, 1].

    The density is symmetric and unimodal, so p - 1 changes sign at one
    point x* in (0, 1/2); adaptive quadrature of |p - 1| splits there, and
    at small rates once more just past it.  The Fourier antiderivative
    gives the same value in closed form: it is the cross-check of the
    quadrature, and with ``via_quadrature=False`` the value itself
    (mixing_time's fast path).  Above rates of about 37, p - 1 sinks below
    double resolution: x* is lost, or a value leaves torus_l1_bounds, and
    either raises NumericRangeError.
    """
    dev = lambda x: torus_density(cfg, x) - 1.0
    x_star = _brent(dev, 1e-12, 0.5, xtol=1e-14)
    value = closed = 2.0 * (2.0 * _centered_antiderivative(cfg, x_star))
    if via_quadrature:
        left, _ = gauss_kronrod(dev, 0.0, x_star, epsabs=1e-12)
        # the density's tail past x* is about sqrt(rate) / pi wide; at small
        # rates a first 21-point rule over [x*, 1/2] puts no node in it and
        # settles on a wrong value, so [x*, 1/2] splits four widths past x*
        cut = x_star + 4.0 * math.sqrt(cfg.rate) / math.pi
        ends = (x_star, cut, 0.5) if cut < 0.5 else (x_star, 0.5)
        right = sum(gauss_kronrod(dev, lo, hi, epsabs=1e-12)[0]
                    for lo, hi in zip(ends, ends[1:]))
        value = 2.0 * (left - right)
        if abs(value - closed) > 1e-9:
            raise NumericRangeError("quadrature and antiderivative disagree")
    lower, upper = torus_l1_bounds(cfg)
    if not (lower <= closed <= upper and lower <= value <= upper):
        raise NumericRangeError(
            f"l1 {value:.3g} at rate {cfg.rate:.3g} leaves its sandwich "
            f"[{lower:.3g}, {upper:.3g}]: p - 1 is below double resolution")
    return value


def torus_l1_bounds(cfg: TorusConfig) -> tuple[float, float]:
    """The sandwich (e^{-t/lam}, sqrt(2 / (1 - e^{-2 t/lam})) e^{-t/lam})."""
    lower = math.exp(-cfg.rate)
    upper = math.sqrt(2.0 / -math.expm1(-2.0 * cfg.rate)) * lower
    return lower, upper


def mixing_time(lam: float, eps: float) -> float:
    """Smallest t with ||p_t - 1||_1 = eps, by Brent's method in the rate
    on the closed-form distance.

    The sandwich brackets the root: rate in [ln(1/eps) - 1, ln(1/eps) + 2];
    at the upper end it bounds l1 by 0.2 eps, and torus_l1 stays inside it.
    """
    if not 0.0 < eps < 2.0:
        raise ValueError("eps must lie in (0, 2)")
    f = lambda rate: torus_l1(TorusConfig(1.0, rate), via_quadrature=False) - eps
    lo = max(math.log(1.0 / eps) - 1.0, 1e-6)
    hi = math.log(1.0 / eps) + 2.0
    while f(lo) < 0.0:
        lo /= 2.0
        if lo < 1e-12:
            raise NumericRangeError("mixing-time bracket failed (low side)")
    rate = _brent(f, lo, hi, xtol=1e-12)
    return lam * rate


def no_cutoff_profile(lambda_grid, T_grid) -> dict:
    """Table of the times t(e^{-T}) and the ratios t / (lambda T).

    A bounded ratio spread across the grid is the no-abrupt-transition
    signature: the window is proportional to the location.
    """
    rows = []
    for lam in lambda_grid:
        for T in T_grid:
            t = mixing_time(lam, math.exp(-T))
            rows.append({"lam": float(lam), "T": float(T), "t": t,
                         "ratio": t / (lam * T)})
    ratios = [row["ratio"] for row in rows]
    return {"rows": rows, "ratio_spread": max(ratios) / min(ratios)}
