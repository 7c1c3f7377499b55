"""Exact scalar references that the unit tests check the package against.

The package reads none of them; a test in test_surface.py keeps it so.

* MobiusReal and mobius_apply: the real isometries that the distance and
  walk invariance tests move points by.
* sphere_point: the scalar sphere step that the array sphere steps are
  checked against.
* GroupElement and reduce_fundamental: the exact group word and the scalar
  reduction that reduce_points_arrays is checked against.
* step_kernel_cdf: the kernel formula that the tiled step sum is checked
  against.
* convolve: the two-measure convolution behind radial_mixture's semigroup
  check.
* sup_cdf_gap: the distance between radial laws in the semigroup and
  reference checks.
* walk_stats_equal: the bitwise comparison of walks at different worker
  counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypercut.errors import DegeneracyError, NumericRangeError
from hypercut.geometry import MAX_DISTANCE, PointH
from hypercut.radial import (RadialGrid, RadialMeasure, _kernel_cdf,
                             _measure_from_cdf_sum, _step_cdf_sum,
                             default_grid)
from hypercut.walks import WalkStats

_REDUCE_CAP = 1_000_000


@dataclass(frozen=True)
class MobiusReal:
    """A real 2x2 matrix acting on the half-plane by fractional-linear maps.

    The constructor normalizes the determinant to 1 and fixes the projective
    sign so that equal maps compare equal; matrices with det <= 0 are
    rejected (orientation-reversing maps are not isometries of the model).
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not math.isfinite(det) or det <= 0.0:
            raise NumericRangeError(f"matrix determinant {det} not usable")
        s = 1.0 / math.sqrt(det)
        a, b, c, d = self.a * s, self.b * s, self.c * s, self.d * s
        # canonical sign: first nonzero of (a, b, c, d) positive
        for v in (a, b, c, d):
            if v != 0.0:
                if v < 0.0:
                    a, b, c, d = -a, -b, -c, -d
                break
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def identity(cls) -> "MobiusReal":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def translation(cls, s: float) -> "MobiusReal":
        return cls(1.0, s, 0.0, 1.0)

    @classmethod
    def dilation(cls, t: float) -> "MobiusReal":
        """z -> e^t z as the matrix diag(e^{t/2}, e^{-t/2})."""
        return cls(math.exp(t / 2.0), 0.0, 0.0, math.exp(-t / 2.0))

    @classmethod
    def rotation(cls, theta: float) -> "MobiusReal":
        """Rotation about i; theta in [0, pi) covers the full circle."""
        return cls(math.cos(theta), -math.sin(theta),
                   math.sin(theta), math.cos(theta))

    def compose(self, other: "MobiusReal") -> "MobiusReal":
        return MobiusReal(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusReal":
        return MobiusReal(self.d, -self.b, -self.c, self.a)

    def almost_equal(self, other: "MobiusReal", tol: float = 1e-12) -> bool:
        return (abs(self.a - other.a) <= tol and abs(self.b - other.b) <= tol
                and abs(self.c - other.c) <= tol
                and abs(self.d - other.d) <= tol)


def mobius_apply(g: MobiusReal, z: PointH) -> PointH:
    """Apply (az + b) / (cz + d); the image has Im = Im(z) / |cz+d|^2 > 0."""
    den = complex(g.c * z.x + g.d, g.c * z.y)
    n2 = den.real * den.real + den.imag * den.imag
    if n2 == 0.0 or not math.isfinite(n2):
        raise NumericRangeError("Mobius denominator out of range")
    num = complex(g.a * z.x + g.b, g.a * z.y)
    w = num * den.conjugate() / n2
    if not (math.isfinite(w.real) and math.isfinite(w.imag)) or w.imag <= 0.0:
        raise NumericRangeError("Mobius image left the half-plane range")
    return PointH(w.real, w.imag)


def sphere_point(z: PointH, r: float, theta: float) -> PointH:
    """The point at distance r from z in direction theta in [0, pi).

    Computed through the rotation-dilation matrix
    [[e^{r/2} sin t, e^{-r/2} cos t], [-e^{r/2} cos t, e^{-r/2} sin t]]
    applied at i, then conjugated to base point z.  At z = i the image has
    Im = 1 / (e^r cos^2 t + e^{-r} sin^2 t).
    """
    if r < 0.0:
        raise ValueError("radius must be >= 0")
    if r > MAX_DISTANCE:
        raise NumericRangeError(f"radius {r} exceeds cap {MAX_DISTANCE}")
    ct, st = np.cos(theta), np.sin(theta)
    inv_im = np.exp(r) * ct * ct + np.exp(-r) * st * st
    im = 1.0 / inv_im
    re = st * ct * (np.exp(-r) - np.exp(r)) * im
    return PointH(z.x + z.y * re, z.y * im)


def _canonical_sign(a: int, b: int, c: int, d: int):
    """Lexicographically larger of +/-(a, b, c, d): first nonzero positive."""
    for v in (a, b, c, d):
        if v != 0:
            if v < 0:
                return -a, -b, -c, -d
            break
    return a, b, c, d


@dataclass(frozen=True)
class GroupElement:
    """An exact-integer element of the projective modular group."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be exactly 1")
        a, b, c, d = _canonical_sign(self.a, self.b, self.c, self.d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, n: int) -> "GroupElement":
        return cls(1, n, 0, 1)

    @classmethod
    def inversion(cls) -> "GroupElement":
        return cls(0, -1, 1, 0)

    def mul(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def apply(self, z: PointH) -> PointH:
        den2 = (self.c * z.x + self.d) ** 2 + (self.c * z.y) ** 2
        x = ((self.a * z.x + self.b) * (self.c * z.x + self.d)
             + self.a * self.c * z.y * z.y) / den2
        return PointH(x, z.y / den2)

    @property
    def frobenius_norm2(self) -> int:
        """||g||_F^2, the certificate cosh d(i, g i) = ||g||_F^2 / 2."""
        return self.a ** 2 + self.b ** 2 + self.c ** 2 + self.d ** 2


def reduce_fundamental(z: PointH):
    """Reduce z into the fundamental domain.

    Returns (z', g) with g an exact group element satisfying g z = z'.
    Each inversion strictly increases the height, so the loop terminates;
    the cap guards degenerate inputs.
    """
    x, y = z.x, z.y
    g = GroupElement.identity()
    for _ in range(_REDUCE_CAP):
        n = math.floor(x + 0.5)
        if n != 0:
            x -= n
            g = GroupElement.translation(-n).mul(g)
        n2 = x * x + y * y
        if n2 < 1.0 - 1e-15:
            x, y = -x / n2, y / n2
            g = GroupElement.inversion().mul(g)
        elif n == 0:
            return PointH(x, y), g
    raise DegeneracyError("fundamental-domain reduction hit iteration cap")


def step_kernel_cdf(r_new, r_old, r_step):
    """P(distance after one step of length r_step from radius r_old <= r_new)
    for a uniform direction angle; vectorized over r_new and r_old.

    Degenerate radii (r_old or r_step ~ 0) reduce to a step function, which
    the clip to [-1, 1] handles.
    """
    r_new = np.asarray(r_new, dtype=float)
    r_old = np.asarray(r_old, dtype=float)
    out = np.empty(np.broadcast_shapes(r_new.shape, r_old.shape))
    return _kernel_cdf(out, np.cosh(r_old) * math.cosh(r_step),
                       np.cosh(r_new), np.sinh(r_old) * np.sinh(r_step))[()]


def convolve(m1: RadialMeasure, m2: RadialMeasure,
             out_grid: RadialGrid | None = None) -> RadialMeasure:
    """Radial convolution of two measures (both step lengths random): one
    step from m1 per cell of m2, of the cell's length and weight."""
    if out_grid is None:
        out_grid = default_grid(m1.grid.r_max + m2.grid.r_max)
    edges = out_grid.edges
    nz1 = m1.masses > 0.0
    c1, w1 = m1.grid.centers[nz1], m1.masses[nz1]
    cdf = np.zeros_like(edges)
    for r2, w2 in zip(m2.grid.centers, m2.masses):
        if w2 > 0.0:
            cdf += w2 * _step_cdf_sum(w1, c1, r2, edges)
    return _measure_from_cdf_sum(out_grid, cdf,
                                 m1.total_mass() * m2.total_mass())


def sup_cdf_gap(measure: RadialMeasure, other: RadialMeasure) -> float:
    """Sup over all edge positions of |CDF difference|."""
    edges = np.union1d(measure.grid.edges, other.grid.edges)
    a = np.interp(edges, measure.grid.edges, measure.cdf_at_edges())
    b = np.interp(edges, other.grid.edges, other.cdf_at_edges())
    return float(np.max(np.abs(a - b)))


def walk_stats_equal(stats: WalkStats, other: WalkStats) -> bool:
    return (stats.config == other.config
            and all(np.array_equal(getattr(stats, f), getattr(other, f))
                    for f in ("mean_lny", "var_lny", "mean_dist",
                              "var_dist", "final_lny", "final_x",
                              "final_dist")))
