"""Upper half-plane primitives: points, Mobius maps, geodesic distance,
sphere parameterization and ball volumes.

All types are immutable values and all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericRangeError

# cosh overflows past ~710; geodesic lengths are capped well below that.
MAX_DISTANCE = 700.0


@dataclass(frozen=True)
class PointH:
    """A point x + iy of the upper half-plane (y > 0, both finite)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise NumericRangeError(f"non-finite point ({self.x}, {self.y})")
        if not self.y > 0.0:
            raise ValueError(f"point must have y > 0, got y={self.y}")


ORIGIN = PointH(0.0, 1.0)


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


def distance(z: PointH, w: PointH) -> float:
    """Geodesic distance acosh(1 + ((x'-x)^2 + (y'-y)^2) / (2 y y'))."""
    q = ((w.x - z.x) ** 2 + (w.y - z.y) ** 2) / (2.0 * z.y * w.y)
    if not math.isfinite(q):
        raise NumericRangeError("distance argument overflowed")
    d = math.acosh(1.0 + q)
    if d > MAX_DISTANCE:
        raise NumericRangeError(f"distance {d:.3g} exceeds cap {MAX_DISTANCE}")
    return d


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
    re, im = _sphere_offset(r, theta)
    return PointH(z.x + z.y * re, z.y * im)


def _sphere_offset(r, theta):
    """(Re, Im) of the sphere point around i; vectorized in theta."""
    ct, st = np.cos(theta), np.sin(theta)
    inv_im = np.exp(r) * ct * ct + np.exp(-r) * st * st
    im = 1.0 / inv_im
    re = st * ct * (np.exp(-r) - np.exp(r)) * im
    return re, im


def sphere_step_arrays(x, y, r: float, theta):
    """One sphere step applied to coordinate arrays; returns (x', y')."""
    re, im = _sphere_offset(r, theta)
    return x + y * re, y * im


def log_sphere_step_arrays(x, logy, r: float, theta):
    """Sphere step in (x, log y) state; robust when y underflows.

    log Im of the step offset is -log(e^r cos^2 t + e^{-r} sin^2 t), which
    stays in [-r, r] regardless of the walker position.
    """
    ct, st = np.cos(theta), np.sin(theta)
    inv_im = np.exp(r) * ct * ct + np.exp(-r) * st * st
    re = st * ct * (np.exp(-r) - np.exp(r)) / inv_im
    return x + np.exp(logy) * re, logy - np.log(inv_im)


def ball_volume(r: float) -> float:
    """Area 2 pi (cosh r - 1) of the ball of radius r."""
    if r < 0.0:
        raise ValueError("radius must be >= 0")
    if r > MAX_DISTANCE:
        raise NumericRangeError(f"radius {r} exceeds cap {MAX_DISTANCE}")
    return 2.0 * math.pi * (math.cosh(r) - 1.0)


def inverse_ball_radius(volume: float) -> float:
    """Radius of the ball of the given area: acosh(volume / 2 pi + 1)."""
    if volume < 0.0:
        raise ValueError("volume must be >= 0")
    return math.acosh(volume / (2.0 * math.pi) + 1.0)
