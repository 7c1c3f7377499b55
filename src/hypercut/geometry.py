"""Upper half-plane primitives: points, geodesic distance, the sphere
step and ball volumes.

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


def cosh_distance_minus_1(x1, y1, x2, y2):
    """cosh d - 1 = ((x2-x1)^2 + (y2-y1)^2) / (2 y1 y2) between (x1, y1) and
    (x2, y2); broadcasts."""
    return ((x2 - x1) ** 2 + (y2 - y1) ** 2) / (2.0 * y1 * y2)


def distance(z: PointH, w: PointH) -> float:
    """Geodesic distance acosh(1 + cosh_distance_minus_1(z, w))."""
    q = cosh_distance_minus_1(z.x, z.y, w.x, w.y)
    if not math.isfinite(q):
        raise NumericRangeError("distance argument overflowed")
    d = math.acosh(1.0 + q)
    if d > MAX_DISTANCE:
        raise NumericRangeError(f"distance {d:.3g} exceeds cap {MAX_DISTANCE}")
    return d


def check_step_length(r1: float) -> None:
    """Refuse a walk step, a geodesic length, longer than MAX_DISTANCE."""
    if r1 > MAX_DISTANCE:
        raise NumericRangeError(f"step length {r1} exceeds cap {MAX_DISTANCE}")


def sphere_step_arrays(x, y, r: float, theta):
    """One sphere step applied to coordinate arrays; returns (x', y').

    The step is the rotation-dilation matrix
    [[e^{r/2} sin t, e^{-r/2} cos t], [-e^{r/2} cos t, e^{-r/2} sin t]]
    applied at i, then conjugated to base point (x, y).  At i the image has
    Im = 1 / (e^r cos^2 t + e^{-r} sin^2 t).
    """
    ct, st = np.cos(theta), np.sin(theta)
    inv_im = np.exp(r) * ct * ct + np.exp(-r) * st * st
    im = 1.0 / inv_im
    re = st * ct * (np.exp(-r) - np.exp(r)) * im
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
