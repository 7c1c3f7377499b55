"""Discretized measures over a step radius r, used by the spectral
machinery.

A RadialMeasure stores per-cell masses on a uniform grid; densities are
masses divided by cell width.  The law-of-cosines kernel

    cosh r'' = cosh r cosh r1 - sinh r sinh r1 cos w,   w uniform on [0, pi]

is the single-step radial transition used for both the k-step mixtures and
the heat-kernel semigroup checks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResolutionError
from .quadrature import spans, tiled_products

# the mass a discretized radial law may lose to its grid
MASS_TOL = 1e-3


@dataclass(frozen=True)
class RadialGrid:
    """Uniform partition of [r_min, r_max] into n_cells cells."""

    r_min: float
    r_max: float
    n_cells: int

    def __post_init__(self):
        if not (self.r_max > self.r_min >= 0.0):
            raise ValueError("need 0 <= r_min < r_max")
        if self.n_cells < 1:
            raise ValueError("need at least one cell")

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n_cells + 1)

    @property
    def centers(self) -> np.ndarray:
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])

    @property
    def width(self) -> float:
        return (self.r_max - self.r_min) / self.n_cells


def default_grid(r_max: float) -> RadialGrid:
    """[0, r_max] at the default resolution: step 1e-3 * max(1, r_max / 10)."""
    step = 1e-3 * max(1.0, r_max / 10.0)
    n = max(1, int(math.ceil(r_max / step)))
    return RadialGrid(0.0, r_max, n)


@dataclass(frozen=True)
class RadialMeasure:
    """Nonnegative masses on the cells of a RadialGrid."""

    grid: RadialGrid
    masses: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.shape != (self.grid.n_cells,):
            raise ValueError("masses must have one entry per cell")
        if np.any(m < -1e-15) or not np.all(np.isfinite(m)):
            raise ValueError("masses must be finite and >= 0")
        object.__setattr__(self, "masses", np.maximum(m, 0.0))

    @property
    def density(self) -> np.ndarray:
        return self.masses / self.grid.width

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def cdf_at_edges(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.masses)))

    def normalized(self) -> "RadialMeasure":
        total = self.total_mass()
        if total <= 0.0:
            raise ValueError("cannot normalize a zero measure")
        return RadialMeasure(self.grid, self.masses / total,
                             {"normalization_defect": total - 1.0})

    @classmethod
    def from_cdf(cls, grid: RadialGrid, cdf) -> "RadialMeasure":
        vals = np.asarray(cdf(grid.edges), dtype=float)
        masses = np.diff(vals)
        if np.any(masses < -1e-12):
            raise ValueError("CDF is not monotone on the grid")
        defect = abs(vals[-1] - vals[0] - 1.0)
        if defect > MASS_TOL:
            raise ResolutionError(
                f"grid drops {defect:.3g} of the mass (tol {MASS_TOL:g})")
        return cls(grid, np.maximum(masses, 0.0))

    @classmethod
    def from_csv(cls, path) -> "RadialMeasure":
        """Read (r, density) rows as the CLI writes them, skipping its '#'
        header lines."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(line for line in fh
                                   if not line.startswith("#")))[1:]
        r = np.array([float(a) for a, _ in rows])
        d = np.array([float(b) for _, b in rows])
        width = r[1] - r[0] if len(r) > 1 else 2.0 * r[0]
        grid = RadialGrid(r[0] - width / 2.0, r[-1] + width / 2.0, len(r))
        return cls(grid, d * width)


def _kernel_arg(out, num_old, cosh_new, den_old):
    """clip((num_old - cosh_new) / den_old, -1, 1) written into ``out`` in
    place, with num_old = cosh r_old cosh r_step and den_old = sinh r_old
    sinh r_step broadcast against cosh_new = cosh r_new.  Where den_old is
    not positive the argument is +-2 by the sign of the numerator, a step
    function.  Every step is monotone, so the argument never increases with
    cosh_new."""
    np.subtract(num_old, cosh_new, out=out)
    pos = den_old > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(out, np.where(pos, den_old, 1.0), out=out)
    if not np.all(pos):
        np.copyto(out, np.where(out > 0.0, 2.0, -2.0), where=~pos)
    return np.clip(out, -1.0, 1.0, out=out)


def _kernel_cdf(out, num_old, cosh_new, den_old):
    """The law-of-cosines kernel CDF acos(_kernel_arg(...)) / pi, written
    into ``out`` in place."""
    np.arccos(_kernel_arg(out, num_old, cosh_new, den_old), out=out)
    return np.divide(out, math.pi, out=out)


def _kernel_tile(num, cosh_new, den):
    """The kernel CDF of the rows (num, den) at the edges cosh_new.  A row
    whose argument is the same at the least and the greatest cosh_new, as
    it is past either end of the step's band [|r_old - r_step|, r_old +
    r_step], is that value throughout, so only the rows from the first to
    the last other one go through the arccos."""
    ends = _kernel_arg(np.empty((2, len(num))), num,
                       np.array([[cosh_new.min()], [cosh_new.max()]]), den)
    band = np.flatnonzero(ends[0] != ends[1])
    a, b = (band[0], band[-1] + 1) if len(band) else (len(num), len(num))
    flat = (np.arccos(ends[0]) / math.pi)[:, None]
    tile = np.empty((len(num), len(cosh_new)))
    tile[:a], tile[b:] = flat[:a], flat[b:]
    _kernel_cdf(tile[a:b], num[a:b, None], cosh_new, den[a:b, None])
    return tile


def _step_cdf_sum(masses, centers, r_step, edges, workers: int = 1):
    """Sum over cells of mass times the kernel CDF at each edge: the
    unnormalized CDF after one step of length r_step from radii ``centers``.

    The cells run in blocks of 20,000,000 // len(edges) rows.  Within a
    block, the (edges x rows) kernel is reduced by quadrature.tiled_products
    on ``workers`` threads.
    """
    cosh_edges = np.cosh(edges)
    num = np.cosh(centers) * math.cosh(r_step)
    den = np.sinh(centers) * np.sinh(r_step)
    cdf = np.zeros_like(edges)
    # tiled_products' TILE_BYTES bounds the memory; the blocks stay only
    # because they fix the order in which the block sums add up
    block = max(1, 20_000_000 // max(len(edges), 1))
    for rows in spans(len(centers), block):
        cdf += tiled_products(
            lambda cols: _kernel_tile(num[rows], cosh_edges[cols],
                                      den[rows]).T,
            masses[rows], len(edges), 1, workers)
    return cdf


def _measure_from_cdf_sum(out_grid, cdf, total: float) -> RadialMeasure:
    """The measure of mass ``total`` and CDF cdf / total, made monotone."""
    if total > 0:
        cdf /= total
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
    return RadialMeasure(out_grid, np.diff(cdf) * total)


def convolve_step(measure: RadialMeasure, r_step: float, out_grid: RadialGrid,
                  workers: int = 1) -> RadialMeasure:
    """One law-of-cosines step of fixed length r_step applied to a radial
    measure.  The new CDF at each edge is the mass-weighted kernel CDF; the
    midpoint rule over cells is exact in the masses and second order in the
    smooth kernel.  The result does not depend on ``workers``.
    """
    cdf = _step_cdf_sum(measure.masses, measure.grid.centers, r_step,
                        out_grid.edges, workers)
    return _measure_from_cdf_sum(out_grid, cdf, measure.total_mass())
