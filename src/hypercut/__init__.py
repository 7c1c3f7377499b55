"""hypercut: geometry, harmonic analysis, and random-walk mixing
experiments on hyperbolic surfaces, with the flat torus as the contrast
case."""

__version__ = "0.1.0"

from .geometry import PointH, ball_volume, distance, inverse_ball_radius
from .modular import (CosetModQ, QuotientPoint, RandomCover, coset_index,
                      injectivity_radius, quotient_R, quotient_distance,
                      quotient_volume, random_cover, sample_uniform_quotient)
from .radial import RadialGrid, RadialMeasure
from .spectral import (CltConstants, clt_constants, hc_bound,
                       heat_radial_density, helgason_radial, plancherel_check,
                       radial_mixture, spherical_complementary,
                       spherical_principal_grid)
from .walks import (WalkConfig, WalkStats, clt_check, tail_checks,
                    walk_discrete)

__all__ = [name for name in dir() if not name.startswith("_")]
