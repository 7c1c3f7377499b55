"""hypercut: geometry, harmonic analysis, and random-walk mixing
experiments on hyperbolic surfaces, with the flat torus as the contrast
case."""

__version__ = "0.1.0"
