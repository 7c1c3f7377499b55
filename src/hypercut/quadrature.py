"""Composite Gauss-Legendre panels and doubling rules used by the
special-function evaluators.

Everything here is deterministic: node layouts depend only on the requested
panel counts, so repeated runs sum in the same order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureError


# Gauss-Legendre nodes per panel
GAUSS_NODES = 16


@lru_cache(maxsize=1)
def _gauss_nodes():
    x, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
    return x, w


def panel_nodes(a: float, b: float, n_panels: int):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b]."""
    x, w = _gauss_nodes()
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def trapezoid_doubling(f, a: float, b: float, *, tol: float = 1e-12,
                       n0: int = 64, max_doublings: int = 16):
    """Trapezoid rule with interval doubling; converges geometrically for
    smooth periodic integrands.  Returns ``(value, err_estimate)``.
    """
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
