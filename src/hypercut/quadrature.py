"""Composite Gauss-Legendre panels, the one doubling loop that the
spherical-function sweep and the CLT variance quadrature both run, and the
one span rule by which every fixed-size chunk loop splits its work.

Everything here is deterministic: node layouts depend only on the requested
panel counts, and spans only on the requested sizes, so repeated runs sum
in the same order at any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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


def doubling(evaluate, n: int, tol: float, passes: int):
    """evaluate(n), evaluate(2n), ... (at most ``passes`` calls) until two
    results in a row differ by at most ``tol``; returns (result, achieved
    difference), else raises QuadratureError with ``achieved`` set."""
    prev, err = evaluate(n), float("inf")
    for _ in range(passes - 1):
        n *= 2
        cur = evaluate(n)
        err = float(np.max(np.abs(cur - prev)))
        if err <= tol:
            return cur, err
        prev = cur
    raise QuadratureError(f"unsettled above {tol:g} after {passes} passes",
                          achieved=err)


def spans(n: int, size: int, least: int = 1) -> list[slice]:
    """Consecutive runs of at most ``size`` that cover range(n), as slices;
    a last run narrower than ``least`` joins the run before it."""
    bounds = list(range(0, n, size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < least:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def map_blocks(fn, items, workers: int = 1) -> list:
    """[fn(item) for item in items], on ``workers`` threads; results come
    back in the order of ``items`` regardless of the executor."""
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
