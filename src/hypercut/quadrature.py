"""Composite Gauss-Legendre panels, QUADPACK's adaptive 21-point
Gauss-Kronrod rule, the one doubling loop that the spherical-function sweep
and the CLT variance quadrature both run, the one span rule by which every
fixed-size chunk loop splits its work, and the one tiled product by which
every (lines x nodes) kernel table is reduced.

Everything here is deterministic: node layouts depend only on the requested
panel counts, spans only on the requested sizes, and reduced tiles round as
the whole product does on one BLAS thread, so repeated runs sum in the same
order at any worker or BLAS thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from .errors import QuadratureError


# Gauss-Legendre nodes per panel
GAUSS_NODES = 16
# bytes of float64 temporaries one kernel task may hold at once, near one
# core's 2 MB L2; tiled_products sizes every kernel's tiles from it
TILE_BYTES = 1 << 21
# the width of the products that reduce a tile.  OpenBLAS shares a
# matrix-vector product's outputs among its threads at least 4 at a time and
# rounds the outputs past a share's last multiple of 4 on another path, so a
# 4-wide product is never split, and a product widened by the remainder
# rounds its last outputs as the whole product does on one thread.
PRODUCT_COLS = 4


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


# QUADPACK's 21-point Gauss-Kronrod pair (Piessens et al., 1983, dqk21):
# the Kronrod abscissae in (0, 1) with the center last, their weights, and
# the weights of the 10-point Gauss rule whose nodes are _XGK[1::2].
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
_EPS = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)
# scipy.integrate.quad's relative tolerance and interval limit
GK_EPSREL = 1.49e-8
GK_LIMIT = 200


def _gk21(f, a: float, b: float):
    """dqk21 on [a, b]: (result, abserr, resasc), summed in its order, the
    Gauss pairs first; f maps an array of the 21 nodes to their values."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    absc = [hlgth * x for x in _XGK[:10]]
    fx = f(np.array([centr] + [centr - d for d in absc]
                    + [centr + d for d in absc]))
    fc, fv1, fv2 = float(fx[0]), fx[1:11].tolist(), fx[11:].tolist()
    resg, resk = 0.0, _WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        fsum = fv1[j] + fv2[j]
        if j % 2:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        abserr = max((_EPS * 50.0) * resabs, abserr)
    return resk * hlgth, abserr, resasc


def gauss_kronrod(f, a: float, b: float, epsabs: float):
    """(integral of f over [a, b], error estimate) by QUADPACK's QAG with
    the 21-point rule: dqage's first pass and acceptance test, then
    bisection of the interval of largest error until the error sum is
    within max(epsabs, GK_EPSREL |integral|), or QuadratureError at
    GK_LIMIT intervals.  f maps an array of nodes to their values."""
    result, abserr, resasc = _gk21(f, a, b)
    if (abserr <= max(epsabs, GK_EPSREL * abs(result))
            and abserr != resasc) or abserr == 0.0:
        return result, abserr
    lo, hi, areas, errs = [a], [b], [result], [abserr]
    area, errsum = result, abserr
    while len(areas) < GK_LIMIT:
        i = errs.index(max(errs))
        mid = 0.5 * (lo[i] + hi[i])
        area1, err1, _ = _gk21(f, lo[i], mid)
        area2, err2, _ = _gk21(f, mid, hi[i])
        area = area + (area1 + area2) - areas[i]
        errsum = errsum + (err1 + err2) - errs[i]
        lo.append(mid)
        hi.append(hi[i])
        hi[i], areas[i], errs[i] = mid, area1, err1
        areas.append(area2)
        errs.append(err2)
        if errsum <= max(epsabs, GK_EPSREL * abs(area)):
            total = 0.0
            for value in areas:  # dqage's sum, in its order
                total += value
            return total, errsum
    raise QuadratureError(f"unsettled above {epsabs:g} after {GK_LIMIT} "
                          "intervals", achieved=errsum)


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


def tiled_products(fill, vector, n_lines: int, arrays: int, workers: int):
    """fill(lines) @ vector for lines = range(n_lines), where fill(lines)
    returns the (lines x len(vector)) table of a slice of lines.

    This is the one rule by which every kernel table is reduced.  The
    tiles hold as many lines as fit ``arrays`` tables of them in
    TILE_BYTES, a multiple of PRODUCT_COLS and at least PRODUCT_COLS; a
    last tile shorter than PRODUCT_COLS joins the one before it, since
    numpy reduces a one-line product through a dot routine that rounds
    differently.  Each tile is one map_blocks task on ``workers`` threads,
    reduced by products of PRODUCT_COLS lines, the last one widened by the
    line count mod PRODUCT_COLS.  The result thus rounds as the whole
    product does on one BLAS thread, at any worker or BLAS thread count,
    save for a table of one line in all: its dot product is split across
    BLAS threads past 10,000 entries by OpenBLAS.
    """
    width = len(vector)
    size = TILE_BYTES // (8 * width * arrays)
    size = max(PRODUCT_COLS, size - size % PRODUCT_COLS)
    out = np.empty(n_lines)

    def reduce_tile(lines):
        table = fill(lines)
        head = max(len(table) - PRODUCT_COLS - len(table) % PRODUCT_COLS, 0)
        if head:
            out[lines.start:lines.start + head] = (
                table[:head].reshape(-1, PRODUCT_COLS, width) @ vector).ravel()
        out[lines.start + head:lines.stop] = table[head:] @ vector

    map_blocks(reduce_tile, spans(n_lines, size, PRODUCT_COLS), workers)
    return out
