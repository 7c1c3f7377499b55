import math

import numpy as np
import pytest

from hypercut import walks
from hypercut.errors import QuadratureError
from hypercut.quadrature import (GK_EPSREL, PRODUCT_COLS, gauss_kronrod,
                                 map_blocks, spans)

# the step-kernel tile width and heat-density chunk rows of those layouts
TILE_COLS = 256
HEAT_CHUNK_ROWS = 256


# Frozen copies of the two layouts that spans replaced, at their sizes of
# the time: spans must reproduce them run for run.
def frozen_tiles(n_edges):
    """The step-kernel tiles as (lo, hi) columns: blocks of product indices,
    the last tile widened to take the n_edges % PRODUCT_COLS left over."""
    n_products = max(1, n_edges // PRODUCT_COLS)
    block = TILE_COLS // PRODUCT_COLS
    tiles = []
    for p_lo in range(0, n_products, block):
        p_hi = min(p_lo + block, n_products)
        tiles.append((p_lo * PRODUCT_COLS,
                      n_edges if p_hi == n_products else p_hi * PRODUCT_COLS))
    return tiles


def frozen_row_chunks(n, size):
    """(lo, hi) chunks of at most ``size`` rows, a lone last row joined to
    the chunk before it."""
    bounds = list(range(0, n, size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def as_pairs(runs):
    return [(s.start, s.stop) for s in runs]


def test_spans_reproduce_the_tiles():
    # a grid has at least two edges; with none the old rule gave one empty
    # tile and spans gives no run
    for n in range(1, 5001):
        assert as_pairs(spans(n, TILE_COLS, PRODUCT_COLS)) \
            == frozen_tiles(n), n


def test_spans_reproduce_the_row_chunks():
    for n in range(5001):
        assert as_pairs(spans(n, HEAT_CHUNK_ROWS, 2)) \
            == frozen_row_chunks(n, HEAT_CHUNK_ROWS), n
    for size in (1, 2, 3, 7):
        for n in range(600):
            assert as_pairs(spans(n, size, 2)) \
                == frozen_row_chunks(n, size), (n, size)


@pytest.mark.parametrize("n, size, least", [(0, 4, 1), (1, 4, 3), (9, 4, 1),
                                            (9, 4, 2), (10, 4, 3),
                                            (12, 4, 4)])
def test_spans_cover_in_order(n, size, least):
    runs = spans(n, size, least)
    assert [i for s in runs for i in range(s.start, s.stop)] == list(range(n))
    assert all(s.stop - s.start <= size for s in runs[:-1])
    if len(runs) > 1:
        assert least <= runs[-1].stop - runs[-1].start < size + least


def test_map_blocks_keeps_item_order():
    items = spans(1000, 7)
    want = [s.start for s in items]
    for workers in (1, 3):
        assert map_blocks(lambda s: s.start, items, workers) == want
    assert walks.map_blocks is map_blocks


def test_gauss_kronrod_bisects_up_to_its_interval_limit():
    # 64 periods on [0, 1]: one 21-point pass cannot settle, bisection can;
    # 16,000 periods leave about 80 in each of the GK_LIMIT intervals
    exact = (1.0 - math.cos(400.0)) / 400.0
    value, err = gauss_kronrod(lambda x: np.sin(400.0 * x), 0.0, 1.0,
                               epsabs=1e-13)
    assert abs(value - exact) <= 1e-14
    assert err <= GK_EPSREL * abs(value)
    with pytest.raises(QuadratureError) as caught:
        gauss_kronrod(lambda x: np.cos(1e5 * x), 0.0, 1.0, epsabs=1e-12)
    assert caught.value.achieved > 1e-12
