import math

import numpy as np
import pytest

from hypercut import walks
from hypercut.errors import QuadratureError
from hypercut.quadrature import (GK_EPSREL, PRODUCT_COLS, TILE_BYTES,
                                 gauss_kronrod, map_blocks, spans,
                                 tiled_products)
from test_spectral import one_blas_thread_child

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


# (table width, arrays per tile): tiles of 32 lines of 1,024 entries, and
# of 76 lines of 3,332, as the step kernel's tiles of edges over the
# 3,332-cell blocks of mixture --k 6
TILE_SHAPES = ((1024, 8), (3332, 1))


def tile_size(width, arrays):
    lines = TILE_BYTES // (8 * width * arrays)
    return lines - lines % PRODUCT_COLS


def product_table(width, arrays, order):
    """A fixed (lines x width) table with two tiles and a remainder of
    PRODUCT_COLS lines, in C or Fortran order (the step kernel's tiles are
    transposed), and a fixed vector."""
    rng = np.random.default_rng(width)
    n = 2 * tile_size(width, arrays) + PRODUCT_COLS
    return (np.asarray(rng.standard_normal((n, width)), order=order),
            rng.standard_normal(width))


PRODUCTS_CHILD = """
import sys
import numpy as np
import test_quadrature as tq
out = {}
for width, arrays in tq.TILE_SHAPES:
    for order in "CF":
        table, vector = tq.product_table(width, arrays, order)
        for n in range(1, len(table) + 1):
            out[f"{width}{order}{n}"] = table[:n] @ vector
np.savez(sys.argv[1], **out)
"""


@pytest.fixture(scope="module")
def one_thread_products(tmp_path_factory):
    """Every leading block of the product tables times their vector, each
    one whole product on one BLAS thread."""
    return one_blas_thread_child(
        PRODUCTS_CHILD, tmp_path_factory.mktemp("products") / "ref.npz")


@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("width, arrays", TILE_SHAPES)
def test_tiled_products_round_as_one_thread(one_thread_products, width,
                                            arrays, order):
    # every line count up to two full tiles and PRODUCT_COLS more: each
    # remainder mod PRODUCT_COLS, fewer lines than PRODUCT_COLS, last tiles
    # of 1 to 3 lines that join the tile before them, and two full tiles,
    # at this process's BLAS thread count
    table, vector = product_table(width, arrays, order)
    assert tile_size(width, arrays) >= 8 * PRODUCT_COLS
    for n in range(1, len(table) + 1):
        want = one_thread_products[f"{width}{order}{n}"]
        for workers in (1, 2, 3):
            got = tiled_products(lambda lines: table[lines], vector, n,
                                 arrays, workers)
            assert np.array_equal(got, want), (n, workers)


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
