import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hypercut
from hypercut.cli import main
from hypercut.errors import ResolutionError
from hypercut.radial import (RadialGrid, RadialMeasure, _step_cdf_sum,
                             convolve_step, default_grid)
from hypercut.spectral import (heat_radial_density, radial_mixture,
                               two_step_cdf)
from oracles import convolve, step_kernel_cdf, sup_cdf_gap


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        RadialGrid(0.0, 1.0, 0)
    g = RadialGrid(0.0, 2.0, 4)
    assert np.allclose(g.edges, [0, 0.5, 1.0, 1.5, 2.0])
    assert g.width == 0.5


def test_default_grid_resolution():
    g = default_grid(5.0)
    assert g.width == pytest.approx(1e-3, rel=1e-6)
    g = default_grid(50.0)
    assert g.width == pytest.approx(5e-3, rel=1e-6)


def test_measure_validation_and_mass():
    g = RadialGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        RadialMeasure(g, np.array([1.0, -0.5, 0.0, 0.0]))
    m = RadialMeasure(g, np.array([0.1, 0.2, 0.3, 0.4]))
    assert m.total_mass() == pytest.approx(1.0)
    assert np.allclose(m.density, [0.4, 0.8, 1.2, 1.6])


def test_from_cdf_and_defect():
    g = RadialGrid(0.0, 2.0, 1000)
    m = RadialMeasure.from_cdf(g, lambda r: np.clip(r / 2.0, 0, 1))
    assert abs(m.total_mass() - 1.0) <= 1e-12
    with pytest.raises(ResolutionError):
        RadialMeasure.from_cdf(RadialGrid(0.0, 1.0, 10),
                               lambda r: np.clip(r / 2.0, 0, 1))


def test_from_csv_reads_cli_output(tmp_path):
    # the CLI's CSV starts with '# key = value' header lines
    assert main(["mixture", "--k", "3", "--workers", "1",
                 "--out", str(tmp_path)]) == 0
    back = RadialMeasure.from_csv(tmp_path / "mixture.csv")
    m = radial_mixture(3, 1.0)
    assert back.grid.n_cells == m.grid.n_cells
    assert np.allclose(back.density, m.density, rtol=1e-12, atol=0.0)


def test_step_kernel_cdf_is_law_of_cosines():
    # endpoints: distance from radius a by step b spans [|a-b|, a+b]
    assert step_kernel_cdf(abs(1.5 - 0.7) - 1e-9, 1.5, 0.7) == 0.0
    assert step_kernel_cdf(1.5 + 0.7 + 1e-9, 1.5, 0.7) == pytest.approx(1.0)
    # midpoint value against a direct angle computation
    r_new = 1.8
    cosw = (math.cosh(1.5) * math.cosh(0.7) - math.cosh(r_new)) \
        / (math.sinh(1.5) * math.sinh(0.7))
    assert step_kernel_cdf(r_new, 1.5, 0.7) == pytest.approx(
        math.acos(cosw) / math.pi, abs=1e-14)


def test_step_kernel_degenerate_radius():
    # stepping from the origin is a deterministic jump to radius b
    assert step_kernel_cdf(0.69, 0.0, 0.7) == 0.0
    assert step_kernel_cdf(0.71, 0.0, 0.7) == pytest.approx(1.0)


def test_convolve_step_mass_and_support():
    grid = RadialGrid(0.0, 1.0, 500)
    m = RadialMeasure.from_cdf(grid, lambda r: np.clip(r, 0, 1))
    out = convolve_step(m, 0.5, default_grid(1.5))
    assert out.total_mass() == pytest.approx(1.0, abs=1e-9)
    assert out.grid.r_max >= 1.5 - 1e-12
    # all mass inside the reachable interval
    cdf = out.cdf_at_edges()
    assert np.interp(1.5, out.grid.edges, cdf) == pytest.approx(1.0, abs=1e-9)


def test_convolve_matches_fixed_step_on_atom_like_measure():
    # a measure concentrated near r = 0.8 convolved with m equals the
    # fixed-step convolution with r1 = 0.8 up to the cell width
    grid = RadialGrid(0.0, 1.0, 400)
    m = RadialMeasure.from_cdf(grid, lambda r: np.clip(r, 0, 1))
    atom_grid = RadialGrid(0.0, 1.6, 3200)
    masses = np.zeros(3200)
    masses[np.searchsorted(atom_grid.centers, 0.8)] = 1.0
    atom = RadialMeasure(atom_grid, masses)
    via_pair = convolve(m, atom)
    r_step = float(atom_grid.centers[np.searchsorted(atom_grid.centers, 0.8)])
    via_step = convolve_step(m, r_step, default_grid(1.0 + r_step))
    assert sup_cdf_gap(via_pair, via_step) <= 2e-3


def test_sup_cdf_gap_metric():
    g = RadialGrid(0.0, 1.0, 100)
    a = RadialMeasure.from_cdf(g, lambda r: np.clip(r, 0, 1))
    assert sup_cdf_gap(a, a) == 0.0


# Reference copies of the kernel and of convolve_step as whole-block array
# expressions, before the tiled evaluation.  The tiled path must give the
# same bits as they give on one BLAS thread.  The kernel is elementwise, so
# filling one reused block buffer about KERNEL_CELLS entries at a time gives
# the same block while its temporaries stay small; each block still reduces
# by one product.
KERNEL_CELLS = 1 << 20


def reference_step_kernel_cdf(r_new, r_old, r_step):
    r_new = np.asarray(r_new, dtype=float)
    r_old = np.asarray(r_old, dtype=float)
    den = np.sinh(r_old) * np.sinh(r_step)
    num = np.cosh(r_old) * math.cosh(r_step) - np.cosh(r_new)
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0),
                       np.where(num > 0.0, 2.0, -2.0))
    return np.arccos(np.clip(arg, -1.0, 1.0)) / math.pi


def reference_step_cdf_sum(masses, centers, r_step, edges):
    cdf = np.zeros_like(edges)
    block = max(1, 20_000_000 // max(len(edges), 1))
    step = max(1, KERNEL_CELLS // len(edges))
    k = np.empty((min(block, len(centers)), len(edges)))
    for lo in range(0, len(centers), block):
        rows = centers[lo:lo + block]
        for i in range(0, len(rows), step):
            sub = rows[i:i + step]
            k[i:i + len(sub)] = reference_step_kernel_cdf(
                edges[None, :], sub[:, None], r_step)
        cdf += masses[lo:lo + block] @ k[:len(rows)]
    return cdf


def reference_convolve_step(measure, r_step, out_grid=None):
    if out_grid is None:
        out_grid = default_grid(measure.grid.r_max + r_step)
    cdf = reference_step_cdf_sum(measure.masses, measure.grid.centers,
                                 r_step, out_grid.edges)
    total = measure.total_mass()
    if total > 0:
        cdf /= total
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
    return RadialMeasure(out_grid, np.diff(cdf) * total)


def reference_mixture_masses(k_max, r1):
    """Masses of the k-step radial laws, k = 3..k_max, built on the default
    grids as radial_mixture builds them, with reference_convolve_step."""
    measure = RadialMeasure.from_cdf(default_grid(2.0 * r1),
                                     lambda r: two_step_cdf(r, r1))
    laws = {}
    for j in range(3, k_max + 1):
        measure = reference_convolve_step(measure, r1, default_grid(j * r1))
        laws[j] = measure.masses
    return laws


def block_case(r_step):
    """A measure on 7999 cells and an out-grid of 5001 edges: blocks of 3999
    rows, so two full blocks and a one-row partial block."""
    m = RadialMeasure.from_cdf(RadialGrid(0.0, 2.0, 7999),
                               lambda r: (r / 2.0) ** 2)
    return m, RadialGrid(0.0, 2.0 + r_step, 5000)


# Band edges of the tiled step sum: (cells, r_step, out-grid) with random
# masses.  The edge counts are 1024, 1025, 1026 and 1027 (each remainder
# mod 4), 3, and 20001, whose 999-row blocks leave one row of 1000 cells.
BAND_CASES = {
    "r_step_0": (RadialGrid(0.0, 3.0, 600), 0.0, RadialGrid(0.0, 3.0, 1023)),
    "r_step_1e-6": (RadialGrid(0.0, 3.0, 600), 1e-6,
                    RadialGrid(0.0, 3.0, 1024)),
    "first_center_5e-4": (RadialGrid(0.0, 1.0, 1000), 0.3,
                          RadialGrid(0.0, 1.3, 1025)),
    "out_grid_to_20": (RadialGrid(0.0, 19.0, 1900), 1.0,
                       RadialGrid(0.0, 20.0, 1026)),
    "three_edges": (RadialGrid(0.0, 2.0, 500), 0.5, RadialGrid(0.0, 2.5, 2)),
    "one_row_last_block": (RadialGrid(0.0, 3.0, 1000), 0.7,
                           RadialGrid(0.0, 3.7, 20000)),
}
BLOCK_STEPS = (0.0, 0.6)
MIXTURE_STEPS = (0.3, 1.0, 2.5)


def band_case(name):
    cells, r_step, out_grid = BAND_CASES[name]
    masses = np.random.default_rng(cells.n_cells).uniform(0.0, 1.0,
                                                           cells.n_cells)
    return masses, cells.centers, r_step, out_grid.edges


REFERENCE_CHILD = """
import sys
import numpy as np
import test_radial as tr
out = {}
for r_step in tr.BLOCK_STEPS:
    m, grid = tr.block_case(r_step)
    out[f"block{r_step!r}"] = tr.reference_convolve_step(m, r_step,
                                                         grid).masses
for r1 in tr.MIXTURE_STEPS:
    for k, masses in tr.reference_mixture_masses(6, r1).items():
        out[f"mixture{r1!r}_{k}"] = masses
for name in tr.BAND_CASES:
    out[f"band_{name}"] = tr.reference_step_cdf_sum(*tr.band_case(name))
np.savez(sys.argv[1], **out)
"""


@pytest.fixture(scope="module")
def reference_sums(tmp_path_factory):
    """The reference step sums, computed in a child process with one BLAS
    thread.  The reference's whole-block products are split across BLAS
    threads, which changes how they round; the tiled sums must match the
    one-thread reference at any BLAS thread count."""
    path = tmp_path_factory.mktemp("radial") / "reference.npz"
    src = os.path.dirname(os.path.dirname(hypercut.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    subprocess.run([sys.executable, "-c", REFERENCE_CHILD, str(path)],
                   env=env, check=True)
    with np.load(path) as data:
        return dict(data)


@pytest.mark.parametrize("r_step", [0.0, 0.7])
def test_step_kernel_cdf_matches_reference(r_step):
    # includes r_old = 0 and r_step = 0, where the kernel is a step function
    r_new = np.linspace(0.0, 4.0, 301)[None, :]
    r_old = np.linspace(0.0, 3.0, 97)[:, None]
    assert np.array_equal(step_kernel_cdf(r_new, r_old, r_step),
                          reference_step_kernel_cdf(r_new, r_old, r_step))
    for a, b in ((0.69, 0.0), (1.8, 1.5), (0.1, 2.0)):
        got = step_kernel_cdf(a, b, r_step)
        assert np.ndim(got) == 0
        assert got == reference_step_kernel_cdf(a, b, r_step)


@pytest.mark.parametrize("r_step", BLOCK_STEPS)
def test_convolve_step_matches_reference_across_blocks(reference_sums,
                                                       r_step):
    m, out_grid = block_case(r_step)
    assert 20_000_000 // len(out_grid.edges) == 3999
    want = reference_sums[f"block{r_step!r}"]
    for workers in (1, 2, 3):
        got = convolve_step(m, r_step, out_grid, workers)
        assert np.array_equal(got.masses, want), workers


@pytest.mark.parametrize("name", BAND_CASES)
def test_step_sum_matches_reference_at_band_edges(reference_sums, name):
    masses, centers, r_step, edges = band_case(name)
    want = reference_sums[f"band_{name}"]
    for workers in (1, 2):
        got = _step_cdf_sum(masses, centers, r_step, edges, workers)
        assert np.array_equal(got, want), workers


@pytest.mark.parametrize("r1", MIXTURE_STEPS)
def test_radial_mixture_matches_reference(reference_sums, r1):
    for k in range(3, 7):
        assert np.array_equal(radial_mixture(k, r1).masses,
                              reference_sums[f"mixture{r1!r}_{k}"])


def test_radial_mixture_same_at_any_worker_count():
    want = radial_mixture(6, 1.0).masses
    for workers in (2, 3):
        assert np.array_equal(radial_mixture(6, 1.0, workers=workers).masses,
                              want), workers


# Reference copy of convolve as it was before it summed fixed-length steps:
# the whole (cells2, cells1, edges) kernel tensor, chunked over m2's cells
# and reduced by einsum.  The step sums round differently, so the masses
# agree to rounding rather than in every bit.
def reference_convolve(m1, m2, out_grid=None, chunk=64):
    if out_grid is None:
        out_grid = default_grid(m1.grid.r_max + m2.grid.r_max)
    edges = out_grid.edges
    nz1 = m1.masses > 0.0
    nz2 = m2.masses > 0.0
    c1, w1 = m1.grid.centers[nz1], m1.masses[nz1]
    c2, w2 = m2.grid.centers[nz2], m2.masses[nz2]
    cdf = np.zeros_like(edges)
    for lo in range(0, len(c2), chunk):
        sl = slice(lo, lo + chunk)
        den = np.sinh(c1)[None, :, None] * np.sinh(c2[sl])[:, None, None]
        num = (np.cosh(c1)[None, :, None] * np.cosh(c2[sl])[:, None, None]
               - np.cosh(edges)[None, None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            arg = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0),
                           np.where(num > 0.0, 2.0, -2.0))
        k = np.arccos(np.clip(arg, -1.0, 1.0)) / math.pi
        cdf += np.einsum("j,ije,i->e", w1, k, w2[sl])
    total = m1.total_mass() * m2.total_mass()
    if total > 0:
        cdf /= total
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
    return RadialMeasure(out_grid, np.diff(cdf) * total)


# The two shapes below are those of tests/test_spectral.py's semigroup and
# 2+2-step checks at a third and a half of their cell counts, which keeps the
# reference tensor cheap.
def test_convolve_matches_reference_on_semigroup_shape():
    # the time-1 heat law with itself
    grid = RadialGrid(0.0, 34.0, 200)
    half = heat_radial_density(1.0, RadialGrid(0.0, 17.0, 200))
    got = convolve(half, half, grid)
    assert np.max(np.abs(got.masses
                         - reference_convolve(half, half, grid).masses)) \
        <= 1e-10


def test_convolve_matches_reference_on_two_plus_two_steps():
    # the 2-step law with itself, a zero-mass tail past 2 r1 = 1.6 included
    m2 = RadialMeasure.from_cdf(RadialGrid(0.0, 2.0, 200),
                                lambda r: two_step_cdf(r, 0.8))
    assert np.count_nonzero(m2.masses == 0.0) > 0
    grid = RadialGrid(0.0, 4.0, 400)
    got = convolve(m2, m2, grid)
    assert np.max(np.abs(got.masses
                         - reference_convolve(m2, m2, grid).masses)) <= 1e-10
