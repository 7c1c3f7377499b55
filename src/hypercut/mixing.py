"""Desk-scale mixing experiments on the congruence quotients: total
variation profiles of the fixed-step walk, transition location and width,
distance histograms against the ball-volume floor, median concentration of
distances, and the dilation inequality check.

The measurable partition lives in (x, u = 1/y) coordinates on the standard
fundamental domain, where the invariant measure is Lebesgue, so every cell
measure has a closed form through asin.  A cell of the quotient is a
(sheet, base-cell) pair.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigError, ResolutionError
from .geometry import ball_volume, sphere_step_arrays
from .modular import (U_TOP, QuotientPoint, check_cusp_cap, check_level,
                      check_sampled_bound, injectivity_radius, modq_context,
                      psl2q_order, quotient_distances_from, quotient_R,
                      quotient_volume, reduce_points_arrays,
                      sample_uniform_quotient)
from .quadrature import map_blocks, spans
from .walks import log_linear_fit, stream

TV_BLOCK = 1 << 16
# each block steps, reduces and bins its walkers this many at a time, so
# the step's temporaries stay in cache
TV_SLICE = 1 << 14
# tv_profile keeps every walker's x, y and sheet (24 bytes) for the whole walk
TV_WALKER_BYTES = 24
# cap on all tv_profile may hold at once (see _tv_held_bytes)
TV_STATE_CAP_BYTES = 1 << 30
# bootstrap resamples per multinomial call; bounds the bootstrap's memory
BOOT_ROWS = 32
EPS_GRID = (1.9, 1.5, 1.0, 0.5, 0.1)
# rows of cells in the strip above the cusp cap
CUSP_ROWS = 4
# the fewest samples a tail of concentration_fit may rest on
CONCENTRATION_MIN_COUNT = 10
# the smallest injectivity radius a start point may have
R0_FLOOR = 0.1
# height cap of the cell partitions and of distance_histogram's samples
CUSP_CAP = 10.0
# height cap of isoperimetric_check's uniform samples
ISOPERIMETRY_CUSP_CAP = 30.0
# the exponents gamma of distance_histogram's tail thresholds
# R_X +- gamma ln R_X
GAMMAS = (0.5, 1.0, 2.0)


def _clip_primitive(x, u_lo: float, u_hi: float):
    """Odd primitive P with P' (x) = (min(u_hi, h(x)) - u_lo)^+ on x >= 0."""
    x = np.asarray(x, dtype=float)
    sign = np.sign(x)
    ax = np.minimum(np.abs(x), 0.5)
    xa = 0.0 if u_lo <= 1.0 else math.sqrt(1.0 - u_lo ** -2)
    xb = 0.0 if u_hi <= 1.0 else math.sqrt(1.0 - u_hi ** -2)
    mid_hi = np.clip(ax, xa, xb)
    out = (np.arcsin(mid_hi) - math.asin(xa)) - u_lo * (mid_hi - xa)
    out += (u_hi - u_lo) * np.maximum(ax - xb, 0.0)
    return sign * out


def _edge_bins(edges, v) -> np.ndarray:
    """clip(searchsorted(edges, v, "right") - 1, 0, len(edges) - 2) for
    sorted edges, ±inf and NaN included: the number of interior edges,
    less those above v.  For the few dozen edges of a default partition,
    counting in the narrowest integer that holds the count beats the
    search 3-11 times."""
    v = np.asarray(v)
    above = np.zeros(v.shape, dtype=np.min_scalar_type(len(edges)))
    for e in edges[1:-1]:
        above += (v < e).view(np.uint8)
    return (len(edges) - 2) - above.astype(np.intp)


@dataclass
class CellPartition:
    """Rectangular (x, u) cells clipped to the fundamental domain, with
    exact per-cell measures, replicated over the cover-group sheets.

    The u-grid is split at 1/cusp_cap: the strip u < 1/cusp_cap (points
    higher than the cap) gets its own coarser cells, so the partition still
    covers the whole surface while the capped part sums to pi/3 - 1/Y."""

    q: int
    x_edges: np.ndarray
    u_edges: np.ndarray
    base_measures: np.ndarray = field(init=False)
    n_sheets: int = field(init=False)

    def __post_init__(self):
        self.n_sheets = psl2q_order(self.q)
        self.base_measures = np.concatenate([
            np.diff(_clip_primitive(self.x_edges, u_lo, u_hi))
            for u_lo, u_hi in zip(self.u_edges[:-1], self.u_edges[1:])])

    @classmethod
    def build(cls, q: int, nx: int, nu: int,
              cusp_cap: float = CUSP_CAP) -> "CellPartition":
        check_cusp_cap(cusp_cap)
        x_edges = np.linspace(-0.5, 0.5, nx + 1)
        u_edges = np.concatenate([
            np.linspace(0.0, 1.0 / cusp_cap, CUSP_ROWS + 1),
            np.linspace(1.0 / cusp_cap, U_TOP, nu + 1)[1:],
        ])
        return cls(q, x_edges, u_edges)

    @property
    def n_base(self) -> int:
        return len(self.base_measures)

    @property
    def n_cells(self) -> int:
        return self.n_base * self.n_sheets

    def cell_probabilities(self) -> np.ndarray:
        pi_base = self.base_measures / quotient_volume(self.q)
        return np.tile(pi_base, self.n_sheets)

    def max_cell_fraction(self) -> float:
        return float(self.base_measures.max()) / quotient_volume(self.q)

    def base_cells_of(self, x, u) -> np.ndarray:
        return (_edge_bins(self.u_edges, u) * (len(self.x_edges) - 1)
                + _edge_bins(self.x_edges, x))

    def cells_of(self, x, y, sheet_ids) -> np.ndarray:
        return sheet_ids * self.n_base + self.base_cells_of(x, 1.0 / np.asarray(y))


def default_partition(q: int, cusp_cap: float = CUSP_CAP) -> CellPartition:
    """Cells sized just under the resolution floor mu(X)/1000: fine enough
    for the precondition, as coarse as allowed so the plug-in bias stays
    comparable across levels."""
    side = math.sqrt(0.8 * quotient_volume(q) / 1000.0)
    nx = max(3, int(math.ceil(1.0 / side)))
    nu = max(3, int(math.ceil(U_TOP / side)))
    return CellPartition.build(q, nx, nu, cusp_cap)


@dataclass
class TVProfile:
    """Estimated L1 distance to uniform along the walk."""

    ks: np.ndarray
    tv: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    n_cells: int
    starved_cells: int
    bias_note: float


def _walk_histograms(x0: QuotientPoint, r1, k_max, n_walkers, partition,
                     seed, workers, emit):
    """Advance every walker block one step at a time, on ``workers``
    block threads, and pass each step 0..k_max its cell counts, summed
    over blocks, to ``emit`` as soon as that step ends.  Block b draws
    from stream(seed, 2, b) in step order, so the counts do not depend on
    ``workers``."""
    ctx = modq_context(x0.q)
    start_sheet = int(ctx.labels(*x0.sheet.key()))
    n_cells = partition.n_cells
    states = []
    for b, walkers in enumerate(spans(n_walkers, TV_BLOCK)):
        m = walkers.stop - walkers.start
        states.append((stream(seed, tag=2, block=b), np.full(m, x0.base.x),
                       np.full(m, x0.base.y),
                       np.full(m, start_sheet, dtype=np.int64)))

    def advance(b, step):
        """Take block b to ``step`` (step 0 stays put), TV_SLICE walkers
        at a time, and return the block's cell counts.  The slices' theta
        draws come out of the block's stream as one draw of the whole
        block would."""
        rng, x, y, sheets = states[b]
        counts = np.zeros(n_cells, dtype=np.int64)
        for s in spans(x.size, TV_SLICE):
            if step:
                theta = rng.uniform(0.0, math.pi, x[s].size)
                xs, ys = sphere_step_arrays(x[s], y[s], r1, theta)
                x[s], y[s], sheets[s] = reduce_points_arrays(xs, ys,
                                                             sheets[s], ctx)
            counts += np.bincount(partition.cells_of(x[s], y[s], sheets[s]),
                                  minlength=n_cells)
        return counts

    for step in range(k_max + 1):
        emit(np.sum(map_blocks(lambda b: advance(b, step),
                               range(len(states)), workers), axis=0))


def _check_start(x0: QuotientPoint):
    """The start point's certified injectivity radius on its own quotient
    X_{x0.q} (finite at every level); a point whose radius is below
    R0_FLOOR is refused."""
    inj = injectivity_radius(x0)
    if inj < R0_FLOOR:
        raise ConfigError(
            f"start point has injectivity radius {inj:.3g} < {R0_FLOOR}")
    return inj


def _tv_held_bytes(n_walkers: int, k_max: int,
                   partition: CellPartition) -> int:
    """Upper bound on what tv_profile holds at once: every walker's state;
    the walk's int64 T-power table, q rows of one entry per sheet; one
    step's int64 histograms, one accumulating per block with at most one
    slice's counts beside it, and then their stacked sum; the histograms of
    steps 0..k_max, which may all wait for the bootstrap; the cell
    probabilities and the bootstrap's p_hat; and one bootstrap chunk of
    BOOT_ROWS resamples, drawn as int64 and scaled in one reused float64
    buffer.  The walker's per-slice temporaries, a fixed size per worker
    thread, are not counted."""
    n_blocks = -(-n_walkers // TV_BLOCK)
    return (n_walkers * TV_WALKER_BYTES
            + 8 * partition.q * partition.n_sheets
            + 8 * partition.n_cells
            * (2 * n_blocks + k_max + 1 + 2 * BOOT_ROWS + 2))


def tv_profile(x0: QuotientPoint, r1: float, k_max: int, n_walkers: int,
               partition: CellPartition | None = None, seed: int = 0,
               workers: int = 1, n_boot: int = 200) -> TVProfile:
    """Plug-in estimate of || walk law at step k - uniform ||_1 on the
    quotient X_q that x0 lies on, for k = 0..k_max, with a walker
    bootstrap CI per step.

    The walk runs on ``workers`` block threads, and the bootstrap of each
    step on one extra thread while the walk goes on.  Its stream
    stream(seed, 3) is drawn in step order, so the result does not depend
    on ``workers``.

    Preconditions enforced, in this order: the partition is of the start
    point's level q; q is a level the walk's cover group is built for, and
    all tv_profile holds (see _tv_held_bytes) fits in TV_STATE_CAP_BYTES,
    both checked before any group table or enumeration is built; the
    start point has injectivity radius at least R0_FLOOR; and no cell
    exceeds mu(X)/1000.
    """
    if n_walkers < 1 or n_boot < 1:
        raise ConfigError("need n_walkers >= 1 and n_boot >= 1")
    if k_max < 0:
        raise ConfigError(f"need k_max >= 0, not {k_max}")
    if partition is None:
        partition = default_partition(x0.q)
    if partition.q != x0.q:
        raise ConfigError(f"partition covers X_{partition.q}, not X_{x0.q}")
    check_level(x0.q)
    held = _tv_held_bytes(n_walkers, k_max, partition)
    if held > TV_STATE_CAP_BYTES:
        raise CapacityError(
            f"{n_walkers} walkers, {k_max + 1} steps and {partition.n_cells}"
            f" cells at level {x0.q} need {held} bytes, over the cap of"
            f" {TV_STATE_CAP_BYTES}")
    _check_start(x0)
    if partition.max_cell_fraction() > 1.0 / 1000.0 + 1e-12:
        raise ResolutionError("partition has a cell above mu(X)/1000")
    pi = partition.cell_probabilities()
    n = n_walkers
    boot_rng = stream(seed, tag=3)

    # one bootstrap runs at a time, so its resamples share one buffer
    scaled = np.empty((min(BOOT_ROWS, n_boot), pi.size))

    def bootstrap(counts):
        # the rows of chunked draws come out of the stream exactly as from
        # one size=n_boot draw
        p_hat = counts / n
        tv_boot = np.empty(n_boot)
        for rows in spans(n_boot, BOOT_ROWS):
            buf = scaled[:rows.stop - rows.start]
            np.divide(boot_rng.multinomial(n, p_hat, size=len(buf)), n,
                      out=buf)
            np.subtract(buf, pi, out=buf)
            np.abs(buf, out=buf)
            np.sum(buf, axis=1, out=tv_boot[rows])
        lo, hi = np.percentile(tv_boot, [2.5, 97.5])
        return np.abs(p_hat - pi).sum(), lo, hi

    pool = ThreadPoolExecutor(max_workers=1)
    futures = []

    try:
        _walk_histograms(
            x0, r1, k_max, n_walkers, partition, seed, workers,
            lambda counts: futures.append(pool.submit(bootstrap, counts)))
        rows = [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)
    tv, lo, hi = np.array(rows, dtype=float).T
    expected = n * pi
    starved = int(np.count_nonzero((expected < 5.0) & (pi > 0)))
    bias = float(np.sum(np.sqrt(2.0 * pi * (1.0 - pi) / (math.pi * n))))
    return TVProfile(np.arange(k_max + 1), tv, lo, hi, partition.n_cells,
                     starved, bias)


def cutoff_locator(times, tvs, time_scale: float, R_X: float) -> dict:
    """Crossing times t(eps) of a TV profile, plus the normalized transition
    location t(1.0) * scale / R_X and width (t(0.1) - t(1.9)) * scale / sqrt(R_X).

    ``times`` may be discrete step counts or continuous times;
    ``time_scale`` converts one unit into geometric distance (the per-step
    drift for the discrete walk, 1.0 for continuous profiles).
    """
    times = np.asarray(times, dtype=float)
    tvs = np.asarray(tvs, dtype=float)
    crossing = {}
    for eps in EPS_GRID:
        below = np.nonzero(tvs < eps)[0]
        if below.size == 0:
            raise ValueError(
                f"profile never drops below eps={eps}: not bracketed")
        j = below[0]
        if j == 0:
            crossing[eps] = float(times[0])
            continue
        t0, t1 = times[j - 1], times[j]
        v0, v1 = tvs[j - 1], tvs[j]
        frac = (v0 - eps) / (v0 - v1) if v1 < v0 else 1.0
        crossing[eps] = float(t0 + frac * (t1 - t0))
    width = crossing[0.1] - crossing[1.9]
    return {
        "t_eps": crossing,
        "location_normalized": crossing[1.0] * time_scale / R_X,
        "width_normalized": width * time_scale / math.sqrt(R_X),
        "width_to_location": width / crossing[1.0] if crossing[1.0] > 0
        else math.inf,
    }


def distance_histogram(x0: QuotientPoint, n_samples: int, r_max: float,
                       seed: int = 0, cusp_cap: float = CUSP_CAP) -> dict:
    """Empirical law of the distance from x0 to a uniform sample of its
    quotient X_q.

    Reports, per gamma of GAMMAS, the mass below R_X - gamma ln R_X scaled by
    R_X^gamma (the ball-volume floor needs no spectral input), the mass
    beyond R_X + gamma ln R_X, and a small-radius volume comparison.
    Samples farther than r_max are counted as right-tail overflow.
    """
    if n_samples < 1:
        raise ConfigError(f"need n_samples >= 1, not {n_samples}")
    q = x0.q
    R = quotient_R(q)
    if r_max < R + 3.0 * math.log(R):
        raise ConfigError("r_max below R_X + 3 ln R_X cannot resolve the tail")
    check_sampled_bound(x0, r_max, cusp_cap)
    inj = _check_start(x0)
    rng = stream(seed, tag=4)
    (xs, ys, sheets), trunc = sample_uniform_quotient(q, cusp_cap, rng,
                                                      n_samples)
    dists = quotient_distances_from(x0, xs, ys, sheets, r_max)
    finite = dists[np.isfinite(dists)]
    n_exceed = int(n_samples - finite.size)
    vol = quotient_volume(q)
    # Samples live on the truncated surface; a count-based fraction times
    # (1 - trunc) is the mu-fraction, exact for thresholds below the
    # distance to the cusp cap (~ln Y - 1), where the excluded mass cannot
    # contribute.
    correction = 1.0 - trunc
    lower, upper = {}, {}
    for g in GAMMAS:
        thr_lo = R - g * math.log(R)
        frac_lo = float((finite < thr_lo).sum() / n_samples) * correction
        lower[g] = {"threshold": thr_lo, "fraction": frac_lo,
                    "scaled": frac_lo * R ** g}
        thr_hi = R + g * math.log(R)
        if thr_hi <= r_max:
            n_hi = int((finite > thr_hi).sum()) + n_exceed
            upper[g] = {"threshold": thr_hi,
                        "fraction": n_hi / n_samples * correction,
                        "cusp_mass_unresolved": trunc}
    r_grid = np.linspace(0.4, min(1.8, r_max), 8)
    volume_rows = [{"r": float(r),
                    "fraction": float((finite < r).sum() / n_samples)
                    * correction,
                    "ball_fraction": ball_volume(float(r)) / vol}
                   for r in r_grid]
    return {"q": q, "R_X": R, "distances": finite, "n_exceed": n_exceed,
            "n_samples": n_samples, "truncated_fraction": trunc,
            "injectivity_radius": inj, "lower_tail": lower,
            "upper_tail": upper, "volume_comparison": volume_rows,
            "r_max": r_max}


@dataclass(frozen=True)
class ConcentrationReport:
    r_med: float
    a: float
    slope: float
    r2: float
    window_80: float
    inconclusive: bool


def concentration_fit(distances, n_exceed: int = 0,
                      exceed_floor: float | None = None) -> ConcentrationReport:
    """Fit the two-sided tail mass around the empirical median to a
    geometric law a^{-gamma}.

    Overflow samples (distance known only to exceed ``exceed_floor``) join
    every tail they certainly belong to; the gamma grid is capped so no
    tail is ambiguous.  R^2 below 0.7 is reported as inconclusive.
    """
    d = np.sort(np.asarray(distances, dtype=float))
    n = d.size + n_exceed
    if n < 10_000:
        raise ConfigError("concentration fit needs at least 1e4 samples")
    if d.size < 2 or d[0] == d[-1]:
        raise ConfigError("degenerate sample: no spread to fit")
    if n_exceed > 0 and exceed_floor is None:
        raise ConfigError("overflow samples need their floor value")
    # median including overflow mass on the right
    mid = (n - 1) / 2.0
    r_med = float(np.interp(mid, np.arange(d.size), d)) \
        if mid < d.size - 1 else float(d[-1])
    g_hi = 0.9 * (d[-1] - r_med) if n_exceed == 0 \
        else 0.9 * min(exceed_floor - r_med, r_med)
    gamma_grid = np.linspace(0.2, max(g_hi, 0.4), 10)
    tails = np.array([(np.sum(np.abs(d - r_med) >= g) + n_exceed) / n
                      for g in gamma_grid])
    keep = tails * n >= CONCENTRATION_MIN_COUNT
    if keep.sum() < 3:
        raise ConfigError("tail counts too small to fit")
    slope, r2 = log_linear_fit(gamma_grid[keep], np.log(tails[keep]))
    # overflow samples count at their floor, which no finite sample exceeds
    q10, q90 = np.quantile(np.append(d, [exceed_floor] * n_exceed), [0.1, 0.9])
    return ConcentrationReport(
        r_med=r_med, a=math.exp(-slope), slope=slope, r2=r2,
        window_80=float(q90 - q10),
        inconclusive=bool(r2 < 0.7))


def kappa(r: float, p: float) -> float:
    """The dilation constant (r + 1)^2 e^{-2r/p}."""
    return (r + 1.0) ** 2 * math.exp(-2.0 * r / p)


def isoperimetric_check(center: QuotientPoint, r0: float, r: float, p: float,
                        n_mc: int, seed: int = 0) -> dict:
    """Monte-Carlo check of mu(Y_r)/mu(X) >= c / (kappa_{r,p} (1-c) + c)
    on the quotient X_q that ``center`` lies on.

    Y is the ball of radius r0 about ``center``, whose dilated set is the
    exact ball of radius r0 + r.  ``p`` must be a certified upper bound for
    the surface's integrability exponent, so at least 2.  The center is
    checked as tv_profile checks its start, and r0 above its injectivity
    radius is refused, so the seed ball embeds.  The dilation r has no cap
    of its own: a query radius r0 + r that check_sampled_bound refuses is
    refused with CapacityError before the center's enumeration is built or
    any sample is drawn.
    """
    if not (r0 > 0.0 and r >= 0.0 and p >= 2.0 and n_mc >= 1):
        raise ConfigError(f"need r0 > 0, r >= 0, p >= 2 and n_mc >= 1, "
                          f"not {r0}, {r}, {p} and {n_mc}")
    check_sampled_bound(center, r0 + r, ISOPERIMETRY_CUSP_CAP)
    if r0 > _check_start(center):
        raise ConfigError("seed ball exceeds the injectivity radius")
    q = center.q
    vol = quotient_volume(q)
    rng = stream(seed, tag=5)
    (xs, ys, sheets), trunc = sample_uniform_quotient(
        q, ISOPERIMETRY_CUSP_CAP, rng, n_mc)
    c = ball_volume(r0) / vol
    dists = quotient_distances_from(center, xs, ys, sheets, r0 + r)
    hits = dists <= r0 + r
    c_prime = float(hits.mean()) * (1.0 - trunc)
    ci = 3.0 * math.sqrt(max(c_prime * (1.0 - c_prime), 1e-12) / n_mc)
    bound = c / (kappa(r, p) * (1.0 - c) + c)
    passes = c_prime >= bound - ci
    inconclusive = abs(c_prime - bound) <= ci
    return {"c": c, "c_prime": c_prime, "bound": bound,
            "kappa": kappa(r, p), "ci": ci, "passes": bool(passes),
            "inconclusive": bool(inconclusive),
            "truncated_fraction": trunc}

