import math
import sys
import threading

import numpy as np
import pytest

from hypercut import mixing
from hypercut.errors import CapacityError, ConfigError, ResolutionError
from hypercut.geometry import PointH, ball_volume, sphere_step_arrays
from hypercut.mixing import (CellPartition, ConcentrationReport,
                             concentration_fit, cutoff_locator,
                             default_partition, distance_histogram,
                             isoperimetric_check, kappa, tv_profile)
from hypercut.modular import (CosetModQ, QuotientPoint, modq_context,
                              psl2q_order, quotient_R, quotient_volume)
from hypercut.spectral import clt_constants
from hypercut.torus import TorusConfig, torus_l1
from hypercut.walks import stream
from test_modular import reference_reduce_points_arrays

MOD_AREA = math.pi / 3.0


def origin(q):
    return QuotientPoint(PointH(0.0, 1.0), CosetModQ.identity(q))


def reference_base_cells_of(partition, x, u):
    """CellPartition.base_cells_of as first written, through searchsorted;
    kept frozen as its reference."""
    ix = np.clip(np.searchsorted(partition.x_edges, x, "right") - 1,
                 0, len(partition.x_edges) - 2)
    iu = np.clip(np.searchsorted(partition.u_edges, u, "right") - 1,
                 0, len(partition.u_edges) - 2)
    return iu * (len(partition.x_edges) - 1) + ix


def reference_cells_of(partition, x, y, sheets):
    return sheets * partition.n_base + reference_base_cells_of(
        partition, x, 1.0 / np.asarray(y))


def edge_probes(edges, rng):
    """Every edge, one ulp either side of it, points outside the range,
    signed zeros, ±inf, NaN and uniform points across the range."""
    lo, hi = edges[0], edges[-1]
    return np.concatenate([
        edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
        [lo - 1.0, hi + 1.0, -1e300, 1e300, 0.0, -0.0, np.inf, -np.inf,
         np.nan], rng.uniform(lo - 0.1, hi + 0.1, 500)])


class TestCellPartition:
    @pytest.mark.parametrize("q,nx,nu", [(1, 6, 8), (2, 14, 16), (3, 9, 11)])
    def test_measures_sum_exactly(self, q, nx, nu):
        part = CellPartition.build(q, nx, nu)
        assert part.base_measures.sum() == pytest.approx(MOD_AREA, abs=1e-12)
        assert np.all(part.base_measures >= -1e-15)

    def test_capped_total_matches_tail_formula(self):
        # the cells below the cusp cap hold all but the 1/Y of the strip
        # above it, on every sheet
        part = CellPartition.build(3, 9, 11, cusp_cap=10.0)
        below_cap = np.repeat(part.u_edges[:-1] >= 1.0 / 10.0 - 1e-12, 9)
        expected = part.n_sheets * (MOD_AREA - 1.0 / 10.0)
        assert part.n_sheets * part.base_measures[below_cap].sum() == \
            pytest.approx(expected, abs=1e-9)

    def test_probabilities_normalized(self):
        part = default_partition(2)
        assert part.cell_probabilities().sum() == pytest.approx(1.0,
                                                                abs=1e-12)

    def test_resolution_floor(self):
        for q in (2, 3, 5):
            assert default_partition(q).max_cell_fraction() <= 1e-3 + 1e-12

    def test_binning_agrees_with_measures(self):
        # uniform samples land in cells proportionally to their measures
        from hypercut.modular import sample_uniform_quotient
        from hypercut.walks import stream
        part = CellPartition.build(1, 5, 6, cusp_cap=10.0)
        rng = stream(5, 50)
        n = 200_000
        (x, y, _), _ = sample_uniform_quotient(1, 10.0, rng, n)
        cells = part.base_cells_of(x, 1.0 / y)
        counts = np.bincount(cells, minlength=part.n_base)
        capped = part.base_measures.copy()
        # cells under the cusp cap receive no samples from the truncated
        # sampler; compare on the capped region only
        nx = 5
        under = np.repeat(part.u_edges[:-1] < 1.0 / 10.0 - 1e-12, nx)
        probs = np.where(under, 0.0, capped)
        probs /= probs.sum()
        err = np.abs(counts / n - probs).max()
        assert err <= 5e-3


    @pytest.mark.parametrize("partition", [
        *(default_partition(q) for q in (2, 3, 5, 7)),
        CellPartition.build(2, 28, 32),
        # more interior x-edges than a uint8 count holds
        CellPartition.build(1, 300, 3)],
        ids=["q2", "q3", "q5", "q7", "fine", "wide"])
    def test_binning_matches_frozen_reference(self, partition):
        rng = np.random.default_rng(7)
        xs = edge_probes(partition.x_edges, rng)
        us = edge_probes(partition.u_edges, rng)
        x, u = (a.ravel() for a in np.meshgrid(xs, us))
        with np.errstate(all="ignore"):
            y = 1.0 / u
        want = reference_base_cells_of(partition, x, u)
        assert np.array_equal(partition.base_cells_of(x, u), want)
        sheets = rng.integers(0, partition.n_sheets, x.size)
        with np.errstate(all="ignore"):
            assert np.array_equal(partition.cells_of(x, y, sheets),
                                  reference_cells_of(partition, x, y,
                                                     sheets))


def reference_histograms(q, x0, r1, k_grid, n_walkers, seed):
    """The earlier tv_profile walker, on the frozen reduction and binning:
    each block runs all its steps on whole-block arrays into a
    (grid points x cells) count array."""
    partition = default_partition(q)
    ctx = modq_context(q)
    start_sheet = ctx.index[x0.sheet.key()]
    k_grid = sorted(set(int(k) for k in k_grid))
    n_cells = partition.n_cells

    def run_block(b, lo, hi):
        rng = stream(seed, tag=2, block=b)
        m = hi - lo
        x = np.full(m, x0.base.x)
        y = np.full(m, x0.base.y)
        sheets = np.full(m, start_sheet, dtype=np.int64)
        counts = np.zeros((len(k_grid), n_cells), dtype=np.int64)
        slot = 0
        if k_grid[0] == 0:
            counts[0] = np.bincount(
                reference_cells_of(partition, x, y, sheets),
                minlength=n_cells)
            slot = 1
        for step in range(1, k_grid[-1] + 1):
            theta = rng.uniform(0.0, math.pi, m)
            x, y = sphere_step_arrays(x, y, r1, theta)
            x, y, sheets = reference_reduce_points_arrays(x, y, sheets, ctx)
            if slot < len(k_grid) and k_grid[slot] == step:
                counts[slot] = np.bincount(
                    reference_cells_of(partition, x, y, sheets),
                    minlength=n_cells)
                slot += 1
        return counts

    block = mixing.TV_BLOCK
    return np.sum([run_block(b, lo, min(lo + block, n_walkers))
                   for b, lo in enumerate(range(0, n_walkers, block))],
                  axis=0)


def reference_tv_profile(q, counts, n_walkers, seed, n_boot=200):
    """The earlier tv_profile bootstrap, run serially over the grid
    points' counts."""
    pi = default_partition(q).cell_probabilities()
    n = n_walkers
    tv = np.abs(counts / n - pi).sum(axis=1)
    boot_rng = stream(seed, tag=3)
    lo = np.empty_like(tv)
    hi = np.empty_like(tv)
    for i in range(len(counts)):
        resampled = boot_rng.multinomial(n, counts[i] / n, size=n_boot)
        tv_boot = np.abs(resampled / n - pi).sum(axis=1)
        lo[i], hi[i] = np.percentile(tv_boot, [2.5, 97.5])
    return tv, lo, hi


def reference_held_bytes(n_walkers, n_grid, n_cells):
    """What tv_profile holds besides the walk's T-power table, on a grid
    of n_grid steps."""
    n_blocks = -(-n_walkers // mixing.TV_BLOCK)
    return (n_walkers * mixing.TV_WALKER_BYTES
            + 8 * n_cells * (2 * n_blocks + n_grid + 2 * mixing.BOOT_ROWS
                             + 2))


# more than two full walker blocks plus a partial one, which ends in a
# partial slice
PIPELINE_N = 140_000
PIPELINE_K_MAX = 6


@pytest.fixture(scope="module")
def reference_counts():
    assert PIPELINE_N > 2 * mixing.TV_BLOCK
    assert PIPELINE_N % mixing.TV_BLOCK % mixing.TV_SLICE
    return reference_histograms(2, origin(2), 1.0, range(PIPELINE_K_MAX + 1),
                                PIPELINE_N, seed=21)


@pytest.fixture(scope="module")
def reference_profile(reference_counts):
    return reference_tv_profile(2, reference_counts, PIPELINE_N, seed=21)


def assert_same_profile(prof, reference):
    tv, lo, hi = reference
    assert np.array_equal(prof.tv, tv)
    assert np.array_equal(prof.ci_lo, lo)
    assert np.array_equal(prof.ci_hi, hi)


class TestTvPipeline:
    def test_walker_histograms_same_at_any_worker_count(self,
                                                        reference_counts):
        partition = default_partition(2)
        for workers in (1, 2, 3):
            emitted = []
            mixing._walk_histograms(origin(2), 1.0, PIPELINE_K_MAX,
                                    PIPELINE_N, partition, 21, workers,
                                    emitted.append)
            assert np.array_equal(np.array(emitted), reference_counts)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bit_identical_to_reference(self, workers, reference_profile):
        prof = tv_profile(origin(2), 1.0, PIPELINE_K_MAX, PIPELINE_N,
                          seed=21, workers=workers)
        assert list(prof.ks) == list(range(PIPELINE_K_MAX + 1))
        assert_same_profile(prof, reference_profile)

    def test_stress_with_short_switch_interval(self, reference_profile):
        # frequent thread switches between the walker blocks and the
        # bootstrap thread must not change a byte; a deadlock fails the
        # join instead of hanging the suite
        result = {}

        def run():
            try:
                result["prof"] = tv_profile(origin(2), 1.0, PIPELINE_K_MAX,
                                            PIPELINE_N, seed=21, workers=4)
            except BaseException as exc:
                result["error"] = exc

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            worker = threading.Thread(target=run, daemon=True)
            worker.start()
            worker.join(timeout=120.0)
        finally:
            sys.setswitchinterval(old)
        assert not worker.is_alive(), "tv_profile did not finish in 120 s"
        assert "error" not in result, result.get("error")
        assert_same_profile(result["prof"], reference_profile)

    def test_queued_bootstraps_share_one_thread(self, monkeypatch,
                                                reference_profile):
        # hold every histogram back until the walk ends, so all bootstrap
        # jobs are queued at once, and record which thread draws each
        threads = []
        real_stream, real_walk = mixing.stream, mixing._walk_histograms

        class Recorder:
            def __init__(self, rng):
                self.rng = rng

            def multinomial(self, *args, **kwargs):
                threads.append(threading.get_ident())
                return self.rng.multinomial(*args, **kwargs)

        def recording_stream(seed, tag, block=0):
            rng = real_stream(seed, tag, block)
            return Recorder(rng) if tag == 3 else rng

        def walk_then_emit(*args):
            *head, emit = args
            held = []
            real_walk(*head, held.append)
            for counts in held:
                emit(counts)

        monkeypatch.setattr(mixing, "stream", recording_stream)
        monkeypatch.setattr(mixing, "_walk_histograms", walk_then_emit)
        prof = tv_profile(origin(2), 1.0, PIPELINE_K_MAX, PIPELINE_N,
                          seed=21, workers=2)
        assert len(set(threads)) == 1
        assert threading.get_ident() not in threads
        assert_same_profile(prof, reference_profile)

    @pytest.mark.parametrize("n_walkers,n_boot", [(0, 200), (-5, 200),
                                                  (1000, 0), (1000, -1)])
    def test_bad_counts_refused_before_any_thread(self, monkeypatch,
                                                  n_walkers, n_boot):
        def no_threads(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(mixing, "ThreadPoolExecutor", no_threads)
        with pytest.raises(ConfigError):
            tv_profile(origin(2), 1.0, 1, n_walkers, n_boot=n_boot)

    def test_negative_k_max_refused_before_anything_is_built(self,
                                                             monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("built before k_max was checked")

        monkeypatch.setattr(mixing, "default_partition", never)
        monkeypatch.setattr(mixing, "injectivity_radius", never)
        with pytest.raises(ConfigError, match="need k_max >= 0, not -1"):
            tv_profile(origin(2), 1.0, -1, 1000)

    def test_walker_state_over_cap_refused_before_allocating(self,
                                                              monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("tv_profile went past its capacity check")

        monkeypatch.setattr(mixing, "injectivity_radius", no_allocation)
        monkeypatch.setattr(mixing, "ThreadPoolExecutor", no_allocation)
        cap, part = mixing.TV_STATE_CAP_BYTES, default_partition(2)
        # the most walkers that fit beside the cells' histograms at
        # k_max = 1: fewer than the walker state alone would allow
        lo, hi = 1, cap // mixing.TV_WALKER_BYTES + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mixing._tv_held_bytes(mid, 1, part) <= cap:
                lo = mid
            else:
                hi = mid
        assert hi <= cap // mixing.TV_WALKER_BYTES
        with pytest.raises(CapacityError):
            tv_profile(origin(2), 1.0, 1, hi)
        with pytest.raises(AssertionError, match="capacity check"):
            tv_profile(origin(2), 1.0, 1, lo)

    def test_histograms_and_bootstrap_over_cap_refused_before_allocating(
            self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("tv_profile went past its capacity check")

        monkeypatch.setattr(mixing, "injectivity_radius", no_allocation)
        monkeypatch.setattr(mixing, "ThreadPoolExecutor", no_allocation)
        part = default_partition(2)
        n_cells = part.n_cells
        k_max, n = 40, 1000
        held = mixing._tv_held_bytes(n, k_max, part)
        # each queued k-histogram, and one bootstrap chunk of int64 draws
        # with its float64 buffer, count on top of the walker state
        assert (mixing._tv_held_bytes(n, k_max + 1, part) - held
                == 8 * n_cells)
        assert (mixing._tv_held_bytes(n, 0, part)
                - n * mixing.TV_WALKER_BYTES
                >= 8 * n_cells * 2 * mixing.BOOT_ROWS)
        monkeypatch.setattr(mixing, "TV_STATE_CAP_BYTES", held - 1)
        with pytest.raises(CapacityError):
            tv_profile(origin(2), 1.0, k_max, n)
        monkeypatch.setattr(mixing, "TV_STATE_CAP_BYTES", held)
        with pytest.raises(AssertionError, match="capacity check"):
            tv_profile(origin(2), 1.0, k_max, n)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_held_bytes_count_the_t_power_table(self, q):
        # on top of everything else it counts, the model holds exactly
        # the table the walk's reduction reads
        part = default_partition(q)
        for n, k_max in ((1, 0), (200_000, 42)):
            grown = (mixing._tv_held_bytes(n, k_max, part)
                     - reference_held_bytes(n, k_max + 1, part.n_cells))
            assert grown == 8 * q * psl2q_order(q)
            assert grown == modq_context(q).t_pow_tables.nbytes

    def test_capacity_estimate_at_benchmark_and_cap_sizes(self):
        cap = mixing.TV_STATE_CAP_BYTES
        part = default_partition(5)
        assert part.n_cells == 3000
        # the tv_cutoff benchmark run (2e5 walkers, 43 steps) and
        # criterion 10's 1e6 walkers sit far below the cap
        assert mixing._tv_held_bytes(200_000, 42, part) < cap / 100
        assert mixing._tv_held_bytes(1_000_000, 42, part) < cap / 20
        # at q = 101: |PSL2(Z/101)| = 515100 sheets of at least 9 base
        # cells; one bootstrap chunk alone is over the cap
        part = default_partition(101)
        assert part.n_cells >= 515_100 * 9
        assert mixing._tv_held_bytes(1, 0, part) > cap


class TestTvProfile:
    def test_initial_tv_is_point_mass_value(self):
        part = default_partition(2)
        prof = tv_profile(origin(2), 1.0, 0, 5_000, part, seed=3)
        start_cell = part.cells_of(np.array([0.0]), np.array([1.0]),
                                   np.array([modq_context(2).index[
                                       CosetModQ.identity(2).key()]]))
        pi0 = part.cell_probabilities()[start_cell[0]]
        assert prof.tv[0] == pytest.approx(2.0 * (1.0 - pi0), abs=1e-12)

    def test_monotone_within_ci_and_bounds(self):
        prof = tv_profile(origin(2), 1.0, 8, 40_000, seed=4)
        assert np.all(prof.tv <= 2.0 + 1e-12)
        assert np.all(prof.tv >= 0.0)
        for i in range(len(prof.ks) - 1):
            assert prof.tv[i + 1] <= prof.tv[i] + (
                prof.ci_hi[i + 1] - prof.ci_lo[i + 1]) + 0.02

    def test_deterministic_across_workers(self):
        a = tv_profile(origin(2), 1.0, 4, 30_000, seed=9, workers=1)
        b = tv_profile(origin(2), 1.0, 4, 30_000, seed=9, workers=3)
        assert np.array_equal(a.tv, b.tv)
        assert np.array_equal(a.ci_lo, b.ci_lo)
        assert np.array_equal(a.ci_hi, b.ci_hi)

    def test_cover_group_start_invariance(self):
        # moving the start sheet by a deck transformation relabels cells
        # of equal equilibrium probability: same profile, same seed
        ctx = modq_context(2)
        h = ctx.elements[4]
        a = tv_profile(origin(2), 1.0, 5, 20_000, seed=12)
        moved = QuotientPoint(PointH(0.0, 1.0),
                              h.mul(CosetModQ.identity(2)))
        b = tv_profile(moved, 1.0, 5, 20_000, seed=12)
        # identical up to float reassociation: the cell sum is permuted
        np.testing.assert_allclose(a.tv, b.tv, rtol=1e-12)

    def test_partition_refinement_stability(self):
        coarse = CellPartition.build(2, 14, 16)
        fine = CellPartition.build(2, 28, 32)
        a = tv_profile(origin(2), 1.0, 6, 60_000, coarse, seed=5)
        b = tv_profile(origin(2), 1.0, 6, 60_000, fine, seed=5)
        ci = (a.ci_hi[6] - a.ci_lo[6]) + (b.ci_hi[6] - b.ci_lo[6])
        assert abs(a.tv[6] - b.tv[6]) <= ci + b.bias_note

    def test_precondition_failures(self):
        # T^2 moves (0, 40) by acosh(1.00125) ~ 0.05, so its injectivity
        # radius ~ 0.025 lies below R0_FLOOR
        high = QuotientPoint(PointH(0.0, 40.0), CosetModQ.identity(2))
        with pytest.raises(ConfigError, match="injectivity radius"):
            tv_profile(high, 1.0, 0, 100)

    def test_partition_of_another_level_refused(self):
        # a level-5 partition at level 2 read tv 1.80 at k = 30, where the
        # level-2 partition gives 0.24
        with pytest.raises(ConfigError, match="partition covers X_5"):
            tv_profile(origin(2), 1.0, 0, 100, default_partition(5))

    def test_coarse_partition_refused(self):
        # a 3 x 3 grid at level 2 has cells far above mu(X)/1000
        with pytest.raises(ResolutionError, match="above mu"):
            tv_profile(origin(2), 1.0, 0, 100, CellPartition.build(2, 3, 3))


class TestCutoffLocator:
    def test_step_profile_zero_width(self):
        # a one-interval jump puts every crossing inside that interval:
        # zero width at grid resolution
        ks = np.arange(10)
        tvs = np.where(ks < 5, 2.0, 0.0)
        rep = cutoff_locator(ks, tvs, 1.0, 2.0)
        assert 4.0 <= rep["t_eps"][1.9] <= rep["t_eps"][0.1] <= 5.0
        assert rep["t_eps"][0.1] - rep["t_eps"][1.9] <= 1.0

    def test_unbracketed_raises(self):
        with pytest.raises(ValueError):
            cutoff_locator([0, 1, 2], [2.0, 1.8, 1.6], 1.0, 2.0)

    def test_torus_profile_no_abrupt_transition(self):
        # continuous-time flat profile: width stays proportional to the
        # location, the opposite of an abrupt transition
        lam = 1.0
        ts = np.linspace(0.05, 12.0, 400)
        tvs = np.array([min(2.0, torus_l1(TorusConfig(lam, t))) for t in ts])
        rep = cutoff_locator(ts, tvs, 1.0, R_X=4.0)
        assert rep["width_to_location"] >= 0.5
        # doubling the scale doubles the whole profile in time: the
        # absolute window grows with lambda instead of tightening
        ts2 = np.linspace(0.1, 24.0, 400)
        tvs2 = np.array([min(2.0, torus_l1(TorusConfig(2.0, t)))
                         for t in ts2])
        rep2 = cutoff_locator(ts2, tvs2, 1.0, R_X=4.0)
        w1 = rep["t_eps"][0.1] - rep["t_eps"][1.9]
        w2 = rep2["t_eps"][0.1] - rep2["t_eps"][1.9]
        assert w2 == pytest.approx(2.0 * w1, rel=0.05)


class TestDistanceHistogram:
    def test_requires_spanning_r_max(self):
        with pytest.raises(ConfigError):
            distance_histogram(origin(5), 100, 3.0)

    def test_small_radius_matches_ball_volume(self):
        # valid while the ball embeds: at the level-5 origin the
        # injectivity radius is ~1.65, so compare on r <= 1.6
        hist = distance_histogram(origin(5), 20_000, 8.0, seed=6)
        assert hist["injectivity_radius"] > 1.6
        for row in hist["volume_comparison"]:
            if row["ball_fraction"] >= 2e-2 and row["r"] <= 1.6:
                assert row["fraction"] == pytest.approx(
                    row["ball_fraction"], rel=0.1)

    def test_gamma_zero_trivial_bound(self, monkeypatch):
        monkeypatch.setattr(mixing, "GAMMAS", (1e-9,))
        hist = distance_histogram(origin(2), 5_000, 8.0, seed=7)
        frac = list(hist["lower_tail"].values())[0]["fraction"]
        assert frac <= ball_volume(quotient_R(2)) / quotient_volume(2) + 0.05


class TestConcentrationFit:
    def test_synthetic_geometric_tail_recovers_rate(self):
        # |d - median| ~ Exp(1) gives tail mass e^{-gamma}: slope -1
        rng = np.random.default_rng(5)
        n = 40_000
        sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        d = 3.0 + sign * (-np.log(rng.random(n)))
        rep = concentration_fit(d)
        assert rep.slope == pytest.approx(-1.0, abs=0.05)
        assert rep.a == pytest.approx(math.e, rel=0.06)
        assert rep.r2 >= 0.99
        assert not rep.inconclusive

    def test_degenerate_refused(self):
        with pytest.raises(ConfigError):
            concentration_fit(np.full(20_000, 1.0))
        with pytest.raises(ConfigError):
            concentration_fit(np.array([1.0, 2.0]))

    def test_too_few_tail_samples_refused(self):
        # 10,000 samples, all but five at the median: every gamma's tail
        # holds at most 5 < CONCENTRATION_MIN_COUNT samples
        d = np.concatenate([np.zeros(9_995), np.arange(1.0, 6.0)])
        with pytest.raises(ConfigError, match="tail counts too small"):
            concentration_fit(d)

    def test_overflow_needs_floor(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ConfigError):
            concentration_fit(rng.random(20_000), n_exceed=5)

    def test_overflow_window_is_the_padded_sample_quantile(self):
        # the 3 % of samples beyond the floor count as lying above every
        # finite distance, for q90 as for q10
        rng = np.random.default_rng(8)
        sample = rng.normal(3.0, 1.0, 20_000)
        floor = float(np.quantile(sample, 0.97))
        finite = sample[sample <= floor]
        n_exceed = sample.size - finite.size
        rep = concentration_fit(finite, n_exceed, floor)
        padded = np.append(finite, np.full(n_exceed, np.inf))
        q10, q90 = np.quantile(padded, [0.1, 0.9])
        assert rep.window_80 == float(q90 - q10)


class TestIsoperimetry:
    def test_kappa_value(self):
        assert kappa(2.0, 2.0) == pytest.approx(9.0 * math.exp(-2.0))
        # r / inf is 0.0 for finite r >= 0, so p = inf needs no branch
        for r in (0.0, 0.3, 1.0, 2.5, 7.0):
            assert kappa(r, math.inf) == (r + 1.0) ** 2

    def test_two_ball_oracle(self):
        # Y = ball(r0): the dilation is the exact ball of radius r0 + r,
        # so c'/c must match the analytic volume ratio
        rep = isoperimetric_check(origin(5), 0.7, 0.6, 4.0, 60_000,
                                  seed=10)
        expected = ball_volume(1.3) / ball_volume(0.7)
        assert rep["c_prime"] / rep["c"] == pytest.approx(expected, rel=0.05)
        assert rep["passes"]

    def test_ball_exceeding_injectivity_refused(self):
        with pytest.raises(ConfigError):
            isoperimetric_check(origin(5), 2.5, 0.5, 4.0, 100)

    def test_seed_ball_refused_at_every_level(self):
        # at level 8 the radius at i is asinh(4) = 2.09, found only by a
        # search reaching 2 asinh(4) = 4.19
        with pytest.raises(ConfigError, match="seed ball exceeds"):
            isoperimetric_check(origin(8), 3.0, 0.5, 4.0, 100)

    def test_dilation_past_distance_8_counts_its_hits(self):
        # r0 + r = 8.0 against 8.1: the samples between are hits too
        lo, hi = (isoperimetric_check(origin(23), 3.1, r, 4.0, 2000,
                                      seed=3)["c_prime"] for r in (4.9, 5.0))
        assert hi > lo

    def test_dilation_past_5_runs(self):
        # r0 + r = 6.5: the enumeration cap, not a fixed bound on r, limits
        # the dilation
        rep = isoperimetric_check(origin(2), 0.5, 6.0, 4.0, 500)
        assert 0.0 < rep["c"] <= rep["c_prime"] <= 1.0

    def test_dilation_past_the_enumeration_cap_refused(self):
        # r0 + r = 12.5 plus the farthest sample's distance to i needs a
        # bound past the 14.5 cap
        with pytest.raises(CapacityError, match="exceeds cap 14.5"):
            isoperimetric_check(origin(2), 0.5, 12.0, 4.0, 500)

    @pytest.mark.parametrize("seed", range(6))
    def test_over_cap_refused_before_sampling(self, monkeypatch, seed):
        # r0 + r = 11.12 plus d(i, 1/2 + 30i) = 3.40 passes the cap; the
        # refusal comes from the cusp cap, so no seed's sample can pass it,
        # and it comes before the start point's enumeration is built
        def never(*args):
            raise AssertionError("built or sampled before the bound was "
                                 "checked")
        monkeypatch.setattr(mixing, "sample_uniform_quotient", never)
        monkeypatch.setattr(mixing, "injectivity_radius", never)
        with pytest.raises(CapacityError, match="bound 14.521 exceeds"):
            isoperimetric_check(origin(2), 0.5, 10.62, 4.0, 2000, seed=seed)
        with pytest.raises(CapacityError, match="exceeds cap 14.5"):
            distance_histogram(origin(2), 2000, 12.3, seed=seed)

    def test_center_of_another_level_refused(self):
        # the start check of tv_profile holds for the center
        high = QuotientPoint(PointH(0.0, 40.0), CosetModQ.identity(2))
        with pytest.raises(ConfigError, match="injectivity radius"):
            isoperimetric_check(high, 0.01, 0.6, 4.0, 100)

    @pytest.mark.parametrize("r0, r, p, n_mc", [
        (0.0, 1.0, 4.0, 100), (0.8, -1.0, 4.0, 100), (0.8, 1.0, 1.5, 100),
        (0.8, 1.0, 4.0, 0)])
    def test_out_of_range_inputs_refused(self, r0, r, p, n_mc):
        with pytest.raises(ConfigError):
            isoperimetric_check(origin(5), r0, r, p, n_mc)
