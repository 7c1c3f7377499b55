"""The sampler for the fixed-step-length walk on the half-plane, with the
log-height CLT check and the log-height, x^2 and distance tail checks.

Randomness policy.  Every consumer derives streams from a 64-bit master
seed by the documented rule

    stream(seed, tag, block) = Generator(Philox(key=[seed, tag]).jumped(block))

with fixed-size walker blocks, so results are bit-identical for any worker
count and any block scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import log_sphere_step_arrays
from .quadrature import map_blocks, spans
from .spectral import clt_constants

BLOCK = 1 << 14
# Anderson-Darling 1% critical value for a fully specified normal null
# (the standardization constants come from quadrature, not the sample).
AD_CRIT_1PCT = 3.857
MIN_STEP_LENGTH = 0.05
# tail probabilities resting on fewer walkers than this stay out of the fits
TAIL_MIN_COUNT = 20
# the deviation scales lambda at which tail_checks measures each tail
LAMBDA_GRID = np.linspace(0.25, 3.0, 12)


def stream(seed: int, tag: int, block: int = 0) -> np.random.Generator:
    """The package-wide seed-splitting rule (see module docstring)."""
    key = np.array([seed & (2 ** 64 - 1), tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key).jumped(block))


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of a half-plane walk ensemble."""

    r1: float
    k: int
    n_walkers: int
    seed: int

    def __post_init__(self):
        if self.r1 <= 0.0:
            raise ConfigError("step length must be positive")
        if self.n_walkers < 1 or self.k < 0:
            raise ConfigError("need n_walkers >= 1 and k >= 0")


@dataclass
class WalkStats:
    """Per-step aggregates, final-step samples and kept paths of a walk."""

    config: WalkConfig
    mean_lny: np.ndarray
    var_lny: np.ndarray
    mean_dist: np.ndarray
    var_dist: np.ndarray
    final_lny: np.ndarray
    final_x: np.ndarray
    final_dist: np.ndarray
    dist_quantiles: dict
    paths: np.ndarray


def _distances_log(x, lny):
    """d(z, i) from (x, log y) state, stable when y underflows."""
    y = np.exp(lny)
    num = x ** 2 + (y - 1.0) ** 2
    with np.errstate(divide="ignore"):
        big_log = np.log(num) - math.log(2.0) - lny
    small = big_log < 30.0
    out = np.empty_like(x)
    out[small] = np.arccosh(1.0 + np.exp(big_log[small]))
    out[~small] = math.log(2.0) + big_log[~small]
    out[num == 0.0] = 0.0
    return out


def walk_discrete(config: WalkConfig, workers: int = 1,
                  paths: int = 0) -> WalkStats:
    """Run the ensemble from i and aggregate per-step statistics.

    The half-plane is homogeneous, so every start point is an isometric
    image of i.  Walkers evolve in (x, log y); distances to the start are
    computed in a log-robust form, so long walks do not overflow.
    ``paths`` > 0 also keeps the (x, log y) of the first ``paths`` walkers
    of block 0 at steps 0..k, as ``stats.paths`` of shape (paths, k + 1, 2).
    """
    k, n = config.k, config.n_walkers
    if not 0 <= paths <= min(BLOCK, n):
        raise ConfigError(f"can keep 0..{min(BLOCK, n)} paths, not {paths}")

    def run_block(block):
        b, walkers = block
        rng = stream(config.seed, tag=1, block=b)
        m = walkers.stop - walkers.start
        x = np.zeros(m)
        lny = np.zeros(m)
        sums = np.zeros((k, 4))
        d = np.zeros(m)
        n_kept = paths if b == 0 else 0
        kept = np.empty((k + 1, 2, n_kept))
        kept[0] = x[:n_kept], lny[:n_kept]
        for step in range(k):
            theta = rng.uniform(0.0, math.pi, m)
            x, lny = log_sphere_step_arrays(x, lny, config.r1, theta)
            kept[step + 1] = x[:n_kept], lny[:n_kept]
            d = _distances_log(x, lny)
            sums[step] = (lny.sum(), (lny ** 2).sum(), d.sum(),
                          (d ** 2).sum())
        return sums, lny.copy(), x.copy(), d, kept

    parts = map_blocks(run_block, enumerate(spans(n, BLOCK)), workers)
    sums = np.sum([p[0] for p in parts], axis=0)
    final_lny = np.concatenate([p[1] for p in parts])
    final_x = np.concatenate([p[2] for p in parts])
    final_dist = np.concatenate([p[3] for p in parts])
    mean_lny = sums[:, 0] / n
    var_lny = sums[:, 1] / n - mean_lny ** 2
    mean_dist = sums[:, 2] / n
    var_dist = sums[:, 3] / n - mean_dist ** 2
    qs = (0.1, 0.25, 0.5, 0.75, 0.9)
    quantiles = dict(zip(qs, np.quantile(final_dist, qs))) if k else {}
    return WalkStats(config, mean_lny, var_lny, mean_dist, var_dist,
                     final_lny, final_x, final_dist, quantiles,
                     parts[0][4].transpose(2, 0, 1))


def ad_statistic_normal(x: np.ndarray) -> float:
    """Anderson-Darling statistic against the standard normal with both
    parameters fixed (compare against AD_CRIT_1PCT)."""
    # log_ndtr(x) and log_ndtr(-x) are what scipy.stats' norm.logcdf and
    # norm.logsf compute, and scipy.special imports much faster
    from scipy.special import log_ndtr

    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    log_cdf = log_ndtr(x)
    log_sf = log_ndtr(-x)
    i = np.arange(1, n + 1)
    return float(-n - np.mean((2 * i - 1) * (log_cdf + log_sf[::-1])))


def clt_check(stats: WalkStats) -> dict:
    """Normality and moment checks of a walk's final log-height against the
    quadrature constants.

    Requires k >= 50 and n >= 1e4; smaller runs are skipped with a notice
    instead of reporting an underpowered verdict.
    """
    config = stats.config
    if config.k < 50 or config.n_walkers < 10_000:
        return {"skipped": True,
                "notice": f"k={config.k}, n={config.n_walkers} too small "
                          "for a calibrated normality test"}
    consts = clt_constants(config.r1)
    k, n, r1 = config.k, config.n_walkers, config.r1
    standardized = ((stats.final_lny + consts.alpha * r1 * k)
                    / (r1 * math.sqrt(consts.sigma2 * k)))
    a2 = ad_statistic_normal(standardized)
    mean_drift = float(-stats.final_lny.mean() / k)
    mean_tol = 3.0 * math.sqrt(consts.sigma2) * r1 / math.sqrt(k * n)
    var_hat = float(np.var(stats.final_lny / (r1 * math.sqrt(k))))
    return {
        "skipped": False,
        "alpha": consts.alpha,
        "sigma2": consts.sigma2,
        "ad_statistic": a2,
        "ad_pass_1pct": a2 < AD_CRIT_1PCT,
        "mean_drift": mean_drift,
        "mean_target": consts.alpha * r1,
        "mean_tol": mean_tol,
        "mean_ok": abs(mean_drift - consts.alpha * r1) <= mean_tol,
        "var_hat": var_hat,
        "var_rel_err": abs(var_hat / consts.sigma2 - 1.0),
        "var_ok": abs(var_hat / consts.sigma2 - 1.0) <= 0.05,
    }


def log_linear_fit(xs, ys):
    """(slope, R^2) of the least-squares line through (xs, ys); R^2 is 0
    when ys has no spread.  The tail fits pass log tail masses as ys."""
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = np.sum((ys - ys.mean()) ** 2)
    r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 0.0
    return float(slope), float(r2)


def _tail_fit(lams: np.ndarray, probs: np.ndarray, n: int):
    counts = probs * n
    keep = (counts >= TAIL_MIN_COUNT) & (probs < 1.0)
    censored = int(np.count_nonzero(~keep))
    if keep.sum() < 3:
        return {"fit_ok": False, "censored": censored}
    slope, r2 = log_linear_fit(lams[keep] ** 2, np.log(probs[keep]))
    return {"fit_ok": True, "slope": slope, "c": -slope,
            "r2": r2, "censored": censored}


def tail_checks(stats: WalkStats) -> dict:
    """Empirical tail decay of a walk's three deviation families
    (log-height, horizontal coordinate squared, distance), each fitted
    log-linearly in lambda^2 over LAMBDA_GRID.

    Step lengths below 0.05 are refused: the constants degrade as the step
    shrinks and the fits stop meaning anything.
    """
    config = stats.config
    if config.r1 < MIN_STEP_LENGTH:
        raise ConfigError(f"step length {config.r1} below {MIN_STEP_LENGTH}; "
                          "tail fits are unreliable in that regime")
    consts = clt_constants(config.r1)
    k, n, r1 = config.k, config.n_walkers, config.r1
    drift = consts.alpha * r1 * k
    sqk = math.sqrt(k)
    families = {
        "log_height": (np.abs(stats.final_lny + drift),
                       LAMBDA_GRID * r1 * sqk),
        "x_squared": (2.0 * np.log(np.abs(stats.final_x) + 1e-300),
                      LAMBDA_GRID * r1 * sqk),
        "distance": (np.abs(stats.final_dist - drift), LAMBDA_GRID * sqk)}
    return {name: _tail_fit(LAMBDA_GRID,
                            np.array([(dev >= t).mean() for t in thresholds]),
                            n)
            for name, (dev, thresholds) in families.items()}
