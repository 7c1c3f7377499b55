"""Command-line workbench: every experiment is a subcommand that resolves
a config (defaults < config file < flags), stamps outputs with the package
version and a config hash, and writes CSV/JSON artifacts.

Exit codes: 0 ok, 1 usage, 2 config, 3 capacity, 4 numeric failure.
CSV bodies are deterministic for a fixed config+seed at any worker count;
timestamps only ever appear in '#' header lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .covers import (EigenvalueBudget, GrowthFunction,
                     normal_cover_requirement, synthetic_density_budget,
                     uniform_budget)
from .errors import CapacityError, ConfigError, NumericError
from .geometry import PointH
from .mixing import (CUSP_CAP, concentration_fit, cutoff_locator,
                     default_partition, distance_histogram,
                     isoperimetric_check, tv_profile)
from .modular import CosetModQ, QuotientPoint, quotient_R, random_cover
from .spectral import (clt_constants, hc_bound, heat_envelope,
                       heat_radial_density, radial_mixture,
                       spherical_principal_grid)
from .torus import TorusConfig, no_cutoff_profile, torus_l1, torus_l1_bounds
from .walks import WalkConfig, clt_check, stream, tail_checks, walk_discrete


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# the JSON values each declared option type takes from a config file
_ACCEPTS = {int: int, float: (int, float), bool: bool, str: str}


def _resolve(options: dict, args: argparse.Namespace) -> dict:
    """Defaults < config file < flags; each value has its declared type."""
    cfg = {key: default for key, (_, default, _) in options.items()}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: "
                              f"{exc.strerror}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("a config file must hold one JSON object")
        unknown = set(loaded) - set(options)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, val in loaded.items():
            typ, default, _ = options[key]
            if not (val is None and default is None
                    or isinstance(val, _ACCEPTS[typ])
                    and isinstance(val, bool) == (typ is bool)):
                raise ConfigError(
                    f"config key {key!r} takes {typ.__name__}, not {val!r}")
        cfg.update(loaded)
    for key in options:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _write_csv(path: str, meta: dict, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        for key, val in meta.items():
            fh.write(f"# {key} = {val}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _workers(args) -> int:
    """--workers, else HYPERCUT_WORKERS, else every core; a count below 1
    is a config error, not a request for the default."""
    if args.workers is not None:
        workers = args.workers
    else:
        env = os.environ.get("HYPERCUT_WORKERS")
        workers = int(env) if env else os.cpu_count() or 1
    if workers < 1:
        raise ConfigError(f"need at least one worker, not {workers}")
    return workers


def _origin_point(q: int) -> QuotientPoint:
    return QuotientPoint(PointH(0.0, 1.0), CosetModQ.identity(q))


# --- subcommand handlers -------------------------------------------------
# Each computes its result, prints one line, and returns {file name:
# payload}: a dict for .json, (header, rows[, extra '#' entries]) for .csv.

def _constants(cfg, args) -> dict:
    c = clt_constants(cfg["r1"])
    print(f"alpha={c.alpha:.12g} sigma2={c.sigma2:.12g}")
    return {"constants.json": {"r1": c.r1, "alpha": c.alpha,
                               "sigma2": c.sigma2}}


def _spherical(cfg, args) -> dict:
    if not (cfg["s_step"] > 0.0 and cfg["s_max"] >= 0.0):
        raise ConfigError(f"need s_step > 0 and s_max >= 0, not "
                          f"{cfg['s_step']} and {cfg['s_max']}")
    s = np.arange(0.0, cfg["s_max"] + cfg["s_step"] / 2.0, cfg["s_step"])
    phi = spherical_principal_grid(s, cfg["r"], tol=1e-8)
    bound = hc_bound(cfg["r"], cfg["p"])
    violations = int(np.count_nonzero(np.abs(phi) > bound + 1e-6))
    print(f"r={cfg['r']} points={s.size} violations={violations}")
    return {"spherical.csv": (
        ["s", "phi", "bound"],
        [(float(si), float(pi), bound) for si, pi in zip(s, phi)],
        {"violations": violations})}


def _mixture(cfg, args) -> dict:
    m = radial_mixture(cfg["k"], cfg["r1"], workers=_workers(args))
    print(f"k={cfg['k']} r1={cfg['r1']} mass={m.total_mass():.9f}")
    return {"mixture.csv": (["r", "density"],
                            zip(map(float, m.grid.centers),
                                map(float, m.density)))}


def _heat(cfg, args) -> dict:
    m = heat_radial_density(cfg["t"], workers=_workers(args))
    env = heat_envelope(cfg["t"], m.grid.centers)
    print(f"t={cfg['t']} mass={m.total_mass():.9f} "
          f"defect={m.meta['normalization_defect']:.3g}")
    return {"heat.csv": (["r", "density", "envelope"],
                         zip(map(float, m.grid.centers), map(float, m.density),
                             map(float, env)))}


def _walk(cfg, args) -> dict:
    wcfg = WalkConfig(r1=cfg["r1"], k=cfg["k"], n_walkers=cfg["n"],
                      seed=cfg["seed"])
    n_dump = min(cfg["trajectories"], 512, wcfg.n_walkers)
    stats = walk_discrete(wcfg, workers=_workers(args), paths=n_dump)
    report = {
        "config": {"r1": wcfg.r1, "k": wcfg.k, "n": wcfg.n_walkers,
                   "seed": wcfg.seed},
        "mean_lny_final": float(stats.mean_lny[-1]) if wcfg.k else 0.0,
        "mean_dist_final": float(stats.mean_dist[-1]) if wcfg.k else 0.0,
        "dist_quantiles": {str(k): float(v)
                           for k, v in stats.dist_quantiles.items()},
    }
    if cfg["run_clt_check"]:
        report["clt_check"] = clt_check(stats)
    if cfg["run_tail_checks"]:
        report["tail_checks"] = tail_checks(stats)
    artifacts = {
        "walk.json": report,
        "walk_steps.csv": (
            ["step", "mean_lny", "var_lny", "mean_dist", "var_dist"],
            ((i + 1, float(stats.mean_lny[i]), float(stats.var_lny[i]),
              float(stats.mean_dist[i]), float(stats.var_dist[i]))
             for i in range(wcfg.k)))}
    if n_dump:
        artifacts["walk_trajectories.csv"] = (
            ["walker", "step", "x", "y"],
            ((w, step, float(x), float(np.exp(lny)))
             for w, path in enumerate(stats.paths)
             for step, (x, lny) in enumerate(path)))
    print(f"final mean distance {report['mean_dist_final']:.4f}")
    return artifacts


def _tv(cfg, args) -> dict:
    q = cfg["q"]
    consts = clt_constants(cfg["r1"])
    R = quotient_R(q)
    k_max = cfg["k_max"]
    if k_max is None:
        k_max = cfg["k_max"] = math.ceil(3.2 * R / (consts.alpha * cfg["r1"]))
    profile = tv_profile(_origin_point(q), cfg["r1"], k_max, cfg["n"],
                         default_partition(q, cfg["cusp_cap"]),
                         seed=cfg["seed"], workers=_workers(args),
                         n_boot=cfg["n_boot"])
    report = {"q": q, "R_X": R, "alpha": consts.alpha,
              "n_cells": profile.n_cells, "starved_cells": profile.starved_cells,
              "bias_note": profile.bias_note}
    try:
        report["cutoff"] = cutoff_locator(profile.ks, profile.tv,
                                          consts.alpha * cfg["r1"], R)
    except ValueError as exc:
        report["cutoff"] = {"error": str(exc)}
    print(f"q={q} k_max={k_max} tv_final={profile.tv[-1]:.4f}")
    return {"tv.csv": (["k", "tv", "ci_lo", "ci_hi"],
                       zip(map(int, profile.ks), map(float, profile.tv),
                           map(float, profile.ci_lo),
                           map(float, profile.ci_hi))),
            "tv_report.json": report}


def _histogram(cfg) -> dict:
    """The distance sample that distances and concentration both report."""
    return distance_histogram(_origin_point(cfg["q"]), cfg["n"],
                              cfg["r_max"], seed=cfg["seed"],
                              cusp_cap=cfg["cusp_cap"])


def _distances(cfg, args) -> dict:
    hist = _histogram(cfg)
    print(f"q={cfg['q']} R_X={hist['R_X']:.4f} "
          f"overflow={hist['n_exceed']}")
    return {"distances.csv": (["d"], ((float(d),)
                                      for d in np.sort(hist["distances"]))),
            "distances_report.json": {k: v for k, v in hist.items()
                                      if k != "distances"}}


def _concentration(cfg, args) -> dict:
    q = cfg["q"]
    hist = _histogram(cfg)
    rep = concentration_fit(hist["distances"], hist["n_exceed"],
                            exceed_floor=cfg["r_max"])
    print(f"q={q} r_med={rep.r_med:.4f} a={rep.a:.4f} r2={rep.r2:.3f}")
    return {"concentration.json": {
        "q": q, "R_X": hist["R_X"], "r_med": rep.r_med, "a": rep.a,
        "slope": rep.slope, "r2": rep.r2, "window_80": rep.window_80,
        "inconclusive": rep.inconclusive}}


def _isoperimetry(cfg, args) -> dict:
    result = isoperimetric_check(_origin_point(cfg["q"]), cfg["r0"],
                                 cfg["r"], cfg["p"], cfg["n"],
                                 seed=cfg["seed"])
    print(f"c={result['c']:.4f} c'={result['c_prime']:.4f} "
          f"bound={result['bound']:.4f} passes={result['passes']}")
    return {"isoperimetry.json": result}


def _density(cfg, args) -> dict:
    if cfg["budget_files"]:
        budgets = []
        for path in cfg["budget_files"].split(","):
            try:
                with open(path) as fh:
                    budgets.append(EigenvalueBudget.from_json(fh.read()))
            except OSError as exc:
                raise ConfigError(f"cannot read budget file {path!r}: "
                                  f"{exc.strerror}") from exc
            except (KeyError, TypeError) as exc:
                raise ConfigError(f'budget file {path!r} is not {{"N", '
                                  f'"entries": [...]}}: {exc}') from exc
    else:
        ns = [int(v) for v in cfg["n_values"].split(",")]
        makers = {"density": synthetic_density_budget,
                  "uniform": uniform_budget}
        if cfg["family"] not in makers:
            raise ConfigError(f"family is density or uniform, not "
                              f"{cfg['family']!r}")
        budgets = [makers[cfg["family"]](n) for n in ns]
    result = normal_cover_requirement(budgets, GrowthFunction(cfg["g_slope"]))
    print(f"vanishing={result['vanishing']}")
    return {"density.csv": (
        ["N_q", "req0", "req_integral", "req_limit"],
        ((row.n_cover, row.req_sum, row.req_integral, row.req_limit)
         for row in result["rows"]),
        {"vanishing": result["vanishing"]})}


def _torus(cfg, args) -> dict:
    rows = []
    ts = ([float(v) for v in cfg["t_grid"].split(",")]
          if cfg["t_grid"] else [cfg["t"]])
    for t in ts:
        tc = TorusConfig(cfg["lam"], t)
        lo, hi = torus_l1_bounds(tc)
        rows.append((cfg["lam"], t, torus_l1(tc), lo, hi))
    artifacts = {"torus.csv": (["lambda", "t", "l1", "lower", "upper"], rows)}
    if cfg["no_cutoff"]:
        tg = [float(v) for v in cfg["T_grid"].split(",")]
        prof = no_cutoff_profile([cfg["lam"]], tg)
        artifacts["torus_profile.csv"] = (
            ["lambda", "T", "t", "ratio"],
            ((r["lam"], r["T"], r["t"], r["ratio"]) for r in prof["rows"]))
        print(f"ratio spread {prof['ratio_spread']:.3f}")
    else:
        print(f"l1={rows[0][2]:.6g} in [{rows[0][3]:.6g}, {rows[0][4]:.6g}]")
    return artifacts


def _cover(cfg, args) -> dict:
    cover = random_cover(cfg["n"], stream(cfg["seed"], tag=6))
    payload = {"n": cover.n, "sigma_A": cover.sigma_a.tolist(),
               "sigma_B": cover.sigma_b.tolist(),
               "transitive": cover.is_transitive()}
    print(f"n={cfg['n']} transitive={payload['transitive']}")
    return {"cover.json": payload}


# Each subcommand is declared once: its handler and {option: (type, default,
# help)}.  Every option is both a --flag and a config key.  Every subcommand
# takes the _COMMON flags, which are config keys only where it declares them
# (--seed).
_COMMON = {"config": (str, None, "JSON config file (flags override it)"),
           "seed": (int, 0, "64-bit seed"),
           "workers": (int, None,
                       "worker count (default: HYPERCUT_WORKERS or all)"),
           "out": (str, None, "output directory")}
_SEED = {"seed": _COMMON["seed"]}
_SAMPLES = {"q": (int, 5, "congruence level"), "n": (int, 10_000, "samples"),
            "r_max": (float, 8.0, "distance cap"),
            "cusp_cap": (float, CUSP_CAP, "height cap"), **_SEED}

_COMMANDS = {
    "constants": (_constants, {"r1": (float, 1.0, "step length")}),
    "spherical": (_spherical, {
        "r": (float, 2.0, "radius"), "s_max": (float, 40.0, "max parameter"),
        "s_step": (float, 0.05, "grid step"),
        "p": (float, 2.0, "bound exponent")}),
    "mixture": (_mixture, {"k": (int, 3, "steps"),
                           "r1": (float, 1.0, "step length")}),
    "heat": (_heat, {"t": (float, 2.0, "time")}),
    "walk": (_walk, {
        "r1": (float, 1.0, "step length"), "k": (int, 100, "steps"),
        "n": (int, 10_000, "walkers"),
        "run_clt_check": (bool, False, "attach normality report"),
        "run_tail_checks": (bool, False, "attach tail reports"),
        "trajectories": (int, 0, "dump the paths of this run's first n "
                                 "walkers as CSV"), **_SEED}),
    "tv": (_tv, {
        "q": (int, 3, "congruence level"), "r1": (float, 1.0, "step length"),
        "n": (int, 100_000, "walkers"), "k_max": (int, None, "profile length"),
        "cusp_cap": (float, CUSP_CAP, "height cap"),
        "n_boot": (int, 200, "bootstrap resamples"), **_SEED}),
    "distances": (_distances, _SAMPLES),
    "concentration": (_concentration, _SAMPLES),
    "isoperimetry": (_isoperimetry, {
        "q": (int, 5, "congruence level"), "r": (float, 1.0, "dilation"),
        "p": (float, 4.0, "certified exponent"),
        "r0": (float, 0.8, "seed ball radius"),
        "n": (int, 20_000, "Monte Carlo samples"), **_SEED}),
    "density": (_density, {
        "n_values": (str, "1000,10000,100000,1000000",
                     "comma list of cover degrees"),
        "a_param": (float, 1.0, "recorded in the config only; has no effect"),
        "g_slope": (float, 1.2, "growth slope"),
        "family": (str, "density", "density | uniform"),
        "budget_files": (str, None, "comma list of budget JSON files")}),
    "torus": (_torus, {
        "lam": (float, 1.0, "scale lambda"), "t": (float, 5.0, "time"),
        "t_grid": (str, None, "comma list of times"),
        "no_cutoff": (bool, False, "emit mixing-time profile"),
        "T_grid": (str, "1,2,3,5", "comma list of targets T")}),
    "cover": (_cover, {"n": (int, 12, "sheet count"), **_SEED}),
}


def _run(args) -> int:
    """Resolve the config, run the handler on the clock, then write the
    config and every artifact it returned, all stamped with one meta."""
    handler, options = _COMMANDS[args.command]
    cfg = _resolve(options, args)
    t0 = time.monotonic()
    artifacts = handler(cfg, args)
    meta = {"version": __version__, "config_hash": _config_hash(cfg),
            "wall_time_s": round(time.monotonic() - t0, 3)}
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, f"{args.command}_config.json"), cfg)
    for name, payload in artifacts.items():
        path = os.path.join(out, name)
        if name.endswith(".json"):
            _write_json(path, {**payload, "meta": meta})
        else:
            header, rows, *extra = payload
            _write_csv(path, {**meta, **(extra[0] if extra else {})},
                       header, rows)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypercut",
                     description="Hyperbolic-surface mixing workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        for key, (typ, _, help_text) in {**_COMMON, **options}.items():
            kind = {"action": "store_true"} if typ is bool else {"type": typ}
            p.add_argument(f"--{key.replace('_', '-')}", default=None,
                           dest=key, help=help_text, **kind)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _run(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
