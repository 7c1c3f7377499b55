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
from .mixing import (concentration_fit, cutoff_locator, default_partition,
                     distance_histogram, isoperimetric_check, tv_profile)
from .modular import CosetModQ, QuotientPoint, quotient_R, random_cover
from .spectral import (clt_constants, hc_bound, heat_envelope,
                       heat_radial_density, radial_mixture,
                       spherical_principal_grid)
from .torus import TorusConfig, no_cutoff_profile, torus_l1, torus_l1_bounds
from .walks import WalkConfig, clt_check, stream, tail_checks, walk_discrete


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _resolve(defaults: dict, args: argparse.Namespace) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _out_path(args, name: str) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


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
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonify)
        fh.write("\n")


def _jsonify(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _meta(cfg: dict, t0: float) -> dict:
    return {"version": __version__, "config_hash": _config_hash(cfg),
            "wall_time_s": round(time.monotonic() - t0, 3)}


def _emit_config(args, name: str, cfg: dict) -> None:
    _write_json(_out_path(args, f"{name}_config.json"), cfg)


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

def cmd_constants(args) -> int:
    cfg = _resolve({"r1": 1.0}, args)
    t0 = time.monotonic()
    c = clt_constants(cfg["r1"])
    _emit_config(args, "constants", cfg)
    _write_json(_out_path(args, "constants.json"),
                {"r1": c.r1, "alpha": c.alpha, "sigma2": c.sigma2,
                 "meta": _meta(cfg, t0)})
    print(f"alpha={c.alpha:.12g} sigma2={c.sigma2:.12g}")
    return 0


def cmd_spherical(args) -> int:
    cfg = _resolve({"r": 2.0, "s_max": 40.0, "s_step": 0.05, "p": 2.0}, args)
    t0 = time.monotonic()
    s = np.arange(0.0, cfg["s_max"] + cfg["s_step"] / 2.0, cfg["s_step"])
    phi = spherical_principal_grid(s, cfg["r"], tol=1e-8)
    bound = hc_bound(cfg["r"], cfg["p"])
    violations = int(np.count_nonzero(np.abs(phi) > bound + 1e-6))
    meta = _meta(cfg, t0)
    meta["violations"] = violations
    _emit_config(args, "spherical", cfg)
    _write_csv(_out_path(args, "spherical.csv"), meta,
               ["s", "phi", "bound"],
               [(float(si), float(pi), bound) for si, pi in zip(s, phi)])
    print(f"r={cfg['r']} points={s.size} violations={violations}")
    return 0


def cmd_mixture(args) -> int:
    cfg = _resolve({"k": 3, "r1": 1.0}, args)
    t0 = time.monotonic()
    m = radial_mixture(int(cfg["k"]), cfg["r1"], workers=_workers(args))
    _emit_config(args, "mixture", cfg)
    _write_csv(_out_path(args, "mixture.csv"), _meta(cfg, t0),
               ["r", "density"],
               zip(map(float, m.grid.centers), map(float, m.density)))
    print(f"k={cfg['k']} r1={cfg['r1']} mass={m.total_mass():.9f}")
    return 0


def cmd_heat(args) -> int:
    cfg = _resolve({"t": 2.0}, args)
    t0 = time.monotonic()
    m = heat_radial_density(cfg["t"], workers=_workers(args))
    env = heat_envelope(cfg["t"], m.grid.centers)
    _emit_config(args, "heat", cfg)
    _write_csv(_out_path(args, "heat.csv"), _meta(cfg, t0),
               ["r", "density", "envelope"],
               zip(map(float, m.grid.centers), map(float, m.density),
                   map(float, env)))
    print(f"t={cfg['t']} mass={m.total_mass():.9f} "
          f"defect={m.meta.get('normalization_defect', 0.0):.3g}")
    return 0


def cmd_walk(args) -> int:
    cfg = _resolve({"r1": 1.0, "k": 100, "n": 10_000, "seed": 0,
                    "run_clt_check": False, "run_tail_checks": False,
                    "trajectories": 0}, args)
    t0 = time.monotonic()
    wcfg = WalkConfig(r1=cfg["r1"], k=int(cfg["k"]), n_walkers=int(cfg["n"]),
                      seed=int(cfg["seed"]))
    n_dump = min(int(cfg["trajectories"] or 0), 512, wcfg.n_walkers)
    stats = walk_discrete(wcfg, workers=_workers(args), paths=n_dump)
    if n_dump:
        rows = ((w, step, float(x), float(np.exp(lny)))
                for w, path in enumerate(stats.paths)
                for step, (x, lny) in enumerate(path))
        _write_csv(_out_path(args, "walk_trajectories.csv"), _meta(cfg, t0),
                   ["walker", "step", "x", "y"], rows)
    report = {
        "config": {"r1": wcfg.r1, "k": wcfg.k, "n": wcfg.n_walkers,
                   "seed": wcfg.seed},
        "mean_lny_final": float(stats.mean_lny[-1]) if wcfg.k else 0.0,
        "mean_dist_final": float(stats.mean_dist[-1]) if wcfg.k else 0.0,
        "dist_quantiles": {str(k): float(v)
                           for k, v in stats.dist_quantiles.items()},
    }
    if cfg["run_clt_check"]:
        report["clt_check"] = clt_check(wcfg, stats)
    if cfg["run_tail_checks"]:
        tails = tail_checks(wcfg, stats=stats)
        report["tail_checks"] = {
            fam: {k: v for k, v in rep.items()
                  if k in ("fit_ok", "slope", "c", "r2", "censored")}
            for fam, rep in tails.items() if fam != "constants"}
    report["meta"] = _meta(cfg, t0)
    _emit_config(args, "walk", cfg)
    _write_json(_out_path(args, "walk.json"), report)
    _write_csv(_out_path(args, "walk_steps.csv"), _meta(cfg, t0),
               ["step", "mean_lny", "var_lny", "mean_dist", "var_dist"],
               ((i + 1, float(stats.mean_lny[i]), float(stats.var_lny[i]),
                 float(stats.mean_dist[i]), float(stats.var_dist[i]))
                for i in range(wcfg.k)))
    print(f"final mean distance {report['mean_dist_final']:.4f}")
    return 0


def cmd_tv(args) -> int:
    cfg = _resolve({"q": 3, "r1": 1.0, "n": 100_000, "seed": 0,
                    "k_max": None, "cusp_cap": 10.0, "n_boot": 200}, args)
    k_max = cfg["k_max"]
    if k_max is not None and k_max < 0:
        raise ConfigError(f"need k_max >= 0, not {k_max}")
    t0 = time.monotonic()
    q = int(cfg["q"])
    consts = clt_constants(cfg["r1"])
    R = quotient_R(q)
    if k_max is None:
        k_max = int(math.ceil(3.2 * R / (consts.alpha * cfg["r1"])))
    cfg["k_max"] = int(k_max)
    profile = tv_profile(q, _origin_point(q), cfg["r1"],
                         range(0, int(k_max) + 1), int(cfg["n"]),
                         default_partition(q, cfg["cusp_cap"]),
                         seed=int(cfg["seed"]), workers=_workers(args),
                         n_boot=int(cfg["n_boot"]))
    meta = _meta(cfg, t0)
    _emit_config(args, "tv", cfg)
    _write_csv(_out_path(args, "tv.csv"), meta,
               ["k", "tv", "ci_lo", "ci_hi"],
               zip(map(int, profile.ks), map(float, profile.tv),
                   map(float, profile.ci_lo), map(float, profile.ci_hi)))
    report = {"q": q, "R_X": R, "alpha": consts.alpha,
              "n_cells": profile.n_cells, "starved_cells": profile.starved_cells,
              "bias_note": profile.bias_note, "meta": meta}
    try:
        report["cutoff"] = cutoff_locator(profile.ks, profile.tv,
                                          consts.alpha * cfg["r1"], R)
    except ValueError as exc:
        report["cutoff"] = {"error": str(exc)}
    _write_json(_out_path(args, "tv_report.json"), report)
    print(f"q={q} k_max={k_max} tv_final={profile.tv[-1]:.4f}")
    return 0


def cmd_distances(args) -> int:
    cfg = _resolve({"q": 5, "n": 10_000, "r_max": 8.0, "seed": 0,
                    "cusp_cap": 10.0}, args)
    t0 = time.monotonic()
    q = int(cfg["q"])
    hist = distance_histogram(q, _origin_point(q), int(cfg["n"]),
                              cfg["r_max"], seed=int(cfg["seed"]),
                              cusp_cap=cfg["cusp_cap"])
    meta = _meta(cfg, t0)
    _emit_config(args, "distances", cfg)
    _write_csv(_out_path(args, "distances.csv"), meta, ["d"],
               ((float(d),) for d in np.sort(hist["distances"])))
    report = {k: v for k, v in hist.items() if k != "distances"}
    report["meta"] = meta
    _write_json(_out_path(args, "distances_report.json"), report)
    print(f"q={q} R_X={hist['R_X']:.4f} overflow={hist['n_exceed']}")
    return 0


def cmd_concentration(args) -> int:
    cfg = _resolve({"q": 5, "n": 10_000, "r_max": 8.0, "seed": 0,
                    "cusp_cap": 10.0}, args)
    t0 = time.monotonic()
    q = int(cfg["q"])
    hist = distance_histogram(q, _origin_point(q), int(cfg["n"]),
                              cfg["r_max"], seed=int(cfg["seed"]),
                              cusp_cap=cfg["cusp_cap"])
    rep = concentration_fit(hist["distances"], hist["n_exceed"],
                            exceed_floor=cfg["r_max"])
    _emit_config(args, "concentration", cfg)
    _write_json(_out_path(args, "concentration.json"),
                {"q": q, "R_X": hist["R_X"], "r_med": rep.r_med, "a": rep.a,
                 "slope": rep.slope, "r2": rep.r2,
                 "window_80": rep.window_80,
                 "inconclusive": rep.inconclusive, "meta": _meta(cfg, t0)})
    print(f"q={q} r_med={rep.r_med:.4f} a={rep.a:.4f} r2={rep.r2:.3f}")
    return 0


def cmd_isoperimetry(args) -> int:
    cfg = _resolve({"q": 5, "r": 1.0, "p": 4.0, "r0": 0.8, "n": 20_000,
                    "seed": 0}, args)
    t0 = time.monotonic()
    q = int(cfg["q"])
    result = isoperimetric_check(
        q, ("ball", _origin_point(q), cfg["r0"]), cfg["r"], cfg["p"],
        int(cfg["n"]), seed=int(cfg["seed"]))
    result["meta"] = _meta(cfg, t0)
    _emit_config(args, "isoperimetry", cfg)
    _write_json(_out_path(args, "isoperimetry.json"), result)
    print(f"c={result['c']:.4f} c'={result['c_prime']:.4f} "
          f"bound={result['bound']:.4f} passes={result['passes']}")
    return 0


def cmd_density(args) -> int:
    cfg = _resolve({"n_values": "1000,10000,100000,1000000", "a_param": 1.0,
                    "g_slope": 1.2, "family": "density",
                    "budget_files": None}, args)
    t0 = time.monotonic()
    if cfg["budget_files"]:
        budgets = []
        for path in str(cfg["budget_files"]).split(","):
            with open(path) as fh:
                budgets.append(EigenvalueBudget.from_json(fh.read()))
    else:
        ns = [int(v) for v in str(cfg["n_values"]).split(",")]
        maker = (synthetic_density_budget if cfg["family"] == "density"
                 else uniform_budget)
        budgets = [maker(n) for n in ns]
    result = normal_cover_requirement(budgets, GrowthFunction(cfg["g_slope"]))
    meta = _meta(cfg, t0)
    meta["vanishing"] = result["vanishing"]
    _emit_config(args, "density", cfg)
    _write_csv(_out_path(args, "density.csv"), meta,
               ["N_q", "req0", "req_integral", "req_limit"],
               ((row.n_cover, row.req_sum, row.req_integral, row.req_limit)
                for row in result["rows"]))
    print(f"vanishing={result['vanishing']}")
    return 0


def cmd_torus(args) -> int:
    cfg = _resolve({"lam": 1.0, "t": 5.0, "t_grid": None, "no_cutoff": False,
                    "T_grid": "1,2,3,5"}, args)
    t0 = time.monotonic()
    rows = []
    ts = ([float(v) for v in str(cfg["t_grid"]).split(",")]
          if cfg["t_grid"] else [cfg["t"]])
    for t in ts:
        tc = TorusConfig(cfg["lam"], t)
        lo, hi = torus_l1_bounds(tc)
        rows.append((cfg["lam"], t, torus_l1(tc), lo, hi))
    meta = _meta(cfg, t0)
    _emit_config(args, "torus", cfg)
    _write_csv(_out_path(args, "torus.csv"), meta,
               ["lambda", "t", "l1", "lower", "upper"], rows)
    if cfg["no_cutoff"]:
        tg = [float(v) for v in str(cfg["T_grid"]).split(",")]
        prof = no_cutoff_profile([cfg["lam"]], tg)
        _write_csv(_out_path(args, "torus_profile.csv"), meta,
                   ["lambda", "T", "t", "ratio"],
                   ((r["lam"], r["T"], r["t"], r["ratio"])
                    for r in prof["rows"]))
        print(f"ratio spread {prof['ratio_spread']:.3f}")
    else:
        print(f"l1={rows[0][2]:.6g} in [{rows[0][3]:.6g}, {rows[0][4]:.6g}]")
    return 0


def cmd_cover(args) -> int:
    cfg = _resolve({"n": 12, "seed": 0}, args)
    t0 = time.monotonic()
    cover = random_cover(int(cfg["n"]), stream(int(cfg["seed"]), tag=6))
    payload = json.loads(cover.to_json())
    payload["transitive"] = cover.is_transitive()
    payload["meta"] = _meta(cfg, t0)
    _emit_config(args, "cover", cfg)
    _write_json(_out_path(args, "cover.json"), payload)
    print(f"n={cfg['n']} transitive={payload['transitive']}")
    return 0


_HANDLERS = {
    "constants": cmd_constants, "spherical": cmd_spherical,
    "mixture": cmd_mixture, "heat": cmd_heat, "walk": cmd_walk,
    "tv": cmd_tv, "distances": cmd_distances,
    "concentration": cmd_concentration, "isoperimetry": cmd_isoperimetry,
    "density": cmd_density, "torus": cmd_torus, "cover": cmd_cover,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypercut",
                     description="Hyperbolic-surface mixing workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **flags):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file (flags override it)")
        p.add_argument("--seed", type=int, default=None, help="64-bit seed")
        p.add_argument("--workers", type=int, default=None,
                       help="worker count (default: HYPERCUT_WORKERS or all)")
        p.add_argument("--out", type=str, default=None,
                       help="output directory")
        for flag, (typ, help_text) in flags.items():
            if typ is bool:
                p.add_argument(f"--{flag.replace('_', '-')}",
                               action="store_true", default=None,
                               dest=flag, help=help_text)
            else:
                p.add_argument(f"--{flag.replace('_', '-')}", type=typ,
                               default=None, dest=flag, help=help_text)
        return p

    add("constants", r1=(float, "step length"))
    add("spherical", r=(float, "radius"), s_max=(float, "max parameter"),
        s_step=(float, "grid step"), p=(float, "bound exponent"))
    add("mixture", k=(int, "steps"), r1=(float, "step length"))
    add("heat", t=(float, "time"))
    add("walk", r1=(float, "step length"), k=(int, "steps"),
        n=(int, "walkers"), run_clt_check=(bool, "attach normality report"),
        run_tail_checks=(bool, "attach tail reports"),
        trajectories=(int, "dump the paths of this run's first n walkers "
                           "as CSV"))
    add("tv", q=(int, "congruence level"), r1=(float, "step length"),
        n=(int, "walkers"), k_max=(int, "profile length"),
        cusp_cap=(float, "height cap"), n_boot=(int, "bootstrap resamples"))
    add("distances", q=(int, "congruence level"), n=(int, "samples"),
        r_max=(float, "distance cap"), cusp_cap=(float, "height cap"))
    add("concentration", q=(int, "congruence level"), n=(int, "samples"),
        r_max=(float, "distance cap"), cusp_cap=(float, "height cap"))
    add("isoperimetry", q=(int, "congruence level"), r=(float, "dilation"),
        p=(float, "certified exponent"), r0=(float, "seed ball radius"),
        n=(int, "Monte Carlo samples"))
    add("density", n_values=(str, "comma list of cover degrees"),
        a_param=(float, "recorded in the config only; has no effect"),
        g_slope=(float, "growth slope"),
        family=(str, "density | uniform"),
        budget_files=(str, "comma list of budget JSON files"))
    add("torus", lam=(float, "scale lambda"), t=(float, "time"),
        t_grid=(str, "comma list of times"),
        no_cutoff=(bool, "emit mixing-time profile"),
        T_grid=(str, "comma list of targets T"))
    add("cover", n=(int, "sheet count"))
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args)
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
