"""Paired parent/change runs and the before/after table.

    python3 perfbench/compare.py run --parent DIR --change DIR --out DIR
    python3 perfbench/compare.py table PARENT.json CHANGE.json
    python3 perfbench/compare.py record SET.json TRACE.json OUT.json

``run`` measures both checkouts with this copy of the benchmark on every
workload, in PAIRS pairs of runs of ``run_seconds`` (from BENCHMARK.json)
each, alternating which side goes first, with seed ``SEED0 + i`` for pair
``i``; it writes ``parent.json`` and ``change.json`` and prints the
table.  ``table`` refuses result sets whose machine or settings differ.
``record`` writes one point of the bench trajectory: the medians and
quartiles of a result set, the per-layer metrics of a traced run
(``run.py --trace 1 --out TRACE.json``), why each workload exists, and
which end-to-end metric each layer metric should move.

The rule for each end-to-end metric and workload:
- better: the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
- unresolved: the parent's interquartile range, as a share of its median,
  is wider than the metric's bound, unless every change run beats every
  parent run;
- worse: the change's median is worse than the parent's by more than the
  bound;
- no change: otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

PAIRS = 10
SEED0 = 100


def load_bounds() -> dict[str, dict]:
    return {m["name"]: m for m in bench.BENCHMARK["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float,
            lower_is_better: bool = True) -> str:
    """Section-8 rule on paired samples: parent[i] and change[i] are pair i."""
    sign = 1.0 if lower_is_better else -1.0
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    iqr = q3 - q1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if (sign * (med_c - med_p) < 0 and wins >= 0.9 * len(parent)
            and abs(med_c - med_p) > iqr):
        return "better"
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if iqr > bound * abs(med_p) and not all_better:
        return "unresolved"
    if sign * (med_c - med_p) > bound * abs(med_p):
        return "worse"
    return "no change"


def _values(result_set: dict, workload: str, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in result_set["runs"][workload]
            if metric in r["metrics"]]


def setup_differences(a: dict, b: dict) -> list[str]:
    return [f"{k}: {a['meta'].get(k)!r} != {b['meta'].get(k)!r}"
            for k in bench.SETUP_KEYS if a["meta"].get(k) != b["meta"].get(k)]


def table(parent: dict, change: dict, bounds: dict) -> list[str]:
    diffs = setup_differences(parent, change)
    if diffs:
        raise SystemExit("error: result sets come from different setups:\n  "
                         + "\n  ".join(diffs))
    lines = [f"{'workload':15s} {'metric':12s} {'parent median [q1, q3]':>30s}"
             f" {'change median [q1, q3]':>30s} {'delta':>8s} {'wins':>6s}"
             f" {'spread':>7s} {'bound':>6s}  verdict"]
    for workload in parent["runs"]:
        for name, spec in bounds.items():
            p = _values(parent, workload, name)
            c = _values(change, workload, name)
            if not p or len(p) != len(c):
                continue
            lower = spec["better"] == "lower"
            q1, mp, q3 = quartiles(p)
            c1, mc, c3 = quartiles(c)
            wins = sum((x < y) if lower else (x > y) for y, x in zip(p, c))
            lines.append(
                f"{workload:15s} {name:12s} {mp:12.4f} [{q1:.4f}, {q3:.4f}]"
                f" {mc:12.4f} [{c1:.4f}, {c3:.4f}] {(mc - mp) / mp:+8.2%}"
                f" {wins:3d}/{len(p):<2d} {(q3 - q1) / mp:7.2%}"
                f" {spec['bound']:6.0%}  {verdict(p, c, spec['bound'], lower)}")
        for side, rs in (("parent", parent), ("change", change)):
            runs = rs["runs"][workload]
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            lines.append(f"{workload:15s} fail_ratio   {side} "
                         f"{failed}/{attempted} steps")
    return lines


def trajectory_point(result_set: dict, traced: dict) -> dict:
    workloads = {}
    for workload, runs in result_set["runs"].items():
        e2e = {}
        for name, unit in bench.END_TO_END:
            q1, med, q3 = quartiles(_values(result_set, workload, name))
            e2e[name] = {"median": med, "q1": q1, "q3": q3, "unit": unit}
        workloads[workload] = {
            "why": bench.WHY[workload], "runs": len(runs),
            "samples": sum(r["n_samples"] for r in runs),
            "seeds": [r["seed"] for r in runs],
            "fail_ratio": sum(r["failed"] for r in runs)
            / sum(r["attempted"] for r in runs),
            "end_to_end": e2e}
    layer_values = traced["trace"]["metrics"]
    return {
        "meta": result_set["meta"], "trace_meta": traced["meta"],
        "workloads": workloads,
        "layers": {f"{w}.{name}": dict(layer_values[f"{w}.{name}"],
                                       moves=f"{moves} on {w}")
                   for w, metrics in bench.layers.LAYER_METRICS.items()
                   for name, _, moves, _ in metrics},
        "trace_overhead_s": {w: layer_values[f"{w}.trace_overhead_s"]["value"]
                             for w in bench.layers.LAYER_METRICS},
    }


def run_pairs(repos: dict[str, str]) -> dict[str, dict]:
    """repos maps side -> checkout; sides alternate which goes first."""
    seconds = bench.BENCHMARK["run_seconds"]
    sets = {side: {"meta": bench.run_meta(repo, SEED0, seconds),
                   "runs": {w: [] for w in bench.WORKLOADS}}
            for side, repo in repos.items()}
    sides = list(repos)
    for workload in bench.WORKLOADS:
        for i in range(PAIRS):
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                res = bench.run_workload(repos[side], workload, SEED0 + i,
                                         seconds)
                res["seed"] = SEED0 + i
                sets[side]["runs"][workload].append(res)
    return sets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--parent", required=True)
    p_run.add_argument("--change", required=True)
    p_run.add_argument("--out", required=True)
    p_table = sub.add_parser("table")
    p_table.add_argument("parent")
    p_table.add_argument("change")
    p_record = sub.add_parser("record")
    p_record.add_argument("result_set")
    p_record.add_argument("trace")
    p_record.add_argument("out")
    args = parser.parse_args(argv)
    if args.mode == "record":
        with open(args.result_set) as fh, open(args.trace) as ft:
            point = trajectory_point(json.load(fh), json.load(ft))
        with open(args.out, "w") as fh:
            json.dump(point, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.mode == "run":
        repos = {"parent": args.parent, "change": args.change}
        for repo in repos.values():
            bench.check_repo(repo)
        sets = run_pairs(repos)
        os.makedirs(args.out, exist_ok=True)
        for side, rs in sets.items():
            with open(os.path.join(args.out, f"{side}.json"), "w") as fh:
                json.dump(rs, fh, indent=1, sort_keys=True)
                fh.write("\n")
    else:
        sets = {}
        for side in ("parent", "change"):
            with open(getattr(args, side)) as fh:
                sets[side] = json.load(fh)
    lines = table(sets["parent"], sets["change"], load_bounds())
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
