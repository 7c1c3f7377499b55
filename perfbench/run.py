"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample of a workload is one fresh Python process (``child.py``) with
at most two worker threads and BLAS/OpenMP pinned to one thread.  With
``--trace 0`` the run repeats samples for ``--seconds``, with a run of
``reference.py`` before the first sample and after each one, and reports
the medians of the end-to-end metrics; the times are scaled to the
reference speed (see ``run_workload``).  With ``--trace 1`` it runs every
workload once untraced and once traced, and reports the per-layer
metrics of all of them, each measured on the workload that exercises its
layer, plus the tracing overhead of each workload.

``--workload all`` runs every workload untraced and prints a table of the
end-to-end metrics; ``--out FILE`` keeps the full result with its run
metadata; ``--record-digests`` re-records the default-seed output digests.
The last line of standard output is always one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import read_spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKERS, WORKLOADS  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
# Why each workload exists is written once, in BENCHMARK.json.
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}

OUT_ROOT = ".perfbench_out"
SAMPLE_TIMEOUT_S = 150
MIN_SAMPLES = 3
THREAD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "HYPERCUT_WORKERS": str(WORKERS),
    "PYTHONHASHSEED": "0",
}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
# The end-to-end times that are scaled to the reference speed, and the
# wall time of reference.py that counts as that speed: about its median
# (1.07 s over 393 runs) on the 2-vCPU Xeon VM the benchmark was built on.
# A run whose median reference time is REFERENCE_S reports its times
# unscaled.
SCALED = ("wall_s", "setup_s", "cpu_s")
REFERENCE_S = 1.1


def child_env(repo: str) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(repo), "src")
    return env


def check_repo(repo: str) -> None:
    if not os.path.isfile(os.path.join(repo, "src", "hypercut", "cli.py")):
        raise SystemExit(f"error: no hypercut source under {repo}/src")


def run_meta(repo: str, seed: int, seconds: int) -> dict:
    """Everything two result sets must share before they are compared."""
    try:
        sha = subprocess.run(["git", "-C", repo, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    src_root = os.path.join(repo, "src", "hypercut")
    for name in sorted(os.listdir(src_root)):
        if name.endswith(".py"):
            with open(os.path.join(src_root, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "git_sha": sha, "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "seed": seed, "seconds": seconds, "workers": WORKERS,
        "thread_env": THREAD_ENV,
    }


# Fields of run_meta that must agree between compared result sets.
SETUP_KEYS = ("nproc", "cpus_usable", "cpu_model", "python", "numpy",
              "scipy", "seconds", "workers", "thread_env")


def warm_up(repo: str) -> None:
    """One import in a throwaway process, so byte-code compilation and a
    cold file cache do not land in the first sample."""
    subprocess.run([sys.executable, "-c", "import hypercut.cli"],
                   env=child_env(repo), check=True, timeout=SAMPLE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)


def reference_sample(repo: str) -> float:
    """Wall time of one run of reference.py, from spawn to exit."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, os.path.join(HERE, "reference.py")],
                   env=child_env(repo), check=True, timeout=SAMPLE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return time.monotonic() - t0


def sample(repo: str, workload: str, seed: int, trace: bool,
           digests: dict | None) -> dict:
    """Spawn one workload process, measure it from outside and check its
    outputs."""
    work = os.path.join(OUT_ROOT, f"{workload}-{os.getpid()}-"
                                  f"{time.monotonic_ns()}")
    os.makedirs(work)
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload,
            str(seed), work] + (["--trace"] if trace else [])
    with open(os.path.join(work, "log.txt"), "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, env=child_env(repo), stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    steps = WORKLOADS[workload].steps
    out = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "attempted": len(steps), "problems": {}}
    try:
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        with open(os.path.join(work, "log.txt")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        out["problems"] = {s.name: [f"process exit code {proc.returncode}"]
                           for s in steps}
    else:
        out["setup_s"] = result["setup_done"] - t0
        for step in result["steps"]:
            problems = ([step["error"]] if step["error"] else []) + \
                checks.check_step(workload, step["name"],
                                  os.path.join(work, step["name"]), digests)
            if problems:
                out["problems"][step["name"]] = problems
        if trace:
            out["spans"] = read_spans(os.path.join(work, "spans.jsonl"))
    out["failed"] = len(out["problems"])
    for name, problems in out["problems"].items():
        print(f"# FAILED {workload}/{name}: {'; '.join(problems)}",
              file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    return out


def _digests_for(seed: int) -> dict | None:
    return checks.load_digests() if seed == DEFAULT_SEED else None


def run_workload(repo: str, workload: str, seed: int, seconds: float) -> dict:
    """Untraced samples for about ``seconds``, warm-up included (at least
    MIN_SAMPLES, and no sample started that would be expected to end past
    the deadline), with a reference run before the first sample and after
    each one.

    On the shared 2-vCPU VM the benchmark was built on, the machine's
    speed drifted by 10-25 % over minutes, and a run's samples with it.
    The reference runs in between see the same drift, so each time metric
    is the median over the samples that completed times ``REFERENCE_S /
    median reference time``: the time at the reference speed.  The
    unscaled medians are kept in ``raw``."""
    digests = _digests_for(seed)
    start = time.monotonic()
    warm_up(repo)
    refs = [reference_sample(repo)]
    samples = []
    while len(samples) < MIN_SAMPLES or (
            time.monotonic() - start
            + statistics.mean(s["wall_s"] for s in samples)
            + statistics.mean(refs) <= seconds):
        s = sample(repo, workload, seed, False, digests)
        samples.append(s)
        refs.append(reference_sample(repo))
        print(f"# {workload} sample {len(samples)}: "
              + " ".join(f"{k}={s[k]:.4f}" for k, _ in END_TO_END if k in s)
              + f" reference_s={refs[-1]:.4f}", flush=True)
    good = [s for s in samples if "setup_s" in s]
    raw = {name: statistics.median(s[name] for s in good)
           for name, _ in END_TO_END} if good else {}
    return {"samples": [{k: s[k] for k, _ in END_TO_END if k in s}
                        for s in samples],
            "reference_s": refs, "speed": reference_speed(refs), "raw": raw,
            "n_samples": len(good),
            "metrics": scale_to_reference(raw, refs),
            "attempted": sum(s["attempted"] for s in samples),
            "failed": sum(s["failed"] for s in samples)}


def reference_speed(refs: list[float]) -> float:
    return REFERENCE_S / statistics.median(refs)


def scale_to_reference(raw: dict, refs: list[float]) -> dict:
    """End-to-end metrics from the run's unscaled medians: each time in
    SCALED times REFERENCE_S / (median reference time)."""
    speed = reference_speed(refs)
    return {name: {"value": raw[name] * (speed if name in SCALED else 1.0),
                   "unit": unit}
            for name, unit in END_TO_END if name in raw}


def run_traced(repo: str, seed: int) -> dict:
    """Every workload once untraced and once traced; per-layer metrics
    from the traced spans, overhead from the difference in wall time.
    The overhead is one traced/untraced pair, so it carries the machine's
    sample-to-sample noise (up to about 15 % of the wall time)."""
    digests = _digests_for(seed)
    warm_up(repo)
    metrics, attempted, failed = {}, 0, 0
    os.makedirs(os.path.join(OUT_ROOT, "trace"), exist_ok=True)
    for workload in layers.LAYER_METRICS:
        plain = sample(repo, workload, seed, False, digests)
        traced = sample(repo, workload, seed, True, digests)
        attempted += plain["attempted"] + traced["attempted"]
        failed += plain["failed"] + traced["failed"]
        spans = traced.get("spans", [])
        with open(os.path.join(OUT_ROOT, "trace",
                               f"{workload}.spans.jsonl"), "w") as fh:
            fh.writelines(json.dumps(s, sort_keys=True) + "\n" for s in spans)
        metrics.update(layers.layer_metrics(workload, spans))
        metrics[f"{workload}.trace_overhead_s"] = {
            "value": layers.trace_overhead_s(traced["wall_s"],
                                             plain["wall_s"], spans),
            "unit": "s"}
        print(f"# {workload} traced: wall {traced['wall_s']:.3f} s, "
              f"untraced {plain['wall_s']:.3f} s", flush=True)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def record_digests(repo: str) -> dict:
    """Run each workload once at the default seed and store its digests."""
    table = {}
    warm_up(repo)
    for name, workload in WORKLOADS.items():
        work = os.path.join(OUT_ROOT, f"record-{name}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        subprocess.run([sys.executable, os.path.join(HERE, "child.py"), name,
                        str(DEFAULT_SEED), work], env=child_env(repo),
                       check=True, timeout=SAMPLE_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        with open(os.path.join(work, "result.json")) as fh:
            errors = [s for s in json.load(fh)["steps"] if s["error"]]
        if errors:
            raise SystemExit(f"error: {name} steps failed: {errors}")
        table[name] = {s.name: checks.step_digests(os.path.join(work, s.name))
                       for s in workload.steps}
        shutil.rmtree(work, ignore_errors=True)
    with open(checks.DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return table


def _print_table(results: dict) -> None:
    print(f"# {'workload':16s} {'metric':12s} {'median':>12s} unit  samples")
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            print(f"# {workload:16s} {name:12s} {m['value']:12.4f} "
                  f"{m['unit']:5s} {res['n_samples']}")
        print(f"# {workload:16s} {'speed':12s} {res['speed']:12.4f} "
              f"ratio {REFERENCE_S} s / median of "
              f"{len(res['reference_s'])} reference runs")
        ratio = res["failed"] / res["attempted"]
        print(f"# {workload:16s} {'fail_ratio':12s} {ratio:12.4f} "
              f"ratio {res['failed']}/{res['attempted']} steps")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result here as JSON")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    repo = "."
    check_repo(repo)
    meta = run_meta(repo, args.seed, args.seconds)
    print("# meta " + json.dumps(meta, sort_keys=True), flush=True)
    if args.record_digests:
        table = record_digests(repo)
        print(json.dumps({"recorded": sorted(table)}))
        return 0
    if args.trace:
        result = run_traced(repo, args.seed)
        full = {"meta": meta, "trace": result}
    else:
        names = sorted(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        per = {w: run_workload(repo, w, args.seed, args.seconds)
               for w in names}
        _print_table(per)
        full = {"meta": meta, "workloads": per}
        result = {"metrics": per[names[0]]["metrics"] if len(names) == 1
                  else {f"{w}.{k}": v for w, r in per.items()
                        for k, v in r["metrics"].items()},
                  "attempted": sum(r["attempted"] for r in per.values()),
                  "failed": sum(r["failed"] for r in per.values())}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
