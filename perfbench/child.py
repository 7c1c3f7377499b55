"""One workload sample: a fresh process that runs a workload's steps.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR [--trace]

``hypercut.cli`` (and with it numpy and scipy) is imported first; the
moment that import finishes is the end of set-up.  The parent measures
wall time, CPU time and peak RSS of this process from outside.  The child
writes ``result.json`` (set-up timestamp, per-step errors) and, when
traced, ``spans.jsonl``.
"""

import time  # noqa: I001 -- set-up is timed from here

import hypercut.cli  # noqa: F401  (loads numpy and scipy too)

SETUP_DONE = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS, run_step  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), argv[2]
    tracer = None
    if "--trace" in argv[3:]:
        import layers
        from tracing import Tracer
        tracer = Tracer()
        layers.instrument(tracer)
    steps = []
    for step in WORKLOADS[workload].steps:
        error = None
        span = tracer.start(f"cli.{step.command}" if step.command
                            else f"step.{step.name}") if tracer else None
        try:
            run_step(step, seed, os.path.join(out, step.name))
        except Exception as exc:  # a failed step is counted, not fatal
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.end(span)
        steps.append({"name": step.name, "error": error})
    if tracer:
        if any(m[0] == "modular.enum_peak_mb"
               for m in layers.LAYER_METRICS.get(workload, ())):
            layers.replay_enumerations(tracer)
        tracer.write(os.path.join(out, "spans.jsonl"))
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump({"setup_done": SETUP_DONE, "steps": steps}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
