"""The four benchmark workloads, as sequences of steps run in one process.

A step is one operation: a CLI subcommand run in-process through
``hypercut.cli.main`` with its own output directory, or a library call
sequence written here (``geometry_build`` mirrors the shape of acceptance
criterion 8).  Every step receives the workload seed; the program gets
only the inputs generated from it.  A CLI step's standard output is
kept in ``stdout.txt`` beside its artifacts, for the output checks.  Why
each workload exists is written once, in ``BENCHMARK.json``.

Sizes are chosen so one workload process runs for roughly 4 to 7 s on a
2-core machine, which leaves room for three to five samples in a 30 s
run, with the reference runs between them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass

DEFAULT_SEED = 0
WORKERS = 2
STDOUT = "stdout.txt"

# geometry_build: one enumeration large enough for every pair query.  With
# cusp_cap 10 a sample lies at most arccosh(5.0625) < 2.31 from i, so a
# query needs at most 6.25 + 2 * 2.31 < 11: the enumeration is built
# exactly once for every seed, and a second build shows in the counts.
GEOMETRY_BOUND = 11.0
GEOMETRY_R_MAX = 6.25
GEOMETRY_PAIRS = 200
GEOMETRY_LEVELS = (2, 3, 5)
CUSP_CAP = 10.0


@dataclass(frozen=True)
class Step:
    name: str
    argv: tuple[str, ...] = ()   # CLI subcommand and flags
    call: str = ""               # or a library step defined in this module

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else ""


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]


def _cli(name: str, *argv: str) -> Step:
    return Step(name, argv=argv)


WORKLOADS = {w.name: w for w in (
    Workload(
        "tv_cutoff",
        (_cli("tv", "tv", "--q", "5", "--r1", "1.0", "--n", "200000",
              "--workers", str(WORKERS)),)),
    Workload(
        "geometry_build",
        (Step("enumerate", call="enumerate"),)
        + tuple(Step(f"quotient_q{q}", call=f"quotient_q{q}")
                for q in GEOMETRY_LEVELS)),
    Workload(
        "geometry_query",
        (_cli("distances", "distances", "--q", "5", "--n", "20000",
              "--r-max", "8"),
         _cli("isoperimetry", "isoperimetry", "--q", "5", "--n", "20000"))),
    Workload(
        "halfplane",
        (_cli("walk", "walk", "--k", "200", "--n", "50000",
              "--trajectories", "32", "--run-clt-check",
              "--run-tail-checks", "--workers", str(WORKERS)),
         _cli("spherical_r2", "spherical", "--r", "2"),
         _cli("spherical_r8", "spherical", "--r", "8"),
         _cli("mixture", "mixture", "--k", "6"),
         _cli("heat", "heat", "--t", "4"),
         _cli("torus", "torus", "--no-cutoff"),
         _cli("density", "density"),
         _cli("cover", "cover"))),
)}


def run_step(step: Step, seed: int, out: str) -> None:
    """Run one step, writing its artifacts under ``out``; raises on a
    non-zero CLI exit code."""
    os.makedirs(out, exist_ok=True)
    if step.argv:
        from hypercut import cli
        with open(os.path.join(out, STDOUT), "w") as fh, \
                contextlib.redirect_stdout(fh):
            code = cli.main(list(step.argv)
                            + ["--seed", str(seed), "--out", out])
        if code != 0:
            raise RuntimeError(f"{step.command} exited with code {code}")
    elif step.call == "enumerate":
        _enumerate(out)
    elif step.call.startswith("quotient_q"):
        _quotient_geometry(int(step.call[len("quotient_q"):]), seed, out)
    else:
        raise ValueError(f"unknown step {step!r}")


def _write(out: str, name: str, payload: dict) -> None:
    with open(os.path.join(out, name), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _enumerate(out: str) -> None:
    from hypercut.modular import get_enumeration
    enum = get_enumeration(GEOMETRY_BOUND)
    _write(out, "enumeration.json", {"bound": enum.bound, "size": enum.size})


def _quotient_geometry(q: int, seed: int, out: str) -> None:
    """Criterion 8's symmetry, triangle and deck-invariance checks at one
    level, on GEOMETRY_PAIRS pairs per call."""
    import numpy as np

    from hypercut.modular import (get_enumeration, modq_context,
                                  quotient_distance_pairs,
                                  sample_uniform_quotient)
    from hypercut.walks import stream

    enum = get_enumeration(GEOMETRY_BOUND)
    enum.coset_labels(q)
    n = GEOMETRY_PAIRS
    (x, y, sheets), _ = sample_uniform_quotient(q, CUSP_CAP, stream(seed, tag=q),
                                                3 * n)
    a, b, c = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)

    def pairs(i, j, si=None, sj=None):
        si = sheets[i] if si is None else si
        sj = sheets[j] if sj is None else sj
        return quotient_distance_pairs(q, x[i], y[i], si, x[j], y[j], sj,
                                       GEOMETRY_R_MAX, enum=enum)

    d_ab, d_ba, d_bc, d_ac = pairs(a, b), pairs(b, a), pairs(b, c), pairs(a, c)
    ctx = modq_context(q)
    h = ctx.elements[min(3, ctx.size - 1)]
    deck = np.array([ctx.index[h.mul(e).key()] for e in ctx.elements])
    d_moved = pairs(a, b, deck[sheets[a]], deck[sheets[b]])

    sym = np.isfinite(d_ab) & np.isfinite(d_ba)
    tri = np.isfinite(d_ab) & np.isfinite(d_bc) & np.isfinite(d_ac)
    both = np.isfinite(d_ab) & np.isfinite(d_moved)
    every = np.concatenate([d_ab, d_ba, d_bc, d_ac, d_moved])
    finite = every[np.isfinite(every)]
    _write(out, "quotient_geometry.json", {
        "q": q, "pairs_per_call": n, "calls": 5,
        "finite": int(finite.size),
        "min_distance": float(finite.min()) if finite.size else None,
        "symmetry_gap": float(np.max(np.abs(d_ab - d_ba)[sym]))
        if sym.any() else None,
        "triangle_gap": float(np.max((d_ac - d_ab - d_bc)[tri]))
        if tri.any() else None,
        "deck_exact": bool(np.array_equal(d_ab[both], d_moved[both])
                           and np.array_equal(np.isfinite(d_ab),
                                              np.isfinite(d_moved))),
        "distances_sha256": hashlib.sha256(every.tobytes()).hexdigest(),
    })

