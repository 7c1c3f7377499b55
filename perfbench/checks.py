"""Output checks that decide whether a workload step failed.

At the default seed every artifact must match the digest recorded in
``digests.json``: CSV bodies (the lines after the ``#`` header) and JSON
reports without their ``meta`` entry, which is the repository's
determinism contract.  At any seed, seed-independent invariants apply.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

from workloads import STDOUT

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.json")
TOL = 1e-9


def _csv_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _csv_header(path: str) -> dict[str, str]:
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("# "):
                break
            key, _, val = line[2:].partition(" = ")
            meta[key] = val.strip()
    return meta


def _column(path: str, name: str) -> list[float]:
    header, rows = _csv_rows(path)
    j = header.index(name)
    return [float(r[j]) for r in rows]


def artifact_digest(path: str) -> str:
    """sha256 of a CSV body or of a JSON document without ``meta``."""
    if path.endswith(".csv"):
        with open(path, "rb") as fh:
            body = b"".join(ln for ln in fh if not ln.startswith(b"#"))
    else:
        with open(path) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict):
            doc.pop("meta", None)
        body = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(body).hexdigest()


def step_digests(step_dir: str) -> dict[str, str]:
    return {name: artifact_digest(os.path.join(step_dir, name))
            for name in sorted(os.listdir(step_dir))
            if name.endswith((".csv", ".json"))}


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def _tv(d):
    header, rows = _csv_rows(os.path.join(d, "tv.csv"))
    tv, lo, hi = (header.index(k) for k in ("tv", "ci_lo", "ci_hi"))
    bad = [r for r in rows
           if not (0.0 <= float(r[tv]) <= 2.0 and float(r[lo]) <= float(r[hi]))]
    return [f"tv row out of range: {r}" for r in bad[:3]] or (
        [] if rows else ["tv.csv has no rows"])


def _nonnegative(csv_name: str, column: str):
    def check(d):
        values = _column(os.path.join(d, csv_name), column)
        if not values:
            return [f"{csv_name} has no rows"]
        low = min(values)
        return [f"negative {column} {low}"] if low < 0.0 else []
    return check


def _isoperimetry(d):
    with open(os.path.join(d, "isoperimetry.json")) as fh:
        rep = json.load(fh)
    return [] if 0.0 <= rep["c_prime"] <= 1.0 else \
        [f"c_prime {rep['c_prime']} outside [0, 1]"]


def _enumerate(d):
    with open(os.path.join(d, "enumeration.json")) as fh:
        return [] if json.load(fh)["size"] > 0 else ["empty enumeration"]


def _quotient(d):
    with open(os.path.join(d, "quotient_geometry.json")) as fh:
        rep = json.load(fh)
    problems = []
    for key in ("symmetry_gap", "triangle_gap"):
        if rep[key] is None or not rep[key] <= TOL:
            problems.append(f"{key} {rep[key]} above {TOL}")
    if not rep["deck_exact"]:
        problems.append("deck transformation changed a distance")
    if rep["min_distance"] is None or rep["min_distance"] < 0.0:
        problems.append(f"min distance {rep['min_distance']}")
    return problems


def _spherical(d):
    violations = _csv_header(os.path.join(d, "spherical.csv")).get(
        "violations")
    return [] if violations == "0" else [f"{violations} bound violations"]


def _heat(d):
    """heat.csv is divided by its mass before it is written, so the defect
    before that division is read from the step's ``defect=`` output."""
    with open(os.path.join(d, STDOUT)) as fh:
        found = re.findall(r"\bdefect=(\S+)", fh.read())
    if not found:
        return ["heat printed no normalization defect"]
    defect = float(found[-1])
    return [] if defect <= 1e-6 else [f"heat normalization defect {defect}"]


def _torus(d):
    header, rows = _csv_rows(os.path.join(d, "torus.csv"))
    l1, lo, hi = (header.index(k) for k in ("l1", "lower", "upper"))
    return [f"torus l1 outside its sandwich: {r}" for r in rows
            if not float(r[lo]) <= float(r[l1]) <= float(r[hi])]


INVARIANTS = {
    "tv": _tv,
    "distances": _nonnegative("distances.csv", "d"),
    "isoperimetry": _isoperimetry,
    "enumerate": _enumerate,
    "quotient_q2": _quotient, "quotient_q3": _quotient,
    "quotient_q5": _quotient,
    "walk": _nonnegative("walk_steps.csv", "mean_dist"),
    "spherical_r2": _spherical, "spherical_r8": _spherical,
    "mixture": _nonnegative("mixture.csv", "density"),
    "heat": _heat,
    "torus": _torus,
}


def check_step(workload: str, step: str, step_dir: str,
               digests: dict | None) -> list[str]:
    """Problems with one step's artifacts; ``digests`` is the recorded
    table when the run used the default seed, else None."""
    if not os.path.isdir(step_dir) or not step_digests(step_dir):
        return ["no artifacts written"]
    try:
        problems = INVARIANTS.get(step, lambda d: [])(step_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
    if digests is not None:
        expected = digests.get(workload, {}).get(step)
        got = step_digests(step_dir)
        if expected is None:
            problems.append("no recorded digests for this step")
        else:
            problems.extend(f"{name} differs from its recorded digest"
                            for name in sorted(set(expected) | set(got))
                            if expected.get(name) != got.get(name))
    return problems
