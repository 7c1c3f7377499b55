"""Bookkeeping for exceptional-eigenvalue budgets across cover families:
the cumulative count M(p) and the normal-cover requirement expressions.

Budgets are inputs (from the literature or synthetic); nothing here
computes spectra.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

# the desk-scale o(1) verdict's bound on each requirement sequence's last term
O1_THRESHOLD = 0.1
# the exponents of the built-in budget families
P_VALUES = (2.5, 3.0, 4.0, 6.0, 8.0)


@dataclass(frozen=True)
class EigenvalueBudget:
    """Multiplicities of exceptional eigenvalues, classified by the
    integrability exponent p > 2 of their matrix coefficients."""

    entries: tuple
    n_cover: int

    def __post_init__(self):
        entries = tuple((float(p), int(m)) for p, m in self.entries)
        ps = [p for p, _ in entries]
        if not all(2.0 < p < math.inf for p in ps):
            raise ValueError(f"budget exponents must be finite and > 2, "
                             f"not {ps}")
        if sorted(ps) != ps or len(set(ps)) != len(ps):
            raise ValueError("exponents must be strictly increasing")
        if any(m < 1 for _, m in entries):
            raise ValueError("multiplicities must be >= 1")
        object.__setattr__(self, "entries", entries)

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def M(self, p: float) -> int:
        """Cumulative count of entries with exponent >= p."""
        if p <= 2.0:
            raise ValueError("M is defined for p > 2")
        return sum(m for pi, m in self.entries if pi >= p)

    @classmethod
    def from_json(cls, text: str) -> "EigenvalueBudget":
        """Read {"N": int, "entries": [{"p": number, "m": int}, ...]}; any
        other key, such as a "label", is ignored."""
        obj = json.loads(text)
        entries = tuple((e["p"], e["m"]) for e in obj["entries"])
        bad = [v for v in (obj["N"], *(m for _, m in entries))
               if type(v) is not int]
        bad += [p for p, _ in entries if type(p) not in (int, float)]
        if bad:
            raise TypeError(f"N and m take integers and p numbers, not {bad}")
        return cls(entries, obj["N"])


def synthetic_density_budget(n_cover: int) -> EigenvalueBudget:
    """The standard density-shaped test budget m(p_i) = round(N^{2/p_i})."""
    entries = tuple((p, max(1, round(n_cover ** (2.0 / p))))
                    for p in P_VALUES)
    return EigenvalueBudget(entries, n_cover)


def uniform_budget(n_cover: int) -> EigenvalueBudget:
    """A violating budget with N eigenvalues at every exponent of P_VALUES."""
    return EigenvalueBudget(tuple((p, n_cover) for p in P_VALUES), n_cover)


@dataclass(frozen=True)
class GrowthFunction:
    """g(R) = slope * R."""

    slope: float = 1.0

    def __post_init__(self):
        if self.slope < 1.0:
            raise ValueError("slope must be >= 1")

    def __call__(self, R: float) -> float:
        return self.slope * R


@dataclass
class RequirementRow:
    n_cover: int
    req_sum: float
    req_integral: float
    req_limit: float


def normal_cover_requirement(budgets, g: GrowthFunction) -> dict:
    """Evaluate the three smallness expressions of the normal-cover
    criterion for an increasing family of budgets.

    req_sum      g^3(ln N) sum_i e^{-2 g(ln N)/p_i} m(p_i)     (exact sum)
    req_integral g^3(ln N) int_2^pmax M(p) e^{-2 g(ln N)/p} p^-2 dp
    req_limit    g^2(ln N) M(2+) e^{-g(ln N)}

    The integral is quadrature over the step function M.  The desk-scale
    o(1) verdict is: each sequence strictly decreasing and ending below
    ``O1_THRESHOLD`` (a labeled proxy, not an asymptotic claim).
    """
    ns = [b.n_cover for b in budgets]
    if len(ns) < 3 or ns[0] < 2 or any(b >= a for b, a in zip(ns, ns[1:])):
        raise ValueError("need budgets for >= 3 strictly increasing covers"
                         " of degree >= 2")
    rows = []
    for budget in budgets:
        gln = g(math.log(budget.n_cover))
        req_sum = gln ** 3 * sum(m * math.exp(-2.0 * gln / p)
                                 for p, m in budget.entries)
        # M is a step function, so the integral is exact piecewise through
        # the primitive of e^{-2g/p} p^{-2}, which is e^{-2g/p} / (2g)
        integral = 0.0
        breakpoints = [2.0] + [p for p, _ in budget.entries]
        for lo, hi in zip(breakpoints, breakpoints[1:]):
            integral += budget.M(hi) * (math.exp(-2.0 * gln / hi)
                                        - math.exp(-2.0 * gln / lo)) \
                / (2.0 * gln)
        req_integral = gln ** 3 * integral
        req_limit = gln ** 2 * budget.total * math.exp(-gln)
        rows.append(RequirementRow(budget.n_cover, req_sum, req_integral,
                                   req_limit))
    verdict = True
    for attr in ("req_sum", "req_integral", "req_limit"):
        seq = [getattr(r, attr) for r in rows]
        decreasing = all(b < a for a, b in zip(seq, seq[1:]))
        verdict = verdict and decreasing and seq[-1] < O1_THRESHOLD
    return {"rows": rows, "vanishing": bool(verdict)}
