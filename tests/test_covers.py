import math

import numpy as np
import pytest

from hypercut.covers import (EigenvalueBudget, GrowthFunction,
                             normal_cover_requirement,
                             synthetic_density_budget, uniform_budget)


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            EigenvalueBudget(((2.0, 3),), 100)
        with pytest.raises(ValueError):
            EigenvalueBudget(((3.0, 1), (2.5, 1)), 100)
        with pytest.raises(ValueError):
            EigenvalueBudget(((3.0, 0),), 100)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_exponent_refused(self, p):
        # a lone NaN passes both p <= 2 and the increasing check, and a
        # budget file may hold NaN or Infinity, which json.loads reads
        with pytest.raises(ValueError, match="finite"):
            EigenvalueBudget(((3.0, 1), (p, 2)), 100)
        with pytest.raises(ValueError, match="finite"):
            EigenvalueBudget(((p, 2),), 100)
        text = '{"N": 10, "entries": [{"p": %s, "m": 2}]}' % (
            "NaN" if math.isnan(p) else "Infinity")
        with pytest.raises(ValueError, match="finite"):
            EigenvalueBudget.from_json(text)

    def test_cumulative_count_examples(self):
        empty = EigenvalueBudget((), 10)
        assert empty.M(3.0) == 0
        b = EigenvalueBudget(((3.0, 5), (4.0, 2)), 100)
        assert b.M(3.5) == 2
        assert b.M(2.0001) == 7
        with pytest.raises(ValueError):
            b.M(2.0)

    def test_telescoping_identity(self):
        # sum over breakpoints of M(p_i) - M(p_{i+1}) telescopes
        b = EigenvalueBudget(((2.5, 3), (3.0, 4), (5.0, 9)), 50)
        ps = [p for p, _ in b.entries] + [5.0 * (1.0 + 1e-12)]
        total = sum(b.M(ps[i]) - b.M(ps[i + 1]) if i + 1 < len(ps) - 1
                    else b.M(ps[i]) for i in range(len(ps) - 1))
        assert total == b.total == 16
        # monotone non-increasing
        grid = np.linspace(2.01, 6.0, 60)
        vals = [b.M(p) for p in grid]
        assert all(a >= c for a, c in zip(vals, vals[1:]))

    def test_json_round_trip(self):
        # a budget file of the documented format, whose label is ignored,
        # reads back as the budget it was written from
        b = synthetic_density_budget(10_000)
        text = ('{"label": "synthetic-A1", "N": 10000, "entries": ['
                '{"p": 2.5, "m": 1585}, {"p": 3.0, "m": 464}, '
                '{"p": 4.0, "m": 100}, {"p": 6.0, "m": 22}, '
                '{"p": 8.0, "m": 10}]}')
        back = EigenvalueBudget.from_json(text)
        assert back.entries == b.entries
        assert back.n_cover == b.n_cover


class TestGrowthFunction:
    def test_slope_floor(self):
        with pytest.raises(ValueError):
            GrowthFunction(0.9)


class TestNormalCoverRequirement:
    NS = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)

    def test_empty_budgets_vanish(self):
        budgets = [EigenvalueBudget((), n) for n in self.NS]
        rep = normal_cover_requirement(budgets, GrowthFunction(1.2))
        for row in rep["rows"]:
            assert row.req_sum == 0.0
            assert row.req_integral == 0.0
            assert row.req_limit == 0.0

    def test_requires_increasing_degrees(self):
        for ns in ((100, 100, 1000), (1, 10, 100)):
            budgets = [synthetic_density_budget(n) for n in ns]
            with pytest.raises(ValueError):
                normal_cover_requirement(budgets, GrowthFunction(1.2))

    def test_sum_bounded_by_integral_plus_limit(self):
        # the proof's summation-by-parts chain, in requirement units:
        # req_sum <= g * req_limit + 2 g * req_integral
        for maker, slope in ((synthetic_density_budget, 1.2),
                             (uniform_budget, 1.5)):
            budgets = [maker(n) for n in self.NS]
            g = GrowthFunction(slope)
            rep = normal_cover_requirement(budgets, g)
            for row in rep["rows"]:
                gln = g(math.log(row.n_cover))
                assert row.req_sum <= gln * row.req_limit \
                    + 2.0 * gln * row.req_integral + 1e-9

    def test_uniform_budgets_do_not_vanish(self):
        budgets = [uniform_budget(n) for n in self.NS]
        rep = normal_cover_requirement(budgets,
                                       lambda R: R + 3.0 * math.log(R))
        assert not rep["vanishing"]

    def test_steep_growth_vanishes(self):
        # with slope 2.5 the decay beats the polylog prefactor on this
        # range, so the checker's vanishing verdict has a green path
        budgets = [EigenvalueBudget(tuple((p, max(1, round(n ** (2.0 / p))))
                                          for p in (2.5, 3.0, 4.0)), n)
                   for n in self.NS]
        rep = normal_cover_requirement(budgets, GrowthFunction(3.0))
        assert rep["vanishing"]

    def test_exact_row_values(self):
        # hand-checked small case: one entry (p=4, m=2), N = e^10, g = R
        budgets = [EigenvalueBudget(((4.0, 2),), int(math.e ** n))
                   for n in (10, 11, 12)]
        rep = normal_cover_requirement(budgets, GrowthFunction(1.0))
        row = rep["rows"][0]
        gln = math.log(budgets[0].n_cover)
        assert row.req_sum == pytest.approx(gln ** 3 * 2
                                            * math.exp(-gln / 2.0), rel=1e-12)
        assert row.req_limit == pytest.approx(gln ** 2 * 2
                                              * math.exp(-gln), rel=1e-12)
        # independent quadrature of M e^{-2g/p} p^{-2} over (2, 4]
        from hypercut.quadrature import panel_nodes
        nodes, weights = panel_nodes(2.0, 4.0, 64)
        brute = float((2.0 * np.exp(-2.0 * gln / nodes) / nodes ** 2)
                      @ weights)
        assert row.req_integral == pytest.approx(gln ** 3 * brute, rel=1e-9)
