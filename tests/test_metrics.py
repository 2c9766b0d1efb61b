import math

import numpy as np
import pytest

import otkit as ok
from helpers import small_random_instance, traced_memory


def naive_plan_cost(plan, cost):
    total = 0.0
    m, n = plan.shape
    for i in range(m):
        for j in range(n):
            total += plan[i, j] * cost[i, j]
    return total


class TestPlanCost:
    def test_diagonal_on_zero_diag(self):
        entries = np.ones((3, 3))
        np.fill_diagonal(entries, 0.0)
        plan = ok.TransportPlan(np.diag([0.2, 0.3, 0.5]))
        assert ok.plan_cost(plan, ok.CostMatrix.from_entries(entries)) == 0.0

    def test_outer_product_constant_cost(self, rng):
        mu = ok.normalize(rng.uniform(0.1, 1, 4))
        nu = ok.normalize(rng.uniform(0.1, 1, 5))
        plan = ok.TransportPlan(np.outer(mu, nu))
        cost = ok.CostMatrix.from_entries(np.full((4, 5), 2.5))
        assert ok.plan_cost(plan, cost) == pytest.approx(2.5, rel=1e-14)

    def test_matches_naive_loop(self, rng):
        plan = ok.TransportPlan(rng.uniform(0, 1, size=(7, 9)))
        cost = ok.CostMatrix.from_entries(rng.uniform(0, 5, size=(7, 9)))
        assert ok.plan_cost(plan, cost) == pytest.approx(
            naive_plan_cost(plan.entries, cost.entries), rel=1e-13)

    def test_no_plan_sized_temporary(self, rng):
        m = n = 300
        plan = ok.TransportPlan(rng.uniform(0, 1, size=(m, n)))
        cost = ok.CostMatrix.from_entries(rng.uniform(0, 5, size=(m, n)))
        _, _, peak = traced_memory(lambda: ok.plan_cost(plan, cost))
        assert peak < 0.25 * m * n * 8

    def test_shape_mismatch(self, rng):
        plan = ok.TransportPlan(np.ones((2, 2)) / 4)
        cost = ok.CostMatrix.from_entries(np.ones((3, 2)))
        with pytest.raises(ValueError, match="shapes do not match"):
            ok.plan_cost(plan, cost)


class TestMarginalDeviation:
    def test_exact_plan_zero(self, rng):
        src, tgt, cost = small_random_instance(rng, 6, 6)
        plan, _ = ok.exact_solve(src, tgt, cost)
        assert ok.marginal_deviation(plan, src, tgt) <= 1e-12

    def test_zero_plan_total_mass(self, rng):
        src, tgt, _ = small_random_instance(rng, 4, 5)
        plan = ok.TransportPlan(np.zeros((4, 5)))
        assert ok.marginal_deviation(plan, src, tgt) == pytest.approx(2.0, rel=1e-14)

    def test_recovered_plan_reduces_to_column_part(self, rng):
        src, tgt, cost = small_random_instance(rng, 6, 5)
        psi = rng.standard_normal(5)
        plan = ok.recover_plan(psi, src, tgt, cost, 0.2)
        col_part = np.abs(plan.col_sums() - tgt.weights).sum()
        assert ok.marginal_deviation(plan, src, tgt) == pytest.approx(col_part, abs=1e-12)


class TestTheorem8Gap:
    def test_bound_formula(self):
        gap = ok.theorem8_gap(0.0, 0.0, 1.0, 2)
        assert gap.bound == pytest.approx(1.3862943611198906, abs=1e-15)

    def test_within_flag(self):
        assert ok.theorem8_gap(-0.9, 1.0, 1.0, 2).within
        assert not ok.theorem8_gap(1.0, 1.0, 0.01, 2).within
        assert not ok.theorem8_gap(-2.0, 1.0, 1.0, 2).within  # negative gap

    def test_solver_slack_extends_upper_edge(self):
        lam, n = 0.01, 4
        bound = 2 * lam * math.log(n)
        just_over = bound + 0.05 * bound
        assert not ok.theorem8_gap(just_over - 1.0, 1.0, lam, n).within
        assert ok.theorem8_gap(just_over - 1.0, 1.0, lam, n, solver_slack=0.1 * bound).within

    @pytest.mark.parametrize("lam", [math.inf, math.nan, 0.0, -1.0])
    def test_lambda_positive_and_finite_required(self, lam):
        # An infinite lam gave bound = inf and within = True; lam <= 0 a bound
        # of zero or below.
        with pytest.raises(ValueError, match="lam must be > 0 and finite"):
            ok.theorem8_gap(1.0, 1.0, lam, 4)


class TestEvalReport:
    def test_json_keys_stable(self, rng):
        src, tgt, cost = small_random_instance(rng, 5, 5)
        plan, lp_cost = ok.exact_solve(src, tgt, cost)
        report = ok.evaluate(lp_cost, plan, cost, src, tgt, lam=0.1, oracle_cost=lp_cost)
        data = report.to_dict()
        assert set(data) == {"ot_cost_estimate", "plan_cost", "marginal_dev", "bound",
                             "oracle_cost", "gap", "abs_error_vs_oracle"}
        assert data["bound"] == pytest.approx(2 * 0.1 * math.log(5))
        assert data["gap"] == pytest.approx(0.0, abs=1e-12)

    def test_optional_oracle_fields(self, rng):
        src, tgt, cost = small_random_instance(rng, 4, 4)
        plan, lp_cost = ok.exact_solve(src, tgt, cost)
        report = ok.evaluate(lp_cost, plan, cost, src, tgt, lam=0.1)
        data = report.to_dict()
        assert "oracle_cost" not in data
        assert report.marginal_dev <= 1e-12
