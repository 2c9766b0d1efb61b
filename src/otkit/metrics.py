"""Evaluation metrics: transport-cost estimates, marginal deviation, the
smoothing-error bound, and oracle-relative error reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .costs import CostMatrix
from .measures import DiscreteMeasure
from .smoothed_dual import TransportPlan, _check_lam, _marginal_dev


def plan_cost(plan: TransportPlan, cost: CostMatrix) -> float:
    """Total transport cost ``<P, C> = sum_ij p_ij c_ij``, with no m x n
    temporary; a factored plan against a cost with its grid axes reads its
    own terms and forms no entries."""
    return plan.transport_cost(cost)


def marginal_deviation(plan: TransportPlan, source: DiscreteMeasure,
                       target: DiscreteMeasure) -> float:
    """L1 distance of a candidate plan from the admissible coupling set:

        D(P) = ||P 1 - mu||_1 + ||P^T 1 - nu||_1

    Zero exactly when the plan has the prescribed marginals. A factored
    plan gives its sums without forming its entries.
    """
    if plan.shape != (source.size, target.size):
        raise ValueError("plan shape does not match the measures")
    return _marginal_dev(plan.row_sums(), plan.col_sums(), source.weights, target.weights)


class Theorem8Gap(NamedTuple):
    gap: float
    bound: float
    within: bool


def theorem8_gap(final_energy: float, oracle_cost: float, lam: float, n: int,
                 solver_slack: float = 0.0) -> Theorem8Gap:
    """Smoothing suboptimality against the exact optimum.

    ``gap = E(psi_final) - E(psi*)`` with ``E(psi*) = -oracle_cost``; the
    theory keeps it inside ``[0, 2 lam log n]`` at the smoothed optimizer.
    ``solver_slack`` is an explicit extra allowance for the solver's own
    suboptimality since ``psi_final`` only approximates that optimizer.
    """
    _check_lam(lam)
    bound = 2.0 * lam * math.log(n)
    gap = final_energy + oracle_cost
    within = -1e-10 <= gap <= bound + solver_slack
    return Theorem8Gap(float(gap), float(bound), bool(within))


@dataclass
class EvalReport:
    """Solver evaluation summary with stable JSON keys."""

    ot_cost_estimate: float
    plan_cost: float
    marginal_dev: float
    bound_2lambda_logn: float
    oracle_cost: float | None = None
    gap: float | None = None
    abs_error_vs_oracle: float | None = None

    def to_dict(self) -> dict:
        out = {
            "ot_cost_estimate": self.ot_cost_estimate,
            "plan_cost": self.plan_cost,
            "marginal_dev": self.marginal_dev,
            "bound": self.bound_2lambda_logn,
        }
        if self.oracle_cost is not None:
            out["oracle_cost"] = self.oracle_cost
            out["gap"] = self.gap
            out["abs_error_vs_oracle"] = self.abs_error_vs_oracle
        return out


def evaluate(ot_cost_estimate: float, plan: TransportPlan, cost: CostMatrix,
             source: DiscreteMeasure, target: DiscreteMeasure, lam: float,
             oracle_cost: float | None = None) -> EvalReport:
    """Assemble an :class:`EvalReport` for one solver output."""
    n = target.size
    report = EvalReport(
        ot_cost_estimate=float(ot_cost_estimate),
        plan_cost=plan_cost(plan, cost),
        marginal_dev=marginal_deviation(plan, source, target),
        bound_2lambda_logn=2.0 * lam * math.log(n),
    )
    if oracle_cost is not None:
        # gap = E(psi_final) - E(psi*) = oracle_cost - ot_cost_estimate
        report.oracle_cost = float(oracle_cost)
        report.gap = float(oracle_cost) - float(ot_cost_estimate)
        report.abs_error_vs_oracle = abs(float(ot_cost_estimate) - float(oracle_cost))
    return report
