import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otkit as ok
from otkit import costs, smoothed_dual, solvers
from otkit.smoothed_dual import _DenseRows, _GridRows, _marginal_dev, _row_passes
from helpers import (criterion1_instance, grid_measure, random_point_instance,
                     reference_optimum, small_random_instance, traced_memory)


def assert_final_row_independent_of_trace_every(solve):
    """A run to ``max_iters = 25`` traced every iteration and every 7th, so
    the sparse run's stop row is due only because it is the stop: the last
    row, the iteration count, the potential (if any) and the plan agree."""
    dense, sparse = solve(1), solve(7)
    assert dense.trace.iters == list(range(dense.trace.iters[0], 26))
    # [0, 7, 14, 21, 25] for FISTA; Sinkhorn's first row is iteration 1.
    assert sparse.trace.iters == [t for t in dense.trace.iters if t % 7 == 0] + [25]
    # Every column but wall_ms; Sinkhorn's E columns are NaN.
    np.testing.assert_array_equal(list(dense.trace.rows())[-1][:5],
                                  list(sparse.trace.rows())[-1][:5])
    assert dense.trace.n_iterations == sparse.trace.n_iterations == 25
    assert dense.trace.status == sparse.trace.status == ok.MAX_ITERS
    if hasattr(dense, "potential"):
        np.testing.assert_array_equal(dense.potential.values, sparse.potential.values)
    np.testing.assert_array_equal(dense.plan.entries, sparse.plan.entries)


SOLVES = {
    "fista": lambda src, tgt, cost, **kw: ok.fista_solve(src, tgt, cost, 0.1,
                                                         ok.FistaConfig(**kw)),
    "sinkhorn": lambda src, tgt, cost, **kw: ok.sinkhorn_solve(src, tgt, cost, 0.1, **kw),
}


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_trace_class_looked_up_at_solve_time(name, monkeypatch, rng):
    # Callers may swap solvers.SolveTrace for a subclass that watches each row
    # as it is recorded; every row must go through its append.
    class Counting(solvers.SolveTrace):
        appends = 0

        def append(self, *row):
            Counting.appends += 1
            super().append(*row)

    monkeypatch.setattr(solvers, "SolveTrace", Counting)
    src, tgt, cost = small_random_instance(rng, 6, 5)
    trace = SOLVES[name](src, tgt, cost, max_iters=40, stop_rel_tol=1e-300,
                         trace_every=3).trace
    assert type(trace) is Counting
    assert Counting.appends == len(trace.iters) > 1
    assert trace.iters[-1] == trace.n_iterations == 40


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_rejects_measure_sizes_not_matching_cost(name):
    src = ok.from_points(np.zeros((4, 1)), np.full(4, 0.25))
    tgt = ok.from_points(np.zeros((5, 1)), np.full(5, 0.2))
    cost = ok.CostMatrix.from_entries(np.ones((4, 6)))
    with pytest.raises(ValueError, match="measure sizes do not match the cost matrix"):
        SOLVES[name](src, tgt, cost)


@pytest.mark.parametrize("path", ["dense", "kernel_mode", "grid"])
@pytest.mark.parametrize("name", sorted(SOLVES))
def test_passes_built_at_the_marginal_they_reduce(name, path, rng, monkeypatch):
    # Each solve builds one pass per cost orientation, once, each at the row
    # marginal of the plan it reduces: FISTA's row pass and Sinkhorn's row
    # half at mu, Sinkhorn's column half at nu. So at its last call each
    # pass's plan has that marginal as its row sums, to rounding.
    src, tgt, cost, lam = row_pass_instance(path, rng)
    built, plain = [], solvers._row_passes

    def passes(*args, **kwargs):
        built.append(plain(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(solvers, "_row_passes", passes)
    kernel_mode = path == "kernel_mode"
    if name == "fista":
        ok.fista_solve(src, tgt, cost, lam, ok.FistaConfig(max_iters=50, kernel_mode=kernel_mode))
        called = built[0][:1]
    else:
        ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=50, kernel_mode=kernel_mode)
        called = built[0]
    assert len(built) == 1
    for rows, w in zip(called, (src.weights, tgt.weights)):
        np.testing.assert_allclose(rows.scale * rows.sums, w, rtol=1e-15, atol=0)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("solve", [ok.fista_solve, ok.sinkhorn_solve],
                         ids=["fista", "sinkhorn"])
def test_solvers_reject_nonpositive_or_nonfinite_lambda(solve, lam):
    # An infinite lam is an input error, not a numerical failure of the run.
    src = ok.from_points([[0.0], [1.0]], [0.5, 0.5])
    tgt = ok.from_points([[0.0], [1.0]], [0.3, 0.7])
    cost = ok.CostMatrix.from_entries(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="lam must be > 0 and finite"):
        solve(src, tgt, cost, lam)


class TestThetaSchedule:
    def test_closed_form_values(self):
        theta = 1.0
        seq = [theta]
        for _ in range(3):
            theta = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            seq.append(theta)
        assert seq[1] == pytest.approx(1.618033988749895, abs=1e-15)
        assert seq[2] == pytest.approx(2.193527085331054, abs=1e-15)
        assert seq[3] > seq[2] > seq[1] > seq[0]

    def test_first_momentum_step_is_plain_gradient(self, rng):
        # theta_0 = 1 makes the first extrapolation coefficient zero, so one
        # iteration equals one projected gradient step
        src, tgt, cost = small_random_instance(rng, 5, 4)
        lam = 0.2
        config = ok.FistaConfig(eta=1.0, max_iters=1, stop_rel_tol=1e-30)
        result = ok.fista_solve(src, tgt, cost, lam, config)
        grad0 = ok.smoothed_gradient(np.zeros(4), src, tgt, cost, lam)
        expected = ok.project_H(-lam * grad0)
        np.testing.assert_allclose(result.potential.values, expected, atol=1e-15)


class TestFistaSolve:
    def test_matched_supports_zero_cost(self):
        n = 8
        rng = np.random.default_rng(0)
        weights = ok.normalize(rng.uniform(0.2, 1.0, n))
        src = ok.from_points(np.arange(n, dtype=float)[:, None], weights)
        entries = np.ones((n, n))
        np.fill_diagonal(entries, 0.0)
        cost = ok.CostMatrix.from_entries(entries)
        lam = 0.05
        result = ok.fista_solve(src, src, cost, lam,
                                ok.FistaConfig(eta=1, max_iters=50000, stop_rel_tol=1e-12,
                                               trace_every=10**9))
        assert result.trace.status == ok.CONVERGED
        assert -ok.energy(result.potential, src, src, cost) == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(result.plan.entries, np.diag(weights), atol=1e-7)

    def test_returned_potential_zero_mean(self, rng):
        src, tgt, cost = small_random_instance(rng, 7, 6)
        result = ok.fista_solve(src, tgt, cost, 0.1,
                                ok.FistaConfig(max_iters=50, stop_rel_tol=1e-9))
        assert result.potential.normalized
        assert abs(result.potential.values.sum()) <= 1e-10 * 6

    def test_theorem8_band_against_oracle(self):
        for seed in (1, 2, 3):
            src, tgt, cost = criterion1_instance(seed)
            lam = cost.spread / 500
            _, lp_cost = ok.exact_solve(src, tgt, cost)
            result = ok.fista_solve(src, tgt, cost, lam,
                                    ok.FistaConfig(eta=20, max_iters=100000,
                                                   stop_rel_tol=1e-10, trace_every=10**9))
            gap = ok.energy(result.potential, src, tgt, cost) + lp_cost
            bound = 2.0 * lam * math.log(tgt.size)
            assert -1e-10 <= gap <= bound

    def test_running_min_smoothed_energy_nonincreasing(self, rng):
        src, tgt, cost = small_random_instance(rng, 10, 9)
        result = ok.fista_solve(src, tgt, cost, 0.05,
                                ok.FistaConfig(eta=1, max_iters=500, stop_rel_tol=1e-14))
        e_lam = np.array(result.trace.smoothed_energy)
        running = np.minimum.accumulate(e_lam)
        assert (np.diff(running) <= 1e-15).all()
        assert running[-1] < e_lam[0]

    def test_trace_invariants(self, rng):
        src, tgt, cost = small_random_instance(rng, 6, 6)
        result = ok.fista_solve(src, tgt, cost, 0.1,
                                ok.FistaConfig(max_iters=200, stop_rel_tol=1e-9, trace_every=7))
        iters = result.trace.iters
        assert all(b > a for a, b in zip(iters, iters[1:]))
        wall = result.trace.wall_ms
        assert all(b >= a for a, b in zip(wall, wall[1:]))
        assert iters[-1] == result.trace.n_iterations

    def test_determinism(self, rng):
        src, tgt, cost = small_random_instance(rng, 8, 8)
        config = ok.FistaConfig(eta=2, max_iters=300, stop_rel_tol=1e-11)
        a = ok.fista_solve(src, tgt, cost, 0.07, config)
        b = ok.fista_solve(src, tgt, cost, 0.07, config)
        assert a.trace.energy == b.trace.energy
        assert a.trace.smoothed_energy == b.trace.smoothed_energy
        np.testing.assert_array_equal(a.potential.values, b.potential.values)

    @pytest.mark.parametrize("kernel_mode", [False, True])
    def test_final_row_independent_of_trace_every(self, kernel_mode, rng):
        src, tgt, cost = small_random_instance(rng, 8, 7)
        assert_final_row_independent_of_trace_every(
            lambda every: ok.fista_solve(src, tgt, cost, 0.05, ok.FistaConfig(
                max_iters=25, stop_rel_tol=1e-30, kernel_mode=kernel_mode,
                trace_every=every, cost_offset=0.4)))

    def test_large_costs_return_zero_mean_potential(self):
        # Potentials reach 2.5e7 here, and the rounding of their sum alone
        # (about 2e-9) exceeds a zero-mean tolerance that ignores magnitude.
        rng = np.random.default_rng(1)
        src = ok.from_points(rng.uniform(size=(8, 2)), np.full(8, 0.125))
        tgt = ok.from_points(rng.uniform(size=(8, 2)), np.full(8, 0.125))
        cost = ok.CostMatrix.from_entries(rng.uniform(size=(8, 8)) * 1e8)
        result = ok.fista_solve(src, tgt, cost, cost.spread / 500,
                                ok.FistaConfig(eta=5, max_iters=300))
        assert np.abs(result.potential.values).max() > 1e7
        assert np.isfinite(result.plan.entries).all()

    def test_kernel_mode_failure_status(self, rng):
        src, tgt, cost = small_random_instance(rng, 5, 5, cost_scale=3000.0)
        config = ok.FistaConfig(eta=1, max_iters=100, stop_rel_tol=1e-9, kernel_mode=True)
        result = ok.fista_solve(src, tgt, cost, 1e-3, config)
        assert result.trace.status == ok.NUMERICAL_FAILURE
        assert result.trace.failed_iteration is not None
        assert np.isfinite(result.potential.values).all()
        assert np.isfinite(result.plan.entries).all()

    @pytest.mark.parametrize("kernel_mode", [False, True])
    def test_first_trace_row_matches_dual_functions(self, kernel_mode, rng):
        src, tgt, cost = small_random_instance(rng, 6, 5)
        lam = 0.3
        offset = 1.7
        result = ok.fista_solve(src, tgt, cost, lam,
                                ok.FistaConfig(max_iters=1, kernel_mode=kernel_mode,
                                               cost_offset=offset))
        trace = result.trace
        zero = np.zeros(5)
        # Kernel mode must agree with the log-domain functions where it is safe.
        grad = ok.smoothed_gradient(zero, src, tgt, cost, lam)
        plan = ok.recover_plan(zero, src, tgt, cost, lam)
        assert trace.iters[0] == 0
        assert trace.energy[0] == pytest.approx(ok.energy(zero, src, tgt, cost) - offset,
                                                rel=1e-12)
        assert trace.smoothed_energy[0] == pytest.approx(
            ok.smoothed_energy(zero, src, tgt, cost, lam) - offset,
            rel=1e-12)
        assert trace.plan_cost[0] == pytest.approx(
            ok.plan_cost(plan, cost) + offset * plan.entries.sum(), rel=1e-12)
        assert trace.marginal_dev[0] == pytest.approx(np.abs(grad).sum(), rel=1e-12)

    def test_convergence_ordering_of_estimates(self, rng):
        # at a tight tolerance: <P_lam, C> >= <P*, C> = -E(psi*) >= -E(psi_final),
        # and the sandwich gives -E_lam(psi) >= -E(psi) pointwise
        src, tgt, cost = small_random_instance(rng, 12, 10)
        lam = cost.spread / 50
        _, lp_cost = ok.exact_solve(src, tgt, cost)
        result = ok.fista_solve(src, tgt, cost, lam,
                                ok.FistaConfig(eta=1, max_iters=100000, stop_rel_tol=1e-12,
                                               trace_every=10**9))
        assert result.trace.status == ok.CONVERGED
        pc = ok.plan_cost(result.plan, cost)
        neg_e = -ok.energy(result.potential, src, tgt, cost)
        neg_e_lam = -ok.smoothed_energy(result.potential, src, tgt, cost, lam)
        assert pc >= lp_cost - 1e-10
        assert lp_cost >= neg_e - 1e-10
        assert neg_e_lam >= neg_e - 1e-12

    def test_cost_offset_only_shifts_reporting(self, rng):
        src, tgt, cost = small_random_instance(rng, 6, 5)
        centered = ok.center(cost)
        mid = (cost.c_max + cost.c_min) / 2.0
        plain = ok.fista_solve(src, tgt, centered, 0.1,
                               ok.FistaConfig(max_iters=50, stop_rel_tol=1e-30))
        shifted = ok.fista_solve(src, tgt, centered, 0.1,
                                 ok.FistaConfig(max_iters=50, stop_rel_tol=1e-30,
                                                cost_offset=mid))
        np.testing.assert_array_equal(plain.potential.values, shifted.potential.values)
        np.testing.assert_allclose(np.asarray(shifted.trace.energy),
                                   np.asarray(plain.trace.energy) - mid, rtol=1e-12)


class TestSinkhornSolve:
    def test_constant_cost_single_round(self, rng):
        src, tgt, cost = small_random_instance(rng, 4, 6)
        constant = ok.CostMatrix.from_entries(np.full((4, 6), 3.3))
        result = ok.sinkhorn_solve(src, tgt, constant, 0.5, max_iters=50, stop_rel_tol=1e-9)
        np.testing.assert_allclose(result.plan.entries,
                                   np.outer(src.weights, tgt.weights), rtol=1e-12)
        assert result.trace.n_iterations <= 2

    def test_symmetric_instance_symmetric_plan(self):
        n = 6
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        mea = ok.from_points(pts, np.full(n, 1.0 / n))
        cost = ok.squared_euclidean(mea, mea)
        result = ok.sinkhorn_solve(mea, mea, cost, 0.1, max_iters=5000, stop_rel_tol=1e-12)
        np.testing.assert_allclose(result.plan.entries, result.plan.entries.T, atol=1e-10)

    def test_plan_cost_dominates_exact(self):
        src, tgt = random_point_instance(21, 50, 50)
        cost = ok.squared_euclidean(src, tgt)
        _, lp_cost = ok.exact_solve(src, tgt, cost)
        result = ok.sinkhorn_solve(src, tgt, cost, cost.spread / 50,
                                   max_iters=50000, stop_rel_tol=1e-12,
                                   trace_every=10**9)
        assert result.trace.status == ok.CONVERGED
        assert ok.plan_cost(result.plan, cost) >= lp_cost - 1e-9

    @pytest.mark.parametrize("kwargs, message", [
        (dict(trace_every=0), "trace_every must be >= 1"),
        (dict(trace_every=-3), "trace_every must be >= 1"),
        (dict(stop_rel_tol=0.0), "stop_rel_tol must be > 0"),
        (dict(stop_rel_tol=-1.0), "stop_rel_tol must be > 0"),
    ])
    def test_rejects_bad_trace_every_and_stop_rel_tol(self, kwargs, message, rng):
        src, tgt, cost = small_random_instance(rng, 3, 3)
        with pytest.raises(ValueError, match=message):
            ok.sinkhorn_solve(src, tgt, cost, 0.1, **kwargs)
        # FistaConfig states the same rules in the same words.
        with pytest.raises(ValueError, match=message):
            ok.FistaConfig(**kwargs)

    def test_kernel_mode_overflow_reported(self, rng):
        src, tgt, cost = small_random_instance(rng, 5, 5, cost_scale=3000.0)
        result = ok.sinkhorn_solve(src, tgt, cost, 1e-3, max_iters=100,
                                   stop_rel_tol=1e-9, kernel_mode=True)
        assert result.trace.status == ok.NUMERICAL_FAILURE
        assert result.trace.failed_iteration == 1
        # The potentials the failing first iteration started from: zeros.
        for potential in result.potentials:
            assert np.isfinite(potential).all() and not potential.any()
        log_result = ok.sinkhorn_solve(src, tgt, cost, 1e-3, max_iters=100,
                                       stop_rel_tol=1e-9)
        assert log_result.trace.status != ok.NUMERICAL_FAILURE

    def test_kernel_mode_column_half_overflow_reported(self):
        # The row half stays finite on every iteration; at iteration 4 the
        # column half's exp(f/lam) overflows. Reference: the plan formed each
        # iteration and checked entry by entry.
        C = np.array([[737.9, 709.1], [789.6, 709.8], [367.9, 384.9], [628.2, 642.9]])
        src = ok.from_points(np.zeros((4, 1)), [0.24, 0.27, 0.25, 0.24])
        tgt = ok.from_points(np.zeros((2, 1)), [0.71, 0.29])
        mu, nu = src.weights, tgt.weights
        K = np.exp(-C)
        g = np.zeros(2)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for t in range(1, 100):
                f = np.log(mu) - np.log((K * np.exp(g)).sum(axis=1))
                assert np.isfinite(f).all()
                weights = K.T * np.exp(f)
                sums = weights.sum(axis=1)
                if not np.isfinite(((nu / sums)[:, None] * weights).T).all():
                    break
                g = np.log(nu) - np.log(sums)
        assert t == 4
        result = ok.sinkhorn_solve(src, tgt, ok.CostMatrix.from_entries(C), 1.0,
                                   max_iters=100, stop_rel_tol=1e-9, kernel_mode=True)
        assert result.trace.status == ok.NUMERICAL_FAILURE
        assert result.trace.failed_iteration == t
        assert (result.plan.entries == 0.0).all()
        assert all(np.isfinite(potential).all() for potential in result.potentials)

    @pytest.mark.parametrize("kernel_mode, shape, cost_scale, lam, max_iters", [
        (False, (7, 6), 1.0, 0.1, 30),
        (True, (7, 6), 1.0, 0.1, 30),
        # The absorbed kernel's scalings leave their range at iteration 90,
        # so the returned plan is that of a log-domain fallback.
        (False, (10, 10), 3000.0, 1e-3, 90),
    ], ids=["False", "True", "fallback"])
    def test_trace_matches_returned_plan(self, kernel_mode, shape, cost_scale, lam,
                                         max_iters, rng):
        src, tgt, cost = small_random_instance(rng, *shape, cost_scale=cost_scale)
        offset = -2.3
        result = ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=max_iters,
                                   stop_rel_tol=1e-30, kernel_mode=kernel_mode,
                                   cost_offset=offset)
        plan = result.plan
        assert result.trace.plan_cost[-1] == pytest.approx(
            ok.plan_cost(plan, cost) + offset * plan.entries.sum(), rel=1e-12)
        assert result.trace.marginal_dev[-1] == pytest.approx(
            ok.marginal_deviation(plan, src, tgt), abs=1e-14)

    @pytest.mark.parametrize("kernel_mode", [False, True])
    def test_final_row_independent_of_trace_every(self, kernel_mode, rng):
        src, tgt, cost = small_random_instance(rng, 8, 7)
        assert_final_row_independent_of_trace_every(
            lambda every: ok.sinkhorn_solve(src, tgt, cost, 0.05, max_iters=25,
                                            stop_rel_tol=1e-30, kernel_mode=kernel_mode,
                                            trace_every=every, cost_offset=0.4))

    def test_kernel_and_log_domain_agree_when_safe(self, rng):
        src, tgt, cost = small_random_instance(rng, 7, 7)
        a = ok.sinkhorn_solve(src, tgt, cost, 0.3, max_iters=500, stop_rel_tol=1e-11)
        b = ok.sinkhorn_solve(src, tgt, cost, 0.3, max_iters=500, stop_rel_tol=1e-11,
                              kernel_mode=True)
        np.testing.assert_allclose(a.plan.entries, b.plan.entries, rtol=1e-8)

    def test_trace_columns(self, rng):
        src, tgt, cost = small_random_instance(rng, 5, 5)
        result = ok.sinkhorn_solve(src, tgt, cost, 0.2, max_iters=40, stop_rel_tol=1e-11)
        assert all(math.isnan(e) for e in result.trace.energy)
        assert all(math.isfinite(p) for p in result.trace.plan_cost)
        assert all(d >= 0.0 for d in result.trace.marginal_dev)


def log_domain_sinkhorn(mu, nu, C, lam, max_iters, stop_rel_tol):
    """Plain log-domain Sinkhorn with the plan formed every iteration.

    Returns each iteration's <P, C> and marginal deviation, the status by
    the relative-change rule and the last plan.
    """
    def lse(x, axis):
        top = x.max(axis=axis, keepdims=True)
        return np.squeeze(top + np.log(np.exp(x - top).sum(axis=axis, keepdims=True)), axis)

    g = np.zeros(C.shape[1])
    costs, devs = [], []
    for t in range(1, max_iters + 1):
        f = lam * (np.log(mu) - lse((g[None, :] - C) / lam, 1))
        g = lam * (np.log(nu) - lse((f[:, None] - C) / lam, 0))
        plan = np.exp((f[:, None] + g[None, :] - C) / lam)
        costs.append(float((plan * C).sum()))
        devs.append(float(np.abs(plan.sum(axis=0) - nu).sum()
                          + np.abs(plan.sum(axis=1) - mu).sum()))
        if t > 1 and abs(costs[-1] - costs[-2]) < stop_rel_tol * abs(costs[-2]):
            return costs, devs, ok.CONVERGED, plan
    return costs, devs, ok.MAX_ITERS, plan


def plain_fista(src, tgt, cost, lam, eta, max_iters, stop_rel_tol, offset=0.0):
    """FISTA from the public dual functions, with full passes for E, E_lambda,
    the gradient and the plan at every iteration.

    Returns each iteration's E, E_lambda, <P, C> and marginal deviation, the
    status by the relative-change rule on E and the last proximal point z.
    """
    psi = z = np.zeros(tgt.size)
    theta = 1.0
    rows = []
    for t in range(max_iters + 1):
        e = ok.energy(psi, src, tgt, cost) - offset
        plan = ok.recover_plan(psi, src, tgt, cost, lam)
        rows.append((e, ok.smoothed_energy(psi, src, tgt, cost, lam) - offset,
                     ok.plan_cost(plan, cost) + offset * plan.entries.sum(),
                     ok.marginal_deviation(plan, src, tgt)))
        if t > 0 and abs(e - rows[-2][0]) < stop_rel_tol * abs(rows[-2][0]):
            return rows, ok.CONVERGED, z
        if t == max_iters:
            return rows, ok.MAX_ITERS, z
        z_new = ok.project_H(psi - eta * lam * ok.smoothed_gradient(psi, src, tgt, cost, lam))
        theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        psi = z_new + ((theta - 1.0) / theta_new) * (z_new - z)
        z, theta = z_new, theta_new


def plain_grid_fista(src, tgt, cost, lam, config):
    """FISTA on a grid cost, traced every iteration, with a fresh grid pass
    each iteration and ``mu @ log(sums)`` as written for E_lambda, once the
    pass's ``scale`` is seen to be ``mu / sums`` bitwise, from which it takes
    the gradient and <P, C>. Returns the rows ``(t, E, E_lambda, <P, C>, D)``,
    the status and the last proximal point."""
    mu, nu = src.weights, tgt.weights
    offset, log_n = config.cost_offset, math.log(nu.size)
    psi, z, theta = np.zeros(nu.size), np.zeros(nu.size), 1.0
    rows, previous = [], None
    for t in range(config.max_iters + 1):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rows_t = _row_passes(cost, lam, src, tgt)[0](psi)
            nu_psi = nu @ psi
            e_shift = float(mu @ rows_t.shift - nu_psi) - offset
            e = float(mu @ rows_t.c_transform() - nu_psi) - offset
            e_lam = e_shift + lam * (float(mu @ np.log(rows_t.sums)) - log_n)
            assert rows_t.scale.tobytes() == (mu / rows_t.sums).tobytes()
            grad = rows_t.col_sums() - nu
        rows.append((t, e, e_lam, rows_t.plan_cost(offset), float(np.abs(grad).sum())))
        if previous is not None and solvers._rel_change(e, previous) < config.stop_rel_tol:
            return rows, ok.CONVERGED, z
        if t == config.max_iters:
            return rows, ok.MAX_ITERS, z
        previous = e
        z_new = ok.project_H(psi - config.eta * lam * grad)
        theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        psi = z_new + ((theta - 1.0) / theta_new) * (z_new - z)
        z, theta = z_new, theta_new


def count_row_passes(monkeypatch):
    """Record every dense row pass the solvers run: each call, at a
    potential, of a ``_DenseRows`` that ``solvers._row_passes`` built (not
    those of ``recover_plan`` or the public functions)."""
    # Held weakly, so the spy keeps no pass (and its weights) alive.
    calls, built = [], weakref.WeakSet()
    plain_passes, plain_call = solvers._row_passes, _DenseRows.__call__

    def passes(*args, **kwargs):
        out = plain_passes(*args, **kwargs)
        built.update(out)
        return out

    def call(self, psi):
        if self in built:
            calls.append(1)
        return plain_call(self, psi)

    monkeypatch.setattr(solvers, "_row_passes", passes)
    monkeypatch.setattr(_DenseRows, "__call__", call)
    return calls


def count_candidate_builds(monkeypatch):
    """Record every candidate list FISTA's absorbed kernels build: whether
    each build kept a list."""
    calls = []
    plain = solvers._renewed_candidates

    def spy(*args):
        h, found = plain(*args)
        calls.append(found is not None)
        return h, found

    monkeypatch.setattr(solvers, "_renewed_candidates", spy)
    return calls


def count_grid_passes(monkeypatch):
    """Record every construction (``"built"``) and every call at a potential
    (``"called"``) of a grid pass, ``_GridRows``."""
    events = []
    for name, event in (("__init__", "built"), ("__call__", "called")):
        def spy(self, *args, _plain=getattr(_GridRows, name), _event=event):
            events.append(_event)
            return _plain(self, *args)
        monkeypatch.setattr(_GridRows, name, spy)
    return events


def count_entry_forms(monkeypatch):
    """Record every dense squared-distance array built, which forming the
    entries of a grid cost (or of a plan over one) takes."""
    calls = []
    plain = costs._squared_distances

    def spy(*args):
        calls.append(1)
        return plain(*args)

    monkeypatch.setattr(costs, "_squared_distances", spy)
    return calls


def row_pass_instance(path, rng):
    """A dense instance for the ``dense`` and ``kernel_mode`` paths, a centered
    one with grid factors for ``grid``, and its ``lam``."""
    if path == "grid":
        src, tgt = grid_measure(rng, (4, 4)), grid_measure(rng, (3, 5))
        cost = ok.center(ok.squared_euclidean(src, tgt))
        return src, tgt, cost, cost.spread / 20.0
    return (*small_random_instance(rng, 12, 10, cost_scale=10.0), 0.05)


def assert_potentials_give_plan(result, C, lam):
    """``exp((f_i + g_j - c_ij)/lam)`` over the cost passed in is the
    returned plan, on every entry above 1e-200."""
    f, g = result.potentials
    plan = result.plan.entries
    kept = plan > 1e-200
    assert kept.any()
    np.testing.assert_allclose(np.exp((f[:, None] + g[None, :] - C) / lam)[kept], plan[kept],
                               rtol=1e-9, atol=0)


def sphere_instance(T):
    """A 150-atom sphere-paper instance: a Gaussian cloud against a uniform
    box, both on the sphere, under the centered great-circle cost, at
    ``lam = spread / T``."""
    src, tgt = random_point_instance(1, 150, 150, d=3, source_dist="gaussian",
                                     gaussian_mean=3.0, project_to_sphere=True)
    cost = ok.center(ok.spherical(src, tgt))
    return src, tgt, cost, cost.spread / T


def subnormal_count(A) -> int:
    """Entries of ``A`` in ``(0, tiny)`` in magnitude."""
    A = np.abs(A)
    return np.count_nonzero((A > 0) & (A < np.finfo(float).tiny))


def traced_peak(solve) -> int:
    """Bytes that ``solve()`` allocates at its peak, above what was allocated before."""
    return traced_memory(solve)[2]


class TestAbsorbedKernel:
    """Dense log-domain Sinkhorn scales the absorbed plan kernel between
    log-domain iterations; it must follow the plain log-domain loop."""

    @staticmethod
    def assert_matches_log_domain(src, tgt, cost, lam, max_iters, stop_rel_tol,
                                  rtol, plan_atol):
        result = ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=max_iters,
                                   stop_rel_tol=stop_rel_tol)
        costs, devs, status, plan = log_domain_sinkhorn(
            src.weights, tgt.weights, cost.entries, lam, max_iters, stop_rel_tol)
        assert result.trace.iters == list(range(1, len(costs) + 1))
        assert result.trace.n_iterations == len(costs)
        assert result.trace.status == status
        np.testing.assert_allclose(result.trace.plan_cost, costs, rtol=rtol, atol=0)
        # D sums m + n residuals whose rounding moves it by up to about 3e-14
        # at lam = 1e-3; near that floor only an absolute comparison holds.
        np.testing.assert_allclose(result.trace.marginal_dev, devs, rtol=rtol, atol=1e-13)
        np.testing.assert_allclose(result.plan.entries, plan, rtol=0, atol=plan_atol)

    def test_matches_log_domain_loop(self, rng):
        src, tgt, cost = small_random_instance(rng, 8, 7, cost_scale=10.0)
        self.assert_matches_log_domain(src, tgt, cost, 0.1, 200, 1e-300,
                                       rtol=1e-12, plan_atol=1e-14)

    def test_matches_log_domain_loop_through_fallback(self, rng, monkeypatch):
        # The kernel-mode overflow instance: the scalings drift by about e^2.2
        # an iteration and leave [e^-200, e^200] at iteration 90, which then
        # runs as two log-domain passes from g with the last v folded in. The
        # exponents reach c_max / lam = 3e6, so rounding alone moves each plan
        # entry by about 1e-9 relative, in the reference as in the solver.
        src, tgt, cost = small_random_instance(rng, 10, 10, cost_scale=3000.0)
        passes = count_row_passes(monkeypatch)
        self.assert_matches_log_domain(src, tgt, cost, 1e-3, 90, 1e-300,
                                       rtol=1e-8, plan_atol=1e-8)
        assert len(passes) == 4

    @settings(max_examples=60)
    @given(log_lam=st.floats(-3.0, 0.0), m=st.integers(2, 12), n=st.integers(2, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_log_domain_loop_property(self, log_lam, m, n, seed):
        # Costs lie in [0, 1], so the exponents reach 1 / lam <= 1e3 and
        # their rounding moves plan entries by up to about 2e-13 relative.
        src, tgt, cost = small_random_instance(np.random.default_rng(seed), m, n)
        self.assert_matches_log_domain(src, tgt, cost, 10.0 ** log_lam, 100, 1e-8,
                                       rtol=1e-11, plan_atol=1e-12)

    @pytest.mark.parametrize("path", ["dense", "kernel_mode", "grid"])
    def test_row_passes(self, path, rng, monkeypatch):
        # Only the dense log-domain loop absorbs (its last iteration here
        # too); kernel mode and grid costs run both passes every iteration,
        # a grid cost by calling the two grid passes the solve builds, one
        # per cost orientation. On every path the potentials give the
        # returned plan.
        src, tgt, cost, lam = row_pass_instance(path, rng)
        passes = count_row_passes(monkeypatch)
        grid = count_grid_passes(monkeypatch)
        result = ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=300, stop_rel_tol=1e-300,
                                   kernel_mode=path == "kernel_mode")
        if path == "dense":
            assert result.trace.n_iterations == 300
            assert len(passes) <= 60 and not grid
        elif path == "kernel_mode":
            assert result.trace.n_iterations > 10
            assert len(passes) == 2 * result.trace.n_iterations and not grid
        else:
            assert result.trace.n_iterations > 10 and not passes
            assert grid.count("built") == 2 and grid[:2] == ["built", "built"]
            assert grid.count("called") == 2 * result.trace.n_iterations
        assert_potentials_give_plan(result, cost.entries, lam)

    def test_potentials_of_log_domain_iteration(self, rng):
        # One iteration: the two log-domain passes and nothing absorbed.
        src, tgt, cost, lam = row_pass_instance("dense", rng)
        result = ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=1, stop_rel_tol=1e-300)
        assert_potentials_give_plan(result, cost.entries, lam)

    def test_sphere_absorbs_once(self, monkeypatch):
        # At T = 700 the scalings leave [e^-30, e^30] every few dozen rounds
        # but stay in [e^-200, e^200] for all 400, so the two log-domain
        # passes run once.
        src, tgt, cost, lam = sphere_instance(700.0)
        passes = count_row_passes(monkeypatch)
        counts = []
        for tau in (30.0, solvers._KERNEL_TAU):
            monkeypatch.setattr(solvers, "_KERNEL_TAU", tau)
            passes.clear()
            ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=400, stop_rel_tol=1e-300)
            counts.append(len(passes))
        assert counts[0] >= 4 and counts[1] == 2

    def test_subnormal_tail_matches_log_domain(self, monkeypatch):
        # At T = 1200 about 1% of the absorbed kernel is subnormal, and its
        # scalings reach far past e^30; the solve still follows the
        # log-domain loop.
        src, tgt, cost, lam = sphere_instance(1200.0)
        tails = []
        plain = solvers._AbsorbedKernel.absorb

        def absorb(kernel):
            plain(kernel)
            tails.append(subnormal_count(kernel.S))

        monkeypatch.setattr(solvers._AbsorbedKernel, "absorb", absorb)
        self.assert_matches_log_domain(src, tgt, cost, lam, 400, 1e-300,
                                       rtol=1e-11, plan_atol=1e-12)
        assert tails and all(tails)

    def test_large_cost_narrows_the_range(self, rng, monkeypatch):
        # The fallback instance with costs and lam scaled by 1e254, so c_max
        # is about 3e257 and (K o C)^T u, up to c_max e^tau, would overflow
        # past tau = 116: at tau = 200 the run fails at iteration 88. The
        # range is narrowed below that, and the solve still follows the
        # log-domain loop, through a fallback.
        src, tgt, cost = small_random_instance(rng, 10, 10, cost_scale=3000.0)
        cost = ok.CostMatrix.from_entries(cost.entries * 1e254)
        passes = count_row_passes(monkeypatch)
        self.assert_matches_log_domain(src, tgt, cost, 1e251, 89, 1e-300,
                                       rtol=1e-8, plan_atol=1e-8)
        assert solvers._kernel_tau(cost) < 116 and len(passes) == 4

    @pytest.mark.parametrize("cost_scale, lam, passes", [(3000.0, 1e-3, 4), (1.0, 0.05, 2)],
                             ids=["fallbacks", "no_fallback"])
    def test_at_most_two_plan_arrays_alive(self, cost_scale, lam, passes, monkeypatch):
        # With a fallback (at iteration 88 of 120) and without: the kernel
        # and K o C, or the two passes, and never the kernel beside a pass.
        m = n = 300
        src, tgt, cost = small_random_instance(np.random.default_rng(12345), m, n,
                                               cost_scale=cost_scale)
        calls = count_row_passes(monkeypatch)
        peak = traced_peak(lambda: ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=120,
                                                     stop_rel_tol=1e-300))
        assert len(calls) == passes
        assert peak <= 2.5 * m * n * 8

    @pytest.mark.parametrize("cost_scale, lam, max_iters", [(3000.0, 1e-3, 120),
                                                            (1.0, 0.05, 120), (1.0, 0.05, 1)],
                             ids=["fallbacks", "no_fallback", "log_domain_last"])
    def test_one_plan_array_after_return(self, cost_scale, lam, max_iters):
        # The plan is the top half of the kernel's buffer, shrunk to it, so
        # the result keeps no K o C alive, whether the last iteration was
        # absorbed or ran the log-domain passes.
        m = n = 300
        src, tgt, cost = small_random_instance(np.random.default_rng(12345), m, n,
                                               cost_scale=cost_scale)
        result, held, _ = traced_memory(lambda: ok.sinkhorn_solve(
            src, tgt, cost, lam, max_iters=max_iters, stop_rel_tol=1e-300))
        assert result.plan.entries.shape == (m, n)
        assert held <= 1.25 * m * n * 8


class TestAbsorbedRows:
    """Dense log-domain FISTA reads its row pass from the weights of the last
    dense pass between dense passes; it must follow the plain loop."""

    @staticmethod
    def assert_matches_plain(src, tgt, cost, lam, eta, max_iters, stop_rel_tol, offset=0.0):
        result = ok.fista_solve(src, tgt, cost, lam, ok.FistaConfig(
            eta=eta, max_iters=max_iters, stop_rel_tol=stop_rel_tol, cost_offset=offset))
        rows, status, z = plain_fista(src, tgt, cost, lam, eta, max_iters, stop_rel_tol,
                                      offset)
        e, e_lam, costs, devs = np.array(rows).T
        assert result.trace.iters == list(range(len(rows)))
        assert result.trace.n_iterations == len(rows) - 1
        assert result.trace.status == status
        # E is exact on both sides; E_lambda and <P, C> differ only by the
        # summation order of the weights, about 1e-13 relative at worst.
        np.testing.assert_allclose(result.trace.energy, e, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(result.trace.smoothed_energy, e_lam, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(result.trace.plan_cost, costs, rtol=1e-12, atol=1e-13)
        # D cancels near the optimum; as for Sinkhorn, only an absolute
        # comparison holds near its rounding floor.
        np.testing.assert_allclose(result.trace.marginal_dev, devs, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(result.potential.values, ok.project_H(z), rtol=0, atol=1e-13)

    def test_matches_plain_loop(self, rng, monkeypatch):
        src, tgt, cost = small_random_instance(rng, 8, 7, cost_scale=10.0)
        passes = count_row_passes(monkeypatch)
        self.assert_matches_plain(src, tgt, cost, 0.05, 1.0, 300, 1e-300, offset=0.7)
        assert len(passes) < 10

    def test_matches_plain_loop_through_fallbacks(self, rng, monkeypatch):
        # Exponents reach c_max / lam = 3e6, and psi leaves the kernel's range
        # [e^-200, e^200] three times: 4 dense passes in 121 iterations.
        src, tgt, cost = small_random_instance(rng, 5, 5, cost_scale=3000.0)
        passes = count_row_passes(monkeypatch)
        self.assert_matches_plain(src, tgt, cost, 1e-3, 1.0, 120, 1e-300)
        assert len(passes) == 4

    @settings(max_examples=60)
    @given(log_lam=st.floats(-3.0, 0.0), m=st.integers(2, 12), n=st.integers(2, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_plain_loop_property(self, log_lam, m, n, seed):
        src, tgt, cost = small_random_instance(np.random.default_rng(seed), m, n)
        self.assert_matches_plain(src, tgt, cost, 10.0 ** log_lam, 1.0, 100, 1e-8)

    @pytest.mark.parametrize("path", ["dense", "kernel_mode", "grid"])
    def test_row_passes(self, path, rng, monkeypatch):
        # Only the dense log-domain loop absorbs; kernel mode runs one pass
        # every iteration, and a grid cost one call of the row pass of the
        # two grid passes the solve builds (the column pass shares its
        # stages and is not called), then recover_plan builds two more and
        # calls its row pass once at the returned potential for the
        # factored plan.
        src, tgt, cost, lam = row_pass_instance(path, rng)
        passes = count_row_passes(monkeypatch)
        grid = count_grid_passes(monkeypatch)
        result = ok.fista_solve(src, tgt, cost, lam, ok.FistaConfig(
            max_iters=300, stop_rel_tol=1e-300, kernel_mode=path == "kernel_mode"))
        assert result.trace.n_iterations == 300
        if path == "dense":
            assert len(passes) <= 10 and not grid
        elif path == "kernel_mode":
            assert len(passes) == result.trace.n_iterations + 1 and not grid
        else:
            assert grid == (["built"] * 2 + ["called"] * (result.trace.n_iterations + 1)
                            + ["built"] * 2 + ["called"])
            assert not passes

    @staticmethod
    def sphere_300():
        """The sphere-paper preset at 300 atoms: a Gaussian cloud against a
        uniform box on the sphere, centered great-circle cost, at
        ``lam = spread / 700``, whose kernels keep up to about 6% of C as
        candidates."""
        src, tgt = random_point_instance(1, 300, 300, d=3, source_dist="gaussian",
                                         gaussian_mean=3.0, project_to_sphere=True)
        cost = ok.center(ok.spherical(src, tgt))
        return src, tgt, cost, cost.spread / 700.0

    @pytest.mark.parametrize("instance, eta, max_iters, passes, builds",
                             [((3000.0, 1e-3), 20.0, 120, 3, 3), ((1.0, 0.05), 1.0, 120, 1, 1),
                              ((1.0, 1e-3), 20.0, 120, 1, 2), ("sphere", 50.0, 300, 2, 16)],
                             ids=["fallbacks", "no_fallback", "renewal", "sphere"])
    def test_one_plan_array_alive(self, instance, eta, max_iters, passes, builds, monkeypatch):
        # With fallbacks (3 passes in 121 iterations), without, with a
        # kernel that renews its candidates, and on a sphere instance whose
        # lists reach 5.6% of C: the kernel buffer, W0 beside W0 o C, with
        # the candidate list and a block buffer, then the returned plan,
        # never both (measured: 2.55-2.63 arrays at the peak). Each kernel
        # builds its list once, and once more per renewal. The result holds
        # the plan alone (1.03-1.08 arrays).
        m = n = 300
        if instance == "sphere":
            src, tgt, cost, lam = self.sphere_300()
        else:
            cost_scale, lam = instance
            src, tgt, cost = small_random_instance(np.random.default_rng(12345), m, n,
                                                   cost_scale=cost_scale)
        calls = count_row_passes(monkeypatch)
        built = count_candidate_builds(monkeypatch)
        result, held, peak = traced_memory(lambda: ok.fista_solve(
            src, tgt, cost, lam, ok.FistaConfig(eta=eta, max_iters=max_iters,
                                                stop_rel_tol=1e-300)))
        assert len(calls) == passes and len(built) == builds
        assert peak <= 2.75 * m * n * 8
        assert result.plan.entries.shape == (m, n)
        assert held <= 1.25 * m * n * 8

    def test_kernel_dropped_before_use_builds_no_candidates(self, monkeypatch):
        # At eta = 1e6 every step leaves the range of the kernel it starts
        # from, so each of the 51 kernels is dropped before it serves an
        # absorbed iteration, and none builds a candidate list.
        src, tgt, cost = small_random_instance(np.random.default_rng(0), 12, 10,
                                               cost_scale=10.0)
        passes = count_row_passes(monkeypatch)
        built = count_candidate_builds(monkeypatch)
        result = ok.fista_solve(src, tgt, cost, 0.05, ok.FistaConfig(
            eta=1e6, max_iters=50, stop_rel_tol=1e-300))
        assert len(passes) == result.trace.n_iterations + 1 == 51 and not built

    def test_candidates_leave_the_run_bitwise_unchanged(self, monkeypatch):
        # A 200 x 200 great-circle cost between Gaussian clouds on the sphere
        # at lam = spread / 700, where the kernels keep 1-3% of C as
        # candidates: the row max over certified candidates gives the run
        # that the full row max gives, bit for bit, and reads all of C on
        # few of the absorbed iterations. One kernel serves the run and
        # builds its candidates 7 times; at tau = 30 it takes 14 kernels.
        src, tgt = random_point_instance(3, 200, 200, d=3, source_dist="gaussian",
                                         target_dist="gaussian", project_to_sphere=True)
        cost = ok.center(ok.spherical(src, tgt))
        lam = cost.spread / 700.0
        config = ok.FistaConfig(eta=50.0, max_iters=400, stop_rel_tol=1e-300)
        full = []
        plain_max = solvers._row_max

        def counting(psi, C):
            full.append(C.shape == cost.shape)
            return plain_max(psi, C)

        monkeypatch.setattr(solvers, "_row_max", counting)
        passes = count_row_passes(monkeypatch)
        built = count_candidate_builds(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_KERNEL_TAU", 30.0)
            ok.fista_solve(src, tgt, cost, lam, config)
        narrow = len(passes)
        del full[:], passes[:], built[:]
        result = ok.fista_solve(src, tgt, cost, lam, config)
        absorbed = result.trace.n_iterations + 1 - len(passes)
        assert absorbed > 300 and len(passes) < narrow and len(built) > len(passes)
        assert sum(full) + len(built) <= 0.1 * absorbed
        del full[:], passes[:]
        monkeypatch.setattr(solvers, "_renewed_candidates",
                            lambda psi, C, W0, lam: (solvers._row_max(psi, C), None))
        reference = ok.fista_solve(src, tgt, cost, lam, config)
        assert sum(full) == absorbed == reference.trace.n_iterations + 1 - len(passes)
        trace, ref = result.trace, reference.trace
        for column in ("iters", "energy", "smoothed_energy", "plan_cost", "marginal_dev"):
            np.testing.assert_array_equal(getattr(trace, column), getattr(ref, column))
        assert ((trace.status, trace.n_iterations, trace.failed_iteration)
                == (ref.status, ref.n_iterations, ref.failed_iteration))
        np.testing.assert_array_equal(result.potential.values, reference.potential.values)
        np.testing.assert_array_equal(result.plan.entries, reference.plan.entries)

    @staticmethod
    def uneven_instance(rng, m, n):
        """A potential and a cost whose rows keep about 1-23% of their
        columns within the window of their max (about 6% in all), at
        ``lam = 1``."""
        C = rng.uniform(0.0, 1.0, (m, n)) * rng.uniform(30.0, 300.0, (m, 1))
        return rng.uniform(-1.0, 1.0, n), C, 1.0

    def test_candidates_match_reference(self, rng):
        # 250 rows of 300 columns are three blocks, the last one short.
        m, n = 250, 300
        psi, C, lam = self.uneven_instance(rng, m, n)
        W0 = rng.uniform(0.0, 1.0, (m, n))
        assert m > 2 * max(1, solvers._BLOCK_BYTES // (8 * n))
        h, (starts, cols, costs, weights) = solvers._renewed_candidates(psi, C, W0, lam)
        np.testing.assert_array_equal(h, smoothed_dual._row_max(psi, C))
        flat = np.flatnonzero(psi - C >= (h - solvers._CANDIDATE_WINDOW * lam)[:, None])
        counts = np.bincount(flat // n, minlength=m)
        assert counts.min() >= 1 and counts.max() > 3 * counts.min()
        np.testing.assert_array_equal(starts, np.searchsorted(flat // n, np.arange(m)))
        np.testing.assert_array_equal(cols, flat % n)
        np.testing.assert_array_equal(costs, C.ravel()[flat])
        np.testing.assert_array_equal(weights, W0.ravel()[flat])
        # np.take converts narrower indices on every call.
        assert cols.dtype == np.intp

    def test_candidates_none_for_a_nan_row(self, rng):
        psi, C, lam = self.uneven_instance(rng, 60, 40)
        C[17] = math.nan
        h, found = solvers._renewed_candidates(psi, C, np.ones(C.shape), lam)
        np.testing.assert_array_equal(h, smoothed_dual._row_max(psi, C))
        assert math.isnan(h[17]) and found is None

    def test_candidates_past_the_share_give_only_the_row_max(self, rng):
        # Every entry is a candidate, so the first of four blocks passes the
        # share: the pass takes every row max and gathers no weights.
        m, n = 400, 300
        reads = []

        class Spy(np.ndarray):
            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

        psi, C = rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 1.0, (m, n))
        assert m > 3 * max(1, solvers._BLOCK_BYTES // (8 * n))
        h, found = solvers._renewed_candidates(psi, C, np.ones((m, n)).view(Spy), 1.0)
        np.testing.assert_array_equal(h, smoothed_dual._row_max(psi, C))
        assert found is None and not reads

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 40), n=st.integers(1, 40), ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_rescale_row_max_property(self, m, n, ties, seed):
        # Two drifts of up to tau lam each carry many rows' argmax outside
        # their candidates (a window of 7 lam), so the second one is often
        # read over candidates renewed at the first. With ties, costs,
        # potentials and drifts are dyadic and columns repeat, so rows tie
        # at their max.
        rng = np.random.default_rng(seed)
        tau = solvers._KERNEL_TAU
        if ties:
            lam = 2.0 ** int(rng.integers(-8, -3))
            copies = rng.integers(0, n, n)
            C = rng.integers(0, 32, (m, n)).astype(float)[:, copies]
            psi0 = rng.integers(-4, 5, n).astype(float)[copies]
            drifts = lam * rng.integers(1 - int(tau), int(tau), (2, n))[:, copies]
        else:
            lam = 10.0 ** rng.uniform(-3.0, 0.0)
            C = rng.uniform(0.0, 8.0, (m, n))
            psi0 = rng.uniform(-4.0, 4.0, n)
            drifts = lam * rng.uniform(0.999 - tau, tau - 0.999, (2, n))
        kernel = absorbed_rows(C, lam, psi0, tau)
        for drift in drifts:
            psi = psi0 + drift
            assert kernel.rescale(psi)
            np.testing.assert_array_equal(kernel.shift, smoothed_dual._row_max(psi, C))
            np.testing.assert_array_equal(kernel.sums, (kernel.W0 @ kernel.e) * kernel.r)

    def test_large_cost_narrows_the_range(self):
        # A constant cost of 1e300 keeps every weight at 1, so at a drift of
        # +t lam on half of the 16 columns and -t lam on the rest the bottom
        # half of S @ e, (W0 o C) e, reaches 8 c e^t. Sinkhorn's cap, for a
        # kernel of mass 1, would let t reach about 18 and that half
        # overflow; the cap that counts the row sums of n = 16 stops e below
        # it, and every product then stays finite. The first plan_cost forms
        # W0 o C, so the rescales after it take S @ e.
        m, n, c = 4, 16, 1e300
        cost = ok.CostMatrix.from_entries(np.full((m, n), c))
        lam, tau, plan_tau = 1e299, solvers._kernel_tau(cost, n), solvers._kernel_tau(cost)
        assert plan_tau - tau == pytest.approx(math.log(n))
        side = np.where(np.arange(n) < n // 2, 1.0, -1.0)
        kernel = absorbed_rows(cost.entries, lam, np.zeros(n), tau)
        assert not kernel.rescale(lam * (tau + 0.01) * side)
        assert kernel.rescale(lam * (tau - 0.01) * side)
        assert kernel.plan_cost(0.0) == pytest.approx(c, rel=1e-12)
        assert kernel.rescale(lam * (tau - 0.01) * side)
        assert kernel.plan_cost(0.0) == pytest.approx(c, rel=1e-12)
        kernel.tau = plan_tau
        with np.errstate(over="ignore", invalid="ignore"):
            assert kernel.rescale(lam * (plan_tau - 0.01) * side)
            assert np.isfinite(kernel.sums).all()
            assert not math.isfinite(kernel.plan_cost(0.0))


def absorbed_rows(C, lam, psi0, tau):
    """FISTA's absorbed kernel over the dense pass at ``psi0`` at uniform row
    marginals, the pass written into the top half of a ``(2m, n)`` buffer
    as the solve lends it."""
    m, n = C.shape
    S = np.empty((2 * m, n))
    rows = _DenseRows(C, lam, np.full(m, 1.0 / m))
    rows.out = S[:m]
    return solvers._AbsorbedRows(rows(psi0), S, tau)


def watch_rows(monkeypatch, nan_at=None):
    """Swap in a SolveTrace that records each row as ``append`` sees it, with
    the FISTA steps taken by then (calls of ``project_H``). At step
    ``nan_at`` the absorbed kernel's exact row max reads NaN, so an absorbed
    iteration there fails with finite iterates."""
    steps, seen = [0], []
    plain_project, plain_max = solvers.project_H, solvers._AbsorbedRows.row_max

    def counting(z):
        steps[0] += 1
        return plain_project(z)

    def row_max(self, psi, raw):
        out = plain_max(self, psi, raw)
        return out * math.nan if steps[0] == nan_at else out

    class Watching(solvers.SolveTrace):
        def append(self, *row):
            super().append(*row)
            seen.append((row, steps[0]))

    monkeypatch.setattr(solvers, "project_H", counting)
    monkeypatch.setattr(solvers._AbsorbedRows, "row_max", row_max)
    monkeypatch.setattr(solvers, "SolveTrace", Watching)
    return seen


def watch_plan_costs(monkeypatch):
    """Log each absorbed kernel's products in order: ``"W0"`` for an accepted
    rescale that takes ``W0 @ e`` and ``"S"`` for one that takes ``S @ e``;
    for each <P, C> it answers, ``"own"`` where :meth:`plan_cost` forms
    ``W0 o C`` and takes ``S[m:] @ e``, ``"read"`` where it reads the bottom
    half of ``S @ e``. Returns one log per kernel that accepted a rescale,
    in the order of their first."""
    logs = []
    plain_rescale, plain_cost = solvers._AbsorbedRows.rescale, solvers._AbsorbedRows.plan_cost

    def rescale(self, psi):
        stacked = self._cost_rows is not None
        accepted = plain_rescale(self, psi)
        if accepted:
            if not hasattr(self, "log"):
                self.log = []
                logs.append(self.log)
            self.log.append("S" if stacked else "W0")
        return accepted

    def plan_cost(self, offset):
        self.log.append("own" if self._cost_rows is None else "read")
        return plain_cost(self, offset)

    monkeypatch.setattr(solvers._AbsorbedRows, "rescale", rescale)
    monkeypatch.setattr(solvers._AbsorbedRows, "plan_cost", plan_cost)
    return logs


def expected_log(last, trace_every):
    """The log of a kernel that serves iterations 1 to ``last``, with a row
    due on every ``trace_every``-th and on ``last``: ``W0 @ e`` up to its
    first due row, which forms ``W0 o C``, then ``S @ e`` throughout."""
    log, formed = [], False
    for t in range(1, last + 1):
        log.append("S" if formed else "W0")
        if t % trace_every == 0 or t == last:
            log.append("read" if formed else "own")
            formed = True
    return log


def assert_same_rows(result, reference, rows=slice(None)):
    """Every trace column but ``wall_ms`` of ``result`` is bitwise that of
    ``reference`` on ``rows``, and so are the status, counts, potential and plan."""
    trace, ref = result.trace, reference.trace
    for column in ("iters", "energy", "smoothed_energy", "plan_cost", "marginal_dev"):
        np.testing.assert_array_equal(getattr(trace, column),
                                      np.asarray(getattr(ref, column))[rows])
    assert ((trace.status, trace.n_iterations, trace.failed_iteration)
            == (ref.status, ref.n_iterations, ref.failed_iteration))
    np.testing.assert_array_equal(result.potential.values, reference.potential.values)
    np.testing.assert_array_equal(result.plan.entries, reference.plan.entries)


# (m, n, cost_scale, lam, max_iters, trace_every, nan_at): 2 kernels in 121
# iterations; one kernel in 301; the same every 5th row; a NaN on an
# absorbed iteration, 40, without candidates and on a kernel that keeps them;
# a stop at iteration 37 on an absorbed iteration.
TRACED_RUNS = {
    "kernel_drops": (5, 5, 3000.0, 1e-3, 120, 1, None),
    "one_kernel": (12, 10, 10.0, 0.05, 300, 1, None),
    "trace_every_5": (12, 10, 10.0, 0.05, 300, 5, None),
    "nan_absorbed": (12, 10, 10.0, 0.05, 300, 1, 40),
    "nan_candidates": (40, 30, 10.0, 0.05, 300, 1, 40),
    "last_row_absorbed": (12, 10, 10.0, 0.05, 37, 1, None),
}


class TestDeferredRows:
    """No row of dense log-domain FISTA is deferred: each one reaches
    ``append`` complete at its own iteration. A kernel forms ``W0 o C`` for
    its first due row and reads every later <P, C> from its ``S @ e``, and
    the run matches one whose kernels never stack, where every <P, C> takes
    its own product with the bottom half."""

    @staticmethod
    def run(monkeypatch, case, stacked=True):
        m, n, cost_scale, lam, max_iters, trace_every, nan_at = TRACED_RUNS[case]
        src, tgt, cost = small_random_instance(np.random.default_rng(0), m, n,
                                               cost_scale=cost_scale)
        with monkeypatch.context() as patch:
            if not stacked:
                plain = solvers._AbsorbedRows.plan_cost

                def unstacked(self, offset):
                    # Forget W0 o C, so the next rescale takes W0 @ e again.
                    pc, self._cost_rows = plain(self, offset), None
                    return pc

                patch.setattr(solvers._AbsorbedRows, "plan_cost", unstacked)
            seen = watch_rows(patch, nan_at)
            result = ok.fista_solve(src, tgt, cost, lam, ok.FistaConfig(
                max_iters=max_iters, stop_rel_tol=1e-300, trace_every=trace_every,
                cost_offset=0.7))
        return result, seen

    @pytest.mark.parametrize("case", sorted(TRACED_RUNS))
    def test_rows_complete_and_in_order(self, case, monkeypatch):
        result, seen = self.run(monkeypatch, case)
        reference, ref_seen = self.run(monkeypatch, case, stacked=False)
        # Every row reaches append once, in order, at its own step.
        assert [row for row, _ in seen] == list(result.trace.rows())
        assert all(a < b for a, b in zip(result.trace.iters, result.trace.iters[1:]))
        assert all(steps == row[0] for row, steps in seen + ref_seen)
        assert_same_rows(result, reference)

    def assert_failure_after_its_rows(self, monkeypatch, case, builds):
        # The one kernel of the run keeps each candidate list it builds, or
        # not, as named.
        kept = count_candidate_builds(monkeypatch)
        result, seen = self.run(monkeypatch, case)
        assert kept == builds
        trace = result.trace
        assert trace.status == ok.NUMERICAL_FAILURE and trace.failed_iteration == 40
        assert math.isnan(trace.plan_cost[-1]) and math.isnan(trace.marginal_dev[-1])
        assert np.all(np.isfinite(trace.plan_cost[:-1]))
        assert np.all(np.isfinite(trace.marginal_dev[:-1]))
        # Rows 0-39 are appended at their own steps, before the failure's.
        assert [(row[0], steps) for row, steps in seen] == [(t, t) for t in range(41)]

    def test_failure_row_after_its_rows(self, monkeypatch):
        self.assert_failure_after_its_rows(monkeypatch, "nan_absorbed", [False])

    def test_failure_row_after_its_rows_on_candidates(self, monkeypatch):
        # Its first list goes stale once before the failure.
        self.assert_failure_after_its_rows(monkeypatch, "nan_candidates", [True, True])

    def test_last_row_absorbed(self, monkeypatch):
        # No dense pass runs at iteration 37, the last. The one kernel forms
        # W0 o C for row 1 and reads every later row's <P, C>, the last
        # one's too, from its S @ e at that row's own step.
        calls = count_row_passes(monkeypatch)
        logs = watch_plan_costs(monkeypatch)
        result, seen = self.run(monkeypatch, "last_row_absorbed")
        assert result.trace.n_iterations == result.trace.iters[-1] == 37
        assert len(calls) == 1 and logs == [expected_log(37, 1)]
        assert seen[-1][0][0] == seen[-1][1] == 37

    @pytest.mark.parametrize("seed, m, n, cost_scale, lam, eta, kernels",
                             [(0, 12, 10, 10.0, 1e-3, 1.0, 4), (1, 12, 10, 10.0, 1e-3, 1.0, 5),
                              (0, 40, 30, 1.0, 0.01, 20.0, 1)])
    def test_plan_cost_passes(self, seed, m, n, cost_scale, lam, eta, kernels, monkeypatch):
        # Traced every row: one m x n <P, C> pass per dense-pass row. Each
        # kernel that serves an absorbed row takes W0 @ e and forms W0 o C
        # on its first, its one own product with the bottom half, and
        # reads every later row's <P, C> from S @ e.
        dense = []
        plain = smoothed_dual._DenseRows.plan_cost

        def spy(self, offset):
            dense.append(1)
            return plain(self, offset)

        monkeypatch.setattr(smoothed_dual._DenseRows, "plan_cost", spy)
        logs = watch_plan_costs(monkeypatch)
        calls = count_row_passes(monkeypatch)
        src, tgt, cost = small_random_instance(np.random.default_rng(seed), m, n,
                                               cost_scale=cost_scale)
        result = ok.fista_solve(src, tgt, cost, lam, ok.FistaConfig(
            eta=eta, max_iters=200, stop_rel_tol=1e-300))
        rows = len(result.trace.iters)
        assert rows == 201 and len(calls) == kernels == len(dense)
        assert logs and all(log == ["W0", "own"] + ["S", "read"] * (len(log) // 2 - 1)
                            for log in logs)
        assert sum(len(log) for log in logs) == 2 * (rows - kernels)

    def test_converged_off_the_cadence(self, monkeypatch):
        # Traced every 7th row, the run converges at iteration 134, off the
        # cadence. Its one kernel takes W0 @ e up to row 7, forms W0 o C
        # there and takes S @ e on every later iteration, so the converged
        # row reads its <P, C> from S @ e; that row, like every row, is
        # bitwise the same row of the run traced every row.
        src, tgt, cost = small_random_instance(np.random.default_rng(0), 12, 10,
                                               cost_scale=10.0)
        calls = count_row_passes(monkeypatch)
        logs = watch_plan_costs(monkeypatch)
        dense, sparse = [ok.fista_solve(src, tgt, cost, 0.05, ok.FistaConfig(
            max_iters=1000, stop_rel_tol=1e-5, trace_every=every,
            cost_offset=0.7)) for every in (1, 7)]
        t = sparse.trace.n_iterations
        assert sparse.trace.status == ok.CONVERGED and t % 7 and sparse.trace.iters[-1] == t
        assert len(calls) == 2
        assert logs == [expected_log(t, 1), expected_log(t, 7)]
        assert_same_rows(sparse, dense, [dense.trace.iters.index(i) for i in sparse.trace.iters])


class TestGridCosts:
    """Solves on a cost with grid factors against the same costs without them."""

    @staticmethod
    def grid_and_dense(cost):
        dense = ok.CostMatrix.from_entries(cost.entries)
        assert cost.grid is not None and dense.grid is None
        return cost, dense

    def test_kernel_mode_failure_unchanged(self, rng):
        # At lam = spread / 3000 exp(-C/lam) overflows: both solvers fail in
        # kernel mode, at the same iteration with or without factors.
        src = grid_measure(rng, (4, 4))
        tgt = grid_measure(rng, (3, 5))
        cost = ok.center(ok.squared_euclidean(src, tgt))
        lam = cost.spread / 3000.0
        runs = [(ok.fista_solve(src, tgt, c, lam, ok.FistaConfig(
                     eta=1, max_iters=50, stop_rel_tol=1e-9, kernel_mode=True)),
                 ok.sinkhorn_solve(src, tgt, c, lam, max_iters=50, stop_rel_tol=1e-9,
                                   kernel_mode=True))
                for c in self.grid_and_dense(cost)]
        for on_grid, dense in zip(*runs):
            assert on_grid.trace.status == dense.trace.status == ok.NUMERICAL_FAILURE
            assert on_grid.trace.failed_iteration == dense.trace.failed_iteration is not None
            np.testing.assert_array_equal(on_grid.plan.entries, dense.plan.entries)

    @staticmethod
    def synthetic_image(size=12):
        """The sed-paper config and instance at size x size, with its uncentered cost."""
        from dataclasses import replace

        from otkit import cli
        config = replace(cli.config_from_sources("sed-paper", overrides=dict(image_size=size)),
                         seed=1)
        src, tgt = cli.build_instance(config)
        return config, src, tgt, cli.build_cost(config, src, tgt)

    def test_synthetic_image_matches_dense(self):
        # The sed-paper instance at 12 x 12. The preset's eta = 50 is outside
        # FISTA's stable range at this size: there two dense solves whose sums
        # only run in a different order drift apart by 1e-9 at the paper stop,
        # so this compares at eta = 5, where rounding is not amplified.
        config, src, tgt, original = self.synthetic_image()
        offset = (original.c_max + original.c_min) / 2.0
        lam = original.spread / config.T
        runs = [(ok.fista_solve(src, tgt, cost, lam, ok.FistaConfig(
                     eta=5.0, max_iters=3000, stop_rel_tol=config.stop_rel_tol,
                     cost_offset=offset)),
                 ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=3000,
                                   stop_rel_tol=config.stop_rel_tol, cost_offset=offset))
                for cost in self.grid_and_dense(ok.center(original))]
        for on_grid, dense in zip(*runs):
            assert on_grid.trace.status == dense.trace.status == ok.CONVERGED
            assert on_grid.trace.iters == dense.trace.iters
            assert on_grid.trace.n_iterations == dense.trace.n_iterations > 1
            for field in ("marginal_dev", "plan_cost"):
                np.testing.assert_allclose(getattr(on_grid.trace, field),
                                           getattr(dense.trace, field), rtol=1e-10)
            np.testing.assert_allclose(on_grid.plan.entries, dense.plan.entries,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("T, product", [(700.0, True), (5000.0, False)],
                             ids=["product_stages", "log_domain_stages"])
    def test_sinkhorn_plan_matches_last_row(self, T, product):
        # At the paper's T = 700 every axis exponent is T / 2 = 350 and both
        # stages are matrix products; at T = 5000 (2500) both fall back to
        # log-domain stages. Either way the returned plan is formed against
        # the pass's own shift.
        _, src, tgt, original = self.synthetic_image()
        cost = ok.center(original)
        lam = cost.spread / T
        stages = _row_passes(cost, lam, src, tgt)[0].row
        assert [s.product for s in stages] == [product, product]
        result = ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=200, stop_rel_tol=1e-300)
        assert result.trace.status == ok.MAX_ITERS
        dev = ok.marginal_deviation(result.plan, src, tgt)
        assert abs(dev - result.trace.marginal_dev[-1]) <= 1e-12
        assert abs(result.plan.entries.sum() - 1.0) <= 1e-12

    @classmethod
    def relabelled_image(cls, T, product):
        """The 12 x 12 synthetic image pair with atoms relabelled, so that
        neither side's grid index is the identity, its centered cost, the
        cost offset and ``lam = spread / T``, whose stages are matrix
        products or log-domain as ``product`` says."""
        config, src, tgt, _ = cls.synthetic_image()
        rng = np.random.default_rng(7)
        src, tgt = (ok.DiscreteMeasure(m.points[order], m.weights[order])
                    for m, order in ((src, rng.permutation(src.size)),
                                     (tgt, rng.permutation(tgt.size))))
        original = ok.squared_euclidean(src, tgt)
        cost = ok.center(original)
        grid = cost.grid
        assert not np.array_equal(grid.rows, np.arange(src.size))
        assert not np.array_equal(grid.cols, np.arange(tgt.size))
        lam = cost.spread / T
        stages = _row_passes(cost, lam, src, tgt)[0].row
        assert [s.product for s in stages] == [product, product]
        return config, src, tgt, cost, (original.c_max + original.c_min) / 2.0, lam

    @pytest.mark.parametrize("T, product", [(700.0, True), (5000.0, False)],
                             ids=["product_stages", "log_domain_stages"])
    def test_grid_step_matches_per_iteration_pass(self, T, product):
        # FISTA's one grid pass against a loop that builds the grid pass
        # afresh every iteration and takes mu / sums and log(sums) as
        # written: every trace row, the status, the count, the potential
        # and the plan agree bit for bit.
        config, src, tgt, cost, offset, lam = self.relabelled_image(T, product)
        fista = ok.FistaConfig(eta=config.eta, max_iters=400, stop_rel_tol=config.stop_rel_tol,
                               cost_offset=offset)
        result = ok.fista_solve(src, tgt, cost, lam, fista)
        rows, status, z = plain_grid_fista(src, tgt, cost, lam, fista)
        trace = result.trace
        assert trace.status == status and trace.n_iterations == len(rows) - 1 > 5
        for column, expected in zip(("iters", "energy", "smoothed_energy", "plan_cost",
                                     "marginal_dev"), zip(*rows)):
            assert np.array(getattr(trace, column)).tobytes() == np.array(expected).tobytes()
        potential = ok.Potential(ok.project_H(z), normalized=True)
        assert result.potential.values.tobytes() == potential.values.tobytes()
        plan = ok.recover_plan(potential, src, tgt, cost, lam)
        assert result.plan.entries.tobytes() == plan.entries.tobytes()

    @pytest.mark.parametrize("stop_rel_tol", [1e-3, 1e-300], ids=["paper_stop", "fixed_count"])
    @pytest.mark.parametrize("T, product", [(700.0, True), (5000.0, False)],
                             ids=["product_stages", "log_domain_stages"])
    def test_sinkhorn_grid_matches_fresh_pass_per_half(self, T, product, stop_rel_tol):
        # Sinkhorn's two grid passes, one per cost orientation, against a
        # loop that builds both afresh for each half and takes log(sums) as
        # written, once the column pass's scale is seen to be nu / sums
        # bitwise: every trace row, the status, the count, the potentials
        # and the plan agree bit for bit.
        _, src, tgt, cost, offset, lam = self.relabelled_image(T, product)
        mu, nu, C = src.weights, tgt.weights, cost.entries
        max_iters = 150
        result = ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=max_iters,
                                   stop_rel_tol=stop_rel_tol, cost_offset=offset)
        g, previous, rows = np.zeros(nu.size), None, []
        for t in range(1, max_iters + 1):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                half = _row_passes(cost, lam, src, tgt)[0](g)
                f = lam * (np.log(mu) - np.log(half.sums)) - half.shift
                half = _row_passes(cost, lam, src, tgt)[1](f)
                g = lam * (np.log(nu) - np.log(half.sums)) - half.shift
                assert half.scale.tobytes() == (nu / half.sums).tobytes()
                pc = half.plan_cost(offset)
            rows.append((t, pc, _marginal_dev(half.scale * half.sums, half.col_sums(), nu, mu)))
            if previous is not None and solvers._rel_change(pc, previous) < stop_rel_tol:
                status = ok.CONVERGED
                break
            status, previous = ok.MAX_ITERS, pc
        trace = result.trace
        assert trace.status == status and trace.n_iterations == len(rows) > 5
        for column, expected in zip(("iters", "plan_cost", "marginal_dev"), zip(*rows)):
            assert np.array(getattr(trace, column)).tobytes() == np.array(expected).tobytes()
        for actual, expected in zip(result.potentials, (f, g), strict=True):
            assert actual.tobytes() == expected.tobytes()
        # The plan the column half's pass formed against its own shift.
        expected = smoothed_dual._exp_rows(f[None, :] - C.T, half.shift, lam)
        expected *= (nu / half.sums)[:, None]
        assert result.plan.entries.tobytes() == expected.T.tobytes()

    @pytest.mark.parametrize("T", [700.0, 5000.0], ids=["product_stages", "log_domain_stages"])
    @pytest.mark.parametrize("name", sorted(SOLVES))
    def test_no_plan_array_before_the_plan(self, name, T):
        # On a 20 x 20 grid pair the loop holds O(m + n) values and per-axis
        # stages, and the returned plan is factored, so the peak stays below
        # one m x n array (measured: FISTA 0.32 and 0.57 arrays, Sinkhorn
        # 0.17 and 0.50); a dense plan formed on return read 1.2 to 1.4.
        _, src, tgt, original = self.synthetic_image(20)
        cost = ok.center(original)
        m, n = cost.shape
        lam = cost.spread / T
        solves = {
            "fista": lambda: ok.fista_solve(src, tgt, cost, lam, ok.FistaConfig(
                eta=50.0, max_iters=200, stop_rel_tol=1e-300)),
            "sinkhorn": lambda: ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=200,
                                                  stop_rel_tol=1e-300),
        }
        result, _, peak = traced_memory(solves[name])
        assert result.trace.n_iterations == 200
        assert peak <= 0.75 * m * n * 8


    @pytest.mark.parametrize("instance", ["grid_3d", "sed_28"])
    def test_grid_extrema_are_the_dense_extrema(self, instance, rng):
        # A grid cost's extrema are its per-axis extrema summed in axis
        # order, and bitwise those of its entries (every combination of axis
        # terms occurs and rounded addition is monotone), before and after
        # centering, so lam = spread / T is too. Entries formed on demand are
        # today's arrays: the naive sums, and those less the midpoint.
        if instance == "grid_3d":
            src = grid_measure(rng, (3, 4, 2), spacing=0.37, origin=-1.1)
            tgt = grid_measure(rng, (2, 3, 5), spacing=1.9)
            T = 700.0
        else:
            config, src, tgt, _ = self.synthetic_image(28)
            T = config.T
        original = ok.squared_euclidean(src, tgt)
        centered = ok.center(ok.squared_euclidean(src, tgt))
        entries = costs._squared_distances(src, tgt)
        mid = (original.c_max + original.c_min) / 2.0
        assert centered.entries.tobytes() == (entries - mid).tobytes()
        assert original.entries.tobytes() == entries.tobytes()
        for cost in (original, centered):
            assert cost.grid is not None
            dense = ok.CostMatrix.from_entries(cost.entries)
            for name in ("c_min", "c_max", "spread"):
                assert np.float64(getattr(cost, name)).tobytes() == \
                    np.float64(getattr(dense, name)).tobytes(), name
            assert ok.SmoothingParams.from_divisor(cost, T).lam == \
                ok.SmoothingParams.from_divisor(dense, T).lam

    @pytest.mark.parametrize("name", sorted(SOLVES))
    def test_requested_plan_entries_are_the_dense_arrays(self, name, monkeypatch):
        # A grid solve returns a factored plan and forms no entries; read,
        # they are bitwise the arrays the plan was formed as before: FISTA's
        # dense row-max pass at its potential, Sinkhorn's column half
        # against the shift of its last grid pass.
        config, src, tgt, cost, offset, lam = self.relabelled_image(700.0, True)
        mu, nu = src.weights, tgt.weights
        forms = count_entry_forms(monkeypatch)
        if name == "fista":
            result = ok.fista_solve(src, tgt, cost, lam, ok.FistaConfig(
                eta=config.eta, max_iters=400, stop_rel_tol=config.stop_rel_tol,
                cost_offset=offset))
        else:
            result = ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=400,
                                       stop_rel_tol=config.stop_rel_tol, cost_offset=offset)
        assert result.trace.status == ok.CONVERGED and not forms
        C = cost.entries
        if name == "fista":
            psi = result.potential.values
            expected = psi[None, :] - C
            expected -= expected.max(axis=1)[:, None]
            expected /= lam
            np.exp(expected, out=expected)
            expected *= (mu / expected.sum(axis=1))[:, None]
        else:
            f, _ = result.potentials
            shift = _row_passes(cost, lam, src, tgt)[1](f).shift
            expected = f[None, :] - C.T
            expected -= shift[:, None]
            expected /= lam
            np.exp(expected, out=expected)
            expected *= nu[:, None]
            expected = expected.T
        assert result.plan.entries.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(SOLVES))
    def test_benchmark_reductions_form_no_entries(self, name, monkeypatch):
        # What the benchmark reads of a grid solve, as run_experiment solves
        # the 12 x 12 sed-paper instance: -E at FISTA's potential and <P, C>
        # against the uncentered cost, and D. None forms a cost or plan
        # array, and each agrees with the same quantity taken from the
        # entries. E and <P, C> agree to 1e-12 relative; D is a difference of
        # sums of unit mass, so it is compared to 1e-12 of that mass: the
        # formed entries' column sums carry their own exp rounding, about
        # 2e-12 of Sinkhorn's D here.
        forms = count_entry_forms(monkeypatch)
        config, src, tgt, original = self.synthetic_image()
        cost = ok.center(original)
        offset = (original.c_max + original.c_min) / 2.0
        lam = ok.SmoothingParams.from_divisor(cost, config.T).lam
        if name == "fista":
            result = ok.fista_solve(src, tgt, cost, lam, ok.FistaConfig(
                eta=config.eta, max_iters=config.max_iters,
                stop_rel_tol=config.stop_rel_tol, cost_offset=offset))
            psi = result.potential.values
            energy = ok.energy(result.potential, src, tgt, original)
        else:
            result = ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=config.max_iters,
                                       stop_rel_tol=config.stop_rel_tol, cost_offset=offset)
        pc = ok.plan_cost(result.plan, original)
        dev = ok.marginal_deviation(result.plan, src, tgt)
        assert result.trace.status == ok.CONVERGED and not forms
        C, P = original.entries, result.plan.entries
        if name == "fista":
            dense_energy = float(src.weights @ (psi[None, :] - C).max(axis=1)
                                 - tgt.weights @ psi)
            assert energy == pytest.approx(dense_energy, rel=1e-12)
        assert pc == pytest.approx(float(np.einsum("ij,ij->", P, C)), rel=1e-12)
        assert pc == pytest.approx(ok.plan_cost(ok.TransportPlan(P), original), rel=1e-12)
        dense_dev = _marginal_dev(P.sum(axis=1), P.sum(axis=0), src.weights, tgt.weights)
        assert abs(dev - dense_dev) <= 1e-12 * P.sum()

    def test_sinkhorn_at_128_squared_holds_no_cost_or_plan_array(self):
        # The 128 x 128 sed-paper instance, 16384 atoms a side, whose dense
        # cost would take 2.1 GB: building and centering the cost, the solve
        # to the paper stop and the benchmark's reductions of its plan peak
        # below 1/64 of one m x n array (measured: 0.24 of that).
        config, src, tgt = self.synthetic_image(128)[:3]

        def run():
            original = ok.squared_euclidean(src, tgt)
            cost = ok.center(original)
            result = ok.sinkhorn_solve(
                src, tgt, cost, cost.spread / config.T, max_iters=config.max_iters,
                stop_rel_tol=config.stop_rel_tol,
                cost_offset=(original.c_max + original.c_min) / 2.0)
            return (result, ok.plan_cost(result.plan, original),
                    ok.marginal_deviation(result.plan, src, tgt))

        (result, pc, dev), _, peak = traced_memory(run)
        assert result.trace.status == ok.CONVERGED
        assert pc == result.trace.plan_cost[-1]
        assert dev == pytest.approx(result.trace.marginal_dev[-1], rel=1e-12)
        assert peak <= src.size * tgt.size * 8 / 64


class TestCorollary9Bound:
    def test_direct_formula(self):
        # ||psi*||^2 = 2, lam = 1, eps = 1 -> ceil(sqrt(2 * 2 / 1)) = 2
        assert ok.corollary9_iteration_bound(math.sqrt(2.0), 1.0, 1.0) == 2

    def test_epsilon_scaling(self):
        base = ok.corollary9_iteration_bound(30.0, 0.5, 0.08)
        halved = ok.corollary9_iteration_bound(30.0, 0.5, 0.04)
        assert halved == pytest.approx(base * math.sqrt(2.0), rel=0.02)

    def test_positive_arguments_required(self):
        with pytest.raises(ValueError):
            ok.corollary9_iteration_bound(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("position", [0, 2])
    def test_finite_arguments_required(self, position, value):
        # An infinite norm overflowed and an infinite epsilon gave 0 iterations.
        args = [1.0, 1.0, 1.0]
        args[position] = value
        with pytest.raises(ValueError, match="all arguments must be > 0 and finite"):
            ok.corollary9_iteration_bound(*args)

    @pytest.mark.parametrize("args, message", [
        ((1e200, 1e-200, 1e-200), "lam \\* epsilon underflows"),
        ((1.0, 1e-200, 1e-200), "lam \\* epsilon underflows"),
        ((1e200, 1e-300, 1.0), "bound is not finite"),
    ], ids=["product_underflows", "product_underflows_unit_norm", "bound_overflows"])
    def test_unrepresentable_bound_rejected(self, args, message):
        # The underflowing product raised ZeroDivisionError, the overflowing
        # bound OverflowError from math.ceil(inf).
        with pytest.raises(ValueError, match=message):
            ok.corollary9_iteration_bound(*args)

    @pytest.mark.parametrize("eta", [math.inf, math.nan, 0.0, -1.0])
    def test_eta_positive_and_finite_required(self, eta):
        # An infinite eta constructed and the solve ended in numerical_failure.
        with pytest.raises(ValueError, match="eta must be > 0 and finite"):
            ok.FistaConfig(eta=eta)

    @pytest.mark.parametrize("lam",[math.inf, math.nan, 0.0, -1.0])
    def test_lambda_positive_and_finite_required(self, lam):
        # An infinite lam gave a bound of 0 iterations.
        with pytest.raises(ValueError, match="lam must be > 0 and finite"):
            ok.corollary9_iteration_bound(1.0, lam, 1.0)

    def test_bound_sufficient_on_random_instance(self, rng):
        src, tgt, cost = small_random_instance(rng, 30, 30)
        lam = cost.spread / 20
        psi_star = reference_optimum(src, tgt, cost, lam, eta=1.0)
        e_star = ok.smoothed_energy(psi_star, src, tgt, cost, lam)
        eps = 1e-3
        t_bound = ok.corollary9_iteration_bound(float(np.linalg.norm(psi_star.values)),
                                                lam, eps)
        config = ok.FistaConfig(eta=1.0, max_iters=t_bound, stop_rel_tol=1e-300)
        result = ok.fista_solve(src, tgt, cost, lam, config)
        e_t = ok.smoothed_energy(result.potential, src, tgt, cost, lam)
        assert e_t - e_star <= eps


class TestPsiInfinityBound:
    def test_direct_formula(self):
        cost = ok.CostMatrix.from_entries([[4.0, 0.0], [1.0, 2.0]])
        tgt = ok.from_points([[0.0], [1.0]], [0.1, 0.9])
        assert ok.psi_infinity_bound(cost, tgt, 1.0) == pytest.approx(6.302585092994045,
                                                                      abs=1e-12)

    def test_lambda_limit(self):
        cost = ok.CostMatrix.from_entries([[4.0, 0.0], [1.0, 2.0]])
        tgt = ok.from_points([[0.0], [1.0]], [0.1, 0.9])
        assert ok.psi_infinity_bound(cost, tgt, 1e-12) == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.0, math.inf])
    def test_lambda_positive_and_finite_required(self, lam):
        cost = ok.CostMatrix.from_entries([[4.0, 0.0], [1.0, 2.0]])
        tgt = ok.from_points([[0.0], [1.0]], [0.1, 0.9])
        with pytest.raises(ValueError, match="lam must be > 0 and finite"):
            ok.psi_infinity_bound(cost, tgt, lam)

    def test_converged_potentials_respect_bound(self):
        for seed in (4, 5, 6, 7):
            src, tgt, cost = criterion1_instance(seed)
            lam = cost.spread / 500
            result = ok.fista_solve(src, tgt, cost, lam,
                                    ok.FistaConfig(eta=20, max_iters=100000,
                                                   stop_rel_tol=1e-10, trace_every=10**9))
            cbar = ok.psi_infinity_bound(cost, tgt, lam)
            assert np.abs(result.potential.values).max() <= cbar + 1e-6


class TestTraceCsv:
    def test_schema_and_round_trip(self, tmp_path, rng):
        src, tgt, cost = small_random_instance(rng, 5, 5)
        result = ok.fista_solve(src, tgt, cost, 0.1,
                                ok.FistaConfig(max_iters=20, stop_rel_tol=1e-30))
        path = tmp_path / "trace.csv"
        result.trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,E,E_lambda,plan_cost,marginal_dev,wall_ms"
        assert len(lines) == len(result.trace.iters) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == result.trace.energy[0]

    def test_strictly_increasing_enforced(self):
        trace = ok.SolveTrace()
        trace.append(0, 1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            trace.append(0, 1.0, 1.0, 1.0, 0.0, 1.0)
