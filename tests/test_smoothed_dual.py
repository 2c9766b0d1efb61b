import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otkit as ok
from helpers import grid_measure, small_random_instance
from otkit.smoothed_dual import _AxisStage, _marginal_dev, _row_passes


def finite_difference_gradient(psi, src, tgt, cost, lam, h=1e-6):
    """Central differences of the smoothed energy, the independent oracle for
    the analytic gradient."""
    psi = np.asarray(psi, dtype=float)
    grad = np.zeros_like(psi)
    for j in range(psi.size):
        bump = np.zeros_like(psi)
        bump[j] = h
        up = ok.smoothed_energy(psi + bump, src, tgt, cost, lam)
        dn = ok.smoothed_energy(psi - bump, src, tgt, cost, lam)
        grad[j] = (up - dn) / (2.0 * h)
    return grad


def finite_difference_hessian_apply(psi, src, tgt, cost, lam, direction, h=1e-6):
    up = ok.smoothed_gradient(psi + h * direction, src, tgt, cost, lam)
    dn = ok.smoothed_gradient(psi - h * direction, src, tgt, cost, lam)
    return (up - dn) / (2.0 * h)


def power_iteration_max_eigenvalue(src, tgt, cost, lam, psi, iters=300, seed=0):
    """Largest Hessian eigenvalue estimated from below on the zero-mean
    subspace (the all-ones null direction is projected out)."""
    rng = np.random.default_rng(seed)
    w = ok.project_H(rng.standard_normal(cost.shape[1]))
    w /= np.linalg.norm(w)
    for _ in range(iters):
        hw = ok.hessian_apply(psi, src, tgt, cost, lam, w)
        hw = ok.project_H(hw)
        norm = np.linalg.norm(hw)
        if norm == 0.0:
            return 0.0
        w = hw / norm
    hw = ok.hessian_apply(psi, src, tgt, cost, lam, w)
    return float(w @ hw)


class TestCTransform:
    def test_direct_max(self):
        cost = ok.CostMatrix.from_entries([[2.0, 1.0]])
        assert ok.c_transform(np.array([1.0, 3.0]), cost)[0] == 2.0

    def test_zero_potential(self, rng):
        cost = ok.CostMatrix.from_entries(rng.uniform(0, 5, size=(6, 4)))
        np.testing.assert_array_equal(ok.c_transform(np.zeros(4), cost),
                                      -cost.entries.min(axis=1))

    def test_dominates_every_column(self, rng):
        cost = ok.CostMatrix.from_entries(rng.uniform(0, 5, size=(7, 5)))
        psi = rng.standard_normal(5)
        phi = ok.c_transform(psi, cost)
        assert (phi[:, None] >= psi[None, :] - cost.entries - 1e-15).all()

    def test_blocked_rows_match_whole_matrix(self, rng):
        # 250 rows of 300 columns span three row blocks; integer entries make
        # ties common in every block.
        cost = ok.CostMatrix.from_entries(rng.integers(0, 4, size=(250, 300)).astype(float))
        psi = rng.integers(0, 4, size=300).astype(float)
        vals = psi[None, :] - cost.entries
        np.testing.assert_array_equal(ok.c_transform(psi, cost), vals.max(axis=1))


class TestSmoothedCTransform:
    def test_equal_arguments_collapse(self):
        cost = ok.CostMatrix.from_entries([[0.0, 0.0]])
        assert ok.smoothed_c_transform(np.zeros(2), cost, 1.0)[0] == 0.0

    def test_constant_argument_exact(self, rng):
        # psi_j - c_ij == a for every j must reproduce a exactly, not just
        # approximately: the row shift happens before dividing by lam.
        a = -1.73
        n = 7
        psi = rng.standard_normal(n)
        cost = ok.CostMatrix.from_entries((psi - a)[None, :])
        for lam in (3.0, 0.7, 0.01):
            assert ok.smoothed_c_transform(psi, cost, lam)[0] == a

    def test_sandwich_against_exact(self):
        cost = ok.CostMatrix.from_entries([[2.0, 1.0]])
        psi = np.array([1.0, 3.0])
        lam = 0.01
        smooth = ok.smoothed_c_transform(psi, cost, lam)[0]
        assert 2.0 - lam * math.log(2) <= smooth <= 2.0

    def test_tiny_lambda_finite(self, rng):
        cost = ok.CostMatrix.from_entries(rng.uniform(0, 1000, size=(5, 6)))
        vals = ok.smoothed_c_transform(rng.standard_normal(6), cost, 1e-9)
        assert np.isfinite(vals).all()


class TestEnergy:
    def test_zero_potential_zero_diag(self):
        src = ok.from_points([[0.0], [1.0]], [1.0, 1.0])
        tgt = ok.from_points([[0.0], [1.0]], [1.0, 1.0])
        cost = ok.CostMatrix.from_entries([[0.0, 1.0], [1.0, 0.0]])
        assert ok.energy(np.zeros(2), src, tgt, cost) == 0.0

    def test_shift_invariance(self, rng):
        src, tgt, cost = small_random_instance(rng, 6, 5)
        psi = rng.standard_normal(5)
        for k in (-3.0, 0.4, 11.0):
            assert ok.energy(psi + k, src, tgt, cost) == pytest.approx(
                ok.energy(psi, src, tgt, cost), abs=1e-12)

    def test_minimum_matches_exact_oracle(self, rng):
        src, tgt, cost = small_random_instance(rng, 5, 5)
        _, lp_cost = ok.exact_solve(src, tgt, cost)
        lam = cost.spread / 2000
        result = ok.fista_solve(src, tgt, cost, lam,
                                ok.FistaConfig(eta=20, max_iters=100000, stop_rel_tol=1e-13,
                                               trace_every=10**9))
        assert -ok.energy(result.potential, src, tgt, cost) == pytest.approx(lp_cost, abs=1e-3)


class TestSmoothedEnergy:
    def test_constant_cost_collapses(self):
        c = 2.5
        src = ok.from_points([[0.0], [1.0]], [0.4, 0.6])
        tgt = ok.from_points([[0.0], [1.0]], [0.5, 0.5])
        cost = ok.CostMatrix.from_entries(np.full((2, 2), c))
        for lam in (1.0, 0.2):
            assert ok.smoothed_energy(np.zeros(2), src, tgt, cost, lam) == pytest.approx(-c, abs=1e-14)

    def test_sandwich_on_random_triples(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(2, 10))
            src, tgt, cost = small_random_instance(rng, m, n, cost_scale=5.0)
            psi = rng.standard_normal(n) * 3.0
            lam = float(10 ** rng.uniform(-2, 1))
            e = ok.energy(psi, src, tgt, cost)
            e_lam = ok.smoothed_energy(psi, src, tgt, cost, lam)
            assert e_lam <= e + 1e-12
            assert e <= e_lam + lam * math.log(n) + 1e-12

    def test_converges_to_energy_as_lam_shrinks(self, rng):
        src, tgt, cost = small_random_instance(rng, 6, 6)
        psi = rng.standard_normal(6)
        e = ok.energy(psi, src, tgt, cost)
        gaps = [e - ok.smoothed_energy(psi, src, tgt, cost, lam) for lam in (1.0, 0.1, 0.01)]
        assert gaps[0] > gaps[1] > gaps[2] >= 0.0
        for lam, gap in zip((1.0, 0.1, 0.01), gaps):
            assert gap <= lam * math.log(6) + 1e-12


class TestSmoothedGradient:
    def test_zero_cost_closed_form(self):
        src = ok.from_points([[0.0], [1.0]], [0.5, 0.5])
        tgt = ok.from_points([[0.0], [1.0]], [0.3, 0.7])
        cost = ok.CostMatrix.from_entries(np.zeros((2, 2)))
        grad = ok.smoothed_gradient(np.zeros(2), src, tgt, cost, 1.0)
        np.testing.assert_allclose(grad, [0.2, -0.2], atol=1e-15)

    def test_entries_sum_to_zero(self, rng):
        for _ in range(20):
            src, tgt, cost = small_random_instance(rng, 7, 6)
            psi = rng.standard_normal(6)
            grad = ok.smoothed_gradient(psi, src, tgt, cost, 0.3)
            assert abs(grad.sum()) <= 1e-12

    @pytest.mark.parametrize("lam", [1.0, 0.5, 0.1])
    def test_matches_finite_differences(self, lam, rng):
        for _ in range(4):
            src, tgt, cost = small_random_instance(rng, 8, 6, cost_scale=3.0)
            psi = rng.standard_normal(6)
            grad = ok.smoothed_gradient(psi, src, tgt, cost, lam)
            fd = finite_difference_gradient(psi, src, tgt, cost, lam)
            err = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-30)
            assert err < 1e-6

    def test_shift_invariance(self, rng):
        src, tgt, cost = small_random_instance(rng, 6, 5)
        psi = rng.standard_normal(5)
        a = ok.smoothed_gradient(psi, src, tgt, cost, 0.2)
        b = ok.smoothed_gradient(psi + 5.5, src, tgt, cost, 0.2)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestHessianApply:
    def test_annihilates_ones(self, rng):
        src, tgt, cost = small_random_instance(rng, 9, 7)
        psi = rng.standard_normal(7)
        hv = ok.hessian_apply(psi, src, tgt, cost, 0.4, np.ones(7))
        np.testing.assert_allclose(hv, 0.0, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        src, tgt, cost = small_random_instance(rng, 6, 5, cost_scale=2.0)
        psi = rng.standard_normal(5)
        direction = rng.standard_normal(5)
        hv = ok.hessian_apply(psi, src, tgt, cost, 0.7, direction)
        fd = finite_difference_hessian_apply(psi, src, tgt, cost, 0.7, direction)
        err = np.linalg.norm(hv - fd) / max(np.linalg.norm(fd), 1e-30)
        assert err < 1e-5

    def test_spectral_bound(self, rng):
        for _ in range(3):
            src, tgt, cost = small_random_instance(rng, 5, 5, cost_scale=1.5)
            lam = float(10 ** rng.uniform(-1.5, 0.5))
            psi = rng.standard_normal(5)
            top = power_iteration_max_eigenvalue(src, tgt, cost, lam, psi)
            assert top <= 1.0 / lam + 1e-9

    def test_positive_semidefinite_directionally(self, rng):
        src, tgt, cost = small_random_instance(rng, 6, 6)
        psi = rng.standard_normal(6)
        for _ in range(10):
            w = rng.standard_normal(6)
            assert w @ ok.hessian_apply(psi, src, tgt, cost, 0.5, w) >= -1e-12


class TestProjectH:
    def test_subtract_mean(self):
        np.testing.assert_array_equal(ok.project_H([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])

    def test_zero_mean_unchanged(self):
        z = np.array([-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(ok.project_H(z), z)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_idempotent(self, values):
        once = ok.project_H(values)
        twice = ok.project_H(once)
        # rounding of the first mean is driven by the input scale
        scale = max(1.0, np.abs(np.asarray(values)).max())
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-14 * scale)


class TestRecoverPlan:
    def test_constant_cost_zero_potential(self):
        src = ok.from_points([[0.0], [1.0]], [0.3, 0.7])
        tgt = ok.from_points([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5])
        cost = ok.CostMatrix.from_entries(np.full((2, 3), 4.0))
        plan = ok.recover_plan(np.zeros(3), src, tgt, cost, 0.5)
        np.testing.assert_allclose(plan.entries, np.outer(src.weights, np.full(3, 1 / 3)),
                                   rtol=1e-15)

    def test_constant_cost_log_weights_gives_outer_product(self):
        src = ok.from_points([[0.0], [1.0]], [0.3, 0.7])
        tgt = ok.from_points([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5])
        cost = ok.CostMatrix.from_entries(np.full((2, 3), 4.0))
        lam = 0.7
        plan = ok.recover_plan(lam * np.log(tgt.weights), src, tgt, cost, lam)
        np.testing.assert_allclose(plan.entries, np.outer(src.weights, tgt.weights), rtol=1e-12)

    def test_row_sums_exact(self, rng):
        for _ in range(20):
            src, tgt, cost = small_random_instance(rng, 8, 5)
            psi = rng.standard_normal(5) * 2.0
            plan = ok.recover_plan(psi, src, tgt, cost, 0.05)
            np.testing.assert_allclose(plan.row_sums(), src.weights, rtol=0, atol=1e-12)

    def test_shift_invariance(self, rng):
        src, tgt, cost = small_random_instance(rng, 6, 6)
        psi = rng.standard_normal(6)
        a = ok.recover_plan(psi, src, tgt, cost, 0.2).entries
        b = ok.recover_plan(psi - 7.25, src, tgt, cost, 0.2).entries
        np.testing.assert_allclose(a, b, atol=1e-13)

    def test_column_sums_match_target_at_optimum(self, rng):
        src, tgt, cost = small_random_instance(rng, 10, 8)
        lam = cost.spread / 100
        result = ok.fista_solve(src, tgt, cost, lam,
                                ok.FistaConfig(eta=5, max_iters=200000, stop_rel_tol=1e-13,
                                               trace_every=10**9))
        assert result.trace.status == ok.CONVERGED
        np.testing.assert_allclose(result.plan.col_sums(), tgt.weights, atol=1e-7)


SMOOTHED_FUNCTIONS = {
    "smoothed_c_transform": lambda psi, src, tgt, cost, lam: ok.smoothed_c_transform(
        psi, cost, lam),
    "smoothed_energy": ok.smoothed_energy,
    "smoothed_gradient": ok.smoothed_gradient,
    "hessian_apply": lambda psi, src, tgt, cost, lam: ok.hessian_apply(
        psi, src, tgt, cost, lam, np.ones(psi.size)),
    "recover_plan": ok.recover_plan,
}


@pytest.mark.parametrize("name", sorted(SMOOTHED_FUNCTIONS))
def test_smoothed_functions_reject_nonpositive_lambda(name):
    src = ok.from_points([[0.0], [1.0]], [0.5, 0.5])
    tgt = ok.from_points([[0.0], [1.0]], [0.3, 0.7])
    cost = ok.CostMatrix.from_entries(np.zeros((2, 2)))
    for lam in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="lam must be > 0 and finite"):
            SMOOTHED_FUNCTIONS[name](np.zeros(2), src, tgt, cost, lam)


def solver_reductions(rows, psi, mu, nu, lam, offset):
    """What the solvers read from one row pass, called at ``psi`` and built
    at its row marginal ``mu``: the exact c-transform, the smoothed one
    ``shift + lam log_sums`` (each pass has its own shift), E, E_lam,
    gradient, <P, C> and the marginal deviation of
    P = scale[:, None] * weights."""
    smoothed = rows.shift + lam * rows.log_sums
    c_transform = rows.c_transform()
    e_lam = float(mu @ smoothed - nu @ psi) - lam * math.log(psi.size)
    return dict(c_transform=c_transform, smoothed=smoothed,
                E=float(mu @ c_transform - nu @ psi), E_lam=e_lam,
                grad=rows.col_sums() - nu, plan_cost=rows.plan_cost(offset),
                D=_marginal_dev(rows.scale * rows.sums, rows.col_sums(), mu, nu))


def grid_reductions(psi, build, mu, nu, lam, offset):
    """:func:`solver_reductions` of the grid pass ``build()`` at ``psi``.
    The pass is called at another potential first, as a solve reuses it, and
    must read what a fresh pass reads bit for bit; its ``scale`` and
    ``log_sums`` must be bitwise ``mu / sums`` and ``log(sums)``, as the
    solvers read them for every kind of pass."""
    reused = build()
    reused(psi[::-1].copy())
    rows = reused(psi)
    fast = solver_reductions(rows, psi, mu, nu, lam, offset)
    fresh = solver_reductions(build()(psi), psi, mu, nu, lam, offset)
    for name, value in fast.items():
        assert np.asarray(value).tobytes() == np.asarray(fresh[name]).tobytes(), name
    assert rows.scale.tobytes() == (mu / rows.sums).tobytes()
    assert rows.log_sums.tobytes() == np.log(rows.sums).tobytes()
    return fast


# Every exponent (psi_j - c_ij - shift_i) / lam is formed with at most about 16
# roundings of quantities bounded by R = (|psi|_inf + |c|_inf) / lam <= 1.5 T
# below (psi within the cost width, centered costs within half of it), so the
# pass weights carry relative errors below 16 * 2.2e-16 * 30 ~ 1e-13 on either
# path. 1e-12 leaves a factor of ten for the sums over up to 343 atoms.
GRID_TOL = 1e-12


@settings(max_examples=60)
@given(d=st.sampled_from([2, 3]), data=st.data())
def test_grid_pass_matches_dense_pass(d, data):
    lengths = st.tuples(*[st.integers(1, 7)] * d)
    spacing = st.floats(0.05, 5.0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    src = grid_measure(rng, data.draw(lengths, label="source"), data.draw(spacing),
                       data.draw(st.floats(-3.0, 3.0)))
    tgt = grid_measure(rng, data.draw(lengths, label="target"), data.draw(spacing))
    original = ok.squared_euclidean(src, tgt)
    cost = ok.center(original)
    assert cost.grid is not None
    offset = (original.c_max + original.c_min) / 2.0
    width = max(cost.spread, 1.0)
    lam = width / data.draw(st.floats(0.5, 20.0), label="T")
    dense = ok.CostMatrix.from_entries(cost.entries)
    scale = width + np.abs(dense.entries).max()
    for side, mu, nu in ((0, src.weights, tgt.weights), (1, tgt.weights, src.weights)):
        psi = rng.uniform(-width, width, size=nu.size)
        fast = grid_reductions(psi, lambda: _row_passes(cost, lam, src, tgt)[side],
                               mu, nu, lam, offset)
        slow = solver_reductions(_row_passes(dense, lam, src, tgt)[side](psi),
                                 psi, mu, nu, lam, offset)
        for name in ("c_transform", "smoothed", "E", "E_lam"):
            np.testing.assert_allclose(fast[name], slow[name], rtol=0, atol=GRID_TOL * scale)
        assert abs(fast["plan_cost"] - slow["plan_cost"]) <= GRID_TOL * (scale + abs(offset))
        # P carries unit mass, so D and the gradient's L1 norm are relative to it.
        assert abs(fast["D"] - slow["D"]) <= GRID_TOL
        assert np.abs(fast["grad"] - slow["grad"]).sum() <= GRID_TOL


@pytest.mark.parametrize("lengths_s, lengths_t", [((4, 3), (2, 5)), ((3, 1, 2), (2, 2, 3))])
def test_public_functions_on_a_grid_cost(lengths_s, lengths_t, rng):
    # c_transform and energy take the max-plus chain, and the smoothed
    # functions and recover_plan a grid pass, without forming the cost's
    # entries; they agree with the same calls on the dense costs, and the
    # plan's entries, once read, are bitwise the dense call's. hessian_apply
    # alone runs the dense pass, bitwise the dense call.
    src = grid_measure(rng, lengths_s, spacing=0.37, origin=-1.1)
    tgt = grid_measure(rng, lengths_t, spacing=1.9)
    original = ok.squared_euclidean(src, tgt)
    for cost in (original, ok.center(original)):
        width = cost.spread
        lam = width / 20.0
        psi = rng.uniform(-width, width, size=tgt.size)
        values = (ok.c_transform(psi, cost), ok.energy(psi, src, tgt, cost),
                  ok.smoothed_c_transform(psi, cost, lam),
                  ok.smoothed_energy(psi, src, tgt, cost, lam))
        gradient = ok.smoothed_gradient(psi, src, tgt, cost, lam)
        plan = ok.recover_plan(psi, src, tgt, cost, lam)
        sums, pc = (plan.row_sums(), plan.col_sums()), ok.plan_cost(plan, original)
        assert cost._entries is None and plan._entries is None
        dense = ok.CostMatrix.from_entries(cost.entries)
        tol = GRID_TOL * (width + np.abs(cost.entries).max())
        expected = (ok.c_transform(psi, dense), ok.energy(psi, src, tgt, dense),
                    ok.smoothed_c_transform(psi, dense, lam),
                    ok.smoothed_energy(psi, src, tgt, dense, lam))
        for got, want in zip(values, expected, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        # The gradient's entries are column sums of a plan of unit mass.
        assert np.abs(gradient - ok.smoothed_gradient(psi, src, tgt, dense, lam)).sum() \
            <= GRID_TOL
        direction = rng.standard_normal(tgt.size)
        assert ok.hessian_apply(psi, src, tgt, cost, lam, direction).tobytes() == \
            ok.hessian_apply(psi, src, tgt, dense, lam, direction).tobytes()
        expected = ok.recover_plan(psi, src, tgt, dense, lam).entries
        assert plan.entries.tobytes() == expected.tobytes()
        for got, want in zip(sums, (expected.sum(axis=1), expected.sum(axis=0))):
            np.testing.assert_allclose(got, want, rtol=0, atol=GRID_TOL)
        assert abs(pc - ok.plan_cost(ok.TransportPlan(expected), original)) <= \
            GRID_TOL * original.c_max


@settings(max_examples=60)
@given(d=st.sampled_from([2, 3]), data=st.data())
def test_mixed_grid_chain_matches_dense_pass(d, data):
    # At lam = 1 each axis is stretched so that its largest exponent
    # max(A_k) / lam is drawn either side of the guard: at most 600 for a
    # matrix-product stage, at least 700 for a log-domain one, with at least
    # one of the latter.
    over = data.draw(st.lists(st.booleans(), min_size=d, max_size=d).filter(any), label="over")
    exponents = [data.draw(st.floats(700.0, 3000.0) if o else st.floats(0.5, 600.0))
                 for o in over]
    lengths = st.tuples(*[st.integers(2, 6)] * d)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    src = grid_measure(rng, data.draw(lengths, label="source"), origin=data.draw(
        st.floats(-3.0, 3.0)))
    tgt = grid_measure(rng, data.draw(lengths, label="target"))
    lam = 1.0
    unit = ok.squared_euclidean(src, tgt).grid.axes
    stretch = np.sqrt([e / A.max() for e, A in zip(exponents, unit)])
    src = ok.from_points(src.points * stretch, src.weights)
    tgt = ok.from_points(tgt.points * stretch, tgt.weights)
    original = ok.squared_euclidean(src, tgt)
    cost = ok.center(original)
    rows = _row_passes(cost, lam, src, tgt)[0]
    assert [not s.product for s in rows.row] == [not s.product for s in rows.col] == over
    offset = (original.c_max + original.c_min) / 2.0
    width = cost.spread
    dense = ok.CostMatrix.from_entries(cost.entries)
    scale = width + np.abs(dense.entries).max()
    # GRID_TOL's derivation with R = (|psi|_inf + |c|_inf) / lam <= scale / lam
    # in place of R <= 30: weight errors below 16 * 2.2e-16 * R, and a
    # factor of ten for the sums.
    tol = GRID_TOL * (scale / lam) / 30.0
    for side, mu, nu in ((0, src.weights, tgt.weights), (1, tgt.weights, src.weights)):
        psi = rng.uniform(-width, width, size=nu.size)
        fast = grid_reductions(psi, lambda: _row_passes(cost, lam, src, tgt)[side],
                               mu, nu, lam, offset)
        slow = solver_reductions(_row_passes(dense, lam, src, tgt)[side](psi),
                                 psi, mu, nu, lam, offset)
        for name in ("c_transform", "smoothed", "E", "E_lam"):
            np.testing.assert_allclose(fast[name], slow[name], rtol=0, atol=tol * scale)
        assert abs(fast["plan_cost"] - slow["plan_cost"]) <= tol * (scale + abs(offset))
        assert abs(fast["D"] - slow["D"]) <= tol
        assert np.abs(fast["grad"] - slow["grad"]).sum() <= tol


class TestPotentialAndParams:
    def test_normalized_flag_validated(self):
        with pytest.raises(ValueError, match="zero mean"):
            ok.Potential(np.array([1.0, 2.0]), normalized=True)
        ok.Potential(np.array([-0.5, 0.5]), normalized=True)

    def test_smoothing_from_divisor(self):
        cost = ok.CostMatrix.from_entries([[0.0, 4.0], [2.0, 2.0]])
        params = ok.SmoothingParams.from_divisor(cost, 500.0)
        assert params.lam == 4.0 / 500.0

    def test_lambda_positive_required(self):
        for lam in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="lam must be > 0 and finite"):
                ok.SmoothingParams(lam)


def broadcast_max(U, B):
    """The max-plus stage ``max_b (U[b, r] - B[b, a])`` as one broadcast
    ``q x r x p`` temporary: the reference for ``_AxisStage.max``."""
    return (U[:, :, None] - B[:, None, :]).max(axis=0)


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def integer_grid(rng, lengths):
    """A full grid of integer coordinates, atoms in a random order, with
    random masses: its squared distances tie often."""
    axes = [np.arange(n, dtype=float) for n in lengths]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lengths))
    points = points[rng.permutation(len(points))]
    return ok.from_points(points, rng.uniform(0.1, 1.0, size=len(points)))


class TestMaxPlusStage:
    """The max-plus stage runs on a tiled ``B``; a max is exact, so it must
    equal the broadcast formula bitwise, ties and signed zeros included."""

    @pytest.mark.parametrize("q, r, p", [(5, 4, 3), (1, 4, 3), (5, 1, 3), (5, 4, 1),
                                         (1, 1, 1)])
    def test_stage_matches_broadcast(self, q, r, p, rng):
        B = rng.integers(0, 3, size=(q, p)).astype(float)
        stage = _AxisStage(B)
        results = []
        # Repeated calls reuse the stage's buffer; a wider input rebuilds it.
        for width in (r, r, r + 2, r):
            U = rng.choice([-1.0, -0.0, 0.0, 2.0], size=(q, width))
            results.append((stage.max(U), broadcast_max(U, B)))
        for actual, expected in results:
            assert_bitwise(actual, expected)

    @pytest.mark.parametrize("lengths", [(3, 4), (1, 5), (4, 1), (2, 3, 2), (3, 1, 2),
                                         (1, 1, 3)])
    def test_grid_c_transform_matches_broadcast_chain(self, lengths, rng):
        src, tgt = integer_grid(rng, lengths), integer_grid(rng, lengths[::-1])
        cost = ok.center(ok.squared_euclidean(src, tgt))
        assert cost.grid is not None
        for lam in (1.0, cost.spread / 7.0):
            psi = rng.integers(-3, 4, size=tgt.size) * lam
            rows = _row_passes(cost, lam, src, tgt)[0](psi)
            u = np.empty(tgt.size)
            u[cost.grid.cols] = psi / lam
            for stage in rows.row:
                u = broadcast_max(u.reshape(stage.B.shape[0], -1), stage.B)
            expected = lam * u.ravel()[cost.grid.rows] - cost.grid.offset
            # Twice: the second call runs on the stages' reused buffers.
            assert_bitwise(rows.c_transform(), expected)
            assert_bitwise(rows.c_transform(), expected)
