import itertools
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import otkit as ok
from otkit import cli, exact, smoothed_dual
from otkit.exact import _tree_peel_schedules, transportation_simplex
from helpers import small_random_instance, sweep_instance


def is_spanning_tree(cells, m, n):
    """``m + n - 1`` cells with no cycle, checked by union-find: a spanning
    tree of K_{m,n}, rows as nodes 0..m-1 and columns as m..m+n-1."""
    parent = list(range(m + n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in cells:
        ri, rj = find(i), find(m + j)
        if ri == rj:
            return False
        parent[ri] = rj
    return len(cells) == m + n - 1


def spanning_trees_by_filtering(m, n):
    """All spanning-tree edge sets of K_{m,n} via subset filtering; the
    independent check for the sequence-pair enumeration."""
    cells = [(i, j) for i in range(m) for j in range(n)]
    return {frozenset(i * n + j for i, j in subset)
            for subset in itertools.combinations(cells, m + n - 1)
            if is_spanning_tree(subset, m, n)}


def assert_optimal_basis(state, mu, nu, costs):
    """Spanning-tree basis, a nonnegative plan carried by the basic cells
    alone, exact marginals, and the dual certificate: no negative reduced
    cost, zero reduced cost on every basic cell."""
    m, n = costs.shape
    assert len(set(state.cells)) == m + n - 1
    assert is_spanning_tree(state.cells, m, n)
    assert (state.plan >= 0).all()
    off_basis = np.ones((m, n), dtype=bool)
    off_basis[tuple(zip(*state.cells))] = False
    np.testing.assert_array_equal(state.plan[off_basis], 0.0)
    np.testing.assert_allclose(state.plan.sum(axis=1), mu, rtol=0, atol=1e-12)
    np.testing.assert_allclose(state.plan.sum(axis=0), nu, rtol=0, atol=1e-12)
    reduced = state.reduced_costs(costs)
    assert reduced.min() >= -1e-10
    rows, cols = zip(*state.cells)
    np.testing.assert_allclose(reduced[list(rows), list(cols)], 0.0, atol=1e-9)


def assert_matches_full_pricing(monkeypatch, mu, nu, costs_):
    """The default solve and one with every cell a candidate (each pivot
    prices all m x n cells) are both certified optimal and agree in cost."""
    state = transportation_simplex(mu, nu, costs_)
    assert_optimal_basis(state, mu, nu, costs_)
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_CANDIDATES", max(costs_.shape))
        full = transportation_simplex(mu, nu, costs_)
    assert_optimal_basis(full, mu, nu, costs_)
    assert float((state.plan * costs_).sum()) == pytest.approx(
        float((full.plan * costs_).sum()), rel=1e-10, abs=1e-14)


def dyadic_masses(rng, k):
    """``k`` masses summing exactly to 1, each a power of two."""
    parts = [1.0]
    while len(parts) < k:
        x = parts.pop(int(rng.integers(len(parts))))
        parts += [x / 2, x / 2]
    return np.array(parts)


def degenerate_instance(rng, m, n, max_cost=3):
    """Uniform or dyadic masses with small integer costs: many ties in both
    the allocations and the reduced costs."""
    if rng.integers(2):
        mu, nu = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    else:
        mu, nu = dyadic_masses(rng, m), dyadic_masses(rng, n)
    return mu, nu, rng.integers(0, max_cost + 1, size=(m, n)).astype(float)


class TestTreeEnumeration:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (3, 1), (2, 2), (2, 3), (3, 3), (2, 4)])
    def test_matches_subset_filtering(self, m, n):
        cells, _, _, _ = _tree_peel_schedules(m, n)
        generated = {frozenset(row.tolist()) for row in cells}
        assert len(generated) == cells.shape[0] == m ** (n - 1) * n ** (m - 1)
        assert generated == spanning_trees_by_filtering(m, n)

    def test_counts_at_limit(self):
        cells, _, _, _ = _tree_peel_schedules(5, 5)
        assert cells.shape == (390625, 9)
        # spot check distinctness without hashing all 390k rows
        sorted_cells = np.sort(cells, axis=1)
        assert np.unique(sorted_cells, axis=0).shape[0] == 390625


def assert_warm_tree(mu, nu, costs, atol=1e-12):
    """The warm start is a spanning tree rooted at row 0 whose flows meet the
    marginals; returns its cells and flows."""
    m, n = costs.shape
    cells, parent, depth, pos, children, flow = exact._warm_basis(mu, nu, costs, np.empty((m, n)))
    assert len(cells) == len(set(cells)) == m + n - 1
    assert is_spanning_tree(cells, m, n)
    assert parent[0] == -1 and pos[0] == -1 and depth[0] == 0 and flow[0] == 0.0
    assert sorted(pos[1:]) == list(range(m + n - 1))
    for x in range(1, m + n):
        i, j = cells[pos[x]]
        assert {x, parent[x]} == {i, m + j}
        assert depth[x] == depth[parent[x]] + 1
    for x in range(m + n):
        assert children[x] == {y for y in range(1, m + n) if parent[y] == x}
    assert all(type(f) is float and f >= 0.0 for f in flow)
    plan = np.zeros((m, n))
    for x in range(1, m + n):
        plan[cells[pos[x]]] = flow[x]
    np.testing.assert_allclose(plan.sum(axis=1), mu, rtol=0, atol=atol)
    np.testing.assert_allclose(plan.sum(axis=0), nu, rtol=0, atol=atol)
    return cells, flow


class TestWarmBasis:
    def test_basis_size_and_marginals(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            mu = ok.normalize(rng.uniform(0.1, 1.0, m))
            nu = ok.normalize(rng.uniform(0.1, 1.0, n))
            assert_warm_tree(mu, nu, rng.uniform(0.0, 1.0, size=(m, n)))

    def test_degenerate_ties(self):
        # Row and column exhausted together: one stays open with zero mass
        # and closes on a zero-flow cell.
        mu = np.array([0.5, 0.5])
        nu = np.array([0.5, 0.5])
        cells, flow = assert_warm_tree(mu, nu, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)
        assert len(cells) == 3
        assert sorted(flow[1:]) == [0.0, 0.5, 0.5]

    def test_degenerate_instances(self, rng):
        for _ in range(40):
            assert_warm_tree(*degenerate_instance(rng, int(rng.integers(1, 8)),
                                                  int(rng.integers(1, 8))))

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 5), (4, 1)])
    def test_edge_shapes(self, m, n, rng):
        mu, nu = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
        cells, _ = assert_warm_tree(mu, nu, rng.uniform(0.0, 1.0, size=(m, n)))
        assert sorted(cells) == [(i, j) for i in range(m) for j in range(n)]

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 5), (6, 6)])
    def test_constant_costs(self, m, n, rng):
        mu = ok.normalize(rng.uniform(0.1, 1.0, m))
        nu = ok.normalize(rng.uniform(0.1, 1.0, n))
        assert_warm_tree(mu, nu, np.full((m, n), 2.5))


class TestExactSolve:
    def test_one_by_one(self):
        src = ok.from_points([[0.0]], [1.0])
        tgt = ok.from_points([[1.0]], [1.0])
        plan, cost = ok.exact_solve(src, tgt, ok.CostMatrix.from_entries([[7.0]]))
        assert cost == 7.0
        np.testing.assert_array_equal(plan.entries, [[1.0]])

    def test_two_by_two_fixture(self):
        src = ok.from_points([[0.0], [1.0]], [0.7, 0.3])
        tgt = ok.from_points([[0.0], [1.0]], [0.4, 0.6])
        cost = ok.CostMatrix.from_entries([[0.0, 1.0], [1.0, 0.0]])
        plan, value = ok.exact_solve(src, tgt, cost)
        assert value == pytest.approx(0.3, abs=1e-15)
        np.testing.assert_allclose(plan.entries, [[0.4, 0.3], [0.0, 0.3]], atol=1e-15)

    def test_identity_instance(self):
        n = 6
        weights = ok.normalize(np.arange(1.0, n + 1.0))
        points = np.arange(n, dtype=float)[:, None]
        src = ok.from_points(points, weights)
        entries = np.ones((n, n)) + 2.0
        np.fill_diagonal(entries, 0.0)
        plan, value = ok.exact_solve(src, src, ok.CostMatrix.from_entries(entries))
        assert value == 0.0
        np.testing.assert_allclose(plan.entries, np.diag(weights), atol=1e-15)

    def test_marginals_exact(self, rng):
        for _ in range(10):
            src, tgt, cost = small_random_instance(rng, int(rng.integers(2, 12)),
                                                   int(rng.integers(2, 12)))
            plan, _ = ok.exact_solve(src, tgt, cost)
            np.testing.assert_allclose(plan.row_sums(), src.weights, atol=1e-12)
            np.testing.assert_allclose(plan.col_sums(), tgt.weights, atol=1e-12)

    def test_cell_cap(self, rng):
        src, tgt, cost = small_random_instance(rng, 4, 4)
        with pytest.raises(ValueError, match="too large for exact oracle"):
            ok.exact_solve(src, tgt, cost, cell_cap=15)

    def test_optimality_certificate(self, rng):
        for _ in range(10):
            src, tgt, cost = small_random_instance(rng, 8, 7)
            state = transportation_simplex(src.weights, tgt.weights, cost.entries)
            assert_optimal_basis(state, src.weights, tgt.weights, cost.entries)

    def test_randomized_certificate_sweep(self, monkeypatch):
        # Half the instances are degenerate, where the pivots that re-hang the
        # basis tree without moving mass are most frequent.
        rng = np.random.default_rng(31)
        for k in range(200):
            m, n = (int(x) for x in rng.integers(1, 31, size=2))
            if k % 2:
                mu, nu, costs_ = degenerate_instance(rng, m, n)
            else:
                mu = ok.normalize(rng.uniform(0.1, 1.0, m))
                nu = ok.normalize(rng.uniform(0.1, 1.0, n))
                costs_ = rng.uniform(0.0, 1.0, size=(m, n))
            assert_matches_full_pricing(monkeypatch, mu, nu, costs_)

    def test_optimality_rests_on_recomputed_potentials(self, monkeypatch):
        # Wipe the potentials whenever pricing the incrementally updated ones
        # finds no entering cell: the recompute that follows must rebuild every
        # one of them from the costs along the current tree.
        price = exact._price
        last = [0]
        wipes = []

        def wiping(costs, u, v, basic_flat, reduced, bland):
            flat = price(costs, u, v, basic_flat, reduced, bland)
            if flat < 0 and last[0] >= 0:
                u[:] = v[:] = np.nan
                wipes.append(None)
            last[0] = flat
            return flat

        monkeypatch.setattr(exact, "_price", wiping)
        rng = np.random.default_rng(32)
        for _ in range(60):
            m, n = (int(x) for x in rng.integers(1, 21, size=2))
            mu, nu, costs_ = degenerate_instance(rng, m, n)
            last[0] = 0
            state = transportation_simplex(mu, nu, costs_)
            assert_optimal_basis(state, mu, nu, costs_)
        assert wipes

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="measure sizes do not match the cost matrix"):
            transportation_simplex(np.full(2, 0.5), np.full(3, 1.0 / 3.0), np.ones((3, 3)))

    def test_constant_costs(self, rng):
        # spread == 0: no entropic pre-solve (lam would be 0), any basis is optimal.
        m, n = 7, 5
        mu = ok.normalize(rng.uniform(0.1, 1.0, m))
        nu = ok.normalize(rng.uniform(0.1, 1.0, n))
        costs_ = np.full((m, n), -1.25)
        with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise", over="raise"):
            warnings.simplefilter("error")
            state = transportation_simplex(mu, nu, costs_)
        assert_optimal_basis(state, mu, nu, costs_)

    def test_pivot_count(self):
        # A seeded 80 x 80 power-cost instance: 130 pivots and 4 full pricing
        # passes with the candidate list; 122 pivots (one full pass each) with
        # full pricing alone, 490 from the northwest corner.
        src, tgt, cost = sweep_instance(1, 3.0, 80, 80)
        state = transportation_simplex(src.weights, tgt.weights, cost.entries)
        assert_optimal_basis(state, src.weights, tgt.weights, cost.entries)
        assert state.pivots <= 200
        assert state.full_passes <= 8

    @staticmethod
    def p_sweep_exact_instance():
        """The seeded 200 x 200, p = 3 p-sweep instance, with its uncentered
        cost and the centered one the CLI solves on."""
        config = cli.config_from_sources("p-sweep", overrides={"m": 200, "n": 200, "p": 3.0,
                                                                "seed": 1})
        src, tgt = cli.build_instance(config)
        original = cli.build_cost(config, src, tgt)
        return src, tgt, original, ok.center(original)

    def test_p_sweep_exact_instance(self):
        # The LP cost on the uncentered matrix, solved on the centered one.
        src, tgt, original, centered = self.p_sweep_exact_instance()
        state = transportation_simplex(src.weights, tgt.weights, centered.entries)
        assert_optimal_basis(state, src.weights, tgt.weights, centered.entries)
        assert ok.plan_cost(ok.TransportPlan(state.plan), original) == pytest.approx(
            4786.142931280248, rel=1e-10)
        assert state.full_passes <= 8

    def test_warm_start_runs_absorbed(self):
        # The pre-solve is one dense Sinkhorn solve, which scales its absorbed
        # kernel between log-domain passes: 2 passes here (91 rounds), where a
        # plain log-domain loop makes two a round.
        src, tgt, _, centered = self.p_sweep_exact_instance()
        code = smoothed_dual._DenseRows.__call__.__code__
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(1)

        sys.setprofile(profile)
        try:
            transportation_simplex(src.weights, tgt.weights, centered.entries)
        finally:
            sys.setprofile(None)
        assert 1 <= len(calls) <= 4

    def test_caller_costs_left_writable_and_unchanged(self, rng):
        mu, nu = ok.normalize(rng.uniform(0.1, 1.0, 6)), ok.normalize(rng.uniform(0.1, 1.0, 5))
        costs_ = rng.uniform(0.0, 1.0, size=(6, 5))
        before = costs_.copy()
        state = transportation_simplex(mu, nu, costs_)
        assert_optimal_basis(state, mu, nu, costs_)
        assert costs_.flags.writeable
        np.testing.assert_array_equal(costs_, before)

    def test_unnormalized_masses(self, rng):
        # The pre-solve runs on normalized masses; the LP scales with the mass.
        mu, nu = ok.normalize(rng.uniform(0.1, 1.0, 9)), ok.normalize(rng.uniform(0.1, 1.0, 7))
        costs_ = rng.uniform(0.0, 1.0, size=(9, 7))
        unit = transportation_simplex(mu, nu, costs_)
        assert_optimal_basis(unit, mu, nu, costs_)
        state = transportation_simplex(3.0 * mu, 3.0 * nu, costs_)
        assert_optimal_basis(state, 3.0 * mu, 3.0 * nu, costs_)
        assert float((state.plan * costs_).sum()) == pytest.approx(
            3.0 * float((unit.plan * costs_).sum()), rel=1e-10)

    def test_degenerate_uniform_masses(self):
        # maximally tied masses make many pivots degenerate
        n = 8
        mu = np.full(n, 1.0 / n)
        rng = np.random.default_rng(5)
        costs_ = rng.uniform(0.0, 1.0, size=(n, n))
        state = transportation_simplex(mu, mu, costs_)
        assert state.reduced_costs(costs_).min() >= -1e-10

    def test_weak_duality_against_iterative_plans(self, rng):
        src, tgt, cost = small_random_instance(rng, 9, 9)
        _, lp_cost = ok.exact_solve(src, tgt, cost)
        lam = cost.spread / 30
        fista = ok.fista_solve(src, tgt, cost, lam,
                               ok.FistaConfig(eta=1, max_iters=20000, stop_rel_tol=1e-10,
                                              trace_every=10**9))
        sink = ok.sinkhorn_solve(src, tgt, cost, lam, max_iters=20000, stop_rel_tol=1e-10)
        for plan in (fista.plan, sink.plan):
            dev = ok.marginal_deviation(plan, src, tgt)
            assert ok.plan_cost(plan, cost) >= lp_cost - dev * cost.c_max - 1e-9


class TestInputValidation:
    def test_infinite_cost(self):
        costs_ = np.ones((3, 3))
        costs_[0, 2] = np.inf
        with pytest.raises(ValueError, match="costs must be finite"):
            transportation_simplex(np.full(3, 1 / 3), np.full(3, 1 / 3), costs_)

    def test_nan_cost(self):
        costs_ = np.ones((3, 3))
        costs_[1, 1] = np.nan
        with pytest.raises(ValueError, match="costs must be finite"):
            transportation_simplex(np.full(3, 1 / 3), np.full(3, 1 / 3), costs_)

    def test_negative_mass(self):
        with pytest.raises(ValueError, match="source masses must be finite and nonnegative"):
            transportation_simplex(np.array([1.5, -0.5, 0.0]), np.full(3, 1 / 3), np.ones((3, 3)))

    def test_non_finite_mass(self):
        with pytest.raises(ValueError, match="target masses must be finite and nonnegative"):
            transportation_simplex(np.full(2, 0.5), np.array([0.5, np.nan]), np.ones((2, 2)))

    def test_zero_masses_accepted(self, rng):
        # Lines without mass stay out of the pre-solve: no log(0) warning.
        mu = np.array([0.5, 0.0, 0.5])
        nu = np.array([0.0, 0.25, 0.75])
        costs_ = rng.uniform(0.0, 1.0, size=(3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state = transportation_simplex(mu, nu, costs_)
        assert_optimal_basis(state, mu, nu, costs_)

    def test_zero_total_mass(self, rng):
        # No mass at all: no pre-solve, and the zero plan comes back certified.
        for _ in range(10):
            zeros, costs_ = np.zeros(3), rng.uniform(0.0, 1.0, size=(3, 3))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                state = transportation_simplex(zeros, zeros, costs_)
            assert_optimal_basis(state, zeros, zeros, costs_)
            np.testing.assert_array_equal(state.plan, 0.0)


class TestCandidateList:
    """Pricing the candidate list first changes speed, not the optimum."""

    def test_degenerate_instances_match_full_pricing(self, monkeypatch):
        rng = np.random.default_rng(48)
        for _ in range(30):
            m, n = (int(x) for x in rng.integers(2, 26, size=2))
            assert_matches_full_pricing(monkeypatch, *degenerate_instance(rng, m, n, max_cost=2))

    def test_candidate_cells(self, rng):
        reduced = rng.uniform(0.0, 1.0, size=(37, 23))
        k = exact._CANDIDATES
        expected = set()
        for i in range(37):
            expected |= {i * 23 + j for j in np.argsort(reduced[i])[:k]}
        for j in range(23):
            expected |= {i * 23 + j for i in np.argsort(reduced[:, j])[:k]}
        flat = exact._candidate_cells(reduced)
        assert flat.tolist() == sorted(expected)

    def test_blind_candidates_still_certified(self, monkeypatch):
        # Zero pre-solve potentials: the list is chosen from the raw costs and
        # knows nothing of the optimum, so full passes must extend it.
        monkeypatch.setattr(exact, "_entropic_duals",
                            lambda mu, nu, costs: (np.zeros(mu.size), np.zeros(nu.size)))
        src, tgt, cost = sweep_instance(1, 3.0, 80, 80)
        state = transportation_simplex(src.weights, tgt.weights, cost.entries)
        assert_optimal_basis(state, src.weights, tgt.weights, cost.entries)
        assert state.full_passes >= 2


class TestBlandFallback:
    """Bland's rule engaged after every degenerate pivot."""

    @pytest.fixture
    def bland_calls(self, monkeypatch):
        """Force the fallback and record the ``bland`` flag of every pricing."""
        monkeypatch.setattr(exact, "_DEGENERATE_STALL", 1)
        calls = []
        price = exact._price

        def spy(costs, u, v, basic_flat, reduced, bland):
            calls.append(bland)
            return price(costs, u, v, basic_flat, reduced, bland)

        monkeypatch.setattr(exact, "_price", spy)
        return calls

    def test_matches_brute_force(self, bland_calls):
        rng = np.random.default_rng(47)
        engaged = 0
        for _ in range(40):
            m, n = (int(x) for x in rng.integers(2, 6, size=2))
            mu, nu = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
            entries = rng.integers(0, 3, size=(m, n)).astype(float)
            src = ok.from_points(np.zeros((m, 1)), mu)
            tgt = ok.from_points(np.zeros((n, 1)), nu)
            cost = ok.CostMatrix.from_entries(entries)
            bland_calls.clear()
            _, simplex_cost = ok.exact_solve(src, tgt, cost)
            engaged += any(bland_calls)
            _, brute_cost = ok.brute_force_solve(src, tgt, cost)
            assert abs(simplex_cost - brute_cost) <= 1e-10
        assert engaged > 0

    def test_certificate(self, bland_calls):
        rng = np.random.default_rng(48)
        for _ in range(30):
            m, n = (int(x) for x in rng.integers(2, 26, size=2))
            mu, nu, costs_ = degenerate_instance(rng, m, n, max_cost=2)
            state = transportation_simplex(mu, nu, costs_)
            assert_optimal_basis(state, mu, nu, costs_)
        assert any(bland_calls)


class TestBruteForce:
    def test_two_by_two_closed_form(self, rng):
        for _ in range(25):
            src, tgt, cost = small_random_instance(rng, 2, 2)
            _, value = ok.brute_force_solve(src, tgt, cost)
            mu, nu, C = src.weights, tgt.weights, cost.entries
            # one degree of freedom: p11 in [max(0, mu1-nu2), min(mu1, nu1)]
            lo = max(0.0, mu[0] - nu[1])
            hi = min(mu[0], nu[0])
            best = np.inf
            for p11 in (lo, hi):
                p = np.array([[p11, mu[0] - p11], [nu[0] - p11, nu[1] - mu[0] + p11]])
                best = min(best, float((p * C).sum()))
            assert value == pytest.approx(best, abs=1e-12)

    def test_agrees_with_simplex_4x4(self, rng):
        for _ in range(40):
            src, tgt, cost = small_random_instance(rng, 4, 4)
            _, simplex_cost = ok.exact_solve(src, tgt, cost)
            _, brute_cost = ok.brute_force_solve(src, tgt, cost)
            assert abs(simplex_cost - brute_cost) <= 1e-10

    def test_rational_exactness_3x3(self):
        # dyadic masses and integer costs keep every allocation exact in floats
        mu = np.array([1, 3, 4], dtype=float) / 8.0
        nu = np.array([2, 2, 4], dtype=float) / 8.0
        entries = np.array([[3.0, 1.0, 4.0], [1.0, 5.0, 9.0], [2.0, 6.0, 5.0]])
        src = ok.from_points(np.arange(3.0)[:, None], mu)
        tgt = ok.from_points(np.arange(3.0)[:, None], nu)
        cost = ok.CostMatrix.from_entries(entries)
        _, simplex_cost = ok.exact_solve(src, tgt, cost)
        _, brute_cost = ok.brute_force_solve(src, tgt, cost)

        # independent rational enumeration over the cached tree schedules
        cells, leaf, nbr, last_row = _tree_peel_schedules(3, 3)
        best = None
        for k in range(cells.shape[0]):
            masses = [Fraction(int(x), 8) for x in (1, 3, 4, 2, 2, 4)]
            alloc = []
            for t in range(4):
                x = masses[leaf[k, t]]
                alloc.append(x)
                masses[nbr[k, t]] -= x
            alloc.append(masses[last_row[k]])
            if all(a >= 0 for a in alloc):
                total = sum(a * Fraction(int(entries.flat[c])) for a, c in zip(alloc, cells[k]))
                best = total if best is None or total < best else best
        assert Fraction(simplex_cost).limit_denominator(10**6) == best
        assert Fraction(brute_cost).limit_denominator(10**6) == best
        assert simplex_cost == float(best) and brute_cost == float(best)

    def test_size_limit(self, rng):
        src, tgt, cost = small_random_instance(rng, 6, 3)
        with pytest.raises(ValueError, match="limited to"):
            ok.brute_force_solve(src, tgt, cost)

    def test_plan_is_feasible_vertex(self, rng):
        src, tgt, cost = small_random_instance(rng, 5, 4)
        plan, _ = ok.brute_force_solve(src, tgt, cost)
        np.testing.assert_allclose(plan.row_sums(), src.weights, atol=1e-12)
        np.testing.assert_allclose(plan.col_sums(), tgt.weights, atol=1e-12)
        assert (plan.entries > 1e-12).sum() <= 5 + 4 - 1
