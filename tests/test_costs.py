import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otkit as ok
from helpers import grid_measure, grid_points, random_point_instance


def naive_squared_euclidean(x, y):
    m, n = len(x), len(y)
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for k in range(x.shape[1]):
                diff = x[i, k] - y[j, k]
                acc += diff * diff
            out[i, j] = acc
    return out


class TestSquaredEuclidean:
    def test_three_four_five(self):
        src = ok.from_points([[0.0, 0.0]], [1.0])
        tgt = ok.from_points([[3.0, 4.0]], [1.0])
        assert ok.squared_euclidean(src, tgt).entries[0, 0] == 25.0

    def test_identical_point_zero(self):
        src = ok.from_points([[1.5, -2.0]], [1.0])
        assert ok.squared_euclidean(src, src).entries[0, 0] == 0.0

    def test_matches_naive_loop_exactly(self):
        src, tgt = random_point_instance(11, 10, 10, d=3)
        fast = ok.squared_euclidean(src, tgt).entries
        slow = naive_squared_euclidean(src.points, tgt.points)
        np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("build", [ok.squared_euclidean,
                                       lambda s, t: ok.power_cost(s, t, 3.0), ok.spherical],
                             ids=["squared_euclidean", "power_cost", "spherical"])
    def test_dimension_mismatch(self, build):
        # Unit-norm points, so only the dimensions are wrong for every builder.
        src = ok.from_points([[1.0, 0.0]], [1.0])
        tgt = ok.from_points([[0.0, 0.0, 1.0]], [1.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            build(src, tgt)

    def test_cached_extrema(self):
        src, tgt = random_point_instance(4, 8, 9)
        cost = ok.squared_euclidean(src, tgt)
        assert cost.c_min == cost.entries.min()
        assert cost.c_max == cost.entries.max()


class TestGridFactors:
    @staticmethod
    def rebuilt(grid):
        """Dense costs from the factors, summed per axis in index order."""
        (shape_s, shape_t) = grid.shape
        rows = np.unravel_index(grid.rows, shape_s)
        cols = np.unravel_index(grid.cols, shape_t)
        out = np.zeros((grid.rows.size, grid.cols.size))
        for A, a, b in zip(grid.axes, rows, cols):
            out += A[a[:, None], b[None, :]]
        return out + grid.offset

    @pytest.mark.parametrize("lengths_s, lengths_t", [((4, 3), (2, 5)), ((3, 1, 2), (2, 2, 3))])
    def test_permuted_grids_factor_exactly(self, lengths_s, lengths_t, rng):
        src = grid_measure(rng, lengths_s, spacing=0.37, origin=-1.1)
        tgt = grid_measure(rng, lengths_t, spacing=1.9)
        cost = ok.squared_euclidean(src, tgt)
        assert cost.grid is not None
        assert cost.grid.shape == (lengths_s, lengths_t)
        assert cost.grid.offset == 0.0
        np.testing.assert_array_equal(self.rebuilt(cost.grid), cost.entries)
        np.testing.assert_array_equal(self.rebuilt(cost.grid.T), cost.entries.T)

    def test_image_grid_detected(self):
        img = np.arange(12, dtype=float).reshape(3, 4)
        src = ok.from_image_grid(img)
        cost = ok.squared_euclidean(src, ok.from_image_grid(img.T))
        assert cost.grid.shape == ((3, 4), (4, 3))

    def test_incomplete_or_repeated_grids_get_none(self, rng):
        full = grid_points(rng, (3, 4))
        tgt = grid_measure(rng, (3, 3))
        missing = full[1:]
        duplicated = np.vstack([full, full[:1]])
        # Every axis value still present and 12 atoms, but one index tuple twice.
        repeated = np.vstack([full[1:], full[2:3]])
        for points in (missing, duplicated, repeated):
            src = ok.from_points(points, np.ones(len(points)))
            assert ok.squared_euclidean(src, tgt).grid is None
            assert ok.squared_euclidean(tgt, src).grid is None

    def test_clouds_and_lines_get_none(self, rng):
        src, tgt = random_point_instance(3, 9, 9, d=2)
        assert ok.squared_euclidean(src, tgt).grid is None
        line = ok.from_points(np.arange(5.0)[:, None], np.ones(5))
        assert ok.squared_euclidean(line, line).grid is None

    def test_other_builders_attach_none(self, tmp_path, rng):
        src, tgt = grid_measure(rng, (3, 2)), grid_measure(rng, (2, 4))
        cost = ok.squared_euclidean(src, tgt)
        assert ok.power_cost(src, tgt, 2.0).grid is None
        assert ok.CostMatrix.from_entries(cost.entries).grid is None
        ok.costs.save_cost_text(cost, tmp_path / "c.txt")
        assert ok.costs.load_cost_text(tmp_path / "c.txt").grid is None
        octa = np.vstack([np.eye(3), -np.eye(3)])
        sphere = ok.from_points(octa, np.ones(6))
        assert ok.spherical(sphere, sphere).grid is None

    def test_center_keeps_factors_with_shifted_offset(self, rng):
        cost = ok.squared_euclidean(grid_measure(rng, (3, 4)), grid_measure(rng, (5, 2)))
        centered = ok.center(cost)
        mid = (cost.c_max + cost.c_min) / 2.0
        assert centered.grid.offset == -mid
        assert centered.grid.axes is cost.grid.axes
        np.testing.assert_allclose(self.rebuilt(centered.grid), centered.entries,
                                   rtol=0, atol=1e-13 * cost.c_max)
        assert ok.center(centered).grid.offset == -mid - (centered.c_max + centered.c_min) / 2.0


class TestPowerCost:
    def test_p_one_point_five(self):
        src = ok.from_points([[0.0, 0.0]], [1.0])
        tgt = ok.from_points([[3.0, 4.0]], [1.0])
        got = ok.power_cost(src, tgt, 1.5).entries[0, 0]
        assert got == pytest.approx(11.180339887498949, abs=1e-12)

    def test_p_two_matches_squared_euclidean(self):
        src, tgt = random_point_instance(5, 12, 7, d=4)
        a = ok.power_cost(src, tgt, 2.0).entries
        b = ok.squared_euclidean(src, tgt).entries
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_nonpositive_p_rejected(self):
        src, tgt = random_point_instance(5, 3, 3)
        for p in (0.0, -1.0):
            with pytest.raises(ValueError, match="p must be > 0"):
                ok.power_cost(src, tgt, p)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    def test_matches_naive_power_exactly(self, p):
        src, tgt = random_point_instance(7, 9, 8, d=3)
        sq = naive_squared_euclidean(src.points, tgt.points)
        np.testing.assert_array_equal(ok.power_cost(src, tgt, p).entries, sq ** (p / 2.0))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_appendix_family_exponents(self, p):
        src, tgt = random_point_instance(2, 6, 6, d=5, source_dist="gaussian",
                                         target_dist="uniform", gaussian_mean=3.0)
        cost = ok.power_cost(src, tgt, p)
        dist = np.sqrt(ok.squared_euclidean(src, tgt).entries)
        np.testing.assert_allclose(cost.entries, dist ** p, rtol=1e-12)


class TestSpherical:
    def _sphere_pair(self, seed=0, m=6, n=7):
        return random_point_instance(seed, m, n, d=3, source_dist="gaussian",
                                     target_dist="gaussian", project_to_sphere=True)

    def test_orthogonal(self):
        src = ok.from_points([[1.0, 0.0, 0.0]], [1.0])
        tgt = ok.from_points([[0.0, 1.0, 0.0]], [1.0])
        assert ok.spherical(src, tgt).entries[0, 0] == pytest.approx(1.5707963267948966, abs=1e-15)

    def test_identical_zero(self):
        v = ok.from_points([[0.0, 0.0, 1.0]], [1.0])
        assert ok.spherical(v, v).entries[0, 0] == 0.0

    def test_clamping_never_nan(self):
        eps = 1e-10  # norm within the 1e-9 unit tolerance, inner product > 1
        src = ok.from_points([[1.0 + eps, 0.0]], [1.0])
        tgt = ok.from_points([[1.0 + eps, 0.0]], [1.0])
        cost = ok.spherical(src, tgt)
        assert cost.entries[0, 0] == 0.0

    def test_non_unit_rejected(self):
        src = ok.from_points([[2.0, 0.0]], [1.0])
        with pytest.raises(ValueError, match="not on sphere"):
            ok.spherical(src, src)

    def test_matches_clipped_arccos_exactly(self):
        # source == target puts inner products at 1 up to rounding, so the clip acts
        src, tgt = self._sphere_pair(m=9, n=8)
        for a, b in ((src, tgt), (src, src)):
            inner = np.clip(a.points @ b.points.T, -1.0, 1.0)
            np.testing.assert_array_equal(ok.spherical(a, b).entries, np.arccos(inner))

    def test_range_within_zero_pi(self):
        src, tgt = self._sphere_pair()
        cost = ok.spherical(src, tgt)
        assert cost.c_min >= 0.0 and cost.c_max <= np.pi


class TestCenter:
    def test_fixture(self):
        cost = ok.CostMatrix.from_entries([[0.0, 4.0], [2.0, 2.0]])
        centered = ok.center(cost)
        np.testing.assert_array_equal(centered.entries, [[-2.0, 2.0], [0.0, 0.0]])
        assert centered.c_max == -centered.c_min == centered.spread / 2 == 2.0

    def test_constant_matrix_to_zero(self):
        centered = ok.center(ok.CostMatrix.from_entries(np.full((3, 2), 7.5)))
        np.testing.assert_array_equal(centered.entries, np.zeros((3, 2)))

    def test_idempotent_and_spread_preserved(self, rng):
        cost = ok.CostMatrix.from_entries(rng.uniform(-3.0, 9.0, size=(6, 5)))
        once = ok.center(cost)
        twice = ok.center(once)
        np.testing.assert_allclose(twice.entries, once.entries, rtol=0, atol=1e-15)
        assert once.spread == pytest.approx(cost.spread, rel=1e-15)

    @settings(max_examples=300)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
           pool=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
           scale=st.floats(1e-3, 1e8), base=st.floats(-1e8, 1e8), seed=st.integers(0, 2**32 - 1))
    def test_extrema_match_full_scans(self, shape, pool, scale, base, seed):
        # Entries drawn from a pool of at most four values, so extrema tie.
        rng = np.random.default_rng(seed)
        entries = base + scale * np.array(pool)[rng.integers(0, len(pool), size=shape)]
        centered = ok.center(ok.CostMatrix.from_entries(entries))
        for value, scan in ((centered.c_min, centered.entries.min()),
                            (centered.c_max, centered.entries.max())):
            assert np.float64(value).tobytes() == np.float64(scan).tobytes()

    def test_optimal_plan_invariant(self, rng):
        from helpers import small_random_instance
        src, tgt, cost = small_random_instance(rng, 5, 5, cost_scale=4.0)
        plan_a, cost_a = ok.exact_solve(src, tgt, cost)
        plan_b, cost_b = ok.exact_solve(src, tgt, ok.center(cost))
        np.testing.assert_allclose(plan_a.entries, plan_b.entries, atol=1e-12)
        mid = (cost.c_max + cost.c_min) / 2.0
        assert cost_a - cost_b == pytest.approx(mid, rel=1e-12)


class TestCostIO:
    def test_text_round_trip(self, tmp_path, rng):
        cost = ok.CostMatrix.from_entries(rng.uniform(-1.0, 1.0, size=(4, 6)))
        path = tmp_path / "c.txt"
        ok.costs.save_cost_text(cost, path)
        back = ok.costs.load_cost_text(path)
        np.testing.assert_array_equal(back.entries, cost.entries)
        assert path.read_text().splitlines()[0] == "4 6"

    @pytest.mark.parametrize("header", ["-2 -3", "-1 2", "0 3", "3 0"])
    def test_non_positive_header_rejected(self, tmp_path, header):
        path = tmp_path / "c.txt"
        path.write_text(header + "\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="positive sizes"):
            ok.costs.load_cost_text(path)
