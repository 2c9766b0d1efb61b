import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import otkit as ok


class TestNormalize:
    def test_proportional_scaling(self):
        np.testing.assert_allclose(ok.normalize([2.0, 3.0]), [0.4, 0.6], rtol=0, atol=1e-15)

    def test_uniform_case(self):
        np.testing.assert_array_equal(ok.normalize([1, 1, 1, 1]), [0.25] * 4)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="degenerate measure"):
            ok.normalize([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative mass"):
            ok.normalize([1.0, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN gave all-NaN weights and inf gave [0, nan] with a RuntimeWarning.
        with pytest.raises(ValueError, match="non-finite mass"):
            ok.normalize([1.0, bad])

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=30))
    def test_sums_to_one_and_preserves_proportions(self, raw):
        w = ok.normalize(raw)
        assert abs(w.sum() - 1.0) <= 1e-12
        ratios = w / np.asarray(raw)
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


class TestDiscreteMeasure:
    def test_rejects_zero_weight_atom(self):
        with pytest.raises(ValueError, match="zero-weight"):
            ok.from_points([[0.0], [1.0]], [1.0, 0.0])

    def test_immutable(self):
        mea = ok.from_points([[0.0], [1.0]], [1.0, 1.0])
        with pytest.raises(ValueError):
            mea.weights[0] = 0.5

    def test_weight_sum_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ok.DiscreteMeasure(np.zeros((2, 1)), np.array([0.6, 0.6]))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: ok.from_points([[0.0], [1.0]], [1.0, -0.5]), "negative mass",
                 id="points-negative"),
    pytest.param(lambda: ok.from_points([[0.0], [1.0]], [0.0, 0.0]), "degenerate measure",
                 id="points-all-zero"),
    pytest.param(lambda: ok.from_points([], []), "degenerate measure", id="points-empty"),
    pytest.param(lambda: ok.from_points([[0.0], [1.0]], [1.0, 0.0]), "zero-weight atom",
                 id="points-zero-atom"),
    pytest.param(lambda: ok.from_points([0.0, 1.0, 2.0], [1.0, 1.0]),
                 "weights length must match", id="points-length-mismatch"),
    pytest.param(lambda: ok.from_points([0.0, 1.0], [1.0, np.nan]), "non-finite mass",
                 id="points-nan"),
    pytest.param(lambda: ok.from_points([0.0, 1.0], [1.0, np.inf]), "non-finite mass",
                 id="points-inf"),
    pytest.param(lambda: ok.from_image_grid([[1.0, -1.0]]), "negative mass", id="grid-negative"),
    pytest.param(lambda: ok.from_image_grid(np.zeros((2, 2)), background_noise=0.0),
                 "degenerate measure", id="grid-all-zero"),
    pytest.param(lambda: ok.from_image_grid([[1.0]], background_noise=-0.1),
                 "background_noise must be >= 0", id="grid-negative-noise"),
    pytest.param(lambda: ok.from_image_grid([1.0, 2.0]), "nonempty 2D", id="grid-1d"),
    pytest.param(lambda: ok.from_image_grid([[1.0, np.nan]]), "non-finite mass", id="grid-nan"),
])
def test_builders_reject_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestFromImageGrid:
    def test_noise_substitution_then_normalize(self):
        mea = ok.from_image_grid([[0.0, 1.0]], background_noise=0.01)
        np.testing.assert_array_equal(mea.points, [[0.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(mea.weights, [0.01 / 1.01, 1.0 / 1.01], rtol=1e-15)

    def test_all_ones_grid_uniform(self):
        mea = ok.from_image_grid(np.ones((2, 2)), background_noise=0.01)
        np.testing.assert_array_equal(mea.weights, [0.25] * 4)

    def test_random_grid_is_probability_measure(self, rng):
        grid = rng.uniform(0.0, 255.0, size=(28, 28))
        mea = ok.from_image_grid(grid)
        assert mea.size == 784 and mea.dimension == 2
        assert abs(mea.weights.sum() - 1.0) <= 1e-12
        assert (mea.weights > 0).all()

    def test_zero_grid_zero_noise_degenerate(self):
        with pytest.raises(ValueError, match="degenerate measure"):
            ok.from_image_grid(np.zeros((3, 3)), background_noise=0.0)

    def test_zero_noise_positive_grid_matches_normalize(self, rng):
        grid = rng.uniform(0.1, 1.0, size=(5, 4))
        mea = ok.from_image_grid(grid, background_noise=0.0)
        np.testing.assert_array_equal(mea.weights, ok.normalize(grid.ravel()))


class TestRandomMeasure:
    def test_sphere_projection_unit_norms(self):
        gen = np.random.default_rng(3)
        mea = ok.random_measure(gen, 500, 3, "gaussian", gaussian_mean=3.0,
                                project_to_sphere=True)
        norms = np.linalg.norm(mea.points, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_seed_determinism(self):
        a = ok.random_measure(np.random.default_rng(9), 40, 2, "uniform")
        b = ok.random_measure(np.random.default_rng(9), 40, 2, "uniform")
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_weights_normalized(self):
        mea = ok.random_measure(np.random.default_rng(0), 100, 4, "gaussian")
        assert abs(mea.weights.sum() - 1.0) <= 1e-12

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            ok.random_measure(np.random.default_rng(0), 0, 2)

    def test_spawned_streams_differ(self):
        gen_a, gen_b = ok.spawn_generators(7, 2)
        a = ok.random_measure(gen_a, 10, 2, "uniform")
        b = ok.random_measure(gen_b, 10, 2, "uniform")
        assert not np.array_equal(a.points, b.points)


class TestMeasureIO:
    def test_round_trip(self, tmp_path, rng):
        mea = ok.random_measure(rng, 17, 3, "gaussian")
        path = tmp_path / "m.txt"
        ok.save_measure(mea, path)
        back = ok.load_measure(path)
        np.testing.assert_array_equal(back.points, mea.points)
        np.testing.assert_array_equal(back.weights, mea.weights)

    def test_header_layout(self, tmp_path):
        mea = ok.from_points([[1.0, 2.0]], [1.0])
        path = tmp_path / "m.txt"
        ok.save_measure(mea, path)
        first = path.read_text().splitlines()[0]
        assert first == "2 1"

    def test_malformed_files_rejected(self, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("2\n")
        with pytest.raises(ValueError, match="too short"):
            ok.load_measure(short)
        bad_count = tmp_path / "bad.txt"
        bad_count.write_text("2 2\n1.0 0.0 0.0\n")
        with pytest.raises(ValueError, match="expected"):
            ok.load_measure(bad_count)

    @pytest.mark.parametrize("header", ["-1 5", "2 -3", "0 2", "2 0"])
    def test_non_positive_header_rejected(self, tmp_path, header):
        path = tmp_path / "m.txt"
        path.write_text(header + "\n1.0 0.0 0.0\n")
        with pytest.raises(ValueError, match="positive sizes"):
            ok.load_measure(path)


class TestPGM:
    def test_p2_parsing(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n# comment\n3 2\n255\n0 10 20\n30 40 50\n")
        grid = ok.read_pgm(path)
        np.testing.assert_array_equal(grid, [[0, 10, 20], [30, 40, 50]])

    def test_p5_parsing(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        grid = ok.read_pgm(path)
        np.testing.assert_array_equal(grid, [[1, 2], [3, 4]])

    def test_p5_sixteen_bit(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n1 2\n65535\n" + (256).to_bytes(2, "big") + (5).to_bytes(2, "big"))
        grid = ok.read_pgm(path)
        np.testing.assert_array_equal(grid, [[256], [5]])

    def test_measure_from_pgm(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n2 1\n10\n7 3\n")
        mea = ok.measure_from_pgm(path)
        np.testing.assert_allclose(mea.weights, [0.7, 0.3], rtol=1e-15)
        np.testing.assert_array_equal(mea.points, [[0.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("header", [b"P2 -1 -2 255 1 2", b"P2 0 3 255", b"P5 2 -1 255\n"])
    def test_non_positive_header_rejected(self, tmp_path, header):
        path = tmp_path / "img.pgm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match="PGM header needs positive sizes"):
            ok.read_pgm(path)

    def test_rejects_other_formats(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_text("P3\n1 1\n255\n1 2 3\n")
        with pytest.raises(ValueError, match="P2/P5"):
            ok.read_pgm(path)
