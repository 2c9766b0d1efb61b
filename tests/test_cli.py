import json
import math
from dataclasses import replace

import numpy as np
import pytest

import otkit as ok
from otkit.cli import (
    ConfigError,
    ExperimentConfig,
    config_from_sources,
    generate_instance,
    main,
    run_experiment,
    synthetic_blob_image,
)
from helpers import traced_memory


def write_pgm_pair(tmp_path):
    src = tmp_path / "src.pgm"
    tgt = tmp_path / "tgt.pgm"
    src.write_text("P2\n2 1\n10\n7 3\n")
    tgt.write_text("P2\n2 1\n10\n4 6\n")
    return src, tgt


def strip_wall_clock(csv_path):
    lines = csv_path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestConfig:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    def test_unknown_solver(self):
        with pytest.raises(ConfigError, match="unknown solver"):
            ExperimentConfig(solvers=("fista", "lbfgs")).validate()

    def test_empty_solvers(self):
        with pytest.raises(ConfigError, match="at least one solver"):
            ExperimentConfig(solvers=()).validate()

    def test_bad_T(self):
        with pytest.raises(ConfigError, match="T must be > 0"):
            ExperimentConfig(T=0.0).validate()

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["eta", "T", "p"])
    def test_positive_finite_required(self, name, value):
        # An infinite eta, T or p passed and failed only after the instance,
        # the cost and the exact oracle were built.
        with pytest.raises(ConfigError, match="^%s must be > 0 and finite$" % name):
            ExperimentConfig(**{name: value}).validate()

    @pytest.mark.parametrize("name, value", [("m", 0), ("n", -1), ("d", 0), ("image_size", 0)])
    def test_sizes_below_one_rejected(self, name, value):
        # Each names its own field: measures.random_measure would call n "m",
        # and a zero-size image fails inside numpy.
        with pytest.raises(ConfigError, match="^%s must be >= 1$" % name):
            ExperimentConfig(**{name: value}).validate()

    def test_precedence_preset_file_flags(self, tmp_path):
        config_file = tmp_path / "exp.cfg"
        config_file.write_text("# comment line\nT = 123.0\nm = 44\nsolvers = fista\n")
        config = config_from_sources("p-sweep", config_file, {"m": 55})
        assert config.T == 123.0        # file overrides preset's 500
        assert config.m == 55           # flag overrides file
        assert config.solvers == ("fista",)
        assert config.cost_kind == "power"  # from preset

    def test_unknown_key_rejected(self, tmp_path):
        config_file = tmp_path / "exp.cfg"
        config_file.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_sources(None, config_file, None)

    def test_missing_equals_rejected(self, tmp_path):
        config_file = tmp_path / "exp.cfg"
        config_file.write_text("T 500\n")
        with pytest.raises(ConfigError, match="expected key=value"):
            config_from_sources(None, config_file, None)

    def test_bad_boolean_rejected(self, tmp_path):
        config_file = tmp_path / "exp.cfg"
        config_file.write_text("sphere = maybe\n")
        with pytest.raises(ConfigError, match="bad boolean"):
            config_from_sources(None, config_file, None)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            config_from_sources("nope", None, None)

    def test_oracle_cap_enforced(self, tmp_path):
        config = ExperimentConfig(instance="random_points", m=1001, n=1000, seed=1,
                                  solvers=("exact",), out=str(tmp_path))
        with pytest.raises(ValueError, match="too large for exact oracle"):
            run_experiment(config)


class TestSyntheticImage:
    def test_deterministic_and_background(self):
        a = synthetic_blob_image(np.random.default_rng(3), 28)
        b = synthetic_blob_image(np.random.default_rng(3), 28)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (28, 28)
        assert (a == 0.0).any()      # background pixels exercise the noise path
        assert a.max() == 1.0


class TestGenerate:
    def test_files_deterministic(self, tmp_path):
        config = ExperimentConfig(instance="random_points", m=8, n=7, d=3, seed=42,
                                  out=str(tmp_path / "a"))
        paths_a = generate_instance(config)
        paths_b = generate_instance(ExperimentConfig(instance="random_points", m=8, n=7,
                                                     d=3, seed=42, out=str(tmp_path / "b")))
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes()
        src = ok.load_measure(paths_a[0])
        assert src.size == 8 and src.dimension == 3
        cost = ok.costs.load_cost_text(paths_a[2])
        assert cost.shape == (8, 7)

    def test_sphere_instances_unit_norm(self, tmp_path):
        config = ExperimentConfig(instance="random_points", m=20, n=20, d=3, seed=1,
                                  source_dist="gaussian", sphere=True,
                                  cost_kind="spherical", out=str(tmp_path))
        paths = generate_instance(config)
        for path in paths[:2]:
            mea = ok.load_measure(path)
            np.testing.assert_allclose(np.linalg.norm(mea.points, axis=1), 1.0, atol=1e-12)


class TestRunExperiment:
    def test_exact_fixture_cost(self, tmp_path, capsys):
        src, tgt = write_pgm_pair(tmp_path)
        code = main(["run", "--instance", "image_pair",
                     "--image-source", str(src), "--image-target", str(tgt),
                     "--cost", "sqeuclidean", "--solvers", "exact",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "ot_cost_estimate=0.3" in out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["solvers"]["exact"]["report"]["ot_cost_estimate"] == pytest.approx(0.3)
        wall_ms = summary["solvers"]["exact"]["wall_ms"]
        assert isinstance(wall_ms, float) and wall_ms > 0.0

    def test_wall_ms_covers_the_whole_solve(self, tmp_path):
        config = ExperimentConfig(instance="random_points", m=12, n=12, seed=3,
                                  solvers=("fista", "sinkhorn"), max_iters=200,
                                  out=str(tmp_path))
        summary, _ = run_experiment(config)
        for name in ("fista", "sinkhorn"):
            lines = (tmp_path / ("trace_%s.csv" % name)).read_text().splitlines()
            last_row_ms = float(lines[-1].split(",")[-1])
            assert summary["solvers"][name]["wall_ms"] > last_row_ms

    def test_summary_contains_bound_and_within(self, tmp_path):
        config = ExperimentConfig(instance="random_points", m=12, n=12, seed=3,
                                  solvers=("fista", "sinkhorn", "exact"), T=200.0,
                                  eta=5.0, stop_rel_tol=1e-9, max_iters=50000,
                                  trace_every=1000, out=str(tmp_path))
        summary, code = run_experiment(config)
        assert code == 0
        assert summary["bound_2lambda_logn"] > 0
        assert summary["within"] is True
        for name in ("fista", "sinkhorn"):
            report = summary["solvers"][name]["report"]
            assert report["oracle_cost"] == pytest.approx(
                summary["solvers"]["exact"]["report"]["ot_cost_estimate"])
            assert (tmp_path / f"trace_{name}.csv").exists()

    def test_csv_determinism_modulo_wall_clock(self, tmp_path):
        base = dict(instance="synthetic_image", image_size=12, seed=9,
                    solvers=("fista", "sinkhorn"), T=100.0, eta=5.0,
                    stop_rel_tol=1e-6, max_iters=3000)
        run_experiment(ExperimentConfig(out=str(tmp_path / "a"), **base))
        run_experiment(ExperimentConfig(out=str(tmp_path / "b"), **base))
        for name in ("trace_fista.csv", "trace_sinkhorn.csv"):
            assert strip_wall_clock(tmp_path / "a" / name) == \
                strip_wall_clock(tmp_path / "b" / name)

    def test_sed_paper_holds_no_cost_or_plan_array(self, tmp_path):
        # The 784 x 784 preset iterates on grid factors and returns factored
        # plans, so the whole run, reports included, peaks below one m x n
        # array (measured: 0.2 of one).
        config = replace(config_from_sources("sed-paper"), seed=1, out=str(tmp_path))
        (summary, code), _, peak = traced_memory(lambda: run_experiment(config))
        assert code == 0
        assert peak < summary["m"] * summary["n"] * 8

    def test_numerical_failure_exit_code(self, tmp_path):
        code = main(["run", "--preset", "p-sweep", "--seed", "2", "--p", "4.0",
                     "--T", "1500", "--solvers", "sinkhorn", "--kernel-mode",
                     "--max-iters", "50", "--out", str(tmp_path)])
        assert code == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["solvers"]["sinkhorn"]["status"] == "numerical_failure"

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["run", "--solvers", "nonexistent", "--out", str(tmp_path)]) == 3
        assert "config error" in capsys.readouterr().err

    def test_missing_image_exit_code(self, tmp_path):
        assert main(["run", "--instance", "image_pair",
                     "--image-source", str(tmp_path / "none.pgm"),
                     "--image-target", str(tmp_path / "none2.pgm"),
                     "--out", str(tmp_path)]) == 3

    def test_generate_cli(self, tmp_path, capsys):
        code = main(["generate", "--instance", "random_points", "--m", "5", "--n", "4",
                     "--seed", "11", "--out", str(tmp_path)])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 3
        assert (tmp_path / "source.txt").exists()
