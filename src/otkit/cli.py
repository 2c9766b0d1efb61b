"""Benchmark harness: instance generation, solver execution, CSV/JSON reports.

``otbench run`` builds one instance, runs the selected solvers sequentially on
the range-centered cost matrix with ``lam = spread / T``, writes
one trace CSV per solver plus a summary JSON, and exits 0 on success, 2 if any
solver reports a numerical failure, 3 on configuration errors.
``otbench generate`` writes the instance files and stops.

Costs are centered for the solve; reported cost estimates refer to the
original (uncentered) matrix so numbers are comparable across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import costs, measures, metrics, smoothed_dual, solvers
from .exact import DEFAULT_CELL_CAP, exact_solve

COST_KINDS = ("sqeuclidean", "power", "spherical")
INSTANCE_KINDS = ("image_pair", "synthetic_image", "random_points")
SOLVER_NAMES = ("fista", "sinkhorn", "exact")
_BLOBS = 3


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    cost_kind: str = "sqeuclidean"
    p: float = 2.0
    instance: str = "random_points"
    image_source: str | None = None
    image_target: str | None = None
    image_size: int = 28
    background_noise: float = 0.01
    seed: int = 0
    m: int = 100
    n: int = 100
    d: int = 2
    source_dist: str = "uniform"
    source_mean: float = 3.0
    source_low: float = 0.0
    source_high: float = 1.0
    target_dist: str = "uniform"
    target_mean: float = 3.0
    target_low: float = 0.0
    target_high: float = 1.0
    sphere: bool = False
    T: float = 500.0
    eta: float = 1.0
    solvers: tuple[str, ...] = ("fista", "sinkhorn")
    max_iters: int = 20000
    stop_rel_tol: float = 1e-3
    trace_every: int = 1
    kernel_mode: bool = False
    oracle_cell_cap: int = DEFAULT_CELL_CAP
    out: str = "results"

    def validate(self) -> None:
        if self.cost_kind not in COST_KINDS:
            raise ConfigError("unknown cost kind %r" % self.cost_kind)
        if self.instance not in INSTANCE_KINDS:
            raise ConfigError("unknown instance kind %r" % self.instance)
        for name in ("m", "n", "d", "image_size"):
            if getattr(self, name) < 1:
                raise ConfigError("%s must be >= 1" % name)
        for name in ("p", "T", "eta"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError("%s must be > 0 and finite" % name)
        if not self.solvers:
            raise ConfigError("at least one solver must be selected")
        for name in self.solvers:
            if name not in SOLVER_NAMES:
                raise ConfigError("unknown solver %r" % name)
        if self.instance == "image_pair" and not (self.image_source and self.image_target):
            raise ConfigError("image_pair requires --image-source and --image-target")
        if self.max_iters < 1 or self.trace_every < 1:
            raise ConfigError("max_iters and trace_every must be >= 1")
        if not self.stop_rel_tol > 0.0:
            raise ConfigError("stop_rel_tol must be > 0")


PRESETS: dict[str, dict] = {
    # MNIST-style synthetic image pair under squared Euclidean cost.
    "sed-paper": dict(
        cost_kind="sqeuclidean", instance="synthetic_image", image_size=28,
        T=700.0, eta=50.0, solvers=("fista", "sinkhorn"), stop_rel_tol=1e-3,
    ),
    # Unit-sphere point clouds under the great-circle cost.
    "sphere-paper": dict(
        cost_kind="spherical", instance="random_points", m=500, n=500, d=3,
        source_dist="gaussian", source_mean=3.0,
        target_dist="uniform", target_low=0.0, target_high=1.0, sphere=True,
        T=700.0, eta=50.0, solvers=("fista", "sinkhorn"), stop_rel_tol=1e-3,
    ),
    # Gaussian-vs-box clouds in 5D under power costs, with the exact oracle.
    "p-sweep": dict(
        cost_kind="power", p=2.0, instance="random_points", m=100, n=100, d=5,
        source_dist="gaussian", source_mean=3.0,
        target_dist="uniform", target_low=-5.0, target_high=-4.0,
        T=500.0, eta=20.0, solvers=("fista", "sinkhorn", "exact"), stop_rel_tol=1e-9,
    ),
}


def synthetic_blob_image(rng: np.random.Generator, size: int = 28) -> np.ndarray:
    """Seeded stand-in for a handwritten-digit image: ``_BLOBS`` Gaussian blobs
    on a ``size x size`` grid, dim pixels zeroed out to form a background."""
    rows, cols = np.indices((size, size), dtype=float)
    img = np.zeros((size, size))
    for _ in range(_BLOBS):
        cy, cx = rng.uniform(0.2 * size, 0.8 * size, size=2)
        sy, sx = rng.uniform(0.05 * size, 0.18 * size, size=2)
        amp = rng.uniform(0.5, 1.0)
        img += amp * np.exp(-((rows - cy) ** 2 / (2 * sy * sy) + (cols - cx) ** 2 / (2 * sx * sx)))
    img /= img.max()
    img[img < 0.2] = 0.0
    return img


def build_instance(config: ExperimentConfig):
    """Source and target measures for one experiment, seeded deterministically."""
    if config.instance == "image_pair":
        source = measures.measure_from_pgm(config.image_source, config.background_noise)
        target = measures.measure_from_pgm(config.image_target, config.background_noise)
        return source, target
    gen_source, gen_target = measures.spawn_generators(config.seed, 2)
    if config.instance == "synthetic_image":
        img_s = synthetic_blob_image(gen_source, config.image_size)
        img_t = synthetic_blob_image(gen_target, config.image_size)
        source = measures.from_image_grid(img_s, config.background_noise)
        target = measures.from_image_grid(img_t, config.background_noise)
        return source, target
    source = measures.random_measure(
        gen_source, config.m, config.d, config.source_dist,
        gaussian_mean=config.source_mean, box_low=config.source_low,
        box_high=config.source_high, project_to_sphere=config.sphere)
    target = measures.random_measure(
        gen_target, config.n, config.d, config.target_dist,
        gaussian_mean=config.target_mean, box_low=config.target_low,
        box_high=config.target_high, project_to_sphere=config.sphere)
    return source, target


def build_cost(config: ExperimentConfig, source, target) -> costs.CostMatrix:
    if config.cost_kind == "sqeuclidean":
        return costs.squared_euclidean(source, target)
    if config.cost_kind == "power":
        return costs.power_cost(source, target, config.p)
    return costs.spherical(source, target)


def generate_instance(config: ExperimentConfig, out_dir: str | Path | None = None):
    """Write deterministic instance files: source/target measures and the cost
    matrix (text formats). Returns the three paths."""
    config.validate()
    out = Path(out_dir if out_dir is not None else config.out)
    out.mkdir(parents=True, exist_ok=True)
    source, target = build_instance(config)
    cost = build_cost(config, source, target)
    source_path = out / "source.txt"
    target_path = out / "target.txt"
    cost_path = out / "cost.txt"
    measures.save_measure(source, source_path)
    measures.save_measure(target, target_path)
    costs.save_cost_text(cost, cost_path)
    return source_path, target_path, cost_path


def run_experiment(config: ExperimentConfig):
    """Run the configured solvers on one instance.

    Returns ``(summary, exit_code)`` after writing ``trace_<solver>.csv`` per
    solver and ``summary.json`` under ``config.out``.
    """
    config.validate()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    source, target = build_instance(config)
    original = build_cost(config, source, target)
    solve_cost = costs.center(original)
    cost_offset = (original.c_max + original.c_min) / 2.0
    lam = smoothed_dual.SmoothingParams.from_divisor(solve_cost, config.T).lam

    bound = 2.0 * lam * float(np.log(target.size))
    summary = {
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(config).items()},
        "m": source.size,
        "n": target.size,
        "lambda": lam,
        "cost_spread": solve_cost.spread,
        "bound_2lambda_logn": bound,
        "solvers": {},
    }
    exit_code = 0
    oracle_cost = None
    fista_estimate = None

    # The exact oracle runs first so iterative reports can carry its cost.
    ordered = sorted(config.solvers, key=lambda s: 0 if s == "exact" else 1)
    for name in ordered:
        if name == "exact":
            start = time.perf_counter()
            plan, _ = exact_solve(source, target, solve_cost, cell_cap=config.oracle_cell_cap)
            wall_ms = 1e3 * (time.perf_counter() - start)
            oracle_cost = metrics.plan_cost(plan, original)
            report = metrics.evaluate(oracle_cost, plan, original, source, target, lam,
                                      oracle_cost=oracle_cost)
            summary["solvers"][name] = {"status": solvers.CONVERGED, "iterations": None,
                                        "wall_ms": wall_ms, "report": report.to_dict()}
            continue
        start = time.perf_counter()
        if name == "fista":
            result = solvers.fista_solve(source, target, solve_cost, lam, solvers.FistaConfig(
                eta=config.eta, max_iters=config.max_iters,
                stop_rel_tol=config.stop_rel_tol, trace_every=config.trace_every,
                kernel_mode=config.kernel_mode, cost_offset=cost_offset))
            wall_ms = 1e3 * (time.perf_counter() - start)
            estimate = fista_estimate = -smoothed_dual.energy(
                result.potential, source, target, original)
        else:
            result = solvers.sinkhorn_solve(
                source, target, solve_cost, lam, max_iters=config.max_iters,
                stop_rel_tol=config.stop_rel_tol, kernel_mode=config.kernel_mode,
                trace_every=config.trace_every, cost_offset=cost_offset)
            wall_ms = 1e3 * (time.perf_counter() - start)
            estimate = metrics.plan_cost(result.plan, original)
        trace = result.trace
        report = metrics.evaluate(estimate, result.plan, original, source, target,
                                  lam, oracle_cost=oracle_cost)
        trace.to_csv(out / ("trace_%s.csv" % name))
        if trace.status == solvers.NUMERICAL_FAILURE:
            exit_code = 2
        summary["solvers"][name] = {"status": trace.status,
                                    "iterations": trace.n_iterations,
                                    "wall_ms": wall_ms,
                                    "failed_iteration": trace.failed_iteration,
                                    "report": report.to_dict()}

    if oracle_cost is not None and fista_estimate is not None:
        gap = metrics.theorem8_gap(-fista_estimate, oracle_cost, lam, target.size,
                                   solver_slack=0.1 * bound)
        summary["within"] = gap.within
        summary["gap"] = gap.gap

    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary, exit_code


def _parse_config_file(path) -> dict:
    """Flat key=value text; '#' starts a comment, blank lines are ignored."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("line %d: expected key=value" % lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError("unknown config key %r" % key)
    kind = _FIELD_TYPES[key]
    if key == "solvers":
        return tuple(s.strip() for s in raw.split(",") if s.strip())
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError("bad boolean for %s: %r" % (key, raw))
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def config_from_sources(preset: str | None = None, config_file=None,
                        overrides: dict | None = None) -> ExperimentConfig:
    """Defaults < preset < config file < explicit overrides."""
    config = ExperimentConfig()
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError("unknown preset %r (have: %s)" % (preset, ", ".join(sorted(PRESETS))))
        config = replace(config, **PRESETS[preset])
    if config_file is not None:
        file_values = {k: _coerce(k, v) for k, v in _parse_config_file(config_file).items()}
        config = replace(config, **file_values)
    if overrides:
        config = replace(config, **overrides)
    return config


def _add_shared_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--preset", help="named preset: %s" % ", ".join(sorted(PRESETS)))
    parser.add_argument("--cost", dest="cost_kind", choices=COST_KINDS)
    parser.add_argument("--p", type=float)
    parser.add_argument("--T", type=float)
    parser.add_argument("--eta", type=float)
    parser.add_argument("--solvers", help="comma-separated subset of %s" % (SOLVER_NAMES,))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--max-iters", dest="max_iters", type=int)
    parser.add_argument("--tol", dest="stop_rel_tol", type=float)
    parser.add_argument("--trace-every", dest="trace_every", type=int)
    parser.add_argument("--out")
    parser.add_argument("--kernel-mode", dest="kernel_mode", action="store_true", default=None)
    parser.add_argument("--instance", choices=INSTANCE_KINDS)
    parser.add_argument("--m", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--d", type=int)
    parser.add_argument("--image-source", dest="image_source")
    parser.add_argument("--image-target", dest="image_target")
    parser.add_argument("--image-size", dest="image_size", type=int)
    parser.add_argument("--noise", dest="background_noise", type=float)


def _overrides_from_args(args: argparse.Namespace) -> dict:
    skip = {"command", "config", "preset"}
    overrides = {}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        if key == "solvers":
            value = tuple(s.strip() for s in value.split(",") if s.strip())
        overrides[key] = value
    return overrides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="otbench",
                                     description="Discrete optimal transport benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run solvers on one instance")
    _add_shared_args(run_parser)
    gen_parser = sub.add_parser("generate", help="write instance files and exit")
    _add_shared_args(gen_parser)

    args = parser.parse_args(argv)
    try:
        config = config_from_sources(args.preset, args.config, _overrides_from_args(args))
        if args.command == "generate":
            paths = generate_instance(config)
            for path in paths:
                print(path)
            return 0
        summary, exit_code = run_experiment(config)
    except (ConfigError, OSError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 3

    for name, entry in summary["solvers"].items():
        report = entry["report"]
        print("%s: ot_cost_estimate=%.12g status=%s iterations=%s"
              % (name, report["ot_cost_estimate"], entry["status"], entry["iterations"]))
    if "within" in summary:
        print("theorem-gap within bound: %s (gap=%.6g, bound=%.6g)"
              % (summary["within"], summary["gap"], summary["bound_2lambda_logn"]))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
