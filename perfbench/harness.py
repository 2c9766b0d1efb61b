"""Workloads, inputs, timed operations and output checks of the benchmark.

Import this module only after the BLAS thread variables are set: numpy reads
them once, when it is first imported.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "otkit" / "__init__.py").is_file():
    raise ImportError("otkit sources not found under %s" % SRC)
sys.path.insert(0, str(SRC))

from otkit import cli, costs, measures, metrics, smoothed_dual, solvers  # noqa: E402

# Every workload solves the instance its preset builds at this seed: the
# instance the paper figures and the seed-1 baseline in README.md describe.
INSTANCE_SEED = 1
# Marginal deviation D = ||P1 - mu||_1 + ||P^T 1 - nu||_1 that counts as accurate.
TTA_DEV = 1e-3
# A relative-change stop that fires only when the monitored value stops
# changing at all, so a solve runs to its iteration cap.
NO_STOP = 1e-300
# Each timed operation repeats until it has run this long in a round, and at
# least this many rounds run, so every time is a median of two or more samples.
MIN_OP_S = 0.5
MIN_ROUNDS = 2
# The timed tta solve repeats the untimed pass, so D must match to rounding.
DEV_MATCH_RTOL = 1e-9
MARGINAL_TOL = 1e-9
DUALITY_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    preset: str
    overrides: dict = field(default_factory=dict)
    oracle: bool = False


WORKLOADS = {
    # Paper headline, 784x784 squared-Euclidean image pair: FISTA's long
    # run to D <= 1e-3 over a cost matrix larger than L2.
    "sed-paper": Workload("sed-paper"),
    # 500x500 great-circle cost with tiny lam: Sinkhorn's LSE passes carry
    # the run, and both solvers stop early at the paper's rule.
    "sphere-paper": Workload("sphere-paper"),
    # 200x200 power cost p=3 at tol 1e-9 with the exact oracle: the only
    # LP reference; the simplex dominates the CLI run.
    "p-sweep-exact": Workload("p-sweep", dict(m=200, n=200, p=3.0), oracle=True),
}


def workload_config(name: str, out: Path, **overrides) -> cli.ExperimentConfig:
    wl = WORKLOADS[name]
    config = cli.config_from_sources(wl.preset, overrides={**wl.overrides, **overrides})
    return replace(config, seed=INSTANCE_SEED, out=str(out))


def relabelled(build_instance, seed: int):
    """Wrap an instance builder so it returns the same measures with their
    atoms in an order drawn from ``seed``.

    Relabelling atoms leaves the transport problem and every solver's path
    unchanged up to rounding, but gives each seed its own input arrays and
    memory order.
    """
    def build(config):
        source, target = build_instance(config)
        rng = np.random.default_rng(seed)
        return tuple(measures.DiscreteMeasure(m.points[order], m.weights[order])
                     for m, order in ((source, rng.permutation(source.size)),
                                      (target, rng.permutation(target.size))))
    return build


@dataclass(frozen=True)
class Problem:
    source: measures.DiscreteMeasure
    target: measures.DiscreteMeasure
    original: costs.CostMatrix
    centered: costs.CostMatrix
    offset: float
    lam: float

    @property
    def bound(self) -> float:
        """Smoothing error bound ``2 lam log n``."""
        return 2.0 * self.lam * math.log(self.target.size)


def setup(config) -> Problem:
    """Measures, cost, centering and ``lam``: what ``otbench run`` does before solving."""
    source, target = cli.build_instance(config)
    original = cli.build_cost(config, source, target)
    centered = costs.center(original)
    lam = smoothed_dual.SmoothingParams.from_divisor(centered, config.T).lam
    return Problem(source, target, original, centered,
                   (original.c_max + original.c_min) / 2.0, lam)


def solve(name: str, problem: Problem, config, max_iters: int, stop_rel_tol: float,
          trace_every: int):
    p = problem
    if name == "fista":
        return solvers.fista_solve(p.source, p.target, p.centered, p.lam, solvers.FistaConfig(
            eta=config.eta, max_iters=max_iters, stop_rel_tol=stop_rel_tol,
            trace_every=trace_every, kernel_mode=config.kernel_mode, cost_offset=p.offset))
    return solvers.sinkhorn_solve(
        p.source, p.target, p.centered, p.lam, max_iters=max_iters, stop_rel_tol=stop_rel_tol,
        kernel_mode=config.kernel_mode, trace_every=trace_every, cost_offset=p.offset)


def estimate(name: str, problem: Problem, result) -> float:
    """Transport-cost estimate in original cost units: ``-E`` at FISTA's
    potential, ``<P, C>`` of Sinkhorn's plan."""
    p = problem
    if name == "fista":
        return -smoothed_dual.energy(result.potential, p.source, p.target, p.original)
    return metrics.plan_cost(result.plan, p.original)


class _Reached(Exception):
    def __init__(self, iteration: int, dev: float):
        super().__init__(iteration, dev)
        self.iteration = iteration
        self.dev = dev


class _StopAtTarget(solvers.SolveTrace):
    def append(self, it, e, e_lam, pc, dev, ms):
        super().append(it, e, e_lam, pc, dev, ms)
        if dev <= TTA_DEV:
            raise _Reached(int(it), float(dev))


def tta_pass(name: str, problem: Problem, config):
    """Untimed solve with ``trace_every=1`` and no relative-change stop.

    Returns ``(iteration, D)`` for the first trace row with ``D <= TTA_DEV``,
    or ``(None, last D)`` if the config's ``max_iters`` runs out first.
    The solver offers no stop on ``D``, so the pass ends by raising out of
    the trace it records into.
    """
    plain = solvers.SolveTrace
    solvers.SolveTrace = _StopAtTarget
    try:
        result = solve(name, problem, config, config.max_iters, NO_STOP, 1)
    except _Reached as hit:
        return hit.iteration, hit.dev
    finally:
        solvers.SolveTrace = plain
    return None, result.trace.marginal_dev[-1]


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of problems; an operation whose list is
# not empty has failed.
# ---------------------------------------------------------------------------


class Ledger:
    """Operations attempted (solves and oracle calls) and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((op, list(problems)))

    @property
    def failed(self) -> int:
        return len(self.failures)


def status_problems(status: str) -> list[str]:
    return ["numerical_failure"] if status == solvers.NUMERICAL_FAILURE else []


def tta_problems(iteration, dev: float, max_iters: int) -> list[str]:
    if iteration is None:
        return ["D=%.3g > %g after max_iters=%d" % (dev, TTA_DEV, max_iters)]
    return []


def timed_tta_problems(trace, iterations: int, dev: float) -> list[str]:
    problems = status_problems(trace.status)
    if trace.n_iterations != iterations:
        problems.append("ran %d iterations, expected %d" % (trace.n_iterations, iterations))
    final = trace.marginal_dev[-1] if trace.marginal_dev else float("nan")
    if not abs(final - dev) <= DEV_MATCH_RTOL * abs(dev):
        problems.append("final D %.17g differs from the untimed pass's %.17g" % (final, dev))
    return problems


def agreement_problems(fista_estimate: float, sinkhorn_estimate: float, bound: float) -> list[str]:
    if not abs(fista_estimate - sinkhorn_estimate) <= bound:
        return ["-E %.12g and <P,C> %.12g differ by more than 2 lam log n = %.6g"
                % (fista_estimate, sinkhorn_estimate, bound)]
    return []


def oracle_problems(marginal_dev: float) -> list[str]:
    if not marginal_dev <= MARGINAL_TOL:
        return ["exact plan marginals off by %.3g" % marginal_dev]
    return []


def duality_problems(dual_value: float, lp_cost: float) -> list[str]:
    """Weak duality: ``-E(psi)`` never exceeds the OT cost, for any ``psi``."""
    if not dual_value <= lp_cost + DUALITY_RTOL * max(1.0, abs(lp_cost)):
        return ["-E %.12g exceeds the LP cost %.12g" % (dual_value, lp_cost)]
    return []


def lp_problems(name: str, value: float, lp_cost: float, bound: float) -> list[str]:
    problems = duality_problems(value, lp_cost) if name == "fista" else []
    if not abs(value - lp_cost) <= bound:
        problems.append("estimate %.12g is not within %.6g of the LP cost %.12g"
                        % (value, bound, lp_cost))
    return problems


# ---------------------------------------------------------------------------
# Timed operations
# ---------------------------------------------------------------------------


def repeat(fn, min_seconds: float = MIN_OP_S) -> list[float]:
    """Call ``fn`` (which returns its own duration) until the calls add up to
    ``min_seconds``; at least once."""
    samples = [fn()]
    while sum(samples) < min_seconds:
        samples.append(fn())
    return samples


def run_cli(config, ledger: Ledger, run_dir: Path):
    """``cli.run_experiment`` into a fresh directory; returns ``(seconds, summary)``.

    Records one operation per solver in the run and checks the paper-stop
    answers against the LP cost when the oracle is on.
    """
    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.perf_counter()
    summary, exit_code = cli.run_experiment(replace(config, out=str(run_dir)))
    seconds = time.perf_counter() - start
    entries = summary["solvers"]
    lp = entries.get("exact", {}).get("report", {}).get("ot_cost_estimate")
    for name, entry in entries.items():
        problems = status_problems(entry["status"])
        report = entry["report"]
        if name == "exact":
            problems += oracle_problems(report["marginal_dev"])
        elif lp is not None:
            problems += lp_problems(name, report["ot_cost_estimate"], lp, report["bound"])
        if exit_code != 0 and not problems:
            problems.append("run_experiment exited with %d" % exit_code)
        ledger.record("run." + name, problems)
    return seconds, summary


def timed_tta_solve(name: str, problem: Problem, config, iterations: int, dev: float):
    """Solve of exactly ``iterations`` iterations with only the final trace row.

    Returns ``(seconds, result, problems)``; the caller records the operation
    after adding the cross-solver check.
    """
    start = time.perf_counter()
    result = solve(name, problem, config, iterations, NO_STOP, iterations)
    seconds = time.perf_counter() - start
    return seconds, result, timed_tta_problems(result.trace, iterations, dev)


def tta_pair(problem: Problem, config, tta: dict, ledger: Ledger, oracle_cost=None):
    """One timed tta solve per solver, checked against each other (or the LP).

    Returns ``{solver: (seconds, result)}``.
    """
    out, problems = {}, {}
    for name in ("fista", "sinkhorn"):
        iterations, dev = tta[name]
        seconds, result, problems[name] = timed_tta_solve(name, problem, config, iterations, dev)
        out[name] = (seconds, result)
    values = {name: estimate(name, problem, result) for name, (_, result) in out.items()}
    if oracle_cost is None:
        shared = agreement_problems(values["fista"], values["sinkhorn"], problem.bound)
        for name in out:
            problems[name] += shared
    else:
        problems["fista"] += duality_problems(values["fista"], oracle_cost)
    for name in out:
        ledger.record("tta." + name, problems[name])
    return out


def median(values):
    return statistics.median(values) if values else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# Environment block
# ---------------------------------------------------------------------------


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes["L%s" % level] = size
    return sizes


def environment(thread_vars) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "platform": platform.platform(),
    }
