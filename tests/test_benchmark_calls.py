"""The calls the benchmark in ``perfbench/`` makes of the package, run on each
workload's tiny instance, so that a change that breaks one of them fails in
the default test run and not only in the benchmark's own, slower self-test
(``python3 -m pytest -q perfbench``)."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
# Import the harness without writing its bytecode under perfbench/.
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import harness
finally:
    sys.dont_write_bytecode = _write_bytecode

# The instances and solver settings of perfbench/test_perfbench.py.
TINY = {
    "sed-paper": dict(image_size=8),
    "sphere-paper": dict(m=40, n=40),
    "p-sweep-exact": dict(m=12, n=12),
}
SMOKE = dict(eta=5.0, T=50.0)
# Solves ``harness.run_cli`` records: the preset's solvers, the oracle included.
CLI_OPERATIONS = {"sed-paper": 2, "sphere-paper": 2, "p-sweep-exact": 3}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_benchmark_calls(workload, tmp_path):
    config = harness.workload_config(workload, tmp_path, **TINY[workload], **SMOKE)
    problem = harness.setup(config)
    for name in ("fista", "sinkhorn"):
        # The untimed pass swaps solvers.SolveTrace at solve time.
        iteration, dev = harness.tta_pass(name, problem, config)
        assert iteration is not None and dev <= harness.TTA_DEV, name
        result = harness.solve(name, problem, config, config.max_iters,
                               config.stop_rel_tol, 1)
        assert math.isfinite(harness.estimate(name, problem, result)), name
        # Traced every 7th row, the solve gives the same rows at the
        # iterations both trace, every column but wall_ms (Sinkhorn's E
        # columns are NaN on both), and stops at the same iteration.
        sparse = harness.solve(name, problem, config, config.max_iters,
                               config.stop_rel_tol, 7)
        shared = [result.trace.iters.index(t) for t in sparse.trace.iters]
        np.testing.assert_array_equal(np.array(list(sparse.trace.rows()))[:, :5],
                                      np.array(list(result.trace.rows()))[shared, :5])
        assert ((sparse.trace.status, sparse.trace.n_iterations)
                == (result.trace.status, result.trace.n_iterations)), name
    # The ``otbench run`` path the benchmark times as ``run_s``.
    ledger = harness.Ledger()
    harness.run_cli(config, ledger, tmp_path / "cli")
    assert ledger.failures == []
    assert ledger.attempted == CLI_OPERATIONS[workload]


# The iteration counts perfbench reports on each workload's full instance at
# its default seed, per solver: ``*_tta_iters`` and ``*_stop_iters``. A
# change to a solver's rounding that moves one fails here, and not only in
# the benchmark, which bounds each count's change by 10%.
ITERS = {
    "sed-paper": {"fista": (1664, 75), "sinkhorn": (161, 101)},
    "sphere-paper": {"fista": (1090, 93), "sinkhorn": (844, 2)},
    "p-sweep-exact": {"fista": (298, 316), "sinkhorn": (22, 53)},
}


@pytest.mark.parametrize("workload", sorted(ITERS))
def test_benchmark_iteration_counts(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(harness.cli, "build_instance",
                        harness.relabelled(harness.cli.build_instance, 1))
    # FISTA takes one step (one projection) per iteration before the row it
    # appends, so the untimed pass, which ends at its tta row, takes tta.
    steps = []
    project = harness.solvers.project_H
    monkeypatch.setattr(harness.solvers, "project_H", lambda z: steps.append(1) or project(z))
    config = harness.workload_config(workload, tmp_path)
    problem = harness.setup(config)
    ledger = harness.Ledger()
    _, summary = harness.run_cli(config, ledger, tmp_path / "cli")
    assert ledger.failures == []
    for name, (tta, stop) in ITERS[workload].items():
        steps.clear()
        assert harness.tta_pass(name, problem, config)[0] == tta, name
        assert len(steps) == (tta if name == "fista" else 0), name
        assert summary["solvers"][name]["iterations"] == stop, name
