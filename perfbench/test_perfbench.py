"""Self-test of the benchmark: tiny runs of every workload, failure accounting,
and that BENCHMARK.json names exactly the metrics run.py prints.

    python3 -m pytest -q perfbench

The tiny instances use ``eta=5, T=50``: at these sizes the presets' own
``eta`` (20 or 50) does not reach D <= 1e-3 within ``max_iters`` (see
README.md), which ``test_unreached_target_counts_as_failed`` relies on.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import harness  # noqa: E402
import run  # noqa: E402

TINY = {
    "sed-paper": dict(image_size=8),
    "sphere-paper": dict(m=40, n=40),
    "p-sweep-exact": dict(m=12, n=12),
}
SMOKE = dict(eta=5.0, T=50.0)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    result = run.measure(harness, workload, 3, 0.0, trace, **TINY[workload], **SMOKE)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [n for n, _ in (run.PER_LAYER if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_relabelling_keeps_iteration_counts():
    counts = []
    for seed in (1, 2):
        result = run.measure(harness, "p-sweep-exact", seed, 0.0, 0,
                             **TINY["p-sweep-exact"], **SMOKE)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith("_iters")})
    assert counts[0] == counts[1]


def test_corrupted_result_counts_as_failed(monkeypatch):
    plain = harness.solvers.sinkhorn_solve

    def corrupted(*args, **kwargs):
        result = plain(*args, **kwargs)
        if kwargs["trace_every"] > 1:  # only the timed tta solve
            result.trace.marginal_dev[-1] *= 1.5
        return result

    monkeypatch.setattr(harness.solvers, "sinkhorn_solve", corrupted)
    result = run.measure(harness, "p-sweep-exact", 1, 0.0, 0, **TINY["p-sweep-exact"], **SMOKE)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]


def test_unreached_target_counts_as_failed():
    result = run.measure(harness, "p-sweep-exact", 1, 0.0, 0, **TINY["p-sweep-exact"],
                         max_iters=2000)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["fista_tta_iters"]["value"] is None


def test_benchmark_json_matches_output():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    units = dict(run.END_TO_END + run.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sed-paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
