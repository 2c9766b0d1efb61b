"""Smoke test of ``scripts/convergence_curves.py``: its CSV against the traces
of the solves it runs and an exact solve of the same instance."""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

import otkit as ok
from otkit import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "convergence_curves.py"
HEADER = ["iter", "lp_cost", "fista_neg_E", "fista_neg_E_lambda", "fista_plan_cost",
          "sinkhorn_plan_cost"]


def load_script():
    spec = importlib.util.spec_from_file_location("convergence_curves", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("family,m,image_size", [("sphere", 20, 16), ("sed", 300, 6)])
def test_rows_follow_traces(family, m, image_size, tmp_path, monkeypatch):
    script = load_script()
    traces = {}
    for name in ("fista_solve", "sinkhorn_solve"):
        def spy(*args, _solve=getattr(ok, name), _name=name, **kwargs):
            result = _solve(*args, **kwargs)
            traces[_name] = result.trace
            return result
        monkeypatch.setattr(ok, name, spy)
    out = tmp_path / "curves.csv"
    argv = ["convergence_curves.py", "--family", family, "--m", str(m),
            "--image-size", str(image_size), "--max-iters", "300", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    script.main()

    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == HEADER
    fista, sink = traces["fista_solve"], traces["sinkhorn_solve"]
    assert [int(row[0]) for row in rows] == sorted(set(fista.iters) | set(sink.iters))
    assert [int(row[0]) for row in rows if row[4]] == fista.iters
    assert [int(row[0]) for row in rows if row[5]] == sink.iters

    config = cli.config_from_sources(script.PRESETS[family], overrides=dict(
        seed=1, m=m, n=m, image_size=image_size))
    src, tgt = cli.build_instance(config)
    _, lp_cost = ok.exact_solve(src, tgt, cli.build_cost(config, src, tgt))
    assert {float(row[1]) for row in rows} == {lp_cost}
