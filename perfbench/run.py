#!/usr/bin/env python3
"""Time-to-accuracy benchmark for otkit.

Usage (from the repository root):

    python3 perfbench/run.py --workload sed-paper [--seed 1] [--seconds 20] [--trace 0|1]

One process, one closed loop, one solve at a time. ``--trace 0`` times the
end-to-end operations with tracing off; ``--trace 1`` is the separate traced
run that gives per-layer numbers. Either way the outputs are checked, a
human-readable report goes to stdout, details and spans go to
``.perfbench_out/``, and the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 2
HERE = Path(__file__).resolve().parent

# (name, unit). Lower is better for every metric.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("fista_tta_iters", "count"),
    ("sinkhorn_tta_iters", "count"),
    ("fista_tta_s", "s"),
    ("sinkhorn_tta_s", "s"),
    ("fista_stop_iters", "count"),
    ("sinkhorn_stop_iters", "count"),
    ("fista_stop_dev", "L1"),
    ("sinkhorn_stop_dev", "L1"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("measures.build_s", "s"),
    ("costs.build_s", "s"),
    ("costs.center_s", "s"),
    ("costs.matrix_mb", "MB"),
    ("smoothed_dual.gradient_ms", "ms"),
    ("smoothed_dual.smoothed_energy_ms", "ms"),
    ("smoothed_dual.energy_ms", "ms"),
    ("smoothed_dual.recover_plan_ms", "ms"),
    ("smoothed_dual.project_H_us", "us"),
    ("smoothed_dual.gradient_ms_1thread", "ms"),
    ("smoothed_dual.gradient_mb", "MB"),
    ("smoothed_dual.gradient_gbps", "GB/s"),
    ("solvers.fista_iter_ms", "ms"),
    ("solvers.fista_self_share", "ratio"),
    ("solvers.fista_traced_iter_ms", "ms"),
    ("solvers.sinkhorn_iter_ms", "ms"),
    ("solvers.project_H_calls", "count"),
    ("exact.solve_s", "s"),
    ("exact.cells", "count"),
    ("metrics.evaluate_ms", "ms"),
    ("cli.io_ms", "ms"),
    ("cli.bytes_written", "bytes"),
    ("cli.trace_rows", "count"),
    ("cli.run_experiment_self_s", "s"),
    ("trace.overhead_s", "s"),
)
# Full-matrix array reads and writes in one log-domain smoothed_gradient call:
# psi - C (2), row max (1), shift (2), /lam (2), exp (2), row sum (1),
# softmax divide (2), mu @ softmax (1). Counted, not measured: caches ignored.
GRADIENT_PASSES = 13


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="draws the atom order of the workload's instance")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="least time spent in timed rounds (at least MIN_ROUNDS run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    try:
        import harness
    except ImportError as exc:
        print("perfbench: cannot load the program: %s" % exc, file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(harness.WORKLOADS)), file=sys.stderr)
        return 2

    result = measure(harness, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


def measure(harness, workload: str, seed: int, seconds: float, trace: int, **overrides) -> dict:
    """Run one workload at one seed and return the result object.

    ``overrides`` change the workload's config; the self-test uses them to
    shrink the instances.
    """
    harness.OUT.mkdir(exist_ok=True)
    bench = Bench(harness, workload, seed, **overrides)
    plain_build = harness.cli.build_instance
    harness.cli.build_instance = harness.relabelled(plain_build, seed)
    try:
        if trace:
            metrics, extra = bench.traced(seconds)
        else:
            metrics, extra = bench.untraced(seconds)
    finally:
        harness.cli.build_instance = plain_build
    names = [name for name, _ in (PER_LAYER if trace else END_TO_END)]
    return bench.report(metrics, extra, names, trace)


class Bench:
    """One workload at one seed: set-up, the untimed tta pass, then timed work."""

    def __init__(self, harness, workload: str, seed: int, **overrides):
        self.h = harness
        self.workload = workload
        self.seed = seed
        self.tag = "%s-seed%d" % (workload, seed)
        self.run_dir = harness.OUT / ("cli-" + self.tag)
        self.overrides = overrides
        self.config = harness.workload_config(workload, self.run_dir, **overrides)
        self.oracle = harness.WORKLOADS[workload].oracle
        self.ledger = harness.Ledger()
        self.problem = None
        self.tta = {}

    def prepare(self) -> bool:
        """Set up once and find each solver's tta iteration; False if one is missing."""
        self.problem = self.h.setup(self.config)
        for name in ("fista", "sinkhorn"):
            iteration, dev = self.h.tta_pass(name, self.problem, self.config)
            self.ledger.record("tta_pass." + name,
                               self.h.tta_problems(iteration, dev, self.config.max_iters))
            self.tta[name] = (iteration, dev)
        return all(it is not None for it, _ in self.tta.values())

    def time_setup(self) -> float:
        start = time.perf_counter()
        self.problem = self.h.setup(self.config)
        return time.perf_counter() - start

    def time_run(self) -> float:
        seconds, self.summary = self.h.run_cli(self.config, self.ledger, self.run_dir)
        return seconds

    def untraced(self, seconds: float):
        samples = defaultdict(list)
        ready = self.prepare()
        start = time.perf_counter()
        for rounds in itertools.count(1):
            samples["setup_s"] += self.h.repeat(self.time_setup)
            samples["run_s"] += self.h.repeat(self.time_run)
            if ready:
                lp = self.summary["solvers"].get("exact", {}).get("report", {}).get("ot_cost_estimate")
                for name, value in self.time_tta(lp).items():
                    samples[name + "_tta_s"] += value
            if rounds >= self.h.MIN_ROUNDS and time.perf_counter() - start >= seconds:
                break
        metrics = {name: self.h.median(values) for name, values in samples.items()}
        metrics.update(self.paper_stop(self.summary))
        for name in ("fista", "sinkhorn"):
            metrics[name + "_tta_iters"] = self.tta[name][0]
        metrics["peak_rss_mb"] = self.h.peak_rss_mb()
        extra = {"samples": dict(samples),
                 "summary": summary_digest(self.summary)}
        return metrics, extra

    def time_tta(self, lp_cost=None, tracer=None) -> dict:
        """Timed tta solves, repeated as pairs until the round's share is spent."""
        times = defaultdict(list)

        def pair():
            with tracer.run("tta-%d" % len(times["fista"])) if tracer else nullcontext():
                out = self.h.tta_pair(self.problem, self.config, self.tta, self.ledger, lp_cost)
            for name, (secs, result) in out.items():
                times[name].append(secs)
            self.last_tta = out
            return sum(secs for secs, _ in out.values())

        self.h.repeat(pair)
        return times

    def paper_stop(self, summary) -> dict:
        out = {}
        for name in ("fista", "sinkhorn"):
            entry = summary["solvers"][name]
            out[name + "_stop_iters"] = entry["iterations"]
            out[name + "_stop_dev"] = entry["report"]["marginal_dev"]
        return out

    def traced(self, seconds: float):
        from tracing import Tracer

        h = self.h
        tracer = Tracer()
        owners = {"cli": h.cli, "costs": h.costs, "solvers": h.solvers, "metrics": h.metrics,
                  "smoothed_dual": h.smoothed_dual, "SolveTrace": h.solvers.SolveTrace}
        ready = self.prepare()
        plain, traced_runs = [], []
        summary = None
        tracer.install(owners)
        try:
            counter = itertools.count()
            h.repeat(lambda: _in_run(tracer, "setup-%d" % next(counter), self.time_setup))
            if ready:
                self.time_tta(tracer=tracer)
            start = time.perf_counter()
            while len(plain) < 2 or time.perf_counter() - start < seconds:
                tracer.restore()
                plain.append(h.run_cli(self.config, self.ledger, self.run_dir)[0])
                tracer.install(owners)
                with tracer.run("run-%d" % len(traced_runs)), tracer.span("cli.run_experiment"):
                    secs, summary = h.run_cli(self.config, self.ledger, self.run_dir)
                traced_runs.append(secs)
        finally:
            tracer.restore()
        tracer.write(h.OUT / ("spans-%s.json" % self.tag))

        metrics = self.layer_metrics(tracer, summary)
        metrics["trace.overhead_s"] = h.median(traced_runs) - h.median(plain)
        if ready:
            metrics.update(self.kernel_metrics())
        extra = {"runs": {"untraced_s": plain, "traced_s": traced_runs},
                 "spans": len(tracer.spans), "summary": summary_digest(summary)}
        return metrics, extra

    def layer_metrics(self, tracer, summary) -> dict:
        h = self.h
        med = h.median

        def durations(name, prefix):
            return [tracer.spans[i].duration for i in tracer.find(name)
                    if tracer.spans[i].run_id.startswith(prefix)]

        def per_run(name, prefix="run-"):
            totals = defaultdict(float)
            for i in tracer.find(name):
                if tracer.spans[i].run_id.startswith(prefix):
                    totals[tracer.spans[i].run_id] += tracer.spans[i].duration
            return list(totals.values())

        m, n = self.problem.centered.shape
        out = {
            "measures.build_s": med(durations("cli.build_instance", "setup-")),
            "costs.build_s": med(durations("cli.build_cost", "setup-")),
            "costs.center_s": med(durations("costs.center", "setup-")),
            "costs.matrix_mb": m * n * 8 / 1e6,
            "metrics.evaluate_ms": 1e3 * med(durations("metrics.evaluate", "run-")),
            "cli.io_ms": 1e3 * med(per_run("solvers.SolveTrace.to_csv")),
            "cli.run_experiment_self_s": med([tracer.self_time(i) for i in
                                              tracer.find("cli.run_experiment")]),
            "exact.solve_s": med(per_run("exact.exact_solve")) or 0.0,
            "exact.cells": m * n if self.oracle else 0,
        }
        stop_iters = summary["solvers"]["fista"]["iterations"]
        out["solvers.fista_traced_iter_ms"] = 1e3 * med(
            durations("solvers.fista_solve", "run-")) / stop_iters
        files = [p for p in self.run_dir.iterdir() if p.is_file()]
        out["cli.bytes_written"] = sum(p.stat().st_size for p in files)
        out["cli.trace_rows"] = sum(len(p.read_text().splitlines()) - 1
                                    for p in files if p.suffix == ".csv")

        fista = [i for i in tracer.find("solvers.fista_solve")
                 if tracer.spans[i].run_id.startswith("tta-")]
        sinkhorn = durations("solvers.sinkhorn_solve", "tta-")
        if fista:
            iters = self.tta["fista"][0]
            out["solvers.fista_iter_ms"] = 1e3 * med(
                [tracer.spans[i].duration for i in fista]) / iters
            out["solvers.fista_self_share"] = med(
                [tracer.self_time(i) / tracer.spans[i].duration for i in fista])
            out["solvers.project_H_calls"] = len(
                tracer.descendants(fista[0], "smoothed_dual.project_H"))
            out["solvers.sinkhorn_iter_ms"] = 1e3 * med(sinkhorn) / self.tta["sinkhorn"][0]
        return out

    def kernel_metrics(self) -> dict:
        """Per-call smoothed_dual timings at FISTA's tta potential, at the
        benchmark's thread count and, in a child process, at one thread."""
        h = self.h
        p = self.problem
        sd = h.smoothed_dual
        psi = self.last_tta["fista"][1].potential.values
        calls = {
            "smoothed_dual.gradient_ms": lambda: sd.smoothed_gradient(
                psi, p.source, p.target, p.centered, p.lam),
            "smoothed_dual.smoothed_energy_ms": lambda: sd.smoothed_energy(
                psi, p.source, p.target, p.centered, p.lam),
            "smoothed_dual.energy_ms": lambda: sd.energy(psi, p.source, p.target, p.centered),
            "smoothed_dual.recover_plan_ms": lambda: sd.recover_plan(
                psi, p.source, p.target, p.centered, p.lam),
        }
        out = {name: 1e3 * per_call(fn) for name, fn in calls.items()}
        out["smoothed_dual.project_H_us"] = 1e6 * per_call(lambda: sd.project_H(psi))
        m, n = p.centered.shape
        out["smoothed_dual.gradient_mb"] = GRADIENT_PASSES * m * n * 8 / 1e6
        out["smoothed_dual.gradient_gbps"] = (out["smoothed_dual.gradient_mb"]
                                              / out["smoothed_dual.gradient_ms"])
        out["smoothed_dual.gradient_ms_1thread"] = self.one_thread_gradient_ms(psi)
        return out

    def one_thread_gradient_ms(self, psi) -> float:
        import numpy as np  # loaded only after main() has set the thread variables

        psi_path = self.h.OUT / ("psi-%s.npy" % self.tag)
        np.save(psi_path, psi)
        env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
        proc = subprocess.run(
            [sys.executable, "-B", str(HERE / "gradient_probe.py"), self.workload,
             str(self.seed), str(psi_path), json.dumps(self.overrides)],
            env=env, capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            raise RuntimeError("one-thread gradient probe failed: %s" % proc.stderr.strip())
        return json.loads(proc.stdout.strip().splitlines()[-1])["gradient_ms"]

    def report(self, metrics: dict, extra: dict, names, trace: int) -> dict:
        ledger = self.ledger
        units = dict(END_TO_END + PER_LAYER)
        env = self.h.environment(BLAS_THREAD_VARS)
        print("workload %s, seed %d, trace %d" % (self.workload, self.seed, trace))
        print("env " + json.dumps(env, sort_keys=True))
        for name in ("fista", "sinkhorn"):
            entry = extra["summary"][name]
            print("paper stop: %s %s after %s iterations, D=%.4g"
                  % (name, entry["status"], entry["iterations"], entry["marginal_dev"]))
            print("tta: %s first reaches D <= %g at iteration %s"
                  % (name, self.h.TTA_DEV, self.tta[name][0]))
        if "exact" in extra["summary"]:
            for name in ("fista", "sinkhorn"):
                print("lp_err: %s %.6g" % (name, extra["summary"][name]["lp_err"]))
        for op, problems in ledger.failures:
            print("FAILED %s: %s" % (op, "; ".join(problems)))
        print("failed_frac = %d/%d = %.4g"
              % (ledger.failed, ledger.attempted, ledger.failed / ledger.attempted))
        for name in names:
            print("  %-36s %s %s" % (name, metrics.get(name), units[name]))
        result = {
            "correct": ledger.failed == 0 and all(metrics.get(n) is not None for n in names),
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {n: {"value": metrics.get(n), "unit": units[n]} for n in names},
        }
        with open(self.h.OUT / ("result-%s-trace%d.json" % (self.tag, trace)), "w") as fh:
            json.dump({"env": env, "extra": extra, "failures": ledger.failures,
                       "tta": self.tta, **result}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return result


def summary_digest(summary) -> dict:
    out = {}
    for name, entry in summary["solvers"].items():
        report = entry["report"]
        out[name] = {"status": entry["status"], "iterations": entry["iterations"],
                     "marginal_dev": report["marginal_dev"],
                     "estimate": report["ot_cost_estimate"],
                     "lp_err": report.get("abs_error_vs_oracle")}
    return out


def per_call(fn, min_seconds: float = 0.3, min_calls: int = 5) -> float:
    """Median seconds per call of ``fn``."""
    samples = []
    while len(samples) < min_calls or sum(samples) < min_seconds:
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _in_run(tracer, run_id, fn):
    with tracer.run(run_id):
        return fn()


if __name__ == "__main__":
    sys.exit(main())
