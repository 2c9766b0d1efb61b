#!/usr/bin/env python3
"""Produce convergence-curve data for one instance: per-iteration E, E_lambda,
and <P, C> for FISTA next to Sinkhorn's <P, C>, with the exact LP cost as the
reference line. Output is a single merged CSV ready for plotting.

Usage:
    python3 scripts/convergence_curves.py --family sed --seed 1 --out curves.csv
    python3 scripts/convergence_curves.py --family sphere --m 200 --T 500 --eta 50
"""

import argparse
import csv

import otkit as ok
from otkit import cli

PRESETS = {"sed": "sed-paper", "sphere": "sphere-paper"}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--family", choices=("sed", "sphere"), default="sed")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--m", type=int, default=300, help="points per side (sphere family)")
    parser.add_argument("--image-size", type=int, default=16, help="grid side (sed family)")
    parser.add_argument("--T", type=float, default=500.0)
    parser.add_argument("--eta", type=float, default=50.0)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--max-iters", type=int, default=20000)
    parser.add_argument("--out", default="curves.csv")
    args = parser.parse_args()

    config = cli.config_from_sources(PRESETS[args.family], overrides=dict(
        seed=args.seed, m=args.m, n=args.m, image_size=args.image_size))
    src, tgt = cli.build_instance(config)
    original = cli.build_cost(config, src, tgt)
    solve_cost = ok.center(original)
    offset = (original.c_max + original.c_min) / 2.0
    lam = solve_cost.spread / args.T

    _, lp_cost = ok.exact_solve(src, tgt, original)
    fista = ok.fista_solve(src, tgt, solve_cost, lam,
                           ok.FistaConfig(eta=args.eta, max_iters=args.max_iters,
                                          stop_rel_tol=args.tol, cost_offset=offset))
    sink = ok.sinkhorn_solve(src, tgt, solve_cost, lam, max_iters=args.max_iters,
                             stop_rel_tol=args.tol, cost_offset=offset)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "lp_cost", "fista_neg_E", "fista_neg_E_lambda",
                         "fista_plan_cost", "sinkhorn_plan_cost"])
        f_rows = {it: (e, e_lam, pc) for it, e, e_lam, pc, _, _ in fista.trace.rows()}
        s_rows = {it: pc for it, _, _, pc, _, _ in sink.trace.rows()}
        for it in sorted(set(f_rows) | set(s_rows)):
            fe = f_rows.get(it)
            writer.writerow([
                it, repr(lp_cost),
                repr(-fe[0]) if fe else "",
                repr(-fe[1]) if fe else "",
                repr(fe[2]) if fe else "",
                repr(s_rows[it]) if it in s_rows else "",
            ])
    print("%s: lambda=%.5g lp=%.6f fista[%s,%d iters]=%.6f sinkhorn[%s,%d iters]=%.6f -> %s"
          % (args.family, lam, lp_cost,
             fista.trace.status, fista.trace.n_iterations, -fista.trace.energy[-1],
             sink.trace.status, sink.trace.n_iterations, sink.trace.plan_cost[-1],
             args.out))


if __name__ == "__main__":
    main()
