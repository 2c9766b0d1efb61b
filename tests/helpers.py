"""Shared instance builders and measuring helpers for the test suite."""

import tracemalloc

import numpy as np

import otkit as ok


def random_point_instance(seed, m, n, d=2, source_dist="uniform", target_dist="uniform",
                          **kwargs):
    """Random measures with U(0,1)-normalized weights and the given point laws."""
    gen_s, gen_t = ok.spawn_generators(seed, 2)
    src = ok.random_measure(gen_s, m, d, source_dist, **kwargs)
    tgt = ok.random_measure(gen_t, n, d, target_dist, **kwargs)
    return src, tgt


def criterion1_instance(seed):
    """m = n = 50, squared Euclidean cost, points uniform in [0,1]^2."""
    src, tgt = random_point_instance(seed, 50, 50, d=2)
    return src, tgt, ok.squared_euclidean(src, tgt)


def sweep_instance(seed, p, m=100, n=100):
    """5D Gaussian cloud vs uniform box cloud under the power cost."""
    gen_s, gen_t = ok.spawn_generators(seed, 2)
    src = ok.random_measure(gen_s, m, 5, "gaussian", gaussian_mean=3.0)
    tgt = ok.random_measure(gen_t, n, 5, "uniform", box_low=-5.0, box_high=-4.0)
    return src, tgt, ok.power_cost(src, tgt, p)


def small_random_instance(rng, m, n, d=2, cost_scale=1.0):
    """Tiny dense instance with strictly positive random masses."""
    src = ok.from_points(rng.uniform(0.0, 1.0, size=(m, d)),
                         rng.uniform(0.1, 1.0, size=m))
    tgt = ok.from_points(rng.uniform(0.0, 1.0, size=(n, d)),
                         rng.uniform(0.1, 1.0, size=n))
    C = ok.CostMatrix.from_entries(rng.uniform(0.0, cost_scale, size=(m, n)))
    return src, tgt, C


def reference_optimum(src, tgt, C, lam, eta=5.0):
    """Long tight FISTA run used as ground truth for the smoothed optimizer."""
    config = ok.FistaConfig(eta=eta, max_iters=500000, stop_rel_tol=1e-14,
                            trace_every=10**9)
    result = ok.fista_solve(src, tgt, C, lam, config)
    return result.potential


def grid_points(rng, lengths, spacing=1.0, origin=0.0):
    """Full Cartesian grid with ``lengths[k]`` coordinates along axis k,
    spaced by ``spacing`` times a random factor in [0.5, 1.5), atoms in a
    random order."""
    axes = [origin + spacing * np.cumsum(rng.uniform(0.5, 1.5, size=n)) for n in lengths]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lengths))
    return points[rng.permutation(len(points))]


def grid_measure(rng, lengths, spacing=1.0, origin=0.0):
    """A :func:`grid_points` grid with random strictly positive masses."""
    points = grid_points(rng, lengths, spacing, origin)
    return ok.from_points(points, rng.uniform(0.1, 1.0, size=len(points)))


def traced_memory(fn):
    """``fn()``'s result, with the bytes it leaves allocated and the bytes it
    allocates at its peak, both above what was allocated before the call."""
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, held - baseline, peak - baseline
    finally:
        tracemalloc.stop()
