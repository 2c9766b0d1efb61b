"""Discrete optimal transport toolkit: a smoothed-dual solver driven by
accelerated proximal gradient steps, a Sinkhorn baseline, and an exact
transportation-simplex oracle, plus the ``otbench`` benchmark CLI."""

from .costs import CostMatrix, center, power_cost, spherical, squared_euclidean
from .exact import BasisState, brute_force_solve, exact_solve, transportation_simplex
from .measures import (
    DiscreteMeasure,
    from_image_grid,
    from_points,
    load_measure,
    measure_from_pgm,
    normalize,
    random_measure,
    read_pgm,
    save_measure,
    spawn_generators,
)
from .metrics import EvalReport, Theorem8Gap, evaluate, marginal_deviation, plan_cost, theorem8_gap
from .smoothed_dual import (
    Potential,
    SmoothingParams,
    TransportPlan,
    c_transform,
    energy,
    hessian_apply,
    project_H,
    recover_plan,
    smoothed_c_transform,
    smoothed_energy,
    smoothed_gradient,
)
from .solvers import (
    CONVERGED,
    MAX_ITERS,
    NUMERICAL_FAILURE,
    FistaConfig,
    FistaResult,
    SinkhornResult,
    SolveTrace,
    corollary9_iteration_bound,
    fista_solve,
    psi_infinity_bound,
    sinkhorn_solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
