"""Iterative solvers for the smoothed dual problem: FISTA with the zero-mean
projection as its proximal step, and a Sinkhorn matrix-scaling baseline.

Both solvers stop by one rule, so iteration counts are comparable: FISTA
monitors the dual energy E(psi), Sinkhorn its transport-cost estimate <P, C>.
Each records a per-iteration trace and reports a terminal status instead of
ever returning non-finite values. The rule, the validation of its settings,
the trace cadence and wall clock and the terminal status live in one private
object, ``_StopRule``, that both loops drive; each loop keeps only its math.

FISTA's loop forms no m x n plan: the trace's <P, C> and marginal deviation
come from reductions of the row pass plus O(m + n) vectors, and the returned
plan is built once, after the last iteration. Every row reaches the trace
at its own iteration. Each solve takes its row passes from
``smoothed_dual._row_passes``, built once and called at every new
potential: FISTA calls the one over ``C`` at ``mu``, Sinkhorn that one and
the one over ``C.T`` at ``nu``, one per half. Every pass holds ``shift``,
``sums``, ``log_sums`` and ``scale = w / sums`` at its row marginal ``w``,
so each loop body reads every kind alike. For a cost with grid factors
(squared Euclidean between full grids) in the log domain they are grid
passes and no m x n array is touched: the cost's entries are not read, and
the returned plan is factored, its sums and <P, C> from the chains and its
entries formed only when read. Otherwise, and always in kernel mode, they
are dense passes. FISTA takes E from the pass's exact c-transform.

On a dense cost in the log domain both solvers run those passes only now
and then, and read the iterations between them from the weights of the last
one by matrix-vector products (stabilized scaling with absorption). Sinkhorn
holds the absorbed plan kernel ``K_ij = exp((f_i + g_j - c_ij)/lam)`` of its
last log-domain iteration and ``K o C`` in one stacked ``(2n, m)`` buffer,
allocated once per solve and lent to its log-domain passes to write into; it
iterates by scaling the kernel, two products a round, the second one
threaded product over the whole buffer that gives both the column sums and
<P, C>. A scaling that leaves ``[e^-200, e^200]`` (narrower for costs
above about 1e221 in magnitude) is folded back into the potentials
(``_AbsorbedKernel``). FISTA holds the weights ``W0`` of its last dense
row pass and rescales them by ``exp((psi - psi0)/lam)`` while that stays in
the same range, capped by ``n |c|max`` rather than ``|c|max`` because each
row of its weights sums to at most ``n``. It takes the exact row max over
each row's candidate columns, those within ``7 lam`` of the row max where
the list was built, where the rescaled row sum certifies it, and from the
row of ``C`` elsewhere (``_AbsorbedRows``). The list is built from the full
row max of the kernel's first iteration, and again from that of any
iteration where over 1/8 of the rows fail. FISTA too allocates one
``(2m, n)`` buffer per solve: its dense passes write ``W0`` into the top
half, and a kernel forms ``W0 o C`` in the bottom half for its first due
row. A row's <P, C> is ``a^T (W0 o C) e`` with per-row vectors ``a`` and
``e``; from that first due row on, the kernel reads it and the row sums
from one product of the whole buffer with ``e`` every iteration. Each
kernel answers the reductions of the pass it stands for, so one loop body
serves every iteration of its solver. Both solvers hold two m x n arrays,
their buffers; Sinkhorn returns the top half of its own as the plan, and
FISTA frees its own before it forms the plan.

Below a relative tolerance of about 1e-13 the stop rule fires only when two
successive monitored values agree to their last bits, so a "converged"
iteration count there depends on summation order: the grid and dense passes,
a grid axis's matrix-product and log-domain stages, and Sinkhorn's absorbed
and log-domain iterations can each stop at different iterations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .costs import _BLOCK_BYTES, CostMatrix
from .measures import DiscreteMeasure
from .smoothed_dual import (Potential, TransportPlan, _check_lam, _exp_rows, _marginal_dev,
                            _PlanTerms, _row_max, _row_passes, project_H, recover_plan)

CONVERGED = "converged"
MAX_ITERS = "max_iters"
NUMERICAL_FAILURE = "numerical_failure"

TRACE_COLUMNS = ("iter", "E", "E_lambda", "plan_cost", "marginal_dev", "wall_ms")


@dataclass(frozen=True)
class FistaConfig:
    """Step multiplier and termination settings for :func:`fista_solve`.

    The effective step is ``eta * lam``; ``eta = 1`` matches the safe
    ``1/L`` step for the ``1/lam``-smooth energy, larger values trade
    stability for speed.

    ``cost_offset`` is the constant that was subtracted from the cost matrix
    before solving (range centering). It is added back when reporting, so the
    trace and the stop rule see energies in original cost units; the iterates
    themselves are unaffected by any constant cost shift. ``max_iters``,
    ``stop_rel_tol`` and ``trace_every`` are as in :class:`_StopRule`.
    """

    eta: float = 1.0
    max_iters: int = 10000
    stop_rel_tol: float = 1e-3
    trace_every: int = 1
    kernel_mode: bool = False
    cost_offset: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be > 0 and finite")
        _StopRule.check(self.max_iters, self.stop_rel_tol, self.trace_every)


@dataclass
class SolveTrace:
    """Per-iteration convergence record plus the terminal status."""

    iters: list[int] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)
    smoothed_energy: list[float] = field(default_factory=list)
    plan_cost: list[float] = field(default_factory=list)
    marginal_dev: list[float] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    status: str = MAX_ITERS
    failed_iteration: int | None = None
    n_iterations: int = 0

    def append(self, it, e, e_lam, pc, dev, ms):
        if self.iters and it <= self.iters[-1]:
            raise ValueError("iteration indices must be strictly increasing")
        self.iters.append(int(it))
        self.energy.append(float(e))
        self.smoothed_energy.append(float(e_lam))
        self.plan_cost.append(float(pc))
        self.marginal_dev.append(float(dev))
        self.wall_ms.append(float(ms))

    def rows(self):
        return zip(self.iters, self.energy, self.smoothed_energy,
                   self.plan_cost, self.marginal_dev, self.wall_ms)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for it, e, e_lam, pc, dev, ms in self.rows():
                fh.write("%d,%s,%s,%s,%s,%s\n"
                         % (it, repr(e), repr(e_lam), repr(pc), repr(dev), repr(ms)))


class FistaResult(NamedTuple):
    potential: Potential
    plan: TransportPlan
    trace: SolveTrace


class SinkhornResult(NamedTuple):
    plan: TransportPlan
    trace: SolveTrace
    potentials: tuple[np.ndarray, np.ndarray]


def _rel_change(current: float, previous: float) -> float:
    denom = abs(previous)
    if denom < 1e-300:
        return abs(current - previous)
    return abs(current - previous) / denom


class _StopRule:
    """The stop rule, trace cadence and terminal status of both solvers.

    Each iteration ``t`` a solver hands :meth:`row_due` its monitored value
    and whether the iterate is finite. A non-finite iterate stops the run
    with ``numerical_failure``; otherwise it stops ``converged`` when the
    relative change from the previous iteration's value (the absolute change
    if that underflows) drops below ``stop_rel_tol``, and with ``max_iters``
    once ``t`` reaches ``max_iters``. A row is due on the stopping iteration
    and on every ``trace_every``-th; the solver evaluates the row's <P, C>
    and marginal deviation only then, as NaN on a failed iteration, and
    hands them to :meth:`record`, which stamps the wall clock and appends
    the row.

    The trace is a ``SolveTrace()`` looked up at solve time, so a caller may
    swap in a subclass that watches every row go through ``append``; each
    row reaches it complete, at its own iteration.
    """

    def __init__(self, max_iters: int, stop_rel_tol: float, trace_every: int):
        self.check(max_iters, stop_rel_tol, trace_every)
        self.max_iters = max_iters
        self.stop_rel_tol = stop_rel_tol
        self.trace_every = trace_every
        self.trace = SolveTrace()
        self.stopped = False
        self._previous = None
        self._start = time.perf_counter()

    @staticmethod
    def check(max_iters: int, stop_rel_tol: float, trace_every: int) -> None:
        if max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not stop_rel_tol > 0.0:
            raise ValueError("stop_rel_tol must be > 0")
        if trace_every < 1:
            raise ValueError("trace_every must be >= 1")

    def row_due(self, t: int, value: float, finite: bool) -> bool:
        """Decide whether iteration ``t`` ends the run; True if it gets a row."""
        if not finite:
            status = NUMERICAL_FAILURE
        elif (self._previous is not None
              and _rel_change(value, self._previous) < self.stop_rel_tol):
            status = CONVERGED
        elif t >= self.max_iters:
            status = MAX_ITERS
        else:
            self._previous = value
            return t % self.trace_every == 0
        self.stopped = True
        self.trace.status = status
        self.trace.failed_iteration = t if status == NUMERICAL_FAILURE else None
        self.trace.n_iterations = t
        return True

    def record(self, t: int, e: float, e_lam: float, pc: float, dev: float) -> None:
        """Stamp row ``t`` with the wall clock and append it."""
        self.trace.append(t, e, e_lam, pc, dev, (time.perf_counter() - self._start) * 1000.0)


def fista_solve(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    cost: CostMatrix,
    lam: float,
    config: FistaConfig = FistaConfig(),
) -> FistaResult:
    """Minimize the smoothed dual energy over the zero-mean hyperplane.

    Iterates, from ``psi0 = z0 = 0`` and ``theta0 = 1``:

        z_{t+1}   = project_H(psi_t - eta * lam * grad(psi_t))
        theta_{t+1} = (1 + sqrt(1 + 4 theta_t^2)) / 2
        psi_{t+1} = z_{t+1} + ((theta_t - 1)/theta_{t+1}) (z_{t+1} - z_t)

    and stops by :class:`_StopRule` on E(psi_t). The returned potential is
    the final proximal point z, which carries the accelerated convergence
    guarantee; the trace rows are evaluated at the momentum iterates psi_t.

    Each iteration reads one row pass at psi_t. On a dense cost in the log
    domain the solve allocates one ``(2m, n)`` buffer ``S``, as Sinkhorn's
    kernel does, and lends its top half to the dense pass to write its
    weights into. The weights ``W0`` of the last dense pass, at an earlier
    iterate psi_a, are kept as :class:`_AbsorbedRows`, and while
    ``max|psi_t - psi_a| / lam <= tau`` (``tau = 200``, or less where
    ``n |c|max e^tau``, which bounds ``(W0 o C) e``, would come within a
    factor e of the largest float: ``_kernel_tau(cost, n)``) the pass at
    psi_t is read from them by two matrix-vector products, with the exact
    row max taken over each row's candidate columns (those within ``7 lam``
    of the row max where the list was built) where the weight outside them
    certifies it, and from ``C`` elsewhere, so E stays exact; the kernel's
    first iteration, and one where over 1/8 of the rows fail, reads all of
    ``C`` and builds the list from that pass. Otherwise, and on a NaN, the
    kernel is dropped and the dense pass at psi_t runs into the top half and
    becomes the new kernel, so the dense pass makes the failure decisions.
    Kernel mode runs the dense pass every iteration, into arrays of its own.
    A grid cost calls the solve's grid row pass at every ``psi_t``: one
    scatter of ``psi/lam``, the row chain, the max-plus chain for E, and the
    column chain of ``log mu`` held in grid order for the gradient. The plan
    is :func:`recover_plan`'s at the returned potential, factored on a grid
    cost, formed once ``S`` is freed.

    Every due row is evaluated and appended at its own iteration. A kernel
    forms ``W0 o C`` in the bottom half of ``S`` for its first due row and
    from then on reads ``W0 e`` and the ``(W0 o C) e`` of <P, C> from one
    product ``S @ e`` every iteration (:class:`_AbsorbedRows`); the loop
    hands it nothing but ``psi``.
    """
    row_pass = _row_passes(cost, lam, source, target, config.kernel_mode)[0]
    mu, nu = source.weights, target.weights
    m, n = mu.size, nu.size
    if row_pass.absorbs:
        S = np.empty((2 * m, n))
        row_pass.out = S[:m]
    tau = _kernel_tau(cost, n)
    log_n = math.log(n)
    step = config.eta * lam
    rule = _StopRule(config.max_iters, config.stop_rel_tol, config.trace_every)
    absorbed = None
    psi = np.zeros(n)
    z = np.zeros(n)
    theta = 1.0
    t = 0

    offset = config.cost_offset
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            # One row pass at psi_t gives E_lambda, the gradient and the plan,
            # and E from its exact c-transform. With true cost = C + offset,
            # E_true(psi) = E_C(psi) - offset.
            if absorbed is not None and absorbed.rescale(psi):
                rows = absorbed
            else:
                # Drop the kernel and its candidates: the pass writes over W0.
                rows = absorbed = None
                rows = row_pass(psi)
                if rows.absorbs:
                    absorbed = _AbsorbedRows(rows, S, tau)
            nu_psi = nu @ psi
            e_shift = float(mu @ rows.shift - nu_psi) - offset
            e_val = float(mu @ rows.c_transform() - nu_psi) - offset
            e_lam = e_shift + lam * (float(mu @ rows.log_sums) - log_n)
            grad = rows.col_sums() - nu

            finite = (math.isfinite(e_val) and math.isfinite(e_lam)
                      and np.isfinite(grad).all())
            if rule.row_due(t, e_val, finite):
                if not finite:
                    rule.record(t, e_val, e_lam, math.nan, math.nan)
                else:
                    # Row marginals are exact, so D is the gradient's L1 norm.
                    dev = float(np.abs(grad).sum())
                    rule.record(t, e_val, e_lam, rows.plan_cost(offset), dev)
            if rule.stopped:
                break

            z_new = project_H(psi - step * grad)
            theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            psi = z_new + ((theta - 1.0) / theta_new) * (z_new - z)
            z = z_new
            theta = theta_new
            t += 1

    # Free S: a dense plan formed below is then the one m x n array.
    rows = absorbed = row_pass = S = None
    potential = Potential(project_H(z), normalized=True)
    plan = recover_plan(potential, source, target, cost, lam)
    return FistaResult(potential, plan, rule.trace)


# Both absorbed kernels accept scalings within [exp(-tau), exp(tau)], at most
# this tau (``_kernel_tau``); see :class:`_AbsorbedKernel` and
# :class:`_AbsorbedRows` for why this range is safe there.
_KERNEL_TAU = 200.0
# FISTA's absorbed kernel takes each row max over the row's candidates, the
# columns within this many lam of the row max where the list was built. The
# window sets only the cost, not the result: at 6 a p-sweep-exact kernel's
# list failed the share on nearly every iteration.
_CANDIDATE_WINDOW = 7.0
# The largest share of C's entries a candidate list may hold, and of its rows
# that may fail their check before the list is rebuilt.
_CANDIDATE_SHARE = 1.0 / 8.0
# A new kernel's list is built on first use (:meth:`_AbsorbedRows.row_max`).
_UNBUILT = object()


def _in_scaling_range(x, tau: float) -> bool:
    """Every entry of ``x`` within ``[exp(-tau), exp(tau)]``; False on NaN."""
    return bool(math.exp(-tau) <= x.min() and x.max() <= math.exp(tau))


def _kernel_tau(cost: CostMatrix, mass: float = 1.0) -> float:
    """The scaling range of a kernel over ``cost`` whose entries sum to at
    most ``mass`` (Sinkhorn's plan 1, each of FISTA's rows ``n``):
    ``_KERNEL_TAU``, or less where ``mass |c|max e^tau`` would come within a
    factor e of the largest float, for costs above about 1e221 / mass in
    magnitude."""
    c_abs = max(abs(cost.c_min), abs(cost.c_max), 1.0)
    return min(_KERNEL_TAU, math.log(np.finfo(float).max / (mass * c_abs)) - 1.0)


def _renewed_candidates(psi, C, W0, lam):
    """The row max ``h = _row_max(psi, C)``, bitwise, and from the same
    blocked pass each row's candidates, the columns with ``psi_j - c_ij >=
    h_i - _CANDIDATE_WINDOW lam``, as ``(starts, cols, costs, weights)``:
    row offsets, intp columns (``np.take`` would convert narrower ones on
    every call), and ``c_ij`` and ``W0_ij`` there, in row order. The list is
    None if it is over the candidate share of the entries, and the pass then
    only takes ``h``, or if some row has none (a NaN row). No m x n mask is
    formed: each block's candidates are counted before their indices are
    kept, none once the count passes the share, and the block buffer is
    freed before the list is gathered."""
    m, n = C.shape
    step = max(1, _BLOCK_BYTES // (8 * n))
    cap = m * n * _CANDIDATE_SHARE
    buf = np.empty((min(step, m), n))
    h = np.empty(m)
    kept, total = [], 0
    for i in range(0, m, step):
        block = np.subtract(psi, C[i:i + step], out=buf[:min(step, m - i)])
        top = block.max(axis=1, out=h[i:i + step])
        if total <= cap:
            mask = block >= (top - _CANDIDATE_WINDOW * lam)[:, None]
            total += np.count_nonzero(mask)
            if total <= cap:
                kept.append(np.flatnonzero(mask))
            del mask
    del block, buf
    if total > cap:
        return h, None
    starts = np.empty(m + 1, np.intp)
    cols, costs, weights = np.empty(total, np.intp), np.empty(total), np.empty(total)
    done = 0
    for i, keep in zip(range(0, m, step), kept):
        rows = min(step, m - i)
        starts[i:i + rows] = done + np.searchsorted(keep, np.arange(0, rows * n, n))
        span = slice(done, done + keep.size)
        np.remainder(keep, n, out=cols[span])
        costs[span] = C[i:i + rows].ravel().take(keep)
        weights[span] = W0[i:i + rows].ravel().take(keep)
        done += keep.size
    starts[m] = total
    if not np.all(np.diff(starts) > 0):
        return h, None
    return h, (starts[:m], cols, costs, weights)


class _AbsorbedRows:
    """FISTA's dense log-domain row pass, called at ``psi0``, with weights
    ``W0_ij = exp((psi0_j - c_ij - s_i)/lam)`` and ``s`` its row max, read
    at nearby potentials by matrix-vector products (the absorption of
    :class:`_AbsorbedKernel`, applied to the row half). It answers as that
    pass does at its row marginal ``w``.

    The pass wrote ``W0`` into the top half of the solve's ``(2m, n)``
    buffer ``S``; the kernel writes ``W0 o C`` into the bottom half for its
    first due row, so a kernel that serves none forms nothing. At ``psi``
    let ``e = exp((psi - psi0)/lam)`` and ``h`` be the exact row max of
    ``psi_j - c_ij``. The pass's weights are then ``r_i W0_ij e_j`` with
    ``r = exp((s - h)/lam)``, and ``|s_i - h_i| <= max|psi - psi0|``, so
    ``r`` stays in range with ``e``. :meth:`rescale` reads them as the pass
    does: ``shift = h`` (the c-transform, so E stays exact),
    ``sums = r * (W0 e)``, ``log_sums``, ``scale = w / sums`` and the column
    sums of the plan. The plan's cost is ``<P, C> = a^T (W0 o C) e`` with
    ``a = scale * r``. The kernel picks its product from its own state:
    :meth:`rescale` takes ``raw = W0 @ e`` until the first due row, whose
    :meth:`plan_cost` forms ``W0 o C`` and takes one ``S[m:] @ e``; from
    then on every :meth:`rescale` takes one ``S @ e`` and reads ``raw``
    and ``(W0 o C) e`` from its halves. Where ``trace_every`` is above 1,
    an iteration with no row due then pays for the bottom half too (README,
    "Performance notes"). Each entry of any of these products is one row's
    dot with ``e``; OpenBLAS takes rows four at a time, so they agree
    bitwise where ``m`` is a multiple of 4 and at rounding level elsewhere.

    ``e`` is accepted within ``[e^-tau, e^tau]``, ``tau = 200``
    (``_KERNEL_TAU``), or less on a cost above about 1e221 / n in
    magnitude: ``_kernel_tau(cost, n)``, whose cap counts the row sums of
    ``W0``. Each row of ``W0`` has max 1 and so sums to at most ``n``, so
    ``raw = W0 e`` stays below ``n e^tau`` and the bottom half of ``S @ e``,
    ``(W0 o C) e``, below ``n |c|max e^tau``, which the cap keeps finite.
    The row max's column is weighted at least ``e^-2tau`` in ``W0`` and so
    never underflows; an entry of ``W0`` that did, or kept fewer digits as
    a subnormal, is off by at most about 5e-324, and by about 4e-237 after
    scaling by ``e``, far under the rounding of ``raw >= e^-tau``.

    ``h`` comes from :meth:`row_max`, over each row's candidates: the
    columns within ``7 lam`` (``_CANDIDATE_WINDOW``) of the row max where
    the list was built, with their ``c_ij`` and ``W0_ij``
    (:func:`_renewed_candidates`). The kernel's first iteration builds the
    list from the full row max it takes, and so does any iteration where
    over 1/8 of the rows fail their check, the old list freed first; a list
    over 1/8 of ``C`` is not kept, and the kernel then takes every row max
    from ``C``. A row passes where its top candidate's weight
    ``exp((h_i - s_i)/lam)`` exceeds the weight of all the other columns,
    ``(W0 e)_i - sum_K W0_ij e_j``, by a slack above rounding; a row that
    fails reads its row of ``C``. A rebuilt list keeps ``W0``, so ``raw``
    and the column sums still come from the kernel's pass, which moves them
    at rounding level against a fresh one. Every value is one
    ``psi_j - c_ij``, so ``h`` and with it ``r``, ``sums``, E and the run
    are bitwise those of the full row max (Schmitzer, SIAM J. Sci. Comput.
    2019, Sec. 3.3, truncates the kernel the same way); the window sets
    only the cost.
    """

    def __init__(self, rows, S, tau):
        self.W0, self.C, self.s = rows.weights, rows.C, rows.shift
        self.psi0, self.lam, self.w = rows.psi, rows.lam, rows.w
        self.S, self.tau = S, tau
        # (W0 o C) e at the last rescale; None until plan_cost forms W0 o C.
        self._cost_rows = None
        self._candidates = _UNBUILT
        # W0_ij e_j carries the rounding of psi0_j - c_ij and psi_j - c_ij,
        # about eps |s_i| / lam relative on the entries that can reach the top.
        self._slack = 1e-9 + 4.0 * np.finfo(float).eps * np.abs(self.s) / self.lam

    def rescale(self, psi) -> bool:
        """The pass at ``psi``; False if ``e`` leaves the range (or is NaN).
        Once ``W0 o C`` is formed, ``(W0 o C) e`` comes from the same product
        as ``W0 e``."""
        e = np.exp((psi - self.psi0) / self.lam)
        if not _in_scaling_range(e, self.tau):
            return False
        self.e = e
        if self._cost_rows is None:
            raw = self.W0 @ e
        else:
            m = self.W0.shape[0]
            products = self.S @ e
            raw, self._cost_rows = products[:m], products[m:]
        self.shift = self.row_max(psi, raw)
        self.r = np.exp((self.s - self.shift) / self.lam)
        self.sums = raw * self.r
        self.log_sums = np.log(self.sums)
        self.scale = self.w / self.sums
        return True

    def row_max(self, psi, raw) -> np.ndarray:
        """The exact row max ``h_i = max_j (psi_j - c_ij)`` at ``psi``, given
        ``raw = W0 @ e``: over row i's candidates where their top weight
        ``exp((h_i - s_i)/lam)`` exceeds the weight outside them,
        ``raw_i - sum_K W0_ij e_j``, by the slack, so no column outside can
        be larger; from the row of ``C`` where it does not, and from all of
        ``C`` when the kernel keeps no list, has none yet or over 1/8 of the
        rows fail, a pass that in the last two cases builds the list. Each
        value is one ``psi_j - c_ij``, so ``h`` is bitwise
        :func:`_row_max`'s. The candidate pass is two takes, a subtract, a
        multiply and two reduceats over the list, a few ns per candidate."""
        if self._candidates is None:
            return _row_max(psi, self.C)
        if self._candidates is not _UNBUILT:
            h, rest = self._candidate_max(psi, raw)
            failed = ~(np.exp((h - self.s) / self.lam) - rest > self._slack * raw)
            count = np.count_nonzero(failed)
            if count <= self.C.shape[0] * _CANDIDATE_SHARE:
                if count:
                    h[failed] = _row_max(psi, self.C[failed])
                return h
            # The stale list is freed before the pass gathers the new one.
            self._candidates = None
        h, self._candidates = _renewed_candidates(psi, self.C, self.W0, self.lam)
        return h

    def _candidate_max(self, psi, raw):
        """Each row's max of ``psi_j - c_ij`` over its candidates, and the
        weight ``raw_i - sum_K W0_ij e_j`` outside them, in one buffer that
        is freed before :meth:`row_max` reads ``C``."""
        starts, cols, costs, weights = self._candidates
        # The columns are in range, so take need not check them; checking
        # would also make it buffer ``out``.
        b = np.take(psi, cols, mode="clip")
        h = np.maximum.reduceat(np.subtract(b, costs, out=b), starts)
        np.multiply(np.take(self.e, cols, out=b, mode="clip"), weights, out=b)
        return h, raw - np.add.reduceat(b, starts)

    def c_transform(self) -> np.ndarray:
        """The exact row max taken by :meth:`rescale`."""
        return self.shift

    def col_sums(self) -> np.ndarray:
        return ((self.scale * self.r) @ self.W0) * self.e

    def plan_cost(self, offset: float) -> float:
        """``<P, C> + offset * sum(P)``, with ``<P, C> = a^T (W0 o C) e`` and
        ``a = scale * r``. The first call writes ``W0 o C`` into the bottom
        half of ``S`` and takes its product with ``e``."""
        if self._cost_rows is None:
            WC = np.multiply(self.W0, self.C, out=self.S[self.W0.shape[0]:])
            self._cost_rows = WC @ self.e
        return (float((self.scale * self.r) @ self._cost_rows)
                + offset * float(self.scale @ self.sums))


class _AbsorbedKernel:
    """Sinkhorn's plan ``K_ij = exp((f_i + g_j - c_ij)/lam)`` at its last
    log-domain iteration, iterated as ``diag(u) K diag(v)`` by matrix-vector
    scaling from ``u = v = 1`` (log-stabilized scaling with absorption:
    Schmitzer, SIAM J. Sci. Comput. 2019, Alg. 2).

    It is built once per solve over the dense log-domain row pass ``rows``
    (over ``C`` at ``mu``) and column pass ``cols`` (over ``C.T`` at
    ``nu``), and allocates one ``(2n, m)`` buffer ``S = [K^T; (K o C)^T]``,
    whose halves it lends to the passes as their ``out``: the row pass
    writes into the bottom, the column pass into the top. :meth:`absorb`
    forms the column pass's plan in place as ``K^T`` and ``(K o C)^T`` over
    the row pass's weights. A round is then two products, ``v @ K^T`` and one
    ``S @ u`` that gives ``K^T u`` and ``(K o C)^T u`` together, which
    OpenBLAS threads from about 4.6e5 entries. The potentials of the scaled
    plan are ``f + lam log u`` and ``g + lam log v``.

    The scalings are accepted within ``[e^-tau, e^tau]``, ``tau = 200``
    (``_KERNEL_TAU``), or less on a cost above about 1e221 in magnitude
    (:func:`_kernel_tau`). The kernel is a plan of mass 1, so with ``u`` and
    ``v`` at most ``e^tau`` the products ``v @ K^T`` and ``K^T u`` stay
    below ``e^tau`` and ``(K o C)^T u`` below ``|c|max e^tau``: every
    product stays finite. An entry of ``K`` that underflowed to zero, or
    kept fewer digits as a subnormal, is off by at most the subnormal
    spacing, about 5e-324, and so by at most about 3e-150 after scaling by
    ``u_i v_j <= e^(2 tau)``, far under the rounding of any marginal. After
    :meth:`rescale` the kernel answers as the column pass does, with
    weights ``K^T diag(u)``, ``sums = K^T u`` and ``scale`` = ``v``, which
    is bitwise ``nu / sums``. ``v`` is None while no plan is absorbed.
    """

    def __init__(self, rows, cols, tau):
        self.passes, self.CT, self.mu, self.nu = (rows, cols), cols.C, rows.w, cols.w
        self.tau = tau
        n, m = self.CT.shape
        self.S = np.empty((2 * n, m))
        rows.out, cols.out = self.S[n:].reshape(m, n), self.S[:n]
        self.u = self.v = None

    @property
    def scale(self):
        return self.v

    def absorb(self) -> None:
        """Take the plan of the column pass as ``K^T``, and write
        ``(K o C)^T`` over the row pass's weights."""
        n, m = self.CT.shape
        KT = self.S[:n]
        KT *= self.passes[1].scale[:, None]
        np.multiply(KT, self.CT, out=self.S[n:])
        self.u, self.v = np.ones(m), np.ones(n)

    def release(self, f, g, lam):
        """``f`` and ``g`` with the last accepted ``u`` and ``v`` folded in;
        the buffer is then free for the log-domain passes."""
        if self.v is not None:
            f, g = f + lam * np.log(self.u), g + lam * np.log(self.v)
            self.u = self.v = None
        return f, g

    def rescale(self) -> bool:
        """One round ``u <- mu / (K v)``, ``v <- nu / (K^T u)``; False,
        keeping the last accepted scalings, if a new one leaves the range
        or no plan is absorbed."""
        if self.v is None:
            return False
        n = self.v.size
        u = self.mu / (self.v @ self.S[:n])
        if not _in_scaling_range(u, self.tau):
            return False
        products = self.S @ u
        v = self.nu / products[:n]
        if not _in_scaling_range(v, self.tau):
            return False
        self.u, self.v, self.sums, self._cost_rows = u, v, products[:n], products[n:]
        return True

    def col_sums(self) -> np.ndarray:
        return (self.v @ self.S[:self.v.size]) * self.u

    def plan_cost(self, offset: float) -> float:
        return float(self.v @ self._cost_rows) + offset * float(self.v @ self.sums)

    def plan(self) -> np.ndarray:
        """The plan's transpose: the top half scaled in place, as the column
        pass's plan or, if a plan is absorbed, by ``v`` and ``u``, with the
        buffer taken back from the passes and shrunk to it, so the plan
        keeps no ``K o C`` alive. The last use of the kernel."""
        n = self.CT.shape[0]
        scale = self.passes[1].scale if self.v is None else self.v
        for rows in self.passes:
            rows.out = rows.weights = None
        S, self.S = self.S, None
        KT = S[:n]
        KT *= scale[:, None]
        if self.v is not None:
            KT *= self.u
        del KT
        try:
            S.resize((n, S.shape[1]), refcheck=True)
        except ValueError:
            # Something else (a debugger's frame, say) still views the buffer.
            return S[:n].copy()
        return S


def sinkhorn_solve(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    cost: CostMatrix,
    lam: float,
    max_iters: int = 10000,
    stop_rel_tol: float = 1e-3,
    kernel_mode: bool = False,
    trace_every: int = 1,
    cost_offset: float = 0.0,
) -> SinkhornResult:
    """Entropic matrix scaling on the kernel ``K = exp(-C/lam)``.

    One iteration is the full round ``u <- mu / (K v)``, ``v <- nu / (K^T u)``
    with plan ``diag(u) K diag(v)``. It runs on the cost-unit potentials
    ``f = lam log u`` and ``g = lam log v``, one smoothed c-transform row pass
    per half:

        f_i = lam log mu_i - lam log sum_j exp((g_j - c_ij)/lam)   (rows of C)
        g_j = lam log nu_j - lam log sum_i exp((f_i - c_ij)/lam)   (rows of C.T)

    The plan ``exp((f_i + g_j - c_ij)/lam)`` is ``nu_j / sums_j`` times the
    column half's weights, so its column sums equal ``nu`` up to rounding.
    Each iteration takes <P, C> from the weights' row dots with ``C.T`` and
    from ``sums``, and stops by :class:`_StopRule` on it; trace rows add the
    marginal deviation. The halves call the solve's two passes, over ``C``
    at ``mu`` and over ``C.T`` at ``nu``. On a cost with grid factors these
    are grid passes, so it is iterated one axis at a time, as in
    :func:`fista_solve` but with no max-plus chain, and its plan is returned
    factored, from the column half's last pass: its entries, when read, are
    formed against that pass's own shift.

    On a dense cost in the log domain both halves write their passes into
    the one ``(2n, m)`` buffer of :class:`_AbsorbedKernel`, allocated once
    per solve and lent to them, and the plan of a log-domain iteration is
    formed in place there as the absorbed kernel ``K^T``, with ``(K o C)^T``
    beside it. The next iterations scale it, ``u <- mu / (K v)``,
    ``v <- nu / (K^T u)``, by two matrix-vector products: ``v @ K^T``, and
    one product of the whole buffer with ``u`` that gives ``K^T u`` and, for
    <P, C>, ``(K o C)^T u``; trace rows add one more. When a new scaling leaves
    ``[exp(-tau), exp(tau)]`` (``tau = 200``, less on a cost above about
    1e221 in magnitude) it is discarded, the last accepted ``u`` and ``v``
    are folded into ``f`` and ``g`` and that iteration runs as the two
    log-domain passes, after which the new plan is absorbed. A non-finite
    scaling fails that range check, so the passes make the failure
    decisions. The range is safe because the kernel is a plan of mass 1, so
    every product stays finite, and an entry of it lost to underflow is off
    by about 3e-150 at most after scaling (:class:`_AbsorbedKernel`). FISTA's
    kernel accepts the same range, capped by ``n`` times its cost bound,
    and renews its candidate columns when they go stale
    (:class:`_AbsorbedRows`). The buffer is the two m x n arrays alive; the
    returned plan is its top half, with the buffer shrunk to it. The kernel
    answers the column half's reductions, so <P, C>, D and the plan come
    from one body.

    The default path is log-domain (stable for any ``lam > 0``);
    ``kernel_mode`` hands the pass the multiplicative kernel, whose overflow
    at small ``lam`` makes ``g`` or <P, C> non-finite, so the run ends as a
    ``numerical_failure`` and the returned plan is all zeros, factored, so
    that its entries are formed only when read. ``cost_offset``
    is as in :class:`FistaConfig`. ``potentials`` are the ``(f, g)`` of the
    returned plan ``exp((f_i + g_j - c_ij)/lam)`` over ``cost``; after an
    absorbed iteration they are ``f + lam log u`` and ``g + lam log v``. On a
    ``numerical_failure`` they are the last finite ones: those the failing
    iteration started from, with ``u`` and ``v`` folded in, or zeros if the
    first iteration fails.
    """
    row_pass, col_pass = _row_passes(cost, lam, source, target, kernel_mode)
    kernel = (_AbsorbedKernel(row_pass, col_pass, _kernel_tau(cost)) if row_pass.absorbs
              else None)
    rule = _StopRule(max_iters, stop_rel_tol, trace_every)
    mu, nu = source.weights, target.weights
    m, n = cost.shape
    log_mu = np.log(mu)
    log_nu = np.log(nu)
    f, g = np.zeros(m), np.zeros(n)

    t = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while not rule.stopped:
            t += 1
            if kernel is not None and kernel.rescale():
                half = kernel
            else:
                if kernel is not None:
                    f, g = kernel.release(f, g, lam)
                last = f, g
                half = row_pass(g)
                f = lam * (log_mu - half.log_sums) - half.shift
                half = col_pass(f)
                g = lam * (log_nu - half.log_sums) - half.shift
            pc = half.plan_cost(cost_offset)

            # Each plan entry is scale_j * w_ji with 0 <= w_ji <= sums_j, so a
            # non-finite entry needs a non-finite or zero sums_j, which makes
            # g_j (or pc) non-finite. An absorbed round keeps g, checked by the
            # log-domain round before it, and its scalings are finite by the
            # range check.
            finite = math.isfinite(pc) and (half is kernel or np.all(np.isfinite(g)))
            if rule.row_due(t, pc, finite):
                dev = (_marginal_dev(half.scale * half.sums, half.col_sums(), nu, mu)
                       if finite else math.nan)
                rule.record(t, math.nan, math.nan, pc if finite else math.nan, dev)
            if kernel is not None and half is not kernel and finite and not rule.stopped:
                kernel.absorb()

    if not finite:
        zeros = _PlanTerms(np.zeros(m), np.zeros(n), col_pass.grid, 0.0, 0.0)
        return SinkhornResult(TransportPlan(lambda: np.zeros((m, n)), zeros), rule.trace, last)
    if col_pass.grid is not None:
        # The column pass's plan, against its own shift when formed.
        shift = half.shift

        def form():
            plan_t = _exp_rows(f[None, :] - cost.entries.T, shift, lam)
            plan_t *= nu[:, None]
            return plan_t.T

        return SinkhornResult(half.plan(form, transposed=True), rule.trace, (f, g))
    plan = TransportPlan((half if kernel is None else kernel).plan().T)
    if kernel is not None:
        f, g = kernel.release(f, g, lam)
    return SinkhornResult(plan, rule.trace, (f, g))


def corollary9_iteration_bound(psi_star_norm: float, lam: float, epsilon: float) -> int:
    """Iterations sufficient for the accelerated method to bring the smoothed
    energy within ``epsilon`` of its optimum when started from zero:

        t >= sqrt(2 ||psi*||^2 / (lam * epsilon))

    ``psi_star_norm`` is the Euclidean norm of the zero-mean optimizer.
    Raises ValueError where ``lam * epsilon`` underflows to 0 or the bound
    is not finite.
    """
    _check_lam(lam)
    if not (0.0 < psi_star_norm < math.inf and 0.0 < epsilon < math.inf):
        raise ValueError("all arguments must be > 0 and finite")
    denominator = lam * epsilon
    if denominator == 0.0:
        raise ValueError("lam * epsilon underflows to 0")
    bound = math.sqrt(2.0 * psi_star_norm * psi_star_norm / denominator)
    if not math.isfinite(bound):
        raise ValueError("iteration bound is not finite")
    return math.ceil(bound)


def psi_infinity_bound(cost: CostMatrix, target: DiscreteMeasure, lam: float) -> float:
    """Entrywise bound on the smoothed optimizer:

        |psi*_j| <= c_max - lam * log(min_j nu_j)

    Requires strictly positive target weights (guaranteed by measure
    construction).
    """
    _check_lam(lam)
    nu_min = float(target.weights.min())
    if nu_min <= 0.0:
        raise ValueError("target weights must be strictly positive")
    return cost.c_max - lam * math.log(nu_min)
