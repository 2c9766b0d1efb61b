"""Exact discrete optimal transport via the transportation simplex, plus an
independent brute-force oracle that enumerates every spanning-tree basis.

The simplex starts from a warm basis and uses Dantzig pricing, falling back to
Bland's rule after a run of degenerate pivots so cycling cannot occur.
Instances are solved exactly (up to floating-point rounding). The warm basis
comes from a short pre-solve, one call of :func:`solvers.sinkhorn_solve`: its
potentials give reduced costs ``c_ij - f_i - g_j``, and masses are allocated
greedily in ascending reduced cost, which leaves far fewer pivots than a
cost-blind start (1180 instead of 11098 on the 784 x 784 ``sed-paper``
instance). The start affects speed only: optimality is certified by the
simplex's own potentials.

The same reduced costs pick a candidate list: the ``_CANDIDATES`` smallest
cells of every row and every column. A pivot prices the candidates alone; a
full pricing pass over the m x n reduced costs runs only when no candidate
enters, and every violating cell it sees joins the list. Optimality is
declared only after a full pass over potentials recomputed from scratch, so
the list affects speed only (a few full passes per solve; ``sed-paper``'s
oracle takes 0.4–0.6 s on 2 CPUs, half of it the pre-solve). The basis is
one rooted spanning tree kept across pivots, so past pricing a pivot costs
work proportional to the cycle and the subtree it moves. After set-up the
tree is traversed by one walk, every parent before its children: from the
root it recomputes the potentials from scratch and, in reverse, the final
allocation from the marginals; from the entering endpoint it visits the
subtree a pivot moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostMatrix
from .measures import DiscreteMeasure
from .smoothed_dual import TransportPlan
from .solvers import sinkhorn_solve

REDUCED_COST_TOL = 1e-10
MASS_BALANCE_TOL = 1e-9
DEFAULT_CELL_CAP = 10**6
_DEGENERATE_STALL = 50
# The warm start's Sinkhorn pre-solve: smoothing lam = spread / _WARM_T, run
# until <P, C> changes by less than _WARM_TOL relative or for _WARM_ROUNDS.
_WARM_T = 700.0
_WARM_TOL = 1e-10
_WARM_ROUNDS = 300
# Candidate list: this many smallest warm-start reduced costs of every row and
# every column, selected a block of about _BLOCK_CELLS cells at a time (64 KB
# of indices, under the allocator's default mmap threshold).
_CANDIDATES = 4
_BLOCK_CELLS = 1 << 13


@dataclass(eq=False)
class BasisState:
    """Terminal state of the transportation simplex.

    ``cells`` lists the m+n-1 basic cells (a spanning tree of the bipartite
    supply/demand graph), ``plan`` the basic feasible allocation satisfying all
    marginals, and ``u``/``v`` the dual variables with ``u_i + v_j = c_ij`` on
    basic cells. ``pivots`` counts the basis changes and ``full_passes`` the
    pricing passes over all m x n cells.
    """

    cells: list[tuple[int, int]]
    plan: np.ndarray
    u: np.ndarray
    v: np.ndarray
    pivots: int = 0
    full_passes: int = 0

    def reduced_costs(self, costs: np.ndarray) -> np.ndarray:
        return costs - self.u[:, None] - self.v[None, :]


def _entropic_duals(mu: np.ndarray, nu: np.ndarray, costs: np.ndarray):
    """Potentials ``(f, g)`` of one :func:`sinkhorn_solve` at ``lam = spread /
    _WARM_T`` on the lines with mass, each side normalized (which shifts
    ``c_ij - f_i - g_j`` by a constant), stopped at a relative change of
    <P, C> below ``_WARM_TOL`` or after ``_WARM_ROUNDS``. Lines without mass
    keep 0, as do all lines when no mass or no spread is left."""
    f, g = np.zeros(mu.size), np.zeros(nu.size)
    rows, cols = mu > 0.0, nu > 0.0
    # A view, so that the CostMatrix freezes it and not the caller's array.
    sub = costs.view() if rows.all() and cols.all() else costs[np.ix_(rows, cols)]
    if sub.size == 0 or (cost := CostMatrix.from_entries(sub)).spread == 0.0:
        return f, g
    source, target = (DiscreteMeasure(np.zeros((w.size, 1)), w / w.sum())
                      for w in (mu[rows], nu[cols]))
    f[rows], g[cols] = sinkhorn_solve(source, target, cost, cost.spread / _WARM_T,
                                      max_iters=_WARM_ROUNDS, stop_rel_tol=_WARM_TOL,
                                      trace_every=_WARM_ROUNDS).potentials
    return f, g


def _greedy_cells(mu: np.ndarray, nu: np.ndarray, reduced: np.ndarray):
    """Basic cells and their flows, allocated ``min(a_i, b_j)`` in ascending
    order of ``reduced`` (stable: ties go by flat index).

    Each allocation retires one line: the row when ``a_i <= b_j``, else the
    column, so a tie leaves the column open with zero mass for a zero-flow
    cell, and the last open row and column close together on the final cell.
    Read backwards, every cell hangs its retired line from a line still open,
    so the ``m + n - 1`` cells form a spanning tree. Candidates come a chunk
    of ``open rows + open columns`` at a time, the smallest entries of the
    open rows and columns in the same stable order, so chunking does not
    change the allocation.
    """
    m, n = reduced.shape
    a, b = mu.tolist(), nu.tolist()
    row_open, col_open = [True] * m, [True] * n
    rows, cols = np.arange(m), np.arange(n)
    cells, flows = [], []
    while rows.size:
        live = reduced if rows.size == m and cols.size == n else reduced[np.ix_(rows, cols)]
        flat = live.ravel()
        k = min(flat.size, rows.size + cols.size)
        if k < flat.size:
            kth = np.partition(flat, k - 1)[k - 1]
            chosen = flat < kth
            chosen[np.flatnonzero(flat == kth)[:k - int(chosen.sum())]] = True
            candidates = np.flatnonzero(chosen)
        else:
            candidates = np.arange(flat.size)
        candidates = candidates[np.argsort(flat[candidates], kind="stable")]
        left_r, left_c = rows.size, cols.size
        for i, j in zip(rows[candidates // cols.size].tolist(), cols[candidates % cols.size].tolist()):
            if not (row_open[i] and col_open[j]):
                continue
            x = min(a[i], b[j])
            cells.append((i, j))
            flows.append(x)
            a[i] -= x
            b[j] -= x
            if (a[i] <= b[j] and left_r > 1) or left_c == 1:
                row_open[i] = False
                left_r -= 1
                if not left_r:
                    break
            else:
                col_open[j] = False
                left_c -= 1
        rows = rows[[row_open[i] for i in rows.tolist()]]
        cols = cols[[col_open[j] for j in cols.tolist()]]
    return cells, flows


def _rooted_tree(cells, flows, m: int, n: int):
    """The basis tree rooted at row 0, by one breadth-first walk.

    Returns ``(parent, depth, pos, children, flow)``. Rows are nodes
    0..m-1, columns m..m+n-1. ``cells[pos[x]]`` joins ``x`` to ``parent[x]``
    and carries ``flow[x]``; the root owns no cell (``pos[0] == -1``).
    """
    incident = [[] for _ in range(m + n)]
    for k, (i, j) in enumerate(cells):
        incident[i].append(k)
        incident[m + j].append(k)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    pos = [-1] * (m + n)
    flow = [0.0] * (m + n)
    children = [set() for _ in range(m + n)]
    order = [0]
    for x in order:
        for k in incident[x]:
            if k == pos[x]:
                continue
            y = m + cells[k][1] if x < m else cells[k][0]
            parent[y], depth[y], pos[y], flow[y] = x, depth[x] + 1, k, flows[k]
            children[x].add(y)
            order.append(y)
    return parent, depth, pos, children, flow


def _warm_basis(mu: np.ndarray, nu: np.ndarray, costs: np.ndarray, reduced: np.ndarray):
    """Initial basis: greedy on the reduced costs ``c_ij - f_i - g_j`` of
    :func:`_entropic_duals`, which it writes into the m x n work buffer
    ``reduced``, as a tree rooted at row 0.

    Returns ``(cells, parent, depth, pos, children, flow)`` as laid out by
    :func:`_rooted_tree`.
    """
    f, g = _entropic_duals(mu, nu, costs)
    np.subtract(costs, f[:, None], out=reduced)
    reduced -= g[None, :]
    cells, flows = _greedy_cells(mu, nu, reduced)
    return (cells, *_rooted_tree(cells, flows, mu.size, nu.size))


def _candidate_cells(reduced: np.ndarray) -> np.ndarray:
    """Sorted flat indices of the ``_CANDIDATES`` smallest entries of every
    row and of every column of ``reduced``, selected a block of lines at a
    time so that no m x n index array is allocated."""
    m, n = reduced.shape
    picks = []
    # Row i holds flat indices i*n + j, column j holds j + i*n.
    for lines, line_stride, cell_stride in ((reduced, n, 1), (reduced.T, 1, n)):
        count, length = lines.shape
        k = min(_CANDIDATES, length)
        block = max(1, _BLOCK_CELLS // length)
        for start in range(0, count, block):
            stop = min(start + block, count)
            nearest = np.argpartition(lines[start:stop], k - 1, axis=1)[:, :k]
            first = np.arange(start, stop)[:, None] * line_stride
            picks.append((first + nearest * cell_stride).ravel())
    return _sorted_unique(np.concatenate(picks))


def _sorted_unique(flat: np.ndarray) -> np.ndarray:
    """``np.unique`` by one sort, without its first-call import of
    ``numpy.ma`` (about 1.2 MB held for the rest of the process)."""
    flat = np.sort(flat)
    keep = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


class _CandidateList:
    """Cells priced before any full pass: sorted flat indices with their rows,
    columns and costs cached, and a mask of those that are basic."""

    def __init__(self, costs: np.ndarray, flat: np.ndarray, basic_flat: np.ndarray):
        self.costs = costs
        self.flat = flat[:0]
        self.extend(flat, basic_flat)

    def extend(self, flat: np.ndarray, basic_flat: np.ndarray):
        self.flat = _sorted_unique(np.concatenate([self.flat, flat]))
        self.rows, self.cols = np.divmod(self.flat, self.costs.shape[1])
        self.cell_costs = self.costs[self.rows, self.cols]
        k = np.minimum(self.flat.searchsorted(basic_flat), self.flat.size - 1)
        self.basic = np.zeros(self.flat.size, dtype=bool)
        self.basic[k[self.flat[k] == basic_flat]] = True

    def mark(self, flat: int, basic: bool):
        k = int(self.flat.searchsorted(flat))
        if k < self.flat.size and self.flat[k] == flat:
            self.basic[k] = basic

    def price(self, u: np.ndarray, v: np.ndarray):
        """``(flat, reduced cost)`` of the most negative candidate, ties to
        the lowest flat index as in :func:`_price`, or ``(-1, 0.0)`` when
        none is below ``-REDUCED_COST_TOL``."""
        reduced = self.cell_costs - u[self.rows]
        reduced -= v[self.cols]
        reduced[self.basic] = 0.0
        k = int(np.argmin(reduced))
        if reduced[k] < -REDUCED_COST_TOL:
            return int(self.flat[k]), float(reduced[k])
        return -1, 0.0


def _walk(children, x):
    """Nodes of the basis subtree hanging from ``x``, every parent before
    its children; from the root it is a walk of the whole tree."""
    order = [x]
    for y in order:
        order.extend(children[y])
    return order


def _tree_potentials(potentials, costs, cells, parent, pos, children):
    """Recompute the potentials from the costs alone: fix u_0 = 0 and set
    every node from its parent so that u_i + v_j = c_ij on the cell joining
    them. Returns the walk of the whole tree that it used."""
    order = _walk(children, 0)
    if len(order) < potentials.size:
        raise RuntimeError("basis tree does not span the transportation graph")
    potentials[0] = 0.0
    for x in order[1:]:
        potentials[x] = costs[cells[pos[x]]] - potentials[parent[x]]
    return order


def _price(costs, u, v, basic_flat, reduced, bland: bool):
    """Entering cell as a flat index, or -1 when no reduced cost is below
    ``-REDUCED_COST_TOL``. Dantzig's most negative reduced cost, or Bland's
    smallest violating index when ``bland``. ``reduced`` is an m x n work
    buffer; basic cells are zeroed so rounding on them can never make them
    enter."""
    np.subtract(costs, u[:, None], out=reduced)
    reduced -= v[None, :]
    flat_reduced = reduced.ravel()
    flat_reduced[basic_flat] = 0.0
    if bland:
        violating = flat_reduced < -REDUCED_COST_TOL
        return int(np.argmax(violating)) if violating.any() else -1
    flat = int(np.argmin(flat_reduced))
    return flat if flat_reduced[flat] < -REDUCED_COST_TOL else -1


def transportation_simplex(mu: np.ndarray, nu: np.ndarray, costs: np.ndarray) -> BasisState:
    """Solve ``min <P, C>`` over the transportation polytope exactly.

    The basis is one spanning tree rooted at row 0 that persists across
    pivots: every node keeps its parent, its depth and the flow on the basic
    cell joining it to its parent. A pivot walks both endpoints of the
    entering cell up to their common ancestor to find the cycle, re-hangs the
    subtree cut off by the leaving cell from the entering endpoint it
    contains, and shifts the potentials of that subtree alone by the entering
    reduced cost.

    The start is :func:`_warm_basis`: greedy on the reduced costs of a
    Sinkhorn pre-solve on the lines with mass, skipped for constant costs or
    no mass. Those reduced costs also give the candidate list, the
    ``_CANDIDATES`` smallest cells of each row and column
    (:func:`_candidate_cells`).

    Dantzig (most negative reduced cost) pricing by default, first over the
    candidates alone. When none of them enters, one full pass of
    :func:`_price` over all cells runs: a cell it finds enters, and every
    violating cell it saw joins the list. When it finds none, the potentials
    are recomputed from scratch and :func:`_price` runs again, so optimality
    never rests on the candidates or on the incrementally updated
    potentials. After ``_DEGENERATE_STALL`` consecutive zero-step pivots,
    entering and leaving cells switch to Bland's smallest-index rule, priced
    by full passes, until a real step is made, which prevents cycling under
    degeneracy.

    Raises ``ValueError`` for mismatched sizes, unbalanced masses, a
    non-finite cost, or a negative or non-finite mass.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    costs = np.asarray(costs, dtype=float)
    m, n = costs.shape
    if (mu.size, nu.size) != costs.shape:
        raise ValueError("measure sizes do not match the cost matrix")
    if not np.isfinite(costs).all():
        raise ValueError("costs must be finite")
    for name, masses in (("source", mu), ("target", nu)):
        if not (np.isfinite(masses).all() and (masses >= 0.0).all()):
            raise ValueError("%s masses must be finite and nonnegative" % name)
    if abs(mu.sum() - nu.sum()) > MASS_BALANCE_TOL:
        raise ValueError("total source and target mass must match")

    reduced = np.empty((m, n))
    cells, parent, depth, pos, children, flow = _warm_basis(mu, nu, costs, reduced)
    basic_flat = np.array([i * n + j for i, j in cells])
    # +1 on rows, -1 on columns: the sign of a subtree's potential shift.
    side = np.concatenate([np.ones(m), -np.ones(n)])
    potentials = np.empty(m + n)
    u, v = potentials[:m], potentials[m:]
    order = _tree_potentials(potentials, costs, cells, parent, pos, children)
    candidates = _CandidateList(costs, _candidate_cells(reduced), basic_flat)

    stall = pivots = full_passes = 0
    bland = False
    for _ in range(20 * (m + n) * max(m, n) + 1000):
        flat, r = (-1, 0.0) if bland else candidates.price(u, v)
        if flat < 0:
            flat = _price(costs, u, v, basic_flat, reduced, bland)
            full_passes += 1
            if flat < 0:
                order = _tree_potentials(potentials, costs, cells, parent, pos, children)
                flat = _price(costs, u, v, basic_flat, reduced, bland)
                full_passes += 1
                if flat < 0:
                    break
            r = reduced.flat[flat]
            candidates.extend(np.flatnonzero(reduced.ravel() < -REDUCED_COST_TOL), basic_flat)
        pivots += 1
        i_e, j_e = divmod(flat, n)

        # Cycle: tree paths from both endpoints up to their common ancestor,
        # as the nodes owning the path's cells, from the entering row to the
        # entering column. Even positions receive -theta.
        x, y = i_e, m + j_e
        up_row, up_col = [], []
        while depth[x] > depth[y]:
            up_row.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            up_col.append(y)
            y = parent[y]
        while x != y:
            up_row.append(x)
            up_col.append(y)
            x, y = parent[x], parent[y]
        path = up_row + up_col[::-1]

        theta = np.inf
        leave = -1
        for node in path[0::2]:
            val = flow[node]
            better = val < theta - 1e-15
            tie = abs(val - theta) <= 1e-15
            if better or (tie and leave >= 0 and cells[pos[node]] < cells[pos[leave]]):
                theta = min(theta, val)
                leave = node
        for k, node in enumerate(path):
            flow[node] += theta if k % 2 else -theta

        # Re-hang the subtree cut off at `leave` from the entering endpoint it
        # contains: reverse the parent pointers up to `leave`, each cell and
        # its flow moving down one node, and hang that endpoint on the other
        # endpoint through the entering cell, which takes the leaving slot.
        if leave in up_row:
            start, new_parent, sign = i_e, m + j_e, 1.0
        else:
            start, new_parent, sign = m + j_e, i_e, -1.0
        leave_pos = pos[leave]
        candidates.mark(int(basic_flat[leave_pos]), False)
        candidates.mark(flat, True)
        cells[leave_pos] = (i_e, j_e)
        basic_flat[leave_pos] = flat
        new_pos, new_flow = leave_pos, theta
        x = start
        while True:
            old_parent, old_pos, old_flow = parent[x], pos[x], flow[x]
            children[old_parent].remove(x)
            children[new_parent].add(x)
            parent[x], pos[x], flow[x] = new_parent, new_pos, new_flow
            if x == leave:
                break
            new_parent, new_pos, new_flow = x, old_pos, old_flow
            x = old_parent

        # The moved subtree gets new depths and shifted potentials so that
        # u_i + v_j = c_ij holds on the entering cell; the rest is unchanged.
        moved = _walk(children, start)
        for x in moved:
            depth[x] = depth[parent[x]] + 1
        moved = np.array(moved)
        potentials[moved] += side[moved] * (sign * r)

        if theta <= 1e-15:
            stall += 1
            if stall >= _DEGENERATE_STALL:
                bland = True
        else:
            stall = 0
            bland = False
    else:
        raise RuntimeError("transportation simplex exceeded pivot budget")

    # The final allocation is recomputed from the marginals, which removes the
    # rounding drift of the pivot updates. In reverse walk order of the optimal
    # basis each node is a leaf of what is left, so the cell joining it to its
    # parent carries its residual mass.
    del reduced, candidates  # the plan is the only m x n array built from here
    residual = np.concatenate([mu, nu])
    plan = np.zeros((m, n))
    for x in reversed(order[1:]):
        plan[cells[pos[x]]] = max(residual[x], 0.0)
        residual[parent[x]] -= residual[x]
    return BasisState(list(cells), plan, u.copy(), v.copy(), pivots, full_passes)


def exact_solve(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    cost: CostMatrix,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> tuple[TransportPlan, float]:
    """Exact optimal plan and cost via the transportation simplex.

    Refuses instances with more than ``cell_cap`` cells; the oracle exists for
    ground truth at desk scale.
    """
    m, n = cost.shape
    if m * n > cell_cap:
        raise ValueError("instance too large for exact oracle (%d cells > %d)" % (m * n, cell_cap))
    state = transportation_simplex(source.weights, target.weights, cost.entries)
    plan = TransportPlan(state.plan)
    return plan, plan.transport_cost(cost)


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate every spanning-tree basis of K_{m,n}.
# ---------------------------------------------------------------------------

_BRUTE_FORCE_LIMIT = 5
# A basis allocation counts as feasible down to this negative rounding error.
_FEAS_TOL = 1e-10
_schedule_cache: dict[tuple[int, int], tuple] = {}


def _tree_peel_schedules(m: int, n: int):
    """Peel schedules for all spanning trees of the complete bipartite graph.

    Trees are generated from the classical bijection with sequence pairs
    ``(a, b)``, ``a`` in rows^(n-1), ``b`` in cols^(m-1): repeatedly remove the
    smallest-index leaf (rows 0..m-1 order before cols m..m+n-1); a column leaf
    attaches to the next symbol of ``a``, a row leaf to the next symbol of
    ``b``. The removal order doubles as a leaf-elimination schedule for
    solving the basis allocation, so the returned arrays are all the
    brute-force solver needs:

    ``cells[k, t]``     flat cell index i*n+j of tree k's t-th edge,
    ``leaf[k, t]``      node removed at step t (rows 0..m-1, cols m..m+n-1),
    ``nbr[k, t]``       its neighbor,
    ``last_row[k]``     endpoints of the final edge (also ``cells[k, -1]``).

    Decoded vectorized across all ``m^(n-1) * n^(m-1)`` trees at once.
    """
    key = (m, n)
    if key in _schedule_cache:
        return _schedule_cache[key]

    n_trees = m ** (n - 1) * n ** (m - 1)
    edges = m + n - 1
    idx = np.arange(n_trees)
    b_count = n ** (m - 1)
    a_idx = idx // b_count
    b_idx = idx % b_count
    a = np.empty((n_trees, max(n - 1, 1)), dtype=np.int32)
    rem = a_idx.copy()
    for t in range(n - 1):
        a[:, t] = rem % m
        rem //= m
    b = np.empty((n_trees, max(m - 1, 1)), dtype=np.int32)
    rem = b_idx.copy()
    for t in range(m - 1):
        b[:, t] = rem % n
        rem //= n

    deg = np.ones((n_trees, m + n), dtype=np.int32)
    ar = np.arange(n_trees)
    for t in range(n - 1):
        np.add.at(deg, (ar, a[:, t]), 1)
    for t in range(m - 1):
        np.add.at(deg, (ar, m + b[:, t]), 1)

    alive = np.ones((n_trees, m + n), dtype=bool)
    pa = np.zeros(n_trees, dtype=np.int32)
    pb = np.zeros(n_trees, dtype=np.int32)
    cells = np.empty((n_trees, edges), dtype=np.int32)
    leaf = np.empty((n_trees, max(edges - 1, 1)), dtype=np.int32)
    nbr = np.empty((n_trees, max(edges - 1, 1)), dtype=np.int32)

    for step in range(m + n - 2):
        is_leaf = alive & (deg == 1)
        v = np.argmax(is_leaf, axis=1).astype(np.int32)
        is_col = v >= m
        next_a = a[ar, np.minimum(pa, max(n - 2, 0))] if n > 1 else np.zeros(n_trees, np.int32)
        next_b = b[ar, np.minimum(pb, max(m - 2, 0))] if m > 1 else np.zeros(n_trees, np.int32)
        neighbor = np.where(is_col, next_a, m + next_b).astype(np.int32)
        pa += is_col
        pb += ~is_col
        row = np.where(is_col, neighbor, v)
        col = np.where(is_col, v, neighbor) - m
        cells[:, step] = row * n + col
        leaf[:, step] = v
        nbr[:, step] = neighbor
        alive[ar, v] = False
        deg[ar, v] -= 1
        deg[ar, neighbor] -= 1

    last_row = np.argmax(alive[:, :m], axis=1).astype(np.int32)
    last_col = np.argmax(alive[:, m:], axis=1).astype(np.int32)
    cells[:, edges - 1] = last_row * n + last_col

    schedule = (cells, leaf, nbr, last_row)
    _schedule_cache[key] = schedule
    return schedule


def brute_force_solve(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    cost: CostMatrix,
) -> tuple[TransportPlan, float]:
    """Minimum over every basic feasible solution, by exhaustive enumeration.

    Every vertex of the transportation polytope is the unique allocation of
    some spanning-tree basis, so scanning all trees and keeping the cheapest
    feasible allocation is an oracle that shares no code path with the
    simplex. Two measures always balance (each sums to one), so only the
    size is checked. Limited to 5x5 instances.
    """
    m, n = cost.shape
    if m > _BRUTE_FORCE_LIMIT or n > _BRUTE_FORCE_LIMIT:
        raise ValueError("brute force limited to %dx%d" % (_BRUTE_FORCE_LIMIT, _BRUTE_FORCE_LIMIT))

    cells, leaf, nbr, last_row = _tree_peel_schedules(m, n)
    n_trees, edges = cells.shape
    ar = np.arange(n_trees)

    masses = np.empty((n_trees, m + n))
    masses[:, :m] = source.weights
    masses[:, m:] = target.weights
    x = np.empty((n_trees, edges))
    for t in range(m + n - 2):
        xt = masses[ar, leaf[:, t]]
        x[:, t] = xt
        masses[ar, nbr[:, t]] -= xt
    x[:, edges - 1] = masses[ar, last_row]

    tree_costs = (x * cost.entries.ravel()[cells]).sum(axis=1)
    feasible = (x >= -_FEAS_TOL).all(axis=1)
    if not feasible.any():
        raise RuntimeError("no feasible basis found (masses inconsistent?)")
    best = int(np.argmin(np.where(feasible, tree_costs, np.inf)))

    plan = np.zeros(m * n)
    plan[cells[best]] = np.maximum(x[best], 0.0)
    return TransportPlan(plan.reshape(m, n)), float(tree_costs[best])
