"""Dual Kantorovich machinery: c-transform, its Log-Sum-Exp smoothing, the
dual energy with analytic gradient and Hessian-vector products, projection
onto the zero-mean hyperplane, and recovery of the approximate plan.

All operations are pure functions of immutable inputs. Every smoothed
quantity here, and every one the solvers evaluate from a potential, comes from
one row pass over ``exp((psi_j - c_ij - shift_i)/lam)``; between such passes
both solvers' dense log-domain loops only rescale the weights of their last
one (see ``solvers``). The default path is log-domain: the dense pass's
shift is the row maximum of ``psi_j - c_ij`` (the c-transform), so any
finite smoothing scale ``lam > 0`` is representable; ``lam`` is checked where
it enters (``SmoothingParams``, ``_row_passes``, ``hessian_apply``), not in
the pass. The exact c-transform alone, as ``c_transform`` and ``energy`` take
it on a dense cost, comes from ``_row_max``, a block of rows at a time without
an m x n array; FISTA's rescaled passes take it over each row's candidate
columns where their weights certify it, and from ``_row_max`` elsewhere.
Given the multiplicative kernel ``K = exp(-C/lam)`` the pass returns
``K * exp(psi/lam)`` with zero shift; only the solvers' opt-in kernel mode
takes this path, to expose its overflow behavior.

Every pass has one protocol. ``_row_passes``, the one place that picks the
kind of pass from the cost, checks ``lam`` and the measure sizes and builds
one pass per cost orientation, over ``C`` at the source weights ``w`` and
over ``C.T`` at the target weights. Called at a potential, a pass holds
``shift``, the row ``sums`` of its weights, ``log_sums`` and
``scale = w / sums``, and reduces the plan ``P = scale[:, None] * weights``
without taking a scale (the marginal deviation follows from the sums through
``_marginal_dev``). ``_DenseRows`` is the dense m x n pass; ``hessian_apply``
alone builds it on any cost, as it needs the weights matrix. For a cost with
grid factors in the log domain ``_GridRows`` gives the same reductions from
one stage per grid axis, which both orientations share, and reads no cost
entries. A stage is a matrix product with the axis kernel ``exp(-A_k/lam)``,
stabilized by the maximum over the summed axis, while that kernel stays a
normal float (``max(A_k)/lam <= _PRODUCT_MAX``, about 690); otherwise it is
a log-sum-exp over the ``q x r x p`` exponents. Such a pass is stabilized by
its own log-sum-exp rather than by the c-transform, so its row sums are one;
the c-transform is a separate max-plus chain that FISTA's E reads, and
``c_transform`` and ``energy`` on a grid cost. The two kinds of stage sum in
different orders, so their results agree to rounding, not bitwise.

A grid pass returns its plan factored (``_GridRows.plan``), as both solvers
and ``recover_plan`` do on a grid cost: a :class:`TransportPlan` whose row
sums, column sums and ``<P, C>`` are the chains' (``_PlanTerms``), and whose
entries are formed, from the cost's entries, only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .costs import _BLOCK_BYTES, CostMatrix, GridFactors
from .measures import DiscreteMeasure


@dataclass(frozen=True, eq=False)
class Potential:
    """Dual variable over target atoms.

    ``normalized`` marks membership in the zero-mean hyperplane
    ``H = {psi : sum_j psi_j = 0}`` that pins down the dual's shift ambiguity.
    """

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("potential must be a nonempty 1D array")
        if not np.all(np.isfinite(values)):
            raise ValueError("potential entries must be finite")
        # The sum's own rounding grows with the entries' magnitude.
        if (self.normalized and abs(values.sum())
                > 1e-10 * values.size * max(1.0, float(np.abs(values).max()))):
            raise ValueError("normalized potential must have zero mean")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _check_lam(lam) -> float:
    """``lam`` itself, once it is known to be a usable smoothing scale."""
    if not 0.0 < lam < math.inf:
        raise ValueError("lam must be > 0 and finite")
    return lam


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing scale ``lam`` (cost units), optionally derived as spread/T."""

    lam: float

    def __post_init__(self):
        _check_lam(self.lam)

    @classmethod
    def from_divisor(cls, cost: CostMatrix, T: float) -> "SmoothingParams":
        if not T > 0.0:
            raise ValueError("T must be > 0")
        return cls(cost.spread / T)


def _checked_plan(entries) -> np.ndarray:
    entries = np.asarray(entries, dtype=float)
    if entries.ndim != 2:
        raise ValueError("plan must be a 2D array")
    if not np.all(np.isfinite(entries)):
        raise ValueError("plan entries must be finite")
    if np.any(entries < 0.0):
        raise ValueError("plan entries must be >= 0")
    entries.flags.writeable = False
    return entries


class _PlanTerms(NamedTuple):
    """A factored plan's reductions: its row and column sums, and its cost
    ``<P, C> = axis_cost + offset * mass`` against every cost whose grid
    factors have the axes of ``grid`` (:meth:`GridFactors.same_axes`),
    whatever their ``offset``."""

    row_sums: np.ndarray
    col_sums: np.ndarray
    grid: GridFactors | None
    axis_cost: float
    mass: float

    @property
    def T(self) -> "_PlanTerms":
        """The terms of the transposed plan."""
        grid = None if self.grid is None else self.grid.T
        return _PlanTerms(self.col_sums, self.row_sums, grid, self.axis_cost, self.mass)


class TransportPlan:
    """Nonnegative coupling. Row sums approximate (or equal) the source
    weights, column sums the target weights.

    ``entries`` is the dense array, or a function that forms it, given with
    the plan's reductions ``terms``. A grid solve returns such a factored
    plan: its sums and its cost against the grid cost come from the solve's
    chains, and its entries are formed, checked and kept only when read.
    """

    def __init__(self, entries, terms: _PlanTerms | None = None):
        self._terms = terms
        if not callable(entries):
            self._entries, self._form = _checked_plan(entries), None
            self.shape = self._entries.shape
            return
        for sums in terms[:2]:
            if not np.all(np.isfinite(sums)):
                raise ValueError("plan sums must be finite")
            sums.flags.writeable = False
        self._entries, self._form = None, entries
        self.shape = (terms.row_sums.size, terms.col_sums.size)

    @property
    def entries(self) -> np.ndarray:
        """The dense plan, formed on the first read if not held."""
        if self._entries is None:
            self._entries, self._form = _checked_plan(self._form()), None
        return self._entries

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1) if self._terms is None else self._terms.row_sums

    def col_sums(self) -> np.ndarray:
        return self.entries.sum(axis=0) if self._terms is None else self._terms.col_sums

    def transport_cost(self, cost: CostMatrix) -> float:
        """``<P, C> = sum_ij p_ij c_ij``: from the plan's terms for a cost
        with the same grid axes, else with no m x n temporary."""
        if self.shape != cost.shape:
            raise ValueError("plan and cost shapes do not match")
        terms = self._terms
        grid = None if terms is None else terms.grid
        if grid is not None and cost.grid is not None and cost.grid.same_axes(grid):
            return terms.axis_cost + cost.grid.offset * terms.mass
        return float(np.einsum("ij,ij->", self.entries, cost.entries))


def _psi_array(psi) -> np.ndarray:
    values = psi.values if isinstance(psi, Potential) else psi
    return np.asarray(values, dtype=float)


def _exp_rows(weights, shift, lam) -> np.ndarray:
    """``exp((weights - shift[:, None]) / lam)``, in place."""
    weights -= shift[:, None]
    weights /= lam
    return np.exp(weights, out=weights)


def _marginal_dev(row_sums, col_sums, row_target, col_target) -> float:
    """``||row_sums - row_target||_1 + ||col_sums - col_target||_1``."""
    return float(np.abs(col_sums - col_target).sum() + np.abs(row_sums - row_target).sum())


class _DenseRows:
    """The smoothed c-transform over the rows of a dense cost ``C`` (or its
    kernel ``K``), kept whole, built at the row marginal ``w`` (or none).

    At ``psi`` its ``weights_ij = exp((psi_j - c_ij - shift_i)/lam)``, so the
    smoothed c-transform is ``shift + lam * (log_sums - log n)``. In the log
    domain ``shift`` is the row maximum of ``psi_j - c_ij``, taken before the
    division by ``lam`` so constant rows are reproduced exactly. Given the
    kernel ``K = exp(-C/lam)`` the shift is zero and the weights are
    ``K * exp(psi/lam)``, which may overflow to inf/nan. The weights are
    written into ``out`` if set (Sinkhorn's absorbed kernel lends it), else
    into one new m x n array once the last call's is released. ``lam`` is
    checked where it enters, not here. A pass has no ``grid``, and
    ``absorbs``: only log-domain weights may be rescaled to nearby potentials.
    """

    grid = None

    def __init__(self, C, lam, w=None, K=None):
        self.C, self.lam, self.w, self.K = C, lam, w, K
        self.absorbs, self.out = K is None, None
        if K is not None:
            self.shift = np.zeros(C.shape[0])

    def __call__(self, psi) -> "_DenseRows":
        """The pass at ``psi``."""
        self.psi, self.weights = psi, None
        if self.K is None:
            # Built in place, so the pass allocates at most one m x n buffer.
            self.weights = np.subtract(psi[None, :], self.C, out=self.out)
            self.shift = self.weights.max(axis=1)
            _exp_rows(self.weights, self.shift, self.lam)
        else:
            self.weights = np.multiply(self.K, np.exp(psi / self.lam)[None, :], out=self.out)
        self.sums = self.weights.sum(axis=1)
        self.log_sums = np.log(self.sums)
        if self.w is not None:
            self.scale = self.w / self.sums
        return self

    def max(self, psi) -> np.ndarray:
        """The exact c-transform ``max_j (psi_j - c_ij)`` at ``psi``, from ``C``."""
        return _row_max(psi, self.C)

    def c_transform(self) -> np.ndarray:
        """The exact c-transform at the pass's ``psi``: the log-domain shift, or :meth:`max`."""
        return self.shift if self.K is None else self.max(self.psi)

    def col_sums(self) -> np.ndarray:
        """Column sums ``scale @ weights`` of ``P``."""
        return self.scale @ self.weights

    def plan_cost(self, offset: float) -> float:
        """``<P, C> + offset * sum(P)``."""
        return (float(self.scale @ np.einsum("ij,ij->i", self.weights, self.C))
                + offset * float(self.scale @ self.sums))

    def plan(self) -> np.ndarray:
        """``P`` itself, formed in place of the weights: the last use of the pass."""
        self.weights *= self.scale[:, None]
        return self.weights


# The largest axis exponent ``max(A_k)/lam`` that a stage takes as a matrix
# product with ``exp(-A_k/lam)``: every kernel entry is then a normal float,
# e^18 above the smallest, so a stage's sums keep their relative precision.
_PRODUCT_MAX = -math.log(np.finfo(float).tiny) - 18.0


class _AxisStage:
    """One grid axis of a separable chain, over ``B = A / lam`` with the
    summed index first (``q x p``). A stage maps ``U`` of shape ``(q, r)`` to
    ``(r, p)``: the summed index of ``U`` leaves and the new one is appended.

    Within :data:`_PRODUCT_MAX` the log-sum-exp stage is the matrix product
    ``top + log(exp(U - top)^T K)`` with ``K = exp(-B)`` and ``top`` the
    maximum of ``U`` over the summed axis, which needs no ``q x r x p``
    temporary; beyond it ``K`` would underflow, and the stage subtracts,
    maximizes and exponentiates the ``q x r x p`` exponents themselves. The
    choice is made per axis, once per :func:`_row_passes` call.

    The max-plus stage :meth:`max` runs on flat ``(q, r p)`` rows, ``U``
    repeated ``p`` times less ``B`` tiled ``r`` times, in one buffer it owns;
    the tiling and the buffer are built on the first call for a given ``r``
    (once per solve).
    """

    def __init__(self, B):
        self.B = B
        self.product = float(B.max()) <= _PRODUCT_MAX
        if self.product:
            self.K = np.exp(-B)
            self.KB = self.K * B
        self._tiled = self._exponents = None

    def lse(self, U):
        """``log sum_b exp(U[b, r] - B[b, a])`` as an ``(r, p)`` array, and
        the stage's weights with their sums, for :meth:`mean`."""
        if self.product:
            top = U.max(axis=0)
            X = np.exp(U - top)
            S = X.T @ self.K
            return top[:, None] + np.log(S), (X, S)
        t = U[:, :, None] - self.B[:, None, :]
        top = t.max(axis=0)
        t -= top
        np.exp(t, out=t)
        s = t.sum(axis=0)
        return top + np.log(s), (t, s)

    def mean(self, weights, M):
        """The average of ``M[b, r] + B[b, a]`` over ``b`` under a stage's
        weights; ``M`` is None for zeros."""
        if self.product:
            X, S = weights
            total = X.T @ self.KB
            if M is not None:
                total += (X * M).T @ self.K
            return total / S
        E, s = weights
        t = self.B[:, None, :] if M is None else M[:, :, None] + self.B[:, None, :]
        return (E * t).sum(axis=0) / s

    def max(self, U):
        """``max_b (U[b, r] - B[b, a])`` as an ``(r, p)`` array."""
        r, p = U.shape[1], self.B.shape[1]
        if self._tiled is None or self._tiled.shape[1] != r * p:
            self._tiled = np.tile(self.B, (1, r))
            self._exponents = np.empty_like(self._tiled)
        t = self._exponents
        np.copyto(t.reshape(-1, r, p), U[:, :, None])
        t -= self._tiled
        return t.max(axis=0).reshape(r, p)


def _leading(u, stage):
    """A stage input: the grid values ``u`` with the stage's axis leading."""
    return u.reshape(stage.B.shape[0], -1)


def _grid_lse(u, stages):
    """Separable ``log sum_j exp(u_j - sum_k B_k[a_k, b_k(j)])`` of ``u`` on
    the ``(q_1, ..., q_d)`` grid, one stage per axis; the result is on the
    ``(p_1, ..., p_d)`` grid. Also returns each stage's weights."""
    weights = []
    for stage in stages:
        u, w = stage.lse(_leading(u, stage))
        weights.append(w)
    return u.ravel(), weights


def _grid_mean_cost(weights, stages) -> np.ndarray:
    """``sum_j w_j sum_k B_k[a_k, b_k(j)] / sum_j w_j`` for the weights of a
    :func:`_grid_lse` chain: each stage averages the cost carried so far plus
    its own axis term."""
    mean = None
    for w, stage in zip(weights, stages):
        mean = stage.mean(w, None if mean is None else _leading(mean, stage))
    return mean.ravel()


def _grid_max(u, stages) -> np.ndarray:
    """The max-plus chain ``max_j (u_j - sum_k B_k[a_k, b_k(j)])``, staged
    as :func:`_grid_lse`."""
    for stage in stages:
        u = stage.max(_leading(u, stage))
    return u.ravel()


class _GridRows:
    """The reductions of :class:`_DenseRows` in the log domain for a cost with
    grid factors, from per-axis stages instead of an m x n pass: over the
    cost's ``grid`` factors, at the row marginal ``w`` of its rows (or none),
    with the stages of its row chain ``row`` (``A_k^T / lam``, target axes
    summed) and column chain ``col`` (``A_k / lam``, source axes summed), a
    matrix product or in the log domain as :class:`_AxisStage` decides per
    axis. It owns a grid buffer for ``psi / lam`` and holds ``log w`` in grid
    order.

    With ``c_ij = offset + sum_k A_k[a_k(i), b_k(j)]`` and everything in units
    of ``lam``, the pass is stabilized by its own log-sum-exp rather than by
    the c-transform: the shift is the row chain over the target axes, so the
    weights are each row's softmax, ``sums`` are ones, ``log_sums`` zeros and
    ``scale`` is ``w`` itself, bitwise ``w / sums``. The exact c-transform
    is the max-plus chain over the same grid values. The column sums of ``P``
    are the column chain over the source axes of ``log w_i - shift_i / lam``,
    and ``<P, C>`` averages the axis terms under the row chain's own weights.
    The grid offset cancels in ``psi_j - c_ij - shift_i``, so only the
    reported shifts and ``<P, C>`` carry it. The pass reads no cost entries:
    its :meth:`plan` is factored, and forms its entries only when read.
    """

    absorbs = False

    def __init__(self, grid: GridFactors, lam, w, row, col):
        self.grid, self.lam, self.scale, self.row, self.col = grid, lam, w, row, col
        size = grid.rows.size
        self.sums, self.log_sums = np.ones(size), np.zeros(size)
        if w is not None:
            self._log_w = np.empty(size)
            self._log_w[grid.rows] = np.log(w)
        self._u = np.empty(grid.cols.size)

    def __call__(self, psi) -> "_GridRows":
        """The pass at ``psi``: one scatter of ``psi / lam`` and the row chain."""
        self._u[self.grid.cols] = psi / self.lam
        self._lse, self._weights = _grid_lse(self._u, self.row)
        self.shift = self.lam * self._lse[self.grid.rows] - self.grid.offset
        return self

    def max(self, psi) -> np.ndarray:
        """The exact c-transform at ``psi``, without the row chain; the other
        reductions need a new call of the pass."""
        self._u[self.grid.cols] = psi / self.lam
        return self.c_transform()

    def c_transform(self) -> np.ndarray:
        """The max-plus chain ``max_j (u_j - sum_k B_k[a_k, b_k(j)])``."""
        return self.lam * _grid_max(self._u, self.row)[self.grid.rows] - self.grid.offset

    def col_sums(self) -> np.ndarray:
        """Column sums of ``P``."""
        lse, _ = _grid_lse(self._log_w - self._lse, self.col)
        return np.exp((self._u + lse)[self.grid.cols])

    def _cost_terms(self) -> tuple[float, float]:
        """``<P, C>`` without the grid offset, and ``sum(P)``."""
        mean = self.lam * _grid_mean_cost(self._weights, self.row)[self.grid.rows]
        return float(self.scale @ mean), float(self.scale @ self.sums)

    def plan_cost(self, offset: float) -> float:
        axis_cost, mass = self._cost_terms()
        return axis_cost + (self.grid.offset + offset) * mass

    def plan(self, form, transposed: bool = False) -> TransportPlan:
        """``P`` factored: its sums and cost terms from the chains, and
        ``form()`` for its dense entries (``P.T`` with ``transposed``)."""
        terms = _PlanTerms(self.scale * self.sums, self.col_sums(), self.grid,
                           *self._cost_terms())
        return TransportPlan(form, terms.T if transposed else terms)


def _row_passes(cost: CostMatrix, lam, source: DiscreteMeasure | None = None,
                target: DiscreteMeasure | None = None, kernel_mode: bool = False):
    """The row passes over ``C`` at the source weights and over ``C.T`` at
    the target weights (at none without the measure), once ``lam`` and the
    measure sizes are checked: on a cost with grid factors outside kernel
    mode grid passes, which share their stages and read no cost entries, and
    otherwise dense passes, in kernel mode over ``K = exp(-C/lam)`` and
    ``K.T``."""
    _check_lam(lam)
    mu, nu = (None if measure is None else measure.weights for measure in (source, target))
    if any(w is not None and w.size != size for w, size in zip((mu, nu), cost.shape)):
        raise ValueError("measure sizes do not match the cost matrix")
    grid = None if kernel_mode else cost.grid
    if grid is not None:
        row = tuple(_AxisStage(A.T / lam) for A in grid.axes)
        col = tuple(_AxisStage(A / lam) for A in grid.axes)
        return _GridRows(grid, lam, mu, row, col), _GridRows(grid.T, lam, nu, col, row)
    C = cost.entries
    if not kernel_mode:
        return _DenseRows(C, lam, mu), _DenseRows(C.T, lam, nu)
    with np.errstate(over="ignore"):
        K = np.exp(-C / lam)
    return _DenseRows(C, lam, mu, K), _DenseRows(C.T, lam, nu, K.T)


def _row_max(psi: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Row maxima ``max_j (psi_j - c_ij)``, taken a block of rows at a time
    through one reused buffer, so no m x n array is allocated. Each row is
    reduced whole, so blocking leaves every value bitwise unchanged."""
    m, n = C.shape
    step = max(1, _BLOCK_BYTES // (8 * n))
    buf = np.empty((min(step, m), n))
    out = np.empty(m)
    for start in range(0, m, step):
        block = buf[:min(step, m - start)]
        np.subtract(psi, C[start:start + step], out=block)
        block.max(axis=1, out=out[start:start + step])
    return out


def c_transform(psi, cost: CostMatrix) -> np.ndarray:
    """Per-row conjugate ``max_j (psi_j - c_ij)``, one value per source atom.

    On a cost with grid factors it is the max-plus chain over the axes,
    which subtracts one axis term at a time and so agrees with the dense
    maximum to rounding; otherwise it is taken over ``entries``.
    """
    # No smoothing enters: a pass at lam = 1 takes its max in cost units.
    return _row_passes(cost, 1.0)[0].max(_psi_array(psi))


def smoothed_c_transform(psi, cost: CostMatrix, lam: float) -> np.ndarray:
    """Log-Sum-Exp smoothing of the c-transform, one value per source atom:

        lam * log(sum_j exp((psi_j - c_ij)/lam)) - lam * log(n)

    Always finite for ``lam > 0`` and sandwiched within ``lam * log n`` below
    the exact c-transform.
    """
    rows = _row_passes(cost, lam)[0](_psi_array(psi))
    return rows.shift + lam * (rows.log_sums - math.log(cost.shape[1]))


def energy(psi, source: DiscreteMeasure, target: DiscreteMeasure, cost: CostMatrix) -> float:
    """Dual Kantorovich energy ``E(psi) = sum_i mu_i max_j(psi_j - c_ij) - nu . psi``.

    The transport-cost estimate is ``-E(psi)`` at the minimizer. Invariant
    under ``psi -> psi + k * 1``.
    """
    psi = _psi_array(psi)
    return float(source.weights @ c_transform(psi, cost) - target.weights @ psi)


def smoothed_energy(
    psi,
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    cost: CostMatrix,
    lam: float,
) -> float:
    """Smoothed dual energy: the c-transform max replaced by its Log-Sum-Exp.

    Satisfies ``E_lam(psi) <= E(psi) <= E_lam(psi) + lam * log n`` for every
    ``psi``.
    """
    psi = _psi_array(psi)
    return float(source.weights @ smoothed_c_transform(psi, cost, lam) - target.weights @ psi)


def smoothed_gradient(
    psi,
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    cost: CostMatrix,
    lam: float,
) -> np.ndarray:
    """Gradient of the smoothed energy:

        g_j = sum_i mu_i * softmax_i((psi - c_i)/lam)_j - nu_j

    where ``softmax_i`` is the row softmax. Softmax rows sum to one, so the
    gradient entries sum to zero up to rounding.
    """
    rows = _row_passes(cost, lam, source, target)[0](_psi_array(psi))
    return rows.col_sums() - target.weights


def hessian_apply(
    psi,
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    cost: CostMatrix,
    lam: float,
    direction,
) -> np.ndarray:
    """Hessian-vector product of the smoothed energy without materializing the
    n x n matrix:

        H w = (1/lam) * sum_i mu_i (s_i * w - (s_i . w) s_i)

    with ``s_i`` the row softmax. ``H 1 = 0`` (the all-ones direction spans the
    null space) and the largest eigenvalue is at most ``1/lam``. It reads the
    row softmax as a matrix, so it alone runs the dense pass on every cost,
    and on a cost with grid factors forms and keeps its entries.
    """
    w = np.asarray(direction, dtype=float)
    rows = _DenseRows(cost.entries, _check_lam(lam))(_psi_array(psi))
    softmax = rows.weights
    softmax /= rows.sums[:, None]
    mu = source.weights
    row_dots = softmax @ w
    return ((mu @ softmax) * w - (mu * row_dots) @ softmax) / lam


def project_H(z) -> np.ndarray:
    """Project onto the zero-mean hyperplane: subtract the coordinate mean."""
    z = np.asarray(z, dtype=float)
    # Bitwise z.mean(), without its dispatch.
    return z - z.sum() / z.size


def recover_plan(
    psi,
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    cost: CostMatrix,
    lam: float,
) -> TransportPlan:
    """Approximate plan induced by a potential:

        P_ij = mu_i * softmax_i((psi - c_i)/lam)_j

    Row sums equal the source weights by construction (up to rounding); at the
    smoothed optimizer the column sums match the target weights as well.
    Invariant under ``psi -> psi + k * 1``. On a cost with grid factors the
    plan is factored: its sums and ``<P, C>`` come from a grid pass at
    ``psi``, and its entries, when read, from the dense pass, as on a cost
    without factors.
    """
    mu = source.weights
    psi = _psi_array(psi)
    rows = _row_passes(cost, lam, source, target)[0](psi)
    if rows.grid is None:
        return TransportPlan(rows.plan())
    psi = psi.copy()
    return rows.plan(lambda: _DenseRows(cost.entries, lam, mu)(psi).plan())
