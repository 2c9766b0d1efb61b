"""Dual Kantorovich machinery: c-transform, its Log-Sum-Exp smoothing, the
dual energy with analytic gradient and Hessian-vector products, projection
onto the zero-mean hyperplane, and recovery of the approximate plan.

All operations are pure functions of immutable inputs. Every smoothed
quantity, here and in both solvers, comes from one row pass over
``exp((psi_j - c_ij - shift_i)/lam)``. The default path is log-domain: the
shift is the row maximum of ``psi_j - c_ij`` (the c-transform), so any
smoothing scale ``lam > 0`` is representable. Given the multiplicative kernel
``K = exp(-C/lam)`` the pass returns ``K * exp(psi/lam)`` with zero shift;
this opt-in path is kept for solvers that want to expose its overflow
behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import CostMatrix
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
        if self.normalized and abs(values.sum()) > 1e-10 * values.size:
            raise ValueError("normalized potential must have zero mean")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, n: int) -> "Potential":
        return cls(np.zeros(n), normalized=True)


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing scale ``lam`` (cost units), optionally derived as spread/T."""

    lam: float
    T: float | None = None

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("lam must be > 0")

    @classmethod
    def from_divisor(cls, cost: CostMatrix, T: float) -> "SmoothingParams":
        if not T > 0.0:
            raise ValueError("T must be > 0")
        return cls(cost.spread / T, T)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Dense nonnegative coupling. Row sums approximate (or equal) the source
    weights, column sums the target weights."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise ValueError("plan must be a 2D array")
        if not np.all(np.isfinite(entries)):
            raise ValueError("plan entries must be finite")
        if np.any(entries < 0.0):
            raise ValueError("plan entries must be >= 0")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.entries.sum(axis=0)

    def save_text(self, path) -> None:
        """Text format: first line ``m n``, then m rows of n decimals."""
        m, n = self.entries.shape
        with open(path, "w") as fh:
            fh.write("%d %d\n" % (m, n))
            for row in self.entries:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")

    def save_csv_triples(self, path, threshold: float = 0.0) -> None:
        """CSV rows ``i,j,p_ij`` for entries strictly above ``threshold``."""
        with open(path, "w") as fh:
            fh.write("i,j,p\n")
            rows, cols = np.nonzero(self.entries > threshold)
            for i, j in zip(rows, cols):
                fh.write("%d,%d,%s\n" % (i, j, repr(float(self.entries[i, j]))))


def _psi_array(psi) -> np.ndarray:
    values = psi.values if isinstance(psi, Potential) else psi
    return np.asarray(values, dtype=float)


def _row_pass(psi: np.ndarray, C: np.ndarray, lam: float, K: np.ndarray | None = None):
    """The smoothed c-transform of ``psi`` over the rows of ``C``.

    Returns ``(shift, weights, sums)`` with
    ``weights_ij = exp((psi_j - c_ij - shift_i)/lam)`` and ``sums`` its row
    sums, so the smoothed c-transform is ``shift + lam * log(sums / n)``. In
    the log domain ``shift`` is the row maximum of ``psi_j - c_ij``, taken
    before the division by ``lam`` so constant rows are reproduced exactly.
    Given the kernel ``K = exp(-C/lam)`` the shift is zero and the weights
    are ``K * exp(psi/lam)``, which may overflow to inf/nan.
    """
    if not lam > 0.0:
        raise ValueError("lam must be > 0")
    if K is None:
        # Built in place so the pass allocates one m x n buffer.
        weights = psi[None, :] - C
        shift = weights.max(axis=1)
        weights -= shift[:, None]
        weights /= lam
        np.exp(weights, out=weights)
    else:
        shift = np.zeros(K.shape[0])
        weights = K * np.exp(psi / lam)[None, :]
    return shift, weights, weights.sum(axis=1)


def c_transform(psi, cost: CostMatrix) -> np.ndarray:
    """Per-row conjugate ``max_j (psi_j - c_ij)``, one value per source atom."""
    vals = _psi_array(psi)[None, :] - cost.entries
    return vals.max(axis=1)


def c_transform_argmax(psi, cost: CostMatrix) -> np.ndarray:
    """Row indices achieving the c-transform max; ties break to the lowest j."""
    vals = _psi_array(psi)[None, :] - cost.entries
    return vals.argmax(axis=1)


def smoothed_c_transform(psi, cost: CostMatrix, lam: float) -> np.ndarray:
    """Log-Sum-Exp smoothing of the c-transform, one value per source atom:

        lam * log(sum_j exp((psi_j - c_ij)/lam)) - lam * log(n)

    Always finite for ``lam > 0`` and sandwiched within ``lam * log n`` below
    the exact c-transform.
    """
    shift, _, sums = _row_pass(_psi_array(psi), cost.entries, lam)
    return shift + lam * (np.log(sums) - math.log(cost.shape[1]))


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
    kernel_mode: bool = False,
) -> float:
    """Smoothed dual energy: the c-transform max replaced by its Log-Sum-Exp.

    Satisfies ``E_lam(psi) <= E(psi) <= E_lam(psi) + lam * log n`` for every
    ``psi``. With ``kernel_mode`` the log-sum is evaluated through the
    multiplicative kernel and may overflow to inf/nan; callers opting in are
    expected to check finiteness.
    """
    psi = _psi_array(psi)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        K = np.exp(-cost.entries / lam) if kernel_mode else None
        shift, _, sums = _row_pass(psi, cost.entries, lam, K)
        rows = shift + lam * (np.log(sums) - math.log(cost.shape[1]))
    return float(source.weights @ rows - target.weights @ psi)


def smoothed_gradient(
    psi,
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    cost: CostMatrix,
    lam: float,
    kernel_mode: bool = False,
) -> np.ndarray:
    """Gradient of the smoothed energy:

        g_j = sum_i mu_i * softmax_i((psi - c_i)/lam)_j - nu_j

    where ``softmax_i`` is the row softmax. Softmax rows sum to one, so the
    gradient entries sum to zero up to rounding. ``kernel_mode`` is as in
    :func:`smoothed_energy`.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        K = np.exp(-cost.entries / lam) if kernel_mode else None
        _, weights, sums = _row_pass(_psi_array(psi), cost.entries, lam, K)
        return (source.weights / sums) @ weights - target.weights


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
    null space) and the largest eigenvalue is at most ``1/lam``.
    """
    w = np.asarray(direction, dtype=float)
    _, weights, sums = _row_pass(_psi_array(psi), cost.entries, lam)
    softmax = weights / sums[:, None]
    mu = source.weights
    row_dots = softmax @ w
    return ((mu @ softmax) * w - (mu * row_dots) @ softmax) / lam


def project_H(z) -> np.ndarray:
    """Project onto the zero-mean hyperplane: subtract the coordinate mean."""
    z = np.asarray(z, dtype=float)
    return z - z.mean()


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
    Invariant under ``psi -> psi + k * 1``.
    """
    _, weights, sums = _row_pass(_psi_array(psi), cost.entries, lam)
    entries = (source.weights / sums)[:, None] * weights
    return TransportPlan(entries)
