"""Dense pairwise cost matrices and the range-centering transform.

Costs are stored dense, row-major, with source atoms indexing rows; all
solver reductions are per-row. Matrices are immutable after construction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure

UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Dense m x n matrix of transport costs with cached extrema.

    ``c_min``/``c_max`` are the matrix minimum/maximum and ``spread`` is the
    range ``c_max - c_min`` used to pick the smoothing scale.
    """

    entries: np.ndarray
    c_min: float
    c_max: float

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError("cost entries must be a nonempty 2D array")
        if not np.all(np.isfinite(entries)):
            raise ValueError("cost entries must be finite")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_entries(cls, entries) -> "CostMatrix":
        entries = np.asarray(entries, dtype=float)
        return cls(entries, float(entries.min()), float(entries.max()))

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @property
    def spread(self) -> float:
        """Cost range ``c_max - c_min``."""
        return self.c_max - self.c_min


def _squared_distances(source: DiscreteMeasure, target: DiscreteMeasure) -> np.ndarray:
    """Fresh m x n array of ``||x_i - y_j||^2``, accumulated per coordinate in
    index order so entries agree bitwise with a naive double loop."""
    x, y = source.points, target.points
    if source.dimension != target.dimension:
        raise ValueError("dimension mismatch: %d vs %d" % (source.dimension, target.dimension))
    out = np.zeros((source.size, target.size))
    diff = np.empty_like(out)
    for k in range(source.dimension):
        np.subtract(x[:, k, None], y[None, :, k], out=diff)
        diff *= diff
        out += diff
    return out


def squared_euclidean(source: DiscreteMeasure, target: DiscreteMeasure) -> CostMatrix:
    """Cost ``c_ij = ||x_i - y_j||^2``, bitwise equal to a naive double loop."""
    return CostMatrix.from_entries(_squared_distances(source, target))


def power_cost(source: DiscreteMeasure, target: DiscreteMeasure, p: float) -> CostMatrix:
    """Cost ``c_ij = ||x_i - y_j||^p`` for real exponent ``p > 0``."""
    if p <= 0.0:
        raise ValueError("p must be > 0")
    entries = _squared_distances(source, target)
    # In place, with the same scalar-exponent rules as ``entries ** (p / 2)``.
    entries **= p / 2.0
    return CostMatrix.from_entries(entries)


def spherical(source: DiscreteMeasure, target: DiscreteMeasure) -> CostMatrix:
    """Great-circle cost ``c_ij = arccos(<x_i, y_j>)`` for unit-norm points.

    Inner products are clamped to [-1, 1] before arccos so rounding never
    produces NaN.
    """
    for name, mea in (("source", source), ("target", target)):
        norms = np.linalg.norm(mea.points, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            raise ValueError("not on sphere: %s points must have unit norm" % name)
    entries = source.points @ target.points.T
    np.clip(entries, -1.0, 1.0, out=entries)
    np.arccos(entries, out=entries)
    return CostMatrix.from_entries(entries)


def center(cost: CostMatrix) -> CostMatrix:
    """Shift costs by ``-(c_max + c_min)/2`` so the new extrema are ``+-spread/2``.

    A constant shift leaves optimal plans (and per-row argmaxes of
    ``psi_j - c_ij``) unchanged while making the best use of the exponent
    range available to ``exp(-c/lam)``.
    """
    mid = (cost.c_max + cost.c_min) / 2.0
    return CostMatrix.from_entries(cost.entries - mid)


def save_cost_text(cost: CostMatrix, path) -> None:
    """Write the text format: first line ``m n``, then m rows of n decimals."""
    m, n = cost.shape
    with open(path, "w") as fh:
        fh.write("%d %d\n" % (m, n))
        for row in cost.entries:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_cost_text(path) -> CostMatrix:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("cost file too short")
    m, n = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != m * n:
        raise ValueError("cost file has %d values, expected %d" % (len(body), m * n))
    return CostMatrix.from_entries(np.asarray(body, dtype=float).reshape(m, n))


def save_cost_binary(cost: CostMatrix, path) -> None:
    """Write the binary format: 8-byte header (m, n as little-endian uint32),
    then row-major little-endian float64 entries."""
    m, n = cost.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", m, n))
        fh.write(np.ascontiguousarray(cost.entries, dtype="<f8").tobytes())


def load_cost_binary(path) -> CostMatrix:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError("cost binary too short")
        m, n = struct.unpack("<II", header)
        raw = fh.read(8 * m * n)
    if len(raw) != 8 * m * n:
        raise ValueError("cost binary truncated")
    return CostMatrix.from_entries(np.frombuffer(raw, dtype="<f8").reshape(m, n).copy())
