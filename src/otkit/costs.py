"""Pairwise cost matrices, their grid factors, and the range-centering
transform.

Costs are m x n, row-major, with source atoms indexing rows; all solver
reductions are per-row. Costs are immutable after construction.

When both measures of a squared Euclidean cost are full Cartesian grids in
two or more dimensions (in any atom order), the cost keeps only its
:class:`GridFactors` and extrema: ``c_ij`` is a constant plus one small
per-axis term per coordinate. The solvers evaluate their log-domain passes
from them one axis at a time, and ``center`` shifts only the constant. The
dense ``entries`` of such a cost are formed, bitwise as for a cost without
factors, only when something reads them: kernel mode, the exact oracle, the
text export and ``hessian_apply``. Every other builder stores its entries
dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .measures import DiscreteMeasure

UNIT_NORM_TOL = 1e-9
# Size of the row blocks of every walk that takes an m x n array a block of
# rows at a time.
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class GridFactors:
    """Separable form of a cost between two full grids:

        c_ij = offset + sum_k axes[k][a_k(i), b_k(j)]

    ``axes[k]`` is the ``p_k x q_k`` matrix of squared coordinate differences
    along axis ``k``. ``rows[i]`` is the flat (C-order) index of source atom
    ``i`` in the ``(p_1, ..., p_d)`` grid, whose multi-index is
    ``(a_1(i), ..., a_d(i))``; ``cols`` does the same for target atoms.
    """

    axes: tuple
    rows: np.ndarray
    cols: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        for array in (*self.axes, self.rows, self.cols):
            array.flags.writeable = False

    @property
    def shape(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Source and target grid shapes."""
        return tuple(a.shape[0] for a in self.axes), tuple(a.shape[1] for a in self.axes)

    @property
    def T(self) -> "GridFactors":
        """Factors of the transposed cost, target atoms indexing rows."""
        return GridFactors(tuple(a.T for a in self.axes), self.cols, self.rows, self.offset)

    def same_axes(self, other: "GridFactors") -> bool:
        """Whether ``other`` has these axis terms and grid indices, so that
        the two costs differ by the difference of their offsets alone."""
        mine, theirs = (*self.axes, self.rows, self.cols), (*other.axes, other.rows, other.cols)
        return len(mine) == len(theirs) and all(
            a is b or np.array_equal(a, b) for a, b in zip(mine, theirs))


def _grid_layout(points: np.ndarray):
    """Per-axis sorted coordinates and each atom's flat grid index, or None
    unless the points are a full Cartesian grid (every index tuple exactly
    once) in two or more dimensions."""
    if points.shape[1] < 2:
        return None
    values, indices = [], []
    for column in points.T:
        axis, index = np.unique(column, return_inverse=True)
        values.append(axis)
        indices.append(index.ravel())
    shape = tuple(axis.size for axis in values)
    if math.prod(shape) != points.shape[0]:
        return None
    flat = np.ravel_multi_index(indices, shape)
    if np.bincount(flat).max() > 1:
        return None
    return values, flat


def _grid_factors(source: DiscreteMeasure, target: DiscreteMeasure) -> GridFactors | None:
    layouts = _grid_layout(source.points), _grid_layout(target.points)
    if None in layouts:
        return None
    (x_axes, rows), (y_axes, cols) = layouts
    # Same arithmetic as ``_squared_distances``, one axis at a time.
    axes = tuple(np.square(np.subtract.outer(x, y)) for x, y in zip(x_axes, y_axes))
    return GridFactors(axes, rows, cols)


class CostMatrix:
    """m x n matrix of transport costs with cached extrema.

    ``c_min``/``c_max`` are the matrix minimum/maximum and ``spread`` is the
    range ``c_max - c_min`` used to pick the smoothing scale. ``grid`` holds
    the separable factors of the same costs when they are known
    (:func:`squared_euclidean` between full grids), else None.

    ``entries`` is the dense array, or, for a cost with ``grid``, a function
    that forms it: it is then called on the first read of ``entries`` and
    its result kept, and until then the cost holds only its factors and
    extrema. Every entry lies between the extrema, so such a cost is finite
    when they and the axis terms are.
    """

    def __init__(self, entries, c_min: float, c_max: float, grid: GridFactors | None = None):
        self.c_min, self.c_max, self.grid = c_min, c_max, grid
        if callable(entries):
            if grid is None:
                raise ValueError("only a cost with grid factors forms its entries on demand")
            if not (math.isfinite(c_min) and math.isfinite(c_max)
                    and all(np.isfinite(A).all() for A in grid.axes)):
                raise ValueError("cost entries must be finite")
            self._entries, self._form = None, entries
            self.shape = (grid.rows.size, grid.cols.size)
            return
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError("cost entries must be a nonempty 2D array")
        if not np.all(np.isfinite(entries)):
            raise ValueError("cost entries must be finite")
        entries.flags.writeable = False
        self._entries, self._form = entries, None
        self.shape = entries.shape

    @classmethod
    def from_entries(cls, entries) -> "CostMatrix":
        entries = np.asarray(entries, dtype=float)
        return cls(entries, float(entries.min()), float(entries.max()))

    @property
    def entries(self) -> np.ndarray:
        """The dense m x n costs, formed on the first read if not held."""
        if self._entries is None:
            entries = self._form()
            entries.flags.writeable = False
            self._entries, self._form = entries, None
        return self._entries

    @property
    def spread(self) -> float:
        """Cost range ``c_max - c_min``."""
        return self.c_max - self.c_min


def _check_dimensions(source: DiscreteMeasure, target: DiscreteMeasure) -> None:
    if source.dimension != target.dimension:
        raise ValueError("dimension mismatch: %d vs %d" % (source.dimension, target.dimension))


def _squared_distances(source: DiscreteMeasure, target: DiscreteMeasure) -> np.ndarray:
    """Fresh m x n array of ``||x_i - y_j||^2``, accumulated per coordinate in
    index order so entries agree bitwise with a naive double loop.

    The first coordinate's squares are written straight into the result; the
    others go through a difference buffer of a few rows, so building the
    matrix allocates one m x n array.
    """
    x, y = source.points, target.points
    _check_dimensions(source, target)
    m, n = source.size, target.size
    out = np.empty((m, n))
    np.subtract(x[:, 0, None], y[None, :, 0], out=out)
    out *= out
    step = max(1, _BLOCK_BYTES // (8 * n))
    diff = np.empty((min(step, m), n))
    for start in range(0, m, step):
        block = out[start:start + step]
        buf = diff[:block.shape[0]]
        for k in range(1, source.dimension):
            np.subtract(x[start:start + step, k, None], y[None, :, k], out=buf)
            buf *= buf
            block += buf
    return out


def squared_euclidean(source: DiscreteMeasure, target: DiscreteMeasure) -> CostMatrix:
    """Cost ``c_ij = ||x_i - y_j||^2``, bitwise equal to a naive double loop.

    Between two full grids in two or more dimensions the result keeps only
    its :class:`GridFactors` and forms its entries on first read. Its
    extrema are then the per-axis extrema summed in axis order: every
    combination of axis terms occurs and rounded addition is monotone, so
    they are bitwise those of the summed entries.
    """
    _check_dimensions(source, target)
    grid = _grid_factors(source, target)
    if grid is None:
        entries = _squared_distances(source, target)
        return CostMatrix(entries, float(entries.min()), float(entries.max()))
    return CostMatrix(lambda: _squared_distances(source, target),
                      sum(float(A.min()) for A in grid.axes),
                      sum(float(A.max()) for A in grid.axes), grid)


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
    _check_dimensions(source, target)
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
    range available to ``exp(-c/lam)``. A cost with grid factors shifts only
    their offset; its entries, if read, are the old ones less the midpoint,
    formed then.
    """
    mid = (cost.c_max + cost.c_min) / 2.0
    # Subtracting a constant rounds monotonically, so the shifted extrema are
    # those of the shifted entries, without two more m x n scans.
    c_min, c_max = float(cost.c_min - mid), float(cost.c_max - mid)
    if cost.grid is None:
        return CostMatrix(cost.entries - mid, c_min, c_max)
    return CostMatrix(lambda: _shifted(cost, mid), c_min, c_max,
                      replace(cost.grid, offset=cost.grid.offset - mid))


def _shifted(cost: CostMatrix, mid: float) -> np.ndarray:
    """A fresh ``cost.entries - mid``, which leaves unformed entries of
    ``cost`` unformed and unkept."""
    if cost._entries is not None:
        return cost._entries - mid
    entries = cost._form()
    entries -= mid
    return entries


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
    if m <= 0 or n <= 0:
        raise ValueError("cost file header needs positive sizes, got %d %d" % (m, n))
    body = tokens[2:]
    if len(body) != m * n:
        raise ValueError("cost file has %d values, expected %d" % (len(body), m * n))
    return CostMatrix.from_entries(np.asarray(body, dtype=float).reshape(m, n))
