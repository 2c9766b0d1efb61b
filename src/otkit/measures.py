"""Discrete probability measures: validation, normalization, generation, file I/O.

A measure is a weighted point cloud with strictly positive weights summing to
one. Instances are immutable after construction and safe to share across
threads; all builders are single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Weighted point cloud ``sum_i w_i * delta(x - x_i)`` with ``sum_i w_i = 1``.

    Attributes
    ----------
    points : (m, d) float array
        Support locations, one row per atom.
    weights : (m,) float array
        Strictly positive masses summing to one (within ``WEIGHT_SUM_TOL``).
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if points.ndim != 2 or points.shape[1] < 1:
            raise ValueError("points must be a (m, d) array with d >= 1")
        if weights.ndim != 1 or weights.shape[0] != points.shape[0]:
            raise ValueError("weights length must match number of points")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights <= 0.0):
            raise ValueError("zero-weight atom: all weights must be > 0")
        if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1 within %g" % WEIGHT_SUM_TOL)
        points.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def normalize(raw_weights) -> np.ndarray:
    """Rescale nonnegative masses to sum to one, preserving proportions.

    Raises
    ------
    ValueError
        "non-finite mass" if any input weight is NaN or infinite, "negative
        mass" if any is negative, "degenerate measure" if all are zero.
    """
    w = np.asarray(raw_weights, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("non-finite mass")
    if np.any(w < 0.0):
        raise ValueError("negative mass")
    total = w.sum()
    if total <= 0.0:
        raise ValueError("degenerate measure")
    return w / total


def from_points(points, raw_weights) -> DiscreteMeasure:
    """Build a measure from points and raw (unnormalized) weights.

    1-D ``points`` are read as one coordinate per atom. The weights pass
    through :func:`normalize`, and a zero-weight atom is rejected.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    return DiscreteMeasure(points, normalize(raw_weights))


def from_image_grid(pixel_intensities, background_noise: float = 0.01) -> DiscreteMeasure:
    """Turn a grayscale intensity grid into a measure, one atom per pixel.

    Each pixel becomes an atom at its integer (row, col) coordinate with mass
    proportional to its intensity. Pixels with intensity exactly zero receive
    ``background_noise`` mass instead, then the whole grid is normalized.
    """
    grid = np.asarray(pixel_intensities, dtype=float)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError("pixel grid must be a nonempty 2D array")
    if background_noise < 0.0:
        raise ValueError("background_noise must be >= 0")
    rows, cols = np.indices(grid.shape)
    points = np.column_stack([rows.ravel(), cols.ravel()]).astype(float)
    w = grid.ravel().copy()
    w[w == 0.0] = background_noise
    return DiscreteMeasure(points, normalize(w))


def random_measure(
    generator: np.random.Generator,
    m: int,
    d: int,
    point_dist: str = "gaussian",
    *,
    gaussian_mean: float = 0.0,
    box_low: float = 0.0,
    box_high: float = 1.0,
    project_to_sphere: bool = False,
) -> DiscreteMeasure:
    """Draw a random measure with ``m`` atoms in dimension ``d``.

    Points come from ``point_dist``: "gaussian" is N(mean * 1_d, I_d),
    "uniform" is the box [box_low, box_high]^d. With ``project_to_sphere``
    each point is rescaled to unit Euclidean norm. Weights are drawn from
    U(0, 1) and normalized. Deterministic for a fixed generator state.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if point_dist == "gaussian":
        points = generator.standard_normal((m, d)) + gaussian_mean
    elif point_dist == "uniform":
        points = generator.uniform(box_low, box_high, size=(m, d))
    else:
        raise ValueError("unknown point_dist %r" % point_dist)
    if project_to_sphere:
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise ValueError("cannot project a zero point to the sphere")
        points = points / norms
    weights = generator.uniform(0.0, 1.0, size=m)
    # U(0,1) draws of exactly 0.0 have probability ~2^-53; reject for safety.
    while np.any(weights == 0.0):
        weights[weights == 0.0] = generator.uniform(0.0, 1.0, size=int((weights == 0.0).sum()))
    return DiscreteMeasure(points, normalize(weights))


def spawn_generators(seed: int, count: int) -> list[np.random.Generator]:
    """Split one seed into ``count`` independent PCG64 generators.

    Uses ``SeedSequence.spawn`` so the streams (e.g. source vs target draws)
    are statistically independent and reproducible across runs.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def save_measure(measure: DiscreteMeasure, path) -> None:
    """Write the text format: first line ``d m``, then m lines ``w x1 ... xd``."""
    with open(path, "w") as fh:
        fh.write("%d %d\n" % (measure.dimension, measure.size))
        for w, x in zip(measure.weights, measure.points):
            fh.write(" ".join([repr(float(w))] + [repr(float(c)) for c in x]) + "\n")


def load_measure(path) -> DiscreteMeasure:
    """Read the text format written by :func:`save_measure`."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("measure file too short")
    d, m = int(tokens[0]), int(tokens[1])
    if d <= 0 or m <= 0:
        raise ValueError("measure file header needs positive sizes, got %d %d" % (d, m))
    body = tokens[2:]
    if len(body) != m * (d + 1):
        raise ValueError("measure file has %d values, expected %d" % (len(body), m * (d + 1)))
    rows = np.asarray(body, dtype=float).reshape(m, d + 1)
    return DiscreteMeasure(rows[:, 1:], rows[:, 0])


def read_pgm(path) -> np.ndarray:
    """Read a plain (P2) or binary (P5) PGM grayscale image as a float grid."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise ValueError("not a P2/P5 PGM file")

    # Header: magic, width, height, maxval; '#' comments allowed between tokens.
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    width, height, maxval = (int(t) for t in tokens)
    if width <= 0 or height <= 0:
        raise ValueError("PGM header needs positive sizes, got %d %d" % (width, height))
    if maxval <= 0:
        raise ValueError("PGM maxval must be positive")

    if magic == b"P2":
        values = np.asarray(data[pos:].split(), dtype=float)
        if values.size != width * height:
            raise ValueError("P2 pixel count mismatch")
    else:
        pos += 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        raw = data[pos : pos + width * height * dtype.itemsize]
        if len(raw) != width * height * dtype.itemsize:
            raise ValueError("P5 pixel data truncated")
        values = np.frombuffer(raw, dtype=dtype).astype(float)
    return values.reshape(height, width)


def measure_from_pgm(path, background_noise: float = 0.01) -> DiscreteMeasure:
    """Load a PGM image and convert it via :func:`from_image_grid`."""
    return from_image_grid(read_pgm(path), background_noise=background_noise)
