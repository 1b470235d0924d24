"""Regular lattice over a rectangular domain, and point-pattern binning.

Every module flattens n1 x n2 fields the same way: i1 (numpy axis 0) runs
fastest, so pixel (i1, i2) sits at vector position i1 + n1*i2.  Keeping a
single convention is what lets the spatial and spectral code agree on which
entry of a vector is which pixel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def flatten(field):
    """(n1, n2) array -> n-vector, i1 (numpy axis 0) fastest."""
    return np.asarray(field).reshape(-1, order="F")


def unflatten(vec, n1, n2):
    """n-vector -> (n1, n2) array, inverse of flatten."""
    return np.asarray(vec).reshape((n1, n2), order="F")


def read_only(a: np.ndarray) -> np.ndarray:
    """a, flagged read-only: for arrays that are cached or shared."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GridSpec:
    """Pixel counts and domain bounds; pixel area is derived, never stored."""

    n1: int
    n2: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ConfigError(f"grid must have positive pixel counts, got {self.n1}x{self.n2}")
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(map(math.isfinite, bounds)):
            raise ConfigError(f"grid domain bounds must be finite, got {bounds}")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ConfigError("grid domain bounds must have positive extent")

    @classmethod
    def unit(cls, n1, n2):
        """Grid with unit pixels on [0, n1] x [0, n2]."""
        return cls(n1, n2, 0.0, float(n1), 0.0, float(n2))

    @property
    def n(self):
        return self.n1 * self.n2

    @property
    def pixel_width_x(self):
        return (self.x_max - self.x_min) / self.n1

    @property
    def pixel_width_y(self):
        return (self.y_max - self.y_min) / self.n2

    @property
    def pixel_area(self):
        return self.pixel_width_x * self.pixel_width_y

    def delta(self):
        """Exposure Delta as an n-vector (constant on a regular grid)."""
        return np.full(self.n, self.pixel_area)

    def pixel_centers(self):
        """(n, 2) array of pixel center coordinates in canonical order."""
        cx = self.x_min + (np.arange(self.n1) + 0.5) * self.pixel_width_x
        cy = self.y_min + (np.arange(self.n2) + 0.5) * self.pixel_width_y
        c1 = np.broadcast_to(cx[:, None], (self.n1, self.n2))
        c2 = np.broadcast_to(cy[None, :], (self.n1, self.n2))
        return np.column_stack([flatten(c1), flatten(c2)])


@dataclass(frozen=True)
class PointPattern:
    """Event locations, one (x, y) row per point.

    Points outside the domain are allowed in storage; binning excludes them
    (use domain_mask to count what will be dropped).
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ConfigError(f"point pattern must be (l, 2), got shape {pts.shape}")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]


def check_counts(vals) -> np.ndarray:
    """The one rule for event counts: finite, whole, non-negative and below
    2**63.  Returns the counts as an integer array; anything else is a
    ConfigError."""
    vals = np.asarray(vals)
    integer = np.issubdtype(vals.dtype, np.integer)
    if not integer and (not np.all(np.isfinite(vals)) or np.any(vals != np.round(vals))):
        raise ConfigError("counts must be finite integers")
    if np.any(vals < 0):
        raise ConfigError("counts must be non-negative")
    if not integer:
        # checked before the cast, which would wrap these to negative int64
        if np.any(vals >= 2.0 ** 63):
            raise ConfigError("counts are too large: they must be below 2**63")
        vals = vals.astype(np.int64)
    return vals


def log_factorial(counts) -> np.ndarray:
    """log(y!) for each count y, checked by check_counts.

    math.lgamma runs once per distinct count: event counts repeat heavily,
    so this is a handful of scalar calls, and it keeps scipy.special off the
    import path.
    """
    values, index = np.unique(check_counts(counts), return_inverse=True)
    table = np.fromiter((math.lgamma(v + 1.0) for v in values.tolist()), float, values.size)
    return table[index].reshape(np.shape(counts))


@dataclass(frozen=True)
class CountGrid:
    """Per-pixel event counts on a GridSpec lattice."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != (self.grid.n1, self.grid.n2):
            raise ConfigError(
                f"count grid shape {vals.shape} does not match grid {self.grid.n1}x{self.grid.n2}"
            )
        object.__setattr__(self, "values", read_only(check_counts(vals).copy()))

    def vector(self):
        return flatten(self.values).astype(float)

    def total(self):
        return int(self.values.sum())


def domain_mask(pattern: PointPattern, grid: GridSpec):
    """Boolean mask of points inside the closed domain rectangle."""
    x, y = pattern.points[:, 0], pattern.points[:, 1]
    with np.errstate(invalid="ignore"):
        return (
            (x >= grid.x_min) & (x <= grid.x_max) & (y >= grid.y_min) & (y <= grid.y_max)
        )


def bin_points(pattern: PointPattern, grid: GridSpec) -> CountGrid:
    """Count points per pixel.

    Pixels are half-open (closed on the low edge), except the domain maximum
    which folds into the last pixel, so a point on an interior boundary goes
    to the larger-index pixel and nothing on the rim is lost.
    """
    keep = domain_mask(pattern, grid)
    pts = pattern.points[keep]
    i1 = np.floor((pts[:, 0] - grid.x_min) / grid.pixel_width_x).astype(np.int64)
    i2 = np.floor((pts[:, 1] - grid.y_min) / grid.pixel_width_y).astype(np.int64)
    i1 = np.clip(i1, 0, grid.n1 - 1)  # <-- x == x_max folds into last pixel
    i2 = np.clip(i2, 0, grid.n2 - 1)
    counts = np.bincount(i1 * grid.n2 + i2, minlength=grid.n).reshape(grid.n1, grid.n2)
    return CountGrid(counts, grid)


def split_train_test(pattern: PointPattern, fraction: float, seed: int):
    """Random point-level split; returns (train, test) PointPatterns.

    Subsampling acts on points, not pixels, so test counts stay Poisson.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"train fraction must be in (0, 1), got {fraction}")
    ell = len(pattern)
    n_train = int(round(fraction * ell))
    if n_train == 0 or n_train == ell:
        raise ConfigError(
            f"split of {ell} points at fraction {fraction} leaves an empty train or test set"
        )
    perm = np.random.default_rng(seed).permutation(ell)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return PointPattern(pattern.points[train_idx]), PointPattern(pattern.points[test_idx])
