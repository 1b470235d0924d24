"""Synthetic gridded Cox data for benchmarking.

One latent field Z per scenario; replicates share Z (and the covariates) and
differ only in the Poisson draw, so replicate spread isolates observation
noise exactly as in the estimator benchmarks.  A scenario draws its field,
design, log-intensity and Poisson mean once, on first use, and every
replicate shares those read-only arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .em import config_number
from .errors import ConfigError
from .grid import CountGrid, GridSpec, PointPattern, read_only, unflatten
from .laplace import EXP_CLAMP
from .spectral import CovParams, quasi_matern_spectrum, sample_gp


@dataclass(frozen=True, eq=False)
class SimScenario:
    grid: GridSpec
    eta_true: CovParams
    beta_true: np.ndarray          # empty for a covariance-only scenario
    replicates: int = 1
    seed: int = 0

    def _key(self):  # beta by value; + 0.0 hashes -0.0 as 0.0, which it equals
        return self.grid, self.eta_true, (self.beta_true + 0.0).tobytes(), self.replicates, self.seed

    def __eq__(self, other):
        return isinstance(other, SimScenario) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __post_init__(self):
        # its own read-only copy, so the drawn log-intensity cannot go stale
        object.__setattr__(self, "beta_true", read_only(np.array(self.beta_true, float, ndmin=1)))
        if not np.all(np.isfinite(self.beta_true)):
            raise ConfigError(f"beta must be finite, got {self.beta_true.tolist()}")
        config_number("replicates", self.replicates, integer=True, least=1)
        config_number("seed", self.seed, integer=True, least=0)

    @cached_property
    def _drawn(self):
        """(X, Z, log_lambda, mean): the replicate-invariant part, drawn on
        first use and read-only, so every replicate shares one copy.  X is
        (n, p+1), or (n, 0) for a scenario without beta; mean = Delta lambda."""
        grid = self.grid
        f = quasi_matern_spectrum(self.eta_true, grid)
        Z = sample_gp(f, self.seed)
        # an intercept column, then one standard-normal column per slope
        p1 = self.beta_true.size
        rng = np.random.default_rng([self.seed, 1])
        X = np.ones((grid.n, p1))
        X[:, 1:] = rng.standard_normal((max(p1 - 1, 0), grid.n)).T
        log_lam = X @ self.beta_true + Z
        if np.any(log_lam > EXP_CLAMP):
            raise ConfigError("scenario intensity overflows exp clamp; rescale beta or eta")
        return tuple(map(read_only, (X, Z, log_lam, grid.delta() * np.exp(log_lam))))


@dataclass(frozen=True)
class SimulatedDataset:
    Y: CountGrid
    X: np.ndarray                  # (n, 0) for a covariance-only scenario
    Z_true: np.ndarray
    log_lambda_true: np.ndarray
    replicate_index: int


def scenario_design(scenario: SimScenario):
    """(X, Z, log_lambda): the replicate-invariant part of a scenario, drawn
    once per scenario object and read-only.  X is (n, p+1), or (n, 0) for a
    scenario without beta."""
    return scenario._drawn[:3]


def simulate_dataset(scenario: SimScenario, replicate_index: int = 0) -> SimulatedDataset:
    """Counts for one replicate: Y_i ~ Poisson(Delta_i lambda_i), seeded by
    (scenario.seed, replicate_index) so replicates are independent but
    reproducible.  X, Z_true and log_lambda_true are the scenario's shared
    read-only arrays."""
    if not 0 <= replicate_index < scenario.replicates:
        raise ConfigError(
            f"replicate index {replicate_index} outside 0..{scenario.replicates - 1}"
        )
    X, Z, log_lam, mean = scenario._drawn
    rng = np.random.default_rng([scenario.seed, 2, replicate_index])
    counts = rng.poisson(mean)
    grid = scenario.grid
    Y = CountGrid(unflatten(counts, grid.n1, grid.n2), grid)
    return SimulatedDataset(Y, X, Z, log_lam, replicate_index)


def scatter_points(Y: CountGrid, seed) -> PointPattern:
    """Place each count uniformly inside its pixel.

    Given the piecewise-constant intensity this is an exact point-pattern
    realization, so count-level simulations can feed the point-level
    train/test split.  On unit-pixel grids binning the result recovers Y
    exactly; on scaled grids a point can sit within one float rounding of a
    pixel edge.
    """
    grid = Y.grid
    rng = np.random.default_rng(seed)
    counts = Y.vector().astype(int)
    reps = np.repeat(np.arange(grid.n), counts)
    i1, i2 = reps % grid.n1, reps // grid.n1
    u = rng.random((reps.size, 2))
    x = grid.x_min + (i1 + u[:, 0]) * grid.pixel_width_x
    y = grid.y_min + (i2 + u[:, 1]) * grid.pixel_width_y
    return PointPattern(np.column_stack([x, y]))
