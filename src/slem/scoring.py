"""Out-of-sample log score and RMSE on the log-intensity surface."""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .grid import GridSpec, log_factorial

DEFAULT_SCALE = 1.0 / 9.0  # test fraction 0.1 over train fraction 0.9


@dataclass(frozen=True)
class ScoreReport:
    log_score: float
    rmse_full: float | None
    rmse_interior: float | None
    runtime_seconds: float

    def to_dict(self):
        return asdict(self)


def log_score(Y_test, lambda_hat, delta, scale: float = DEFAULT_SCALE) -> float:
    """Poisson log likelihood of held-out counts under the thinned intensity:

    sum_i Y_i (log Delta_i + log lambda_i + log scale)
          - scale Delta_i lambda_i - log Y_i!

    Counts that are not finite, whole and non-negative are a ConfigError.
    """
    y = Y_test.vector() if hasattr(Y_test, "vector") else np.asarray(Y_test, dtype=float)
    lam = np.asarray(lambda_hat, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if not (y.size == lam.size == delta.size):
        raise ConfigError("log_score inputs must share one length")
    if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
        raise ConfigError("intensity must be strictly positive and finite")
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    return float(
        np.sum(y * (np.log(delta) + np.log(lam) + np.log(scale))
               - scale * delta * lam
               - log_factorial(y))
    )


def interior_mask(grid: GridSpec, margin: int = 2) -> np.ndarray:
    """Flat mask of pixels at least `margin` pixels from every edge."""
    if margin < 0 or 2 * margin >= min(grid.n1, grid.n2):
        raise ConfigError(f"margin {margin} leaves no interior on {grid.n1}x{grid.n2}")
    i1 = np.arange(grid.n) % grid.n1
    i2 = np.arange(grid.n) // grid.n1
    return ((i1 >= margin) & (i1 < grid.n1 - margin)
            & (i2 >= margin) & (i2 < grid.n2 - margin))


def rmse_log_intensity(est, truth, grid: GridSpec, margin: int = 2):
    """(full, interior) RMSE between log-intensity vectors; the interior drops
    `margin` pixels on every edge, where boundary effects concentrate.  Both
    vectors must be finite."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.size != grid.n or truth.size != grid.n:
        raise ConfigError("rmse inputs must match the grid size")
    for name, v in (("est", est), ("truth", truth)):
        if not np.all(np.isfinite(v)):
            raise ConfigError(f"rmse input {name} has a non-finite entry")
    err2 = (est - truth) ** 2
    mask = interior_mask(grid, margin)
    return float(np.sqrt(err2.mean())), float(np.sqrt(err2[mask].mean()))
