"""Minute-resolution raster stacks -> block summaries -> a standardized design.

The hour of pre-strike imagery is cut into 10-minute blocks; each block
yields a change raster (last frame minus first) and a mean raster.  A single
summary function (avg/min/max/range across blocks) is then picked per family
by single-covariate Poisson fits against the counts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .grid import GridSpec, flatten, log_factorial, read_only

BLOCK_LEN = 10
_REDUCERS = {"avg": np.mean, "min": np.min, "max": np.max, "range": np.ptp}
SUMMARY_FNS = tuple(_REDUCERS)


@dataclass(frozen=True)
class MinuteStack:
    """(T, n1, n2) frame stack; NaN marks missing pixels. T must split into
    10-minute blocks."""

    frames: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        fr = np.asarray(self.frames, dtype=float)
        if fr.ndim != 3 or fr.shape[1:] != (self.grid.n1, self.grid.n2):
            raise ConfigError(
                f"frame stack must be (T, {self.grid.n1}, {self.grid.n2}), got {fr.shape}"
            )
        if fr.shape[0] % BLOCK_LEN != 0 or fr.shape[0] == 0:
            raise ConfigError(f"frame count {fr.shape[0]} is not a multiple of {BLOCK_LEN}")
        object.__setattr__(self, "frames", read_only(fr.copy()))

    @property
    def n_blocks(self):
        return self.frames.shape[0] // BLOCK_LEN

    def mask(self):
        return np.isnan(self.frames)


@dataclass(frozen=True)
class CovariateMatrix:
    """Standardized design: intercept first, every other column mean 0 / sd 1."""

    X: np.ndarray
    names: tuple
    n_imputed: int = 0

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.names):
            raise ConfigError("design matrix shape does not match column names")
        object.__setattr__(self, "X", X)


def block_summaries(stack: MinuteStack):
    """Per-block change (last - first frame) and mean rasters.

    Returns (diffs, means), each (n_blocks, n1, n2).  A pixel missing in any
    frame of a block is missing in that block's summaries.
    """
    blocks = stack.frames.reshape(stack.n_blocks, BLOCK_LEN, *stack.frames.shape[1:])
    diffs = blocks[:, -1] - blocks[:, 0]
    diffs[np.isnan(blocks).any(axis=1)] = np.nan
    return diffs, blocks.mean(axis=1)  # NaN propagates into the mean


def summarize_blocks(blocks: np.ndarray, fn: str) -> np.ndarray:
    """Collapse (B, n1, n2) block rasters across blocks with avg/min/max/range."""
    if fn not in SUMMARY_FNS:
        raise ConfigError(f"summary fn must be one of {SUMMARY_FNS}, got {fn!r}")
    return _REDUCERS[fn](np.asarray(blocks, dtype=float), axis=0)


# ---------------------------------------------------------------------------
# Poisson GLM fits and single-covariate selection
# ---------------------------------------------------------------------------


def _poisson_irls(y, delta, D, max_iter=50, tol=1e-8, ridge=1e-8):
    """Fit log lambda = D coef with offset log delta for an (n, p) design D.
    Returns (coef, loglik); a diverged fit reports -inf.

    The first weighted solve starts from mu = y + 0.1, as R's glm does, so no
    column has to be the intercept.
    """
    mu = y + 0.1
    eta = np.log(mu / delta)  # log lambda, the offset excluded
    coef = np.zeros(D.shape[1])
    dev = _poisson_deviance(y, mu)
    for _ in range(max_iter):
        z = eta + (y - mu) / np.maximum(mu, 1e-300)
        A = D.T @ (mu[:, None] * D) + ridge * np.eye(D.shape[1])
        try:
            coef_new = np.linalg.solve(A, D.T @ (mu * z))
        except np.linalg.LinAlgError:
            return coef, -np.inf
        if not np.all(np.isfinite(coef_new)):
            return coef, -np.inf
        coef = coef_new
        eta = D @ coef
        mu = delta * np.exp(np.clip(eta, -500, 500))
        dev_new = _poisson_deviance(y, mu)
        converged = abs(dev_new - dev) <= tol * (abs(dev) + 1e-12)
        dev = dev_new
        if converged:
            break
    ll = float(np.sum(y * np.log(np.maximum(mu, 1e-300)) - mu - log_factorial(y)))
    return coef, ll


def _poisson_deviance(y, mu):
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(y > 0, y * np.log(np.maximum(y, 1e-300) / np.maximum(mu, 1e-300)), 0.0)
    return float(2.0 * np.sum(term - (y - mu)))


def select_summary(Y, delta, candidates):
    """Pick the candidate raster with the best single-covariate Poisson fit.

    candidates: list of (n1, n2) rasters (NaN allowed; mean-imputed for the
    fit).  Returns (index, log_likelihoods).  Ties go to the first index.
    """
    y = Y.vector()
    delta = np.asarray(delta, dtype=float)
    lls = []
    for cand in candidates:
        x = flatten(np.asarray(cand, dtype=float))
        finite = np.isfinite(x)
        if not finite.any():
            lls.append(-np.inf)
            continue
        if not finite.all():
            x = np.where(finite, x, x[finite].mean())
        lls.append(_poisson_irls(y, delta, np.column_stack([np.ones_like(x), x]))[1])
    if np.all(np.isneginf(lls)):
        raise NumericalError("every candidate covariate diverged in selection")
    return int(np.argmax(lls)), lls


def standardize(columns, grid: GridSpec, names=None) -> CovariateMatrix:
    """Center/scale rasters into a design matrix with a leading intercept.

    Missing pixels are imputed to the column mean (exactly 0 after
    standardization).  A constant column is an error: it cannot be scaled and
    would alias the intercept.
    """
    cols = [flatten(np.asarray(c, dtype=float)) for c in columns]
    if names is None:
        names = [f"x{j + 1}" for j in range(len(cols))]
    out = [np.ones(grid.n)]
    imputed = 0
    for j, x in enumerate(cols):
        if x.size != grid.n:
            raise ConfigError(f"covariate column {names[j]} has length {x.size}, expected {grid.n}")
        finite = np.isfinite(x)
        if not finite.any():
            raise ConfigError(f"covariate column {names[j]} is entirely missing")
        if not finite.all():
            imputed += int((~finite).sum())
            x = np.where(finite, x, x[finite].mean())
        sd = float(np.std(x, ddof=1))
        if sd == 0.0 or not np.isfinite(sd):
            raise ConfigError(f"covariate column {names[j]} is constant; cannot standardize")
        out.append((x - x.mean()) / sd)
    X = np.column_stack(out)
    return CovariateMatrix(X, tuple(["intercept"] + list(names)), imputed)
