"""Posterior summaries of the latent field and the intensity surface.

The fitted posterior precision is Psi = Sigma^{-1} + diag(Delta exp(W*)).
Full inversion is never done; the per-pixel variance comes from inverting the
k x k wrap-around neighborhood of Psi around each pixel, which is exact when
k covers the whole grid and cheap when it does not.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import design_matrix
from .errors import ConfigError, NumericalError
from .grid import GridSpec
from .laplace import clamped_exp
from .spectral import SpectralField

BATCH = 2048  # pixels per stacked factorization batch


@dataclass(frozen=True)
class IntensityEstimate:
    z_mode: np.ndarray       # Z* = W* - X beta*
    local_var: np.ndarray    # approximate diag of Psi^{-1}
    latent_mean: np.ndarray  # E[exp(Z_j) | Y] ~ exp(Z*_j + var_j / 2)
    intensity: np.ndarray    # exp(X beta*) * latent_mean


def recover_z(W_star, X, beta_star) -> np.ndarray:
    """Z* = W* - X beta*; the change of variables is exact at the mode."""
    W_star = np.asarray(W_star, dtype=float)
    beta_star = np.asarray(beta_star, dtype=float)
    return W_star - design_matrix(X, W_star.size, beta_star.size) @ beta_star


def _neighbor_indices(grid: GridSpec, k: int):
    """(n, k^2) wrap-around neighbor pixel indices and their offsets, with
    the center pixel (offset (0, 0)) last."""
    half = k // 2
    offs = np.arange(-half, half + 1)
    o1, o2 = np.meshgrid(offs, offs, indexing="ij")
    center = k * k // 2
    o1 = np.append(np.delete(o1.ravel(), center), 0)
    o2 = np.append(np.delete(o2.ravel(), center), 0)
    idx = np.arange(grid.n)
    i1, i2 = idx % grid.n1, idx // grid.n1
    n1_idx = (i1[:, None] + o1[None, :]) % grid.n1
    n2_idx = (i2[:, None] + o2[None, :]) % grid.n2
    return n1_idx + grid.n1 * n2_idx, o1, o2


def local_variance(f_star: SpectralField, psi_diag, k: int = 5) -> np.ndarray:
    """Approximate diag(Psi^{-1}) from k x k neighborhood submatrix inversions.

    psi_diag is the data curvature Delta exp(W*).  The Sigma^{-1} block is the
    same for every pixel (translation invariance), so only the diagonal
    changes across the grid.  With the center pixel ordered last, its entry
    of the block inverse is 1 / L[-1, -1]^2 for the Cholesky factor L, so each
    pixel costs one small Cholesky factorization.
    """
    n1, n2 = f_star.shape
    grid_n = n1 * n2
    psi_diag = np.asarray(psi_diag, dtype=float)
    if psi_diag.size != grid_n:
        raise ConfigError(f"psi_diag length {psi_diag.size} does not match grid size {grid_n}")
    if np.any(psi_diag < 0) or not np.all(np.isfinite(psi_diag)):
        raise NumericalError("psi_diag must be finite and non-negative")
    if k % 2 == 0 or k < 1 or k > min(n1, n2):
        raise ConfigError(f"k must be odd and within 1..min(n1, n2) = {min(n1, n2)}, got {k}")

    grid = GridSpec.unit(n1, n2)
    inv_lags = f_star.inv_row.reshape((n1, n2), order="F")
    nbr, o1, o2 = _neighbor_indices(grid, k)
    # Sigma^{-1} restricted to the neighborhood: depends only on offset lags
    prior_block = inv_lags[(o1[:, None] - o1[None, :]) % n1, (o2[:, None] - o2[None, :]) % n2]

    k2 = k * k
    rows = np.arange(k2)
    out = np.empty(grid_n)
    for start in range(0, grid_n, BATCH):
        sl = slice(start, min(start + BATCH, grid_n))
        blocks = np.broadcast_to(prior_block, (sl.stop - sl.start, k2, k2)).copy()
        blocks[:, rows, rows] += psi_diag[nbr[sl]]
        try:
            # index the factor at once so it does not outlive its batch
            out[sl] = 1.0 / np.linalg.cholesky(blocks)[:, -1, -1] ** 2
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"local precision block not positive definite: {exc}") from exc
    if np.any(out <= 0):
        raise NumericalError("non-positive local variance; posterior precision corrupted")
    return out


def intensity_mean(z_mode, local_var, X, beta_star) -> np.ndarray:
    """Posterior mean intensity exp(X beta*) E[exp(Z)|Y] with the half-variance
    lognormal correction."""
    z_mode = np.asarray(z_mode, dtype=float)
    lv = np.asarray(local_var, dtype=float)
    beta_star = np.asarray(beta_star, dtype=float)
    latent = clamped_exp(z_mode + 0.5 * lv)
    return clamped_exp(design_matrix(X, z_mode.size, beta_star.size) @ beta_star) * latent


def estimate_intensity(W_star, X, beta_star, f_star: SpectralField, delta,
                       k: int = 5) -> IntensityEstimate:
    """Bundle of the posterior summaries used by prediction and scoring."""
    z = recover_z(W_star, X, beta_star)
    psi_diag = np.asarray(delta, float) * clamped_exp(np.asarray(W_star, float))
    lv = local_variance(f_star, psi_diag, k)
    latent = clamped_exp(z + 0.5 * lv)
    return IntensityEstimate(z, lv, latent, intensity_mean(z, lv, X, beta_star))
