"""Posterior summaries of the latent field and the intensity surface.

The fitted posterior precision is Psi = Sigma^{-1} + diag(Delta exp(W*)).
Full inversion is never done; the per-pixel variance comes from inverting the
k x k wrap-around neighborhood of Psi around each pixel (local_variance),
which is exact when k covers the whole grid and cheap when it does not.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .em import design_matrix
from .errors import ConfigError, NumericalError
from .laplace import clamped_exp
from .spectral import SpectralField

CHUNK = 1024  # pixels eliminated together, rounded down to whole grid columns


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


@dataclass(frozen=True)
class _Schedule:
    """Symbolic elimination of the k x k window under a 13-point stencil.

    Window pixels are numbered in elimination order, center last.  Entries
    0..k^2-1 are the diagonal (a, a); the rest are the off-diagonal (a, b),
    a < b, that are in the stencil or filled in by eliminating.  Entry e
    starts at inv_row[lags[e]] if stencil[e], else at 0.  Pivot p reads its
    column, the entries (p, b) of its later neighbours b, numbered
    cols[p] = (start, stop), and for each pair (i, j) of them with i <= j
    applies E[t] -= E[start + i] E[start + j] / E[p] to entry t of
    pairs[p] = (i's, j's, t's).
    """

    o1: np.ndarray        # window offset of each pixel, elimination order
    o2: np.ndarray
    lags: np.ndarray      # flat inv_row lag of each entry
    stencil: np.ndarray   # entry is structurally nonzero in Sigma^{-1}
    off_lags: np.ndarray  # window lags outside the stencil, which must be ~0
    cols: tuple
    pairs: tuple


@lru_cache(maxsize=8)
def _schedule(n1: int, n2: int, k: int) -> _Schedule:
    """local_variance's symbolic step; its arrays are shared, so read-only."""
    half = k // 2
    o1, o2 = (a.ravel() for a in np.meshgrid(np.arange(-half, half + 1),
                                             np.arange(-half, half + 1), indexing="ij"))
    d1 = (o1[:, None] - o1[None, :]) % n1
    d2 = (o2[:, None] - o2[None, :]) % n2
    lag = d1 + n1 * d2
    # a torus lag of L1 length <= 2 is one of the stencil's 13 points
    adj = np.minimum(d1, n1 - d1) + np.minimum(d2, n2 - d2) <= 2

    # minimum degree, ties by index, center last; eliminating j joins its
    # remaining neighbours to each other (the fill)
    k2 = k * k
    center = k2 // 2
    nbrs = [set(np.flatnonzero(adj[i])) - {i} for i in range(k2)]
    order, left = [], set(range(k2)) - {center}
    while left:
        j = min(left, key=lambda i: (len(nbrs[i]), i))
        for a in nbrs[j]:
            nbrs[a] |= nbrs[j] - {a}
            nbrs[a].discard(j)
        order.append(j)
        left.remove(j)
    order.append(center)
    pos = {v: p for p, v in enumerate(order)}
    later = [sorted(pos[a] for a in nbrs[v]) for v in order]

    # each pivot's column is numbered as one run of entries
    entry = {(p, p): p for p in range(k2)}
    cols, pairs = [], []
    for p, nb in enumerate(later):
        start = len(entry)
        for b in nb:
            entry[p, b] = len(entry)
        cols.append((start, len(entry)))
    for p, nb in enumerate(later):
        i, j = np.triu_indices(len(nb))
        pairs.append((i, j, np.array([entry[nb[a], nb[b]] for a, b in zip(i, j)],
                                     dtype=np.intp)))
    va, vb = np.array(order)[np.array(list(entry)).T]
    arrays = (o1[order], o2[order], lag[va, vb], adj[va, vb], np.unique(lag[~adj]))
    for arr in (*arrays, *(x for pair in pairs for x in pair)):
        arr.flags.writeable = False
    return _Schedule(*arrays, tuple(cols), tuple(pairs))


def _grid_vector(name: str, x, grid_n: int) -> np.ndarray:
    """x as a float vector over the grid's pixels; any other shape, a 2-D
    raster included, is a ConfigError naming it."""
    x = np.asarray(x, dtype=float)
    if x.shape != (grid_n,):
        raise ConfigError(f"{name} must be a vector of the grid's {grid_n} pixels, "
                          f"got shape {x.shape}")
    return x


def local_variance(f_star: SpectralField, psi_diag, k: int = 5) -> np.ndarray:
    """Approximate diag(Psi^{-1}) from k x k neighborhood submatrix inversions.

    psi_diag is the data curvature Delta exp(W*).  Each pixel's variance is
    the center entry of the inverse of Psi's block on its wrap-around k x k
    window, 1 / (the center's Schur complement).  The quasi-Matern Sigma^{-1}
    is a 13-point stencil, so the block is sparse: the non-center pixels are
    eliminated in a minimum-degree order computed once per (n1, n2, k), and
    only the stencil and its fill are updated.  Pixels are eliminated a chunk
    of whole grid columns at a time, in one workspace allocated per call; a
    window's curvature is read as a shifted slice of the wrap-padded psi_diag.
    A spectrum whose Sigma^{-1} has weight outside the stencil is rejected.
    """
    n1, n2 = f_star.shape
    grid_n = n1 * n2
    psi_diag = _grid_vector("psi_diag", psi_diag, grid_n)
    if np.any(psi_diag < 0) or not np.all(np.isfinite(psi_diag)):
        raise NumericalError("psi_diag must be finite and non-negative")
    if k % 2 == 0 or k < 1 or k > min(n1, n2):
        raise ConfigError(f"k must be odd and within 1..min(n1, n2) = {min(n1, n2)}, got {k}")

    s = _schedule(n1, n2, k)
    inv_row = f_star.inv_row
    if s.off_lags.size and np.max(np.abs(inv_row[s.off_lags])) > 1e-12 * inv_row[0]:
        raise ConfigError("local_variance needs a quasi-Matern (13-point stencil) "
                          "precision; Sigma^{-1} has weight outside the stencil")
    prior = np.where(s.stencil, inv_row[s.lags], 0.0)[:, None]
    h = k // 2
    padded = np.pad(psi_diag.reshape((n1, n2), order="F"), h, mode="wrap")

    # one workspace per call; each chunk and pivot works in views of it
    cols = max(1, CHUNK // n1)
    width = n1 * cols
    entries = prior.shape[0]
    E_buf = np.empty(entries * width)
    r_buf = np.empty(max(stop - start for start, stop in s.cols) * width)
    u_buf = np.empty(max(t.size for _, _, t in s.pairs) * width)
    v_buf = np.empty_like(u_buf)

    out = np.empty(grid_n)
    for c0 in range(0, n2, cols):
        nc = min(cols, n2 - c0)
        w = n1 * nc
        E = E_buf[:entries * w].reshape(entries, w)
        E[...] = prior
        for a in range(k * k):
            lo1, lo2 = h + s.o1[a], h + s.o2[a] + c0
            window = E[a].reshape((n1, nc), order="F")
            window += padded[lo1:lo1 + n1, lo2:lo2 + nc]
        # a bad pivot is caught below, where it stays on the diagonal
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for p, ((start, stop), (i, j, target)) in enumerate(zip(s.cols, s.pairs)):
                c = E[start:stop]
                r = r_buf[:c.size].reshape(c.shape)
                u = u_buf[:target.size * w].reshape(target.size, w)
                v = v_buf[:u.size].reshape(u.shape)
                # take with out= buffers a copy under mode="raise"; the
                # schedule's indices are in range, so "clip" never clips
                np.divide(c, E[p], out=r)
                np.take(c, i, axis=0, out=u, mode="clip")
                np.take(r, j, axis=0, out=v, mode="clip")
                u *= v
                np.take(E, target, axis=0, out=v, mode="clip")
                v -= u
                E[target] = v
        # no later pivot updates an earlier one, so the diagonal now holds
        # every pivot and, last, the center's Schur complement
        piv = E[:k * k]
        if not (piv.min() > 0 and np.isfinite(piv.max())):
            raise NumericalError("local precision block not positive definite")
        np.divide(1.0, piv[-1], out=out[n1 * c0:n1 * c0 + w])
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
    """Bundle of the posterior summaries used by prediction and scoring.

    z_mode and intensity equal recover_z's and intensity_mean's bit for bit;
    X beta* and the lognormal correction are each computed once here."""
    grid_n = f_star.shape[0] * f_star.shape[1]
    W_star = _grid_vector("W_star", W_star, grid_n)
    delta = _grid_vector("delta", delta, grid_n)
    beta_star = np.asarray(beta_star, dtype=float)
    xb = design_matrix(X, grid_n, beta_star.size) @ beta_star
    z = W_star - xb
    psi_diag = delta * clamped_exp(W_star)
    lv = local_variance(f_star, psi_diag, k)
    latent = clamped_exp(z + 0.5 * lv)
    return IntensityEstimate(z, lv, latent, clamped_exp(xb) * latent)
