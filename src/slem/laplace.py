"""Gaussian (Laplace) approximation of the latent-field posterior.

The working variable is W = X beta + Z, so the prior mean is X beta and the
conditional posterior of W given the data is approximated at its mode by
N(W*, (Sigma^{-1} + C)^{-1}) with C = diag(Delta exp(W*)).  Outside its PCG
solves, a mode costs one Sigma^{-1} transform (newton_mode).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .grid import CountGrid
from .pcg import FORCING, SpdOperator, pcg_solve
from .spectral import SpectralField, half_dft, half_idft, sigma_inv_matvec

EXP_CLAMP = 50.0  # exp argument cap; anything above is already astronomical


def clamped_exp(w):
    return np.exp(np.minimum(w, EXP_CLAMP))


@dataclass
class LaplaceFit:
    mode: np.ndarray           # W*, n-vector
    c_diag: np.ndarray         # Delta exp(W*), strictly positive
    newton_iterations: int
    converged: bool


def precision_operator(f: SpectralField, c_diag: np.ndarray) -> SpdOperator:
    """Matrix-free Sigma^{-1} + diag(c) with a diagonally scaled circulant
    preconditioner.

    With s0 = mean(1/f), the lag-zero entry (constant diagonal) of Sigma^{-1},
    c_bar = mean(c) and S = sqrt((s0 + c_bar) / (s0 + c)),

        M^{-1} r = S . iDFT((1/f + c_bar)^{-1} . DFT(S . r)).

    The circulant middle inverts Sigma^{-1} + c_bar I exactly and the scaling
    moves each pixel's diagonal from s0 + c_bar to s0 + c_i, so M^{-1} is the
    exact inverse when c is constant and reduces to Jacobi, r / (s0 + c), when
    Sigma^{-1} is diagonal (a flat spectrum).
    """
    c_diag = np.asarray(c_diag, dtype=float)
    if c_diag.shape != (f.n,):
        raise ConfigError(f"curvature shape {c_diag.shape} does not match grid size {f.n}")
    if not np.all(np.isfinite(c_diag)) or np.any(c_diag < 0):
        raise NumericalError("curvature entries must be finite and non-negative")
    inv0 = float(np.mean(1.0 / f.values))
    c_bar = float(np.mean(c_diag))
    scale = np.sqrt((inv0 + c_bar) / (inv0 + c_diag))
    middle = 1.0 / (f.inv_half + c_bar)
    return SpdOperator(
        apply=lambda v: half_idft(half_dft(v, f.shape) * f.inv_half, f.shape) + c_diag * v,
        precondition=lambda r: scale * half_idft(half_dft(scale * r, f.shape) * middle, f.shape),
    )


def posterior_score(W, Y: CountGrid, delta, Xbeta, f: SpectralField, diagnostics=None):
    """Gradient of the W-posterior: Y - Delta exp(W) - Sigma^{-1}(W - X beta)."""
    W = np.asarray(W, dtype=float)
    return _score(W, Y.vector(), delta * clamped_exp(W), sigma_inv_matvec(f, W - Xbeta),
                  diagnostics)


def _score(W, y_vec, mean, prior_pull, diagnostics):
    """posterior_score given mean = Delta clamped_exp(W) and the prior_pull."""
    clamped = int(np.sum(W > EXP_CLAMP))
    if diagnostics is not None and clamped:
        diagnostics["clamp_events"] = diagnostics.get("clamp_events", 0) + clamped
    return y_vec - mean - prior_pull


def log_posterior(W, y_vec, delta, Xbeta, f: SpectralField):
    """log p(W | Y, theta) up to an additive constant, and Sigma^{-1}(W - X beta),
    which the score at the same W reuses."""
    prior_pull = sigma_inv_matvec(f, W - Xbeta)
    return _log_density(W, y_vec, delta, Xbeta, prior_pull)[0], prior_pull


def _log_density(W, y_vec, delta, Xbeta, prior_pull):
    """(log_posterior at W from its prior_pull, with no transform, clamped_exp(W))."""
    e = clamped_exp(W)
    return float(np.sum(y_vec * W - delta * e) - 0.5 * ((W - Xbeta) @ prior_pull)), e


def newton_mode(Y: CountGrid, delta, Xbeta, f: SpectralField, W_init=None,
                epsilon: float = 1e-3, max_newton: int = 50, eps_pcg: float = 1e-3,
                diagnostics=None) -> LaplaceFit:
    """Newton iteration for the posterior mode of W.

    Each step solves (Sigma^{-1} + C) step = score by PCG from zero, so the
    starting residual is the score, to the inexact-Newton stop: a residual
    change of max(eps_pcg, FORCING . rms(score)) (pcg.py).  Far from the mode
    a step is solved only to a tenth of its size; near it eps_pcg binds.  A
    full step that decreases the log posterior is halved up to 10 times.
    Stops when n^{-1/2} ||W_{l+1} - W_l|| < epsilon.  Only the start's log
    posterior transforms: with PCG's residual r = score - (Sigma^{-1} + C) step,
    Sigma^{-1} step = score - r - C step prices each trial point W + t step in
    O(n), and the accepted point's clamped exp is the next step's curvature and
    score.  diagnostics, if given, accumulates the steps (newton_steps) and
    their PCG iterations (newton_pcg_iterations) over calls.
    """
    y_vec = Y.vector()
    delta = np.asarray(delta, dtype=float)
    Xbeta = np.asarray(Xbeta, dtype=float)
    n = y_vec.size
    W = Xbeta.copy() if W_init is None else np.asarray(W_init, dtype=float).copy()
    diag = diagnostics if diagnostics is not None else {}

    obj, prior_pull = log_posterior(W, y_vec, delta, Xbeta, f)
    if not np.isfinite(obj):
        raise NumericalError("log posterior not finite at the Newton starting value")
    mean = delta * clamped_exp(W)

    converged, iterations = False, 0
    for iterations in range(1, max_newton + 1):
        score = _score(W, y_vec, mean, prior_pull, diag)
        sol = pcg_solve(precision_operator(f, mean), score, epsilon=eps_pcg, forcing=FORCING)
        diag["newton_pcg_iterations"] = diag.get("newton_pcg_iterations", 0) + sol.iterations
        if not sol.converged:
            diag["pcg_nonconverged"] = diag.get("pcg_nonconverged", 0) + 1

        step = sol.x
        step_pull = score - sol.residual - mean * step  # Sigma^{-1} step
        t = 1.0
        slack = 1e-12 * (1.0 + abs(obj))  # fp headroom so tiny steps near the mode still land
        for _ in range(10):
            W_new = W + t * step
            pull_new = prior_pull + t * step_pull
            obj_new, e_new = _log_density(W_new, y_vec, delta, Xbeta, pull_new)
            if np.isfinite(obj_new) and obj_new >= obj - slack:
                break
            t *= 0.5
        else:
            diag["newton_stalled"] = diag.get("newton_stalled", 0) + 1
            break  # cannot improve; keep current W, report non-convergence

        diff_rms = np.linalg.norm(W_new - W) / np.sqrt(n)
        W, obj, prior_pull, mean = W_new, obj_new, pull_new, delta * e_new
        if diff_rms < epsilon:
            converged = True
            break

    diag["newton_steps"] = diag.get("newton_steps", 0) + iterations
    return LaplaceFit(W, mean, iterations, converged)
