"""Independent reference implementations used as test oracles.

Everything here goes through dense linear algebra or explicit loops on
purpose: no FFT matvecs, no PCG, no shared code paths with the solvers under
test.  dense_covariance is assembled FFT-free from the spectral sum; base_row
is the FFT route to the same lag table, checked against it.  trace_term and
profiled_q are the direct forms that the EM's power-spectrum pricing
replaces: one spectral matvec per probe, one sum over P / g per range.
"""
import numpy as np
from scipy.special import gammaln

from slem import ConfigError, flatten, sigma_inv_matvec
from slem.em import SIGMA2_FLOOR
from slem.spectral import quasi_matern_shape

DENSE_LIMIT = 4096  # dense matrices beyond this are too big for a test


def dense_covariance(f):
    """Dense Sigma assembled from the spectral sum, avoiding the FFT so it is
    an independent route: the lag table comes from explicit
    complex-exponential matrix products."""
    n1, n2 = f.shape
    n = n1 * n2
    if n > DENSE_LIMIT:
        raise ConfigError(f"dense covariance limited to n <= {DENSE_LIMIT}, got n = {n}")
    e1 = np.exp(2j * np.pi * np.outer(np.arange(n1), np.arange(n1)) / n1)
    e2 = np.exp(2j * np.pi * np.outer(np.arange(n2), np.arange(n2)) / n2)
    lags = (e1 @ f.values @ e2.T).real / n  # lags[h1, h2] = Cov((h1, h2))
    idx = np.arange(n)
    i1, i2 = idx % n1, idx // n1
    return lags[(i1[:, None] - i1[None, :]) % n1, (i2[:, None] - i2[None, :]) % n2]


def base_row(f):
    """First row of Sigma, i.e. Cov(h) = (1/n) sum_omega f e^{i omega . h}, flattened."""
    n1, n2 = f.shape
    return flatten(np.fft.irfft2(f.values[:, : n2 // 2 + 1], s=(n1, n2)))


def dense_sigma(f):
    return dense_covariance(f)


def dense_sigma_inv(f):
    return np.linalg.inv(dense_covariance(f))


def dense_log_posterior(W, y, delta, Xbeta, Sinv):
    r = W - Xbeta
    return float(y @ W - delta @ np.exp(W) - 0.5 * r @ Sinv @ r)


def dense_newton_mode(y, delta, Xbeta, Sinv, tol=1e-12, max_iter=200):
    """Undamped-by-default Newton with explicit Hessian solves."""
    W = Xbeta.astype(float).copy()
    for _ in range(max_iter):
        c = delta * np.exp(W)
        score = y - c - Sinv @ (W - Xbeta)
        step = np.linalg.solve(Sinv + np.diag(c), score)
        obj = dense_log_posterior(W, y, delta, Xbeta, Sinv)
        t = 1.0
        while dense_log_posterior(W + t * step, y, delta, Xbeta, Sinv) < obj and t > 1e-6:
            t *= 0.5
        W = W + t * step
        if np.linalg.norm(t * step) / np.sqrt(W.size) < tol:
            break
    return W


def dense_posterior_precision(f_t, c_diag):
    return dense_sigma_inv(f_t) + np.diag(c_diag)


def dense_local_variance(f, psi_diag, k):
    """Per-pixel loop: invert the k x k wrap-around neighborhood block of the
    dense posterior precision and read off the pixel's own entry."""
    n1, n2 = f.shape
    Psi = dense_posterior_precision(f, psi_diag)
    offs = range(-(k // 2), k // 2 + 1)
    out = np.empty(n1 * n2)
    for i2 in range(n2):
        for i1 in range(n1):
            nbrs = [(i1 + a) % n1 + n1 * ((i2 + b) % n2) for b in offs for a in offs]
            c = nbrs.index(i1 + n1 * i2)
            out[i1 + n1 * i2] = np.linalg.inv(Psi[np.ix_(nbrs, nbrs)])[c, c]
    return out


def dense_trace(f_candidate, f_t, c_diag):
    """tr(Sigma_cand^{-1} (Sigma_t^{-1} + C)^{-1}) by explicit inversion."""
    A = dense_sigma_inv(f_candidate)
    B = np.linalg.inv(dense_posterior_precision(f_t, c_diag))
    return float(np.trace(A @ B))


def trace_term(f_candidate, probes):
    """(1/M) sum_i v_i' Sigma_eta^{-1} u_i, the stochastic trace of
    Sigma_eta^{-1} (Sigma_t^{-1} + C)^{-1} at the candidate eta."""
    total = 0.0
    for i in range(probes.M):
        total += float(probes.v[i] @ sigma_inv_matvec(f_candidate, probes.u[i]))
    return total / probes.M


def profiled_q(P, alpha, grid):
    """Q maximized over sigma2 at fixed alpha, and the maximizing sigma2.

    With f = sigma2 g_alpha, Q = -1/2 [n log sigma2 + sum log g_alpha
    + S / sigma2] where S = (1/n) sum P / g_alpha, so sigma2 = S / n (floored).
    """
    g = quasi_matern_shape(alpha, grid)
    S = float(np.sum(P / g)) / grid.n
    s2 = max(S / grid.n, SIGMA2_FLOOR)
    return -0.5 * (grid.n * np.log(s2) + float(np.sum(np.log(g))) + S / s2), s2


def dense_gls(W, X, Sinv):
    A = X.T @ Sinv @ X
    return np.linalg.solve(A, X.T @ Sinv @ W)


def dense_q_tilde(sigma2, alpha, r, trace_value, grid):
    """Eq-style objective -1/2 [log|S| + r' S^{-1} r + trace] from dense parts."""
    from slem import CovParams, quasi_matern_spectrum

    f = quasi_matern_spectrum(CovParams(sigma2, alpha), grid)
    S = dense_covariance(f)
    sign, logdet = np.linalg.slogdet(S)
    if sign <= 0:
        raise ValueError(f"dense covariance is not positive definite (slogdet sign {sign})")
    return -0.5 * (logdet + r @ np.linalg.solve(S, r) + trace_value)


def naive_log_score(y, lam, delta, scale):
    total = 0.0
    for i in range(len(y)):
        total += y[i] * (np.log(delta[i]) + np.log(lam[i]) + np.log(scale))
        total -= scale * delta[i] * lam[i]
        total -= gammaln(y[i] + 1.0)
    return total


def naive_rmse(est, truth, n1, n2, margin):
    full = []
    interior = []
    for i2 in range(n2):
        for i1 in range(n1):
            d = est[i1 + n1 * i2] - truth[i1 + n1 * i2]
            full.append(d * d)
            if margin <= i1 <= n1 - 1 - margin and margin <= i2 <= n2 - 1 - margin:
                interior.append(d * d)
    return float(np.sqrt(np.mean(full))), float(np.sqrt(np.mean(interior)))


def naive_block_summaries(frames):
    """Loop version of the 10-minute block diffs and means, NaN propagating."""
    T, n1, n2 = frames.shape
    K = T // 10
    diffs = np.empty((K, n1, n2))
    means = np.empty((K, n1, n2))
    for k in range(K):
        block = frames[10 * k: 10 * (k + 1)]
        for i1 in range(n1):
            for i2 in range(n2):
                vals = block[:, i1, i2]
                if np.any(np.isnan(vals)):
                    diffs[k, i1, i2] = np.nan
                    means[k, i1, i2] = np.nan
                else:
                    diffs[k, i1, i2] = vals[-1] - vals[0]
                    means[k, i1, i2] = vals.mean()
    return diffs, means


def poisson_loglik(y, delta, D):
    """Max log-likelihood of log lambda = D coef with offset log delta, by
    direct numeric optimization from two starts (no IRLS)."""
    from scipy.optimize import minimize

    def nll(theta):
        eta = D @ theta + np.log(delta)
        return -(y @ eta - np.exp(eta).sum())

    best = None
    mean_start = np.zeros(D.shape[1])
    mean_start[0] = np.log(max(y.mean(), 1e-8))
    for start in (np.zeros(D.shape[1]), mean_start):
        res = minimize(nll, start, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        if best is None or res.fun < best.fun:
            best = res
    return -best.fun - gammaln(y + 1.0).sum()
