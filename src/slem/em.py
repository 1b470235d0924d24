"""Monte Carlo EM for the gridded Cox model.

E-step: Laplace mode of W at the current theta, plus Hutchinson probe pairs
for the trace correction.  M-step: generalized least squares for beta, then a
profiled 1-D search over the range for eta.  The surrogate objective is

    Q(theta | theta_t; M) = -1/2 [ log|Sigma_eta|
                                   + (W_t - X beta)' Sigma_eta^{-1} (W_t - X beta)
                                   + (1/M) sum_i v_i' Sigma_eta^{-1} u_i ].

Sigma_eta is circulant, so by Parseval the last two terms are one sum over
frequencies of a power spectrum P(omega) of the residual and the probe pairs,
divided by the candidate spectrum.  Each EM iteration transforms the probe
pairs once and the residual once per beta it prices (the incumbent and, when
the beta step runs, the GLS candidate); q_tilde and the range search then
price every candidate eta from P without an FFT.  For the quasi-Matern shape
the sum over P is a quartic in alpha whose three coefficients are moments of
P, so each range candidate costs one O(n) log sum.

Both M-step updates are guarded by an explicit keep-the-better comparison
against the incumbent, so the recorded objective trace is monotone by
construction, not just in exact arithmetic.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import linalg as sla

from .errors import CollinearityError, ConfigError, NumericalError
from .grid import CountGrid, GridSpec, unflatten
from .laplace import newton_mode
from .spectral import (CovParams, SpectralField, frequency_sines, log_det,
                       quasi_matern_shape, quasi_matern_spectrum, sigma_inv_matvec)
from .trace import ProbePairs, make_probes

SIGMA2_FLOOR = 1e-8  # keeps the profiled variance strictly positive


@dataclass(frozen=True)
class Theta:
    beta: np.ndarray  # (p+1,) regression coefficients; may be empty
    eta: CovParams

    def __post_init__(self):
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, dtype=float)))

    def vector(self):
        return np.concatenate([self.beta, [self.eta.sigma2, self.eta.alpha]])


def _is_real(value):  # a Python or numpy int or float; not bool, str or complex
    return np.issubdtype(type(value), np.integer) or np.issubdtype(type(value), np.floating)


@dataclass
class FitConfig:
    """Tuning knobs; field names double as the JSON schema for configs."""

    M: int = 1
    scheme: str = "joint"
    eps_em: float = 1e-5
    eps_newton: float = 1e-3
    eps_pcg: float = 1e-3
    max_em: int = 100
    max_newton: int = 50
    alpha_bounds: tuple | None = None  # None -> (1e-2, n1) at fit time
    seed: int = 0

    def __post_init__(self):
        for name, least in (("M", 1), ("max_em", 1), ("max_newton", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (np.issubdtype(type(value), np.integer) and value >= least):
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("eps_em", "eps_newton", "eps_pcg"):
            value = getattr(self, name)
            if not (_is_real(value) and value > 0):
                raise ConfigError(f"{name} must be a positive number, got {value!r}")
        if self.scheme not in ("joint", "fixed"):
            raise ConfigError(f"scheme must be 'joint' or 'fixed', got {self.scheme!r}")
        ab = self.alpha_bounds
        if ab is not None:
            if not (isinstance(ab, (list, tuple)) and len(ab) == 2
                    and all(map(_is_real, ab)) and 0 < ab[0] < ab[1]):
                raise ConfigError(f"alpha_bounds must be [lo, hi] with 0 < lo < hi, got {ab!r}")
            self.alpha_bounds = (float(ab[0]), float(ab[1]))

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if d["alpha_bounds"] is not None:
            d["alpha_bounds"] = list(d["alpha_bounds"])
        return d

    @classmethod
    def from_dict(cls, doc: dict) -> "FitConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown fit config keys: {sorted(unknown)}")
        return cls(**doc)


def design_matrix(X, n: int, p: int | None = None) -> np.ndarray:
    """X as an (n, p) float array, any p if p is None; None is the design
    with no columns.  Every function that takes a design goes through here."""
    if X is None:
        X = np.zeros((n, 0))
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != n or (p is not None and X.shape[1] != p):
        want = f"({n}, {'p+1' if p is None else p})"
        raise ConfigError(f"design matrix must be {want}, got {X.shape}")
    return X


@dataclass
class FitResult:
    theta_star: Theta
    W_star: np.ndarray
    Z_star: np.ndarray
    em_iterations: int
    converged: bool
    objective_trace: np.ndarray  # (iters, 2): Q at incumbent, Q after M-step
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# surrogate objective and M-step updates
# ---------------------------------------------------------------------------


def probe_spectrum(probes: ProbePairs, grid: GridSpec) -> np.ndarray:
    """(1/M) sum_i Re(conj(DFT(v_i)) DFT(u_i)), the trace part of P.

    The probe pairs are fixed within an EM iteration, so their 2M FFTs run
    once per iteration; power_spectrum adds the residual part.
    """
    if probes.v.shape[1] != grid.n:
        raise ConfigError(
            f"probe length {probes.v.shape[1]} does not match grid {grid.n1}x{grid.n2}")
    vh = np.fft.fft2(np.stack([unflatten(v, grid.n1, grid.n2) for v in probes.v]))
    uh = np.fft.fft2(np.stack([unflatten(u, grid.n1, grid.n2) for u in probes.u]))
    return np.mean(vh.real * uh.real + vh.imag * uh.imag, axis=0)


def power_spectrum(r, grid: GridSpec, probe_part) -> np.ndarray:
    """P(omega) = |DFT(r)|^2 + probe_part, with probe_part from probe_spectrum
    (0 for no trace term).

    By Parseval, (1/n) sum_omega P / f = r' Sigma_f^{-1} r
    + (1/M) sum_i v_i' Sigma_f^{-1} u_i for every spectrum f, so one P prices
    the quadratic and trace parts of Q at any candidate without further FFTs.
    """
    r = np.asarray(r, dtype=float)
    if r.size != grid.n:
        raise ConfigError(f"residual length {r.size} does not match grid {grid.n1}x{grid.n2}")
    rh = np.fft.fft2(unflatten(r, grid.n1, grid.n2))
    P = rh.real ** 2 + rh.imag ** 2 + probe_part
    if not np.all(np.isfinite(P)):
        raise NumericalError("residual or probes contain non-finite entries")
    return P


def q_tilde(P, f: SpectralField, grid: GridSpec) -> float:
    """Q(theta | theta_t; M) at spectrum f, for the power spectrum P of the
    residual at theta's beta and the probe pairs built at theta_t."""
    return -0.5 * (log_det(f) + float(np.sum(P / f.values)) / grid.n)


def update_beta(W_mode, X, f_t: SpectralField) -> np.ndarray:
    """GLS solve of (X' Sigma^{-1} X) beta = X' Sigma^{-1} W."""
    X = np.asarray(X, dtype=float)
    S = np.column_stack([sigma_inv_matvec(f_t, X[:, j]) for j in range(X.shape[1])])
    A = X.T @ S
    A = 0.5 * (A + A.T)
    b = S.T @ W_mode
    if not np.all(np.isfinite(A)) or np.linalg.cond(A) > 1e12:
        raise CollinearityError(
            f"GLS normal matrix is singular; dependent columns: {_dependent_columns(X)}",
            columns=_dependent_columns(X),
        )
    return np.linalg.solve(A, b)


def _dependent_columns(X):
    # pivoted QR: columns whose R diagonal collapses are the dependent ones
    _, R, piv = sla.qr(X, mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    bad = d <= d[0] * 1e-10 if d.size and d[0] > 0 else np.ones_like(d, dtype=bool)
    return tuple(sorted(int(piv[i]) for i in np.nonzero(bad)[0]))


def profiled_q(P, alpha: float, grid: GridSpec) -> tuple[float, float]:
    """Q maximized over sigma2 at fixed alpha, and the maximizing sigma2.

    With f = sigma2 g_alpha, Q = -1/2 [n log sigma2 + sum log g_alpha
    + S / sigma2] where S = (1/n) sum P / g_alpha, so sigma2 = S / n (floored).
    This is the direct form; update_eta prices candidates with quartic_profile,
    which tests compare against it.
    """
    g = quasi_matern_shape(alpha, grid)
    S = float(np.sum(P / g)) / grid.n
    return _profiled(S, float(np.sum(np.log(g))), grid.n)


def quartic_profile(P, grid: GridSpec):
    """alpha -> profiled_q(P, alpha, grid), with the sum over P priced in O(1).

    1/g_alpha = (1 + alpha^2 s)^2 with s from frequency_sines, so
    sum P / g_alpha = A + 2 alpha^2 B + alpha^4 C for the moments A = sum P,
    B = sum P s and C = sum P s^2, taken once; only sum log g_alpha =
    -2 sum log1p(alpha^2 s) stays O(n) per candidate.
    """
    s = frequency_sines(grid)
    Ps = P * s
    A, B, C = float(np.sum(P)), float(np.sum(Ps)), float(np.sum(Ps * s))

    def price(alpha):
        a2 = alpha * alpha
        S = (A + 2.0 * a2 * B + a2 * a2 * C) / grid.n
        return _profiled(S, -2.0 * float(np.sum(np.log1p(a2 * s))), grid.n)

    return price


def _profiled(S, log_det_g, n):
    s2 = max(S / n, SIGMA2_FLOOR)
    return -0.5 * (n * np.log(s2) + log_det_g + S / s2), s2


def update_eta(P, grid: GridSpec, bounds, incumbent: CovParams | None = None,
               diagnostics=None) -> CovParams:
    """Profiled 1-D maximization over alpha for the power spectrum P, each
    candidate priced by quartic_profile: coarse log-grid scan, then
    golden-section to 1e-4 relative width, then a keep-the-better comparison
    with the incumbent range so the step never loses ground."""
    lo, hi = float(bounds[0]), float(bounds[1])
    if not 0 < lo < hi:
        raise ConfigError(f"alpha bounds must satisfy 0 < lo < hi, got {bounds}")

    price = quartic_profile(P, grid)
    cache = {}

    def phi(a):
        if a not in cache:
            cache[a] = price(a)
        return cache[a][0]

    coarse = np.geomspace(lo, hi, 25)
    best = int(np.argmax([phi(a) for a in coarse]))
    a = coarse[max(best - 1, 0)]
    b = coarse[min(best + 1, coarse.size - 1)]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = phi(c), phi(d)
    while (b - a) > 1e-4 * 0.5 * (a + b):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = phi(d)
    alpha_hat = c if fc >= fd else d
    candidates = [alpha_hat]
    if incumbent is not None and lo <= incumbent.alpha <= hi:
        candidates.append(incumbent.alpha)
    alpha_hat = max(candidates, key=phi)
    s2 = cache[alpha_hat][1]

    if diagnostics is not None and (alpha_hat / lo < 1.001 or hi / alpha_hat < 1.001):
        diagnostics["alpha_bound_hits"] = diagnostics.get("alpha_bound_hits", 0) + 1
    if diagnostics is not None and s2 == SIGMA2_FLOOR:
        diagnostics["sigma2_floor_hits"] = diagnostics.get("sigma2_floor_hits", 0) + 1
    return CovParams(s2, alpha_hat)


# ---------------------------------------------------------------------------
# EM driver
# ---------------------------------------------------------------------------


def _em_stage(Y: CountGrid, X, grid: GridSpec, config: FitConfig, eta0: CovParams,
              W0, diagnostics: dict):
    """One EM run; an X with no columns is the covariance-only model.  Returns
    the state at the last iteration plus the per-iteration objective pairs."""
    n = grid.n
    delta = grid.delta()
    bounds = config.alpha_bounds if config.alpha_bounds is not None else (1e-2, float(grid.n1))
    beta = np.zeros(X.shape[1])
    eta = eta0
    f = quasi_matern_spectrum(eta, grid)
    W = np.zeros(n) if W0 is None else np.asarray(W0, dtype=float).copy()
    trace_rows = []
    converged = False
    iterations = 0

    for t in range(config.max_em):
        iterations = t + 1
        Xbeta = X @ beta
        lap = newton_mode(Y, delta, Xbeta, f, W_init=W, epsilon=config.eps_newton,
                          max_newton=config.max_newton, eps_pcg=config.eps_pcg,
                          diagnostics=diagnostics)
        W = lap.mode
        if not lap.converged:
            diagnostics["newton_nonconverged"] = diagnostics.get("newton_nonconverged", 0) + 1
        probes = make_probes(config.M, n, config.seed + t, f, lap.c_diag, config.eps_pcg)
        if not probes.solve_converged.all():
            diagnostics["probe_nonconverged"] = diagnostics.get("probe_nonconverged", 0) + 1
        probe_part = probe_spectrum(probes, grid)

        theta_t = Theta(beta, eta)
        P = power_spectrum(W - Xbeta, grid, probe_part)
        q_inc = q_tilde(P, f, grid)

        # beta step (GLS); joint updates every iteration, fixed only at t = 0
        # and then keeps that beta whatever Q says
        beta_new, q_mid = beta, q_inc
        if X.shape[1] > 0 and (config.scheme == "joint" or t == 0):
            beta_cand = update_beta(W, X, f)
            P_cand = power_spectrum(W - X @ beta_cand, grid, probe_part)
            q_cand = q_tilde(P_cand, f, grid)
            if config.scheme == "fixed" or q_cand >= q_inc:
                beta_new, P, q_mid = beta_cand, P_cand, q_cand

        # eta step on the residual at the chosen beta
        eta_cand = update_eta(P, grid, bounds, incumbent=eta, diagnostics=diagnostics)
        f_cand = quasi_matern_spectrum(eta_cand, grid)
        q_new = q_tilde(P, f_cand, grid)
        if q_new >= q_mid:
            eta_new, f_new = eta_cand, f_cand
        else:
            eta_new, f_new, q_new = eta, f, q_mid

        if q_new < q_inc - 1e-9 * (1.0 + abs(q_inc)):
            raise NumericalError(
                f"M-step lowered the surrogate at EM iteration {iterations}: "
                f"Q {q_inc:.17g} -> {q_new:.17g}")
        trace_rows.append((q_inc, q_new))

        d = Theta(beta_new, eta_new).vector() - theta_t.vector()
        theta_rms = float(np.sqrt(np.mean(d * d)))
        beta, eta, f = beta_new, eta_new, f_new
        if theta_rms < config.eps_em:
            converged = True
            break

    return beta, eta, W, iterations, converged, trace_rows


def fit(Y: CountGrid, X, grid: GridSpec, config: FitConfig) -> FitResult:
    """Two-stage fit: a predictor-free warm start for the covariance, then the
    full model from beta = 0 at the warmed-up eta.

    X is an n x (p+1) design with intercept first, or None (equivalently, an
    (n, 0) array) for a covariance-only model; then the warm start *is* the
    fit.
    """
    X = design_matrix(X, grid.n)
    y = Y.vector()
    diagnostics = {}
    t0 = time.perf_counter()

    # stage 1: covariance-only warm start, W plays the role of Z
    ybar = float(np.mean(y))
    if ybar > 0:
        eta0 = CovParams(ybar, grid.n1 / 4.0)
    else:
        # no events anywhere: mean-count init is degenerate, fall back to a
        # unit prior variance so the intensity can still drift toward zero
        eta0 = CovParams(1.0, grid.n1 / 4.0)
        diagnostics["warmstart_sigma2_floored"] = True
    beta, eta, W_last, iterations, converged, rows = _em_stage(
        Y, X[:, :0], grid, config, eta0, None, diagnostics)
    diagnostics["stage1_iterations"] = iterations
    diagnostics["stage1_converged"] = converged
    diagnostics["stage1_eta"] = [eta.sigma2, eta.alpha]

    if X.shape[1] > 0:
        beta, eta, W_last, iterations, converged, rows = _em_stage(
            Y, X, grid, config, eta, W_last, diagnostics)

    # refresh the mode at the final theta so W* matches theta*
    f_star = quasi_matern_spectrum(eta, grid)
    Xbeta = X @ beta
    lap = newton_mode(Y, grid.delta(), Xbeta, f_star, W_init=W_last,
                      epsilon=config.eps_newton, max_newton=config.max_newton,
                      eps_pcg=config.eps_pcg, diagnostics=diagnostics)
    W_star = lap.mode
    Z_star = W_star - Xbeta
    diagnostics["runtime_seconds"] = time.perf_counter() - t0

    return FitResult(
        theta_star=Theta(beta, eta),
        W_star=W_star,
        Z_star=Z_star,
        em_iterations=iterations,
        converged=converged,
        objective_trace=np.asarray(rows, dtype=float).reshape(-1, 2),
        diagnostics=diagnostics,
    )
