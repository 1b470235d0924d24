"""Monte Carlo EM for the gridded Cox model.

fit starts from a Poisson GLM of the counts (glm_start) and iterates the EM
map em_step: (beta, eta, W, U) -> (beta', eta', W', U'), accelerated by
SQUAREM (squarem).  E-step: the Laplace mode of W and Hutchinson probe pairs
for the trace term, whose v's are drawn once per fit, so the map is
deterministic; W and the probe solves U start from the previous map's.
M-step: GLS for beta, then a profiled 1-D search over the range for eta,
each kept only if it does not lower the surrogate objective, so a map's
recorded (Q_inc, Q_new) is monotone by construction:

    Q(theta | theta_t; M) = -1/2 [ log|Sigma_eta|
                                   + (W_t - X beta)' Sigma_eta^{-1} (W_t - X beta)
                                   + (1/M) sum_i v_i' Sigma_eta^{-1} u_i ].

Sigma_eta is circulant, so by Parseval the last two terms are one sum over
frequencies of a power spectrum P(omega) of the residual and the probe pairs,
divided by the candidate spectrum.  The M-step works on rfft2's half plane:
fit transforms the design and the v's once (fit_transforms), each map its W
and its u's once, and GLS, the residual spectrum at any beta and the moments
of P (power_moments) follow with no further transform.  For the quasi-Matern
shape the sum over P is a quartic in alpha in those moments (quartic_profile),
so a range candidate costs O(1) once spectral.shape_log_det has its alpha.
power_spectrum, probe_spectrum and q_tilde price Q on the full plane at any
spectrum: the tests' references.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import CollinearityError, ConfigError, NumericalError
from .grid import CountGrid, GridSpec, flatten, unflatten
from .covariates import _poisson_irls
from .laplace import clamped_exp, newton_mode
from .spectral import (CovParams, SpectralField, _sines, amplitude_for_variance, log_det,
                       quasi_matern_spectrum, shape_log_det)
from .spectral import sigma_inv_matvec  # noqa: F401  unused; perfbench/tracing.py patches it
from .trace import ProbePairs, make_probes, rademacher

SIGMA2_FLOOR = 1e-8  # keeps the profiled variance strictly positive
# Pixel variance of the start when the counts show no excess dispersion over
# the GLM mean (an all-zero grid, say); the profiled sigma2 step moves it.
START_VARIANCE_FLOOR = 1e-2
SQUAREM_STEP_GROWTH = 4.0  # steplength bound growth on a hit (the SQUAREM package's mstep)


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


def config_number(name: str, value, integer: bool = False, least=None):
    """value as an int (integer=True) or a float, checked by FitConfig's rules:
    an integer field takes a Python or numpy int, a real field any int or
    float, never a bool or a string; least is an inclusive lower bound.
    Raises ConfigError otherwise."""
    ok = np.issubdtype(type(value), np.integer) if integer else _is_real(value)
    if not ok or (least is not None and not value >= least):
        kind = "an integer" if integer else "a number"
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{name} must be {kind}{bound}, got {value!r}")
    return int(value) if integer else float(value)


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
            config_number(name, getattr(self, name), integer=True, least=least)
        for name in ("eps_em", "eps_newton", "eps_pcg"):
            value = getattr(self, name)
            if not (_is_real(value) and value > 0):
                raise ConfigError(f"{name} must be a positive number, got {value!r}")
        if self.scheme not in ("joint", "fixed"):
            raise ConfigError(f"scheme must be 'joint' or 'fixed', got {self.scheme!r}")
        ab = self.alpha_bounds
        if ab is not None:
            if not (isinstance(ab, (list, tuple)) and len(ab) == 2
                    and all(map(_is_real, ab)) and 0 < ab[0] < ab[1] < np.inf):
                raise ConfigError(
                    f"alpha_bounds must be [lo, hi] with 0 < lo < hi < inf, got {ab!r}")
            self.alpha_bounds = (float(ab[0]), float(ab[1]))

    def to_dict(self):
        return asdict(self)  # JSON writes alpha_bounds' tuple as a list

    @classmethod
    def from_dict(cls, doc: dict) -> "FitConfig":
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown fit config keys: {sorted(unknown)}")
        return cls(**doc)


def design_matrix(X, n: int, p: int | None = None) -> np.ndarray:
    """X as a finite (n, p) float array, any p if p is None; None is the
    design with no columns.  Every function that takes a design goes through
    here."""
    if X is None:
        X = np.zeros((n, 0))
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != n or (p is not None and X.shape[1] != p):
        want = f"({n}, {'p+1' if p is None else p})"
        raise ConfigError(f"design matrix must be {want}, got {X.shape}")
    if not np.all(np.isfinite(X)):
        row = int(np.nonzero(~np.isfinite(X))[0][0])
        raise ConfigError(f"design matrix has a non-finite entry in row {row}")
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


def half_spectra(rows, shape) -> np.ndarray:
    """rfft2 of each row of the (m, n) array rows, in one call: row i is the
    half plane of SpectralField.half, flattened as grid.flatten flattens."""
    n1, n2 = shape
    half = np.fft.rfft2(np.reshape(rows, (-1, n2, n1)), axes=(2, 1))
    return half.reshape(-1, n1 * (n2 // 2 + 1))


def _mirror_counts(n2):
    """Frequencies each half-plane column stands for: 1 for column 0 and, for
    even n2, column n2 / 2, whose mirrors are themselves, and 2 for the rest."""
    k = np.arange(n2 // 2 + 1)
    return np.where((k == 0) | (2 * k == n2), 1.0, 2.0)


def design_spectra(X, shape):
    """(x_hat, gram): the design's columns on the half plane (half_spectra)
    and their Gram spectra gram[j, k] = Re(conj(x_hat_j) x_hat_k)."""
    x_hat = half_spectra(np.ascontiguousarray(X.T), shape)
    return x_hat, x_hat.real[:, None] * x_hat.real + x_hat.imag[:, None] * x_hat.imag


def fit_transforms(X, grid: GridSpec, config: FitConfig):
    """(x_hat, gram, v, v_hat), what no EM map changes: design_spectra, and
    the probes' v's, rademacher(M, n, seed), with their half_spectra."""
    v = rademacher(config.M, grid.n, config.seed)
    return (*design_spectra(X, (grid.n1, grid.n2)), v, half_spectra(v, (grid.n1, grid.n2)))


# ---------------------------------------------------------------------------
# surrogate objective and M-step updates
# ---------------------------------------------------------------------------


def probe_spectrum(probes: ProbePairs, grid: GridSpec) -> np.ndarray:
    """(1/M) sum_i Re(conj(DFT(v_i)) DFT(u_i)), the trace part of P on the
    full frequency grid; power_spectrum adds the residual part.  The fit takes
    the same numbers on the half plane (em_step)."""
    if probes.v.shape[1] != grid.n:
        raise ConfigError(
            f"probe length {probes.v.shape[1]} does not match grid {grid.n1}x{grid.n2}")
    vh, uh = (np.fft.fft2(np.reshape(a, (-1, grid.n2, grid.n1)).transpose(0, 2, 1))
              for a in (probes.v, probes.u))
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
    residual at theta's beta and the probe pairs built at theta_t.

    Any spectrum, no closed form: the reference for quartic_profile, which
    prices every Q of the fit itself."""
    return -0.5 * (log_det(f) + float(np.sum(P / f.values)) / grid.n)


def update_beta(W_mode, X, f_t: SpectralField, design=None, w_hat=None) -> np.ndarray:
    """GLS solve of (X' Sigma^{-1} X) beta = X' Sigma^{-1} W by Parseval on the
    half plane, no inverse transform: X_j' Sigma^{-1} X_k = (1/n) sum gram_jk / f
    and X_j' Sigma^{-1} W = (1/n) sum Re(x_hat_j conj(w_hat)) / f, columns
    counted _mirror_counts times.  design, design_spectra(X, f_t.shape), and
    w_hat, half_spectra(W_mode), spare the forward transforms (em_step's)."""
    X = np.asarray(X, dtype=float)
    x_hat, gram = design_spectra(design_matrix(X, f_t.n), f_t.shape) if design is None else design
    w_hat = half_spectra(W_mode, f_t.shape)[0] if w_hat is None else w_hat
    inv = flatten(f_t.inv_half * (_mirror_counts(f_t.shape[1]) / f_t.n))
    A = gram @ inv
    b = (x_hat @ (w_hat.conj() * inv)).real
    if not np.all(np.isfinite(A)) or np.linalg.cond(A) > 1e12:
        columns = _dependent_columns(X)
        raise CollinearityError(
            f"GLS normal matrix is singular; dependent columns: {columns}", columns=columns)
    return np.linalg.solve(A, b)


def _dependent_columns(X):
    # pivoted QR: columns whose R diagonal collapses are the dependent ones.
    # numpy's QR does not pivot; this runs only on the way to an error.
    from scipy import linalg as sla

    _, R, piv = sla.qr(X, mode="economic", pivoting=True)
    d = np.abs(np.diag(R))
    bad = d <= d[0] * 1e-10 if d.size and d[0] > 0 else np.ones_like(d, dtype=bool)
    return tuple(sorted(int(piv[i]) for i in np.nonzero(bad)[0]))


def power_moments(P, grid: GridSpec) -> np.ndarray:
    """(A, B, C), the sums of P, P s and P s^2 over every frequency (s from
    frequency_sines), for P on the full (n1, n2) grid or flattened on the half
    plane as half_spectra's rows, each column there counted _mirror_counts times."""
    P, s = np.asarray(P, dtype=float), _sines(grid.n1, grid.n2)
    if P.ndim == 1 and P.size == grid.n1 * (grid.n2 // 2 + 1):
        s = s[:, : grid.n2 // 2 + 1]
        P = unflatten(P, *s.shape) * _mirror_counts(grid.n2)
    if P.shape != s.shape:
        raise ConfigError(f"power spectrum shape {P.shape} does not fit grid {grid.n1}x{grid.n2}")
    Ps = P * s
    moments = np.array([np.sum(P), np.sum(Ps), np.sum(Ps * s)])
    if not np.all(np.isfinite(moments)):
        raise NumericalError("residual or probes contain non-finite entries")
    return moments


def quartic_profile(P, grid: GridSpec):
    """(alpha, sigma2=None) -> (Q at (sigma2, alpha), sigma2), with sigma2,
    if not given, the one that maximizes Q at alpha, for a power spectrum P on
    either plane (power_moments).

    With f = sigma2 g_alpha and S = (1/n) sum P / g_alpha,
    Q = -1/2 [n log sigma2 + sum log g_alpha + S / sigma2], maximized at
    sigma2 = S / n (floored at SIGMA2_FLOOR).  1/g_alpha = (1 + alpha^2 s)^2
    with s from frequency_sines, so sum P / g_alpha = A + 2 alpha^2 B
    + alpha^4 C for the moments A = sum P, B = sum P s and C = sum P s^2,
    taken once; only sum log g_alpha = -2 sum log1p(alpha^2 s) stays O(n),
    and it depends on alpha and the grid alone: spectral.shape_log_det
    memoizes it across calls.
    """
    A, B, C = map(float, power_moments(P, grid))

    def price(alpha, sigma2=None):
        a2 = alpha * alpha
        S = (A + 2.0 * a2 * B + a2 * a2 * C) / grid.n
        s2 = max(S / grid.n, SIGMA2_FLOOR) if sigma2 is None else sigma2
        return -0.5 * (grid.n * np.log(s2) + shape_log_det(alpha, grid) + S / s2), s2

    return price


def update_eta(price, bounds, incumbent: CovParams | None = None,
               diagnostics=None) -> CovParams:
    """Profiled 1-D maximization over alpha of price, the quartic_profile of
    a power spectrum P: coarse log-grid scan, then golden-section to 1e-4
    relative width, then a keep-the-better comparison with the incumbent
    range so the step never loses ground."""
    lo, hi = float(bounds[0]), float(bounds[1])
    if not 0 < lo < hi < np.inf:
        raise ConfigError(f"alpha bounds must satisfy 0 < lo < hi < inf, got {bounds}")

    def phi(a):
        return price(a)[0]

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
    s2 = price(alpha_hat)[1]

    if diagnostics is not None and (alpha_hat / lo < 1.001 or hi / alpha_hat < 1.001):
        diagnostics["alpha_bound_hits"] = diagnostics.get("alpha_bound_hits", 0) + 1
    if diagnostics is not None and s2 == SIGMA2_FLOOR:
        diagnostics["sigma2_floor_hits"] = diagnostics.get("sigma2_floor_hits", 0) + 1
    return CovParams(s2, alpha_hat)


# ---------------------------------------------------------------------------
# EM driver
# ---------------------------------------------------------------------------


def _alpha_bounds(config: FitConfig, grid: GridSpec):
    return config.alpha_bounds if config.alpha_bounds is not None else (1e-2, float(grid.n1))


def em_step(Y: CountGrid, X, grid: GridSpec, config: FitConfig, beta, eta: CovParams, W,
            diagnostics: dict, U=None, fixed=None):
    """One EM map (beta, eta, W, U) -> (beta', eta', W', U', Q_inc, Q_new).

    E-step: the Laplace mode from W and the M probe pairs, whose v's,
    rademacher(M, n, config.seed), are the same on every map, so the map is a
    deterministic function of its input.  Their solves U' start from the (M, n)
    array U, the previous map's solves, or from zero if U is None.  M-step:
    the GLS beta (joint scheme only) and the range search, each kept only when
    it does not lower Q, so Q_new >= Q_inc.  Both work on the half plane, from
    one transform of W' and one of the stacked U'.  fixed, fit_transforms(X,
    grid, config), is built here if None; the output does not depend on which.
    """
    x_hat, gram, v, v_hat = fit_transforms(X, grid, config) if fixed is None else fixed
    f = quasi_matern_spectrum(eta, grid)
    lap = newton_mode(Y, grid.delta(), X @ beta, f, W_init=W, epsilon=config.eps_newton,
                      max_newton=config.max_newton, eps_pcg=config.eps_pcg,
                      diagnostics=diagnostics)
    W = lap.mode
    if not lap.converged:
        diagnostics["newton_nonconverged"] = diagnostics.get("newton_nonconverged", 0) + 1
    probes = make_probes(config.M, grid.n, config.seed, f, lap.c_diag, config.eps_pcg, U, v)
    diagnostics["probe_pcg_iterations"] = (diagnostics.get("probe_pcg_iterations", 0)
                                           + probes.pcg_iterations)
    if not probes.solve_converged.all():
        diagnostics["probe_nonconverged"] = diagnostics.get("probe_nonconverged", 0) + 1
    shape = (grid.n1, grid.n2)
    w_hat, u_hat = half_spectra(W, shape)[0], half_spectra(probes.u, shape)
    probe_part = np.mean(v_hat.real * u_hat.real + v_hat.imag * u_hat.imag, axis=0)

    def profile(b):
        r_hat = w_hat - b @ x_hat
        return quartic_profile(r_hat.real ** 2 + r_hat.imag ** 2 + probe_part, grid)

    price = profile(beta)
    q_inc = q_mid = price(eta.alpha, eta.sigma2)[0]
    if X.shape[1] > 0 and config.scheme == "joint":
        beta_cand = update_beta(W, X, f, (x_hat, gram), w_hat)
        price_cand = profile(beta_cand)
        q_cand = price_cand(eta.alpha, eta.sigma2)[0]
        if q_cand >= q_inc:
            beta, price, q_mid = beta_cand, price_cand, q_cand

    # eta step on the residual at the chosen beta; q_new is the number it maximized
    eta_cand = update_eta(price, _alpha_bounds(config, grid), incumbent=eta,
                          diagnostics=diagnostics)
    q_new = price(eta_cand.alpha, eta_cand.sigma2)[0]
    if q_new >= q_mid:
        eta = eta_cand
    else:
        q_new = q_mid
    return beta, eta, W, probes.u, q_inc, q_new


def squarem(F, x, state, lo, hi, eps, max_maps):
    """Fixed point of x -> F(x, state)[0] by SQUAREM (Varadhan & Roland 2008,
    scheme S3), with the residual check and steplength bound of their SQUAREM
    package.

    F(x, state) returns (F(x), new state); the state rides along without
    being extrapolated.  Each cycle takes two plain maps from x, extrapolates
    with steplength a = -||r|| / ||v|| clamped to [-step_max, -1], clips the
    point to the box [lo, hi], and takes one stabilising map from it.  If that
    map raises NumericalError or its residual blows up, the cycle falls back
    to the second plain map.  Stops after the first map whose RMS step is
    below eps, or after max_maps maps.  Returns (x, state, maps, converged,
    rejects).
    """
    maps = rejects = 0
    step_max = 1.0

    def plain(x, state):
        nonlocal maps
        maps += 1
        x_new, state = F(x, state)
        return x_new, state, float(np.sqrt(np.mean((x_new - x) ** 2))) < eps

    while True:
        x1, s1, done = plain(x, state)
        if done or maps >= max_maps:
            return x1, s1, maps, done, rejects
        x2, s2, done = plain(x1, s1)
        if done or maps >= max_maps:
            return x2, s2, maps, done, rejects
        r = x1 - x
        v = x2 - x1 - r
        nr, nv = np.linalg.norm(r), np.linalg.norm(v)
        a = -float(np.clip(nr / nv, 1.0, step_max)) if nv > 0 else -step_max
        x_ext = np.clip(x - 2.0 * a * r + a * a * v, lo, hi)
        try:
            x3, s3, done = plain(x_ext, s2)
            bound = nr + 1.0 + np.sqrt(np.mean(x2 * x2))
            blown = not np.linalg.norm(x3 - x_ext) <= bound
        except NumericalError:
            blown = True
        if blown:
            rejects += 1
            x, state, done = x2, s2, False
            if a == -step_max:
                step_max = max(1.0, step_max / SQUAREM_STEP_GROWTH)
        else:
            x, state = x3, s3
            if a == -step_max:
                step_max *= SQUAREM_STEP_GROWTH
        if done or maps >= max_maps:
            return x, state, maps, done, rejects


def _pack(beta, eta: CovParams):
    return np.concatenate([beta, [np.log(eta.sigma2), np.log(eta.alpha)]])


def _unpack(x):
    with np.errstate(over="ignore"):
        eta = np.exp(x[-2:])
    if not (np.all(np.isfinite(x[:-2])) and np.all(np.isfinite(eta))):
        raise NumericalError(f"EM parameters left the finite range: {x}")
    return x[:-2], CovParams(float(eta[0]), float(eta[1]))


def glm_start(Y: CountGrid, X, grid: GridSpec, bounds):
    """Starting (beta, eta, W): the Poisson GLM beta_0, W_0 = X beta_0, the
    range n1/4 clipped to its bounds, and the amplitude giving the pixel
    variance v = log(1 + sum((y - mu)^2 - mu) / sum(mu^2)), the lognormal
    moment of the counts' excess dispersion around the GLM mean mu (floored
    at START_VARIANCE_FLOOR when there is none)."""
    y = Y.vector()
    delta = grid.delta()
    beta, _ = _poisson_irls(y, delta, X)
    W = X @ beta
    mu = delta * clamped_exp(W)
    excess, scale = float(np.sum((y - mu) ** 2 - mu)), float(np.sum(mu * mu))
    v = np.log1p(excess / scale) if excess > 0 and scale > 0 else 0.0
    alpha = float(np.clip(grid.n1 / 4.0, *bounds))
    sigma2 = amplitude_for_variance(max(v, START_VARIANCE_FLOOR), alpha, grid)
    return beta, CovParams(sigma2, alpha), W


def fit(Y: CountGrid, X, grid: GridSpec, config: FitConfig) -> FitResult:
    """EM from the Poisson-GLM start (glm_start), accelerated by SQUAREM on
    theta = (beta, log sigma2, log alpha) with the mode W and the probe
    solves U as state, then one Newton refresh of the mode at the final
    theta.

    X is an n x (p+1) design with intercept first, or None (equivalently, an
    (n, 0) array) for a covariance-only model.  Converged means the RMS step
    of theta over one EM map fell below config.eps_em; max_em caps the maps.
    """
    X = design_matrix(X, grid.n)
    # always 0; kept for readers that add it to em_iterations (perfbench/run.py)
    diagnostics = {"stage1_iterations": 0}
    t0 = time.perf_counter()
    bounds = _alpha_bounds(config, grid)
    fixed = fit_transforms(X, grid, config)
    beta, eta, W = glm_start(Y, X, grid, bounds)

    rows = []

    def em_map(x, state):
        W, U = state
        beta, eta, W, U, q_inc, q_new = em_step(Y, X, grid, config, *_unpack(x), W,
                                                diagnostics, U, fixed)
        rows.append((q_inc, q_new))
        return _pack(beta, eta), (W, U)

    p = X.shape[1]
    lo = np.r_[np.full(p, -np.inf), np.log(SIGMA2_FLOOR), np.log(bounds[0])]
    hi = np.r_[np.full(p, np.inf), np.inf, np.log(bounds[1])]
    x, (W, _), iterations, converged, rejects = squarem(
        em_map, _pack(beta, eta), (W, None), lo, hi, config.eps_em, config.max_em)
    diagnostics["squarem_rejects"] = rejects
    beta, eta = _unpack(x)

    # refresh the mode at the final theta so W* matches theta*
    Xbeta = X @ beta
    W_star = newton_mode(Y, grid.delta(), Xbeta, quasi_matern_spectrum(eta, grid), W_init=W,
                         epsilon=config.eps_newton, max_newton=config.max_newton,
                         eps_pcg=config.eps_pcg, diagnostics=diagnostics).mode
    diagnostics["runtime_seconds"] = time.perf_counter() - t0

    return FitResult(
        theta_star=Theta(beta, eta),
        W_star=W_star,
        Z_star=W_star - Xbeta,
        em_iterations=iterations,
        converged=converged,
        objective_trace=np.asarray(rows, dtype=float).reshape(-1, 2),
        diagnostics=diagnostics,
    )
