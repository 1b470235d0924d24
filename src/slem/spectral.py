"""Circulant (wrap-around) covariance on the grid, driven by its spectrum.

The covariance never exists as a matrix: it is diagonalized by the 2-D DFT,
so every operation is elementwise in frequency space.  Convention used
throughout: forward DFT unscaled, inverse DFT carries the 1/n factor (numpy's
default), hence

    Sigma = F^{-1} diag(f) F,          eigenvalues exactly f(omega),
    Cov(h) = (1/n) sum_omega f(omega) e^{i omega . h},
    log|Sigma| = sum_omega log f(omega).

Every operator is one real transform pair, iDFT(h . DFT(v)), with h the
spectrum of the operator on the rfft2 half plane: f for Sigma, 1/f for
Sigma^{-1}, sqrt(f) for sampling.  SpectralField owns that layout (its half,
inv_half and Sigma^{-1}'s base row inv_row, each computed once per field)
and _filter is the one transform pair, so results are exactly real; the
symmetry of f under frequency negation (which makes that legitimate) is a
hard construction-time invariant of SpectralField.  _filter runs rfft2's and
irfft2's 1-D passes in their order (half_dft, half_idft), so its output is
bit for bit irfft2(rfft2(v) * h); PCG's operator, whose inputs pcg_solve
checks, calls the two passes without _filter's checks.

Everything here needs numpy only; the Matern reference's Bessel function K_1
is a trapezoid sum (_bessel_k1), not scipy.special.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, NumericalError
from .grid import GridSpec, flatten, read_only, unflatten

@dataclass(frozen=True)
class CovParams:
    """Marginal variance sigma2 and inverse-range alpha, in pixel units."""

    sigma2: float
    alpha: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ConfigError(f"sigma2 must be positive, got {self.sigma2}")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"alpha must be non-negative, got {self.alpha}")


@dataclass(frozen=True)
class SpectralField:
    """Covariance eigenvalues f(omega) on the n1 x n2 Fourier frequency grid."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ConfigError(f"spectral field must be 2-D, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise NumericalError("spectral field entries must be finite and strictly positive")
        # f(omega) = f(-omega mod 2 pi) to 1e-8 relative: the real-matvec path
        # silently assumes it
        mirrored = np.roll(vals[::-1, ::-1], (1, 1), axis=(0, 1))
        if not np.all(np.abs(vals - mirrored) <= 1e-8 * np.abs(mirrored)):
            raise NumericalError("spectral field is not symmetric under frequency negation")
        object.__setattr__(self, "values", read_only(vals.copy()))

    @property
    def shape(self):
        return self.values.shape

    @property
    def n(self):
        return self.values.size

    @cached_property
    def half(self):
        """f on the rfft2 half plane, the first n2 // 2 + 1 frequency columns.

        Stored in Fortran order, the order of half_dft's output, so a
        filter's product and its inverse passes stay in that order and
        half_idft flattens without a copy; the values are unchanged."""
        return read_only(np.asfortranarray(self.values[:, : self.shape[1] // 2 + 1]))

    @cached_property
    def inv_half(self):
        """1 / f on the half plane: the spectrum of Sigma^{-1}."""
        return read_only(1.0 / self.half)

    @cached_property
    def inv_row(self):
        """First row of Sigma^{-1}: the inverse transform of 1/f."""
        return read_only(flatten(np.fft.irfft2(self.inv_half, s=self.shape)))


def frequency_sines(grid: GridSpec) -> np.ndarray:
    """s(omega) = sin^2(w1/2) + sin^2(w2/2) on the n1 x n2 frequency grid,
    read-only, computed once per grid shape and shared by every caller (the
    last few shapes are kept)."""
    return _sines(grid.n1, grid.n2)


@lru_cache(maxsize=8)
def _sines(n1: int, n2: int) -> np.ndarray:
    s1 = np.sin(np.pi * np.arange(n1) / n1) ** 2
    s2 = np.sin(np.pi * np.arange(n2) / n2) ** 2
    return read_only(s1[:, None] + s2[None, :])


def shape_log_det(alpha: float, grid: GridSpec) -> float:
    """sum_omega log g_alpha(omega) = -2 sum log1p(alpha^2 s(omega)), the log
    determinant of the unit-variance shape quasi_matern_shape, s from
    frequency_sines.  It depends on alpha and the grid shape alone, so it is
    computed once per (n1, n2, alpha) and shared by every caller.  The last
    512 are kept: a fit's range search revisits only recent alphas, so the
    benchmark fits, which price 198-556 distinct alphas, compute each once."""
    return _shape_log_det(grid.n1, grid.n2, alpha)


@lru_cache(maxsize=512)
def _shape_log_det(n1: int, n2: int, alpha: float) -> float:
    a2 = alpha * alpha
    return -2.0 * float(np.sum(np.log1p(a2 * _sines(n1, n2))))


def quasi_matern_shape(alpha: float, grid: GridSpec) -> np.ndarray:
    """Unit-variance spectrum shape (1 + alpha^2 s(omega))^-2, s from
    frequency_sines."""
    return (1.0 + alpha**2 * frequency_sines(grid)) ** -2.0


def quasi_matern_spectrum(eta: CovParams, grid: GridSpec) -> SpectralField:
    """Spectral density sigma2 (1 + alpha^2 sin^2(w1/2) + alpha^2 sin^2(w2/2))^-2."""
    return SpectralField(eta.sigma2 * quasi_matern_shape(eta.alpha, grid))


def marginal_variance(eta: CovParams, grid: GridSpec) -> float:
    """Cov(0) = sigma2 . mean(shape).

    sigma2 is a spectral amplitude, not the pixel variance; for large alpha the
    shape mean is O(alpha^-2) and the two differ by orders of magnitude.
    """
    return eta.sigma2 * float(np.mean(quasi_matern_shape(eta.alpha, grid)))


def amplitude_for_variance(variance: float, alpha: float, grid: GridSpec) -> float:
    """Spectral sigma2 giving the requested pixel variance at this alpha."""
    if variance <= 0:
        raise ConfigError(f"variance must be positive, got {variance}")
    return variance / float(np.mean(quasi_matern_shape(alpha, grid)))


# ---------------------------------------------------------------------------
# matvecs and friends (all O(n log n), all exact-real by construction)
# ---------------------------------------------------------------------------


def half_dft(v: np.ndarray, shape) -> np.ndarray:
    """DFT of an n-vector on an n1 x n2 grid, on the half plane: rfft2's
    passes, rfft along axis 1 then fft along axis 0."""
    return np.fft.fft(np.fft.rfft(unflatten(v, *shape), axis=1), axis=0)


def half_idft(h: np.ndarray, shape) -> np.ndarray:
    """The n-vector whose half_dft is h: irfft2's passes, ifft along axis 0
    then irfft along axis 1."""
    return flatten(np.fft.irfft(np.fft.ifft(h, axis=0), n=shape[1], axis=1))


def _filter(half: np.ndarray, v: np.ndarray, shape) -> np.ndarray:
    """iDFT(h . DFT(v)) for an n-vector v on an n1 x n2 grid, with h the
    operator's spectrum on the half plane (SpectralField.half or inv_half)."""
    n1, n2 = shape
    v = np.asarray(v, dtype=float)
    if v.size != n1 * n2:
        raise ConfigError(f"vector length {v.size} does not match grid {n1}x{n2}")
    if not np.all(np.isfinite(v)):
        raise NumericalError("matvec input contains non-finite entries")
    return half_idft(half_dft(v, shape) * half, shape)


def sigma_matvec(f: SpectralField, v: np.ndarray) -> np.ndarray:
    """Sigma v = iDFT(f . DFT(v))."""
    return _filter(f.half, v, f.shape)


def sigma_inv_matvec(f: SpectralField, v: np.ndarray) -> np.ndarray:
    """Sigma^{-1} v = iDFT(f^{-1} . DFT(v)); exact inverse, not an iterative solve."""
    return _filter(f.inv_half, v, f.shape)


def log_det(f: SpectralField) -> float:
    return float(np.sum(np.log(f.values)))


def sample_gp(f: SpectralField, seed: int) -> np.ndarray:
    """One exact N(0, Sigma) draw: Z = iDFT(sqrt(f) . DFT(eps)), eps iid N(0,1).

    The FFT square root has the same even symmetry as f, so the transform is a
    real symmetric matrix square root of Sigma and the draw is exact, not an
    approximation.
    """
    eps = np.random.default_rng(seed).standard_normal(f.shape)
    return _filter(np.sqrt(f.half), flatten(eps), f.shape)


# ---------------------------------------------------------------------------
# range calibration against the Matern family
# ---------------------------------------------------------------------------


def matern_correlation(h, range_):
    """Matern nu = 1 correlation (h/a) K_1(h/a), with rho(0) = 1.

    nu = 1 is the smoothness the quasi-Matern spectrum (1 + alpha^2 s)^-2
    approximates on a 2-D lattice, the only Matern a range is calibrated to.
    t K_1(t) = 1 + O(t^2 log t) rounds to 1 below t = 1e-10.  Raises
    ConfigError unless range_ is finite and positive."""
    if not (np.isfinite(range_) and range_ > 0):
        raise ConfigError(f"Matern range must be finite and positive, got {range_!r}")
    h = np.asarray(h, dtype=float)
    t = h / range_
    out = np.ones_like(t)
    pos = t > 1e-10
    out[pos] = t[pos] * _bessel_k1(t[pos])
    return out if out.ndim else float(out)


def _bessel_k1(t: np.ndarray) -> np.ndarray:
    """Modified Bessel function K_1 at each entry of the 1-D array t >= 1e-10.

    The trapezoid rule with step 0.05 on K_1(t) = int_0^inf exp(-t cosh u)
    cosh u du, cut at u = 30, past which the integrand underflows for every
    such t; each sum is rounded once (math.fsum), so it does not depend on
    summation order.  The integrand is even and analytic in a strip, so the
    rule converges geometrically: it is within 2e-15 relative of
    scipy.special.kv for t in [1e-10, 50] and equal to it at t = 1, where every
    calibration to an integer range evaluates it.  Past t = 50, where the
    correlation is below 1e-20, the relative error grows (2.5e-7 at t = 500)."""
    step = 0.05
    c = np.cosh(np.arange(0.0, 30.0, step))
    out = np.empty_like(t)
    with np.errstate(under="ignore"):
        for i, x in enumerate(t):
            terms = np.exp(-x * c) * c
            terms[0] *= 0.5
            out[i] = step * math.fsum(terms)
    return out


def correlation_at_lag(alpha: float, grid: GridSpec, lag: int) -> float:
    """Quasi-Matern correlation at lag (lag, 0) pixels, wrap-around included."""
    shape = quasi_matern_shape(alpha, grid)
    w1 = 2.0 * np.pi * np.arange(grid.n1) / grid.n1
    num = float(np.sum(shape * np.cos(w1 * lag)[:, None]))
    return num / float(np.sum(shape))


def calibrate_range_to_matern(grid: GridSpec, matern_range: float) -> float:
    """Quasi-Matern alpha whose correlation at lag round(matern_range) matches
    the Matern (nu = 1) correlation there.

    Bisection on a bracket found by scanning; correlation is monotone in alpha
    over the scanned window.  Raises ConfigError unless matern_range is finite
    and rounds to a lag of at least one pixel.
    """
    if not (np.isfinite(matern_range) and round(matern_range) >= 1):
        raise ConfigError(
            f"matern_range must be finite and round to a lag >= 1, got {matern_range!r}")
    lag = int(round(matern_range))
    target = float(matern_correlation(np.array([float(lag)]), matern_range)[0])

    def gap(a):
        return correlation_at_lag(a, grid, lag) - target

    lo, hi = 1e-2, float(max(grid.n1, grid.n2))
    if gap(lo) > 0:
        raise NumericalError("calibration target below the white-noise correlation")
    while gap(hi) < 0:
        hi *= 2.0
        if hi > 1e4:
            raise NumericalError("calibration failed to bracket the Matern target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * hi:
            break
    return 0.5 * (lo + hi)
