"""Preconditioned conjugate gradients with a residual-change stop.

The operator supplies its own preconditioner M^{-1} as a callable; for the
posterior precision that is laplace.precision_operator's diagonally scaled
circulant inverse.  The stopping rule is

    sqrt(mean((r_{k+1} - r_k)^2)) <= max(epsilon, forcing . rms(r_0)),

checked from the first full iteration onward, with r_0 = b - A x0.  forcing
= FORCING is the inexact-Newton forcing term (Dembo, Eisenstat & Steihaug
1982): a system that only serves the next step of an outer iteration is
solved to a tenth of its starting residual, epsilon being the floor; forcing
= 0 (the default) keeps the plain stop.  An exact-solution guard (||r|| <=
1e-12 ||b||) catches systems solved in fewer steps than the change rule can
see.  Both tests run before the new residual is preconditioned, so a solve
of k iterations applies M^{-1} k times.  b and x0 are checked at the
boundary; the iterations run in buffers allocated once per solve, check
finiteness once each (||r||), and return the residual with the solution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError

FORCING = 0.1  # relative stop of the solves that serve an outer iteration


@dataclass(frozen=True)
class SpdOperator:
    """Matrix-free SPD operator: apply(v) = Av, precondition(r) = M^{-1} r for
    an SPD approximation M of A."""

    apply: Callable[[np.ndarray], np.ndarray]
    precondition: Callable[[np.ndarray], np.ndarray]


@dataclass
class PcgResult:
    x: np.ndarray
    iterations: int
    converged: bool
    resid_norms: list = field(default_factory=list)  # sqrt(r_j M^-1 r_j), j < iterations
    residual: np.ndarray | None = None  # b - A x by the CG recurrence, for the returned x


def default_max_iter(n: int) -> int:
    return min(2000, max(1, math.ceil(10.0 * math.sqrt(n))))


def _preconditioned_norm2(r, z) -> float:
    """r' M^{-1} r, which an SPD preconditioner keeps positive for r != 0."""
    rz = float(r @ z)
    if not math.isfinite(rz) or rz < 0.0 or (rz == 0.0 and np.any(r)):
        raise NumericalError(f"preconditioner not SPD: r'M^-1 r = {rz}")
    return rz


def pcg_solve(op: SpdOperator, b: np.ndarray, x0=None, epsilon: float = 1e-3,
              max_iter: int | None = None, forcing: float = 0.0) -> PcgResult:
    b = np.asarray(b, dtype=float)
    n = b.size
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 <= forcing < 1.0:
        raise ConfigError(f"forcing must be in [0, 1), got {forcing}")
    max_iter = default_max_iter(n) if max_iter is None else max_iter
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    for name, v in (("b", b), ("x0", x0)):
        if v is not None and not np.all(np.isfinite(v)):
            raise NumericalError(f"PCG input {name} contains non-finite entries")

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:  # the exact solution, whatever x0 is
        return PcgResult(np.zeros(n), 0, True, residual=np.zeros(n))
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b.copy() if x0 is None else b - op.apply(x)  # no matvec on a zero start
    best_rnorm = np.linalg.norm(r)
    if best_rnorm <= 1e-12 * bnorm:
        return PcgResult(x, 0, True, residual=r)

    z = np.asarray(op.precondition(r), dtype=float)
    if z.shape != r.shape:
        raise ConfigError(f"preconditioned residual shape {z.shape} != rhs shape {r.shape}")
    rz = _preconditioned_norm2(r, z)
    p = z.copy()
    resid_norms = [math.sqrt(rz)]
    # x and r update in place; the best iterate is kept by swapping it with the
    # spare pair, not by copying x on each improvement
    x_spare, r_spare, scaled = np.empty((3, n))
    at_best = True
    sqrt_n = math.sqrt(n)
    epsilon = max(epsilon, forcing * best_rnorm / sqrt_n)  # best_rnorm is ||r_0|| here

    for k in range(1, max_iter + 1):
        Ap = op.apply(p)
        pAp = float(p @ Ap)
        if not math.isfinite(pAp) or pAp <= 0.0:
            raise NumericalError(f"PCG curvature p'Ap = {pAp} at iteration {k}; operator not SPD")
        alpha = rz / pAp
        change_rms = abs(alpha) * np.linalg.norm(Ap) / sqrt_n  # = ||r_{k+1} - r_k|| / sqrt(n)
        x_old, r_old = x, r
        if at_best:
            x, x_spare, r, r_spare = x_spare, x, r_spare, r
        np.add(x_old, np.multiply(alpha, p, out=scaled), out=x)
        np.subtract(r_old, np.multiply(alpha, Ap, out=scaled), out=r)
        rnorm = np.linalg.norm(r)
        if not math.isfinite(rnorm):  # the iteration's one scan: bad p, Ap or alpha reach r
            raise NumericalError(f"PCG iterate contains non-finite values at iteration {k}")
        at_best, best_rnorm = rnorm < best_rnorm, min(rnorm, best_rnorm)
        if rnorm <= 1e-12 * bnorm or change_rms <= epsilon:
            return PcgResult(x, k, True, resid_norms, r)
        if k == max_iter:
            break  # no iteration follows to use M^{-1} r
        z = op.precondition(r)
        rz_new = _preconditioned_norm2(r, z)
        resid_norms.append(math.sqrt(rz_new))
        p *= rz_new / rz  # p = z + beta p, updated in place
        p += z
        rz = rz_new

    if not at_best:  # the best residual seen; caller decides how to treat non-convergence
        x, r = x_spare, r_spare
    return PcgResult(x, k, False, resid_norms, r)
