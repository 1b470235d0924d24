"""Hutchinson probe pairs for the E-step trace term.

The expensive half of each probe, u_i = (Sigma_t^{-1} + C)^{-1} v_i, is
solved once per EM iteration.  The v's are the same on every map, so each
solve starts from the previous map's u_i (make_probes' u0), which the change
in (Sigma_t, C) between maps leaves a few PCG iterations from the new
solution; such a solve stops at a tenth of its starting residual, floored
at eps_pcg (pcg.FORCING).  There is no estimator here: the M-step
transforms the pairs once per iteration (em.probe_spectrum) and adds that
spectrum to the power spectrum of each residual it prices, after which the
trace (1/M) sum_i v_i' Sigma_eta^{-1} u_i at every candidate range is a sum
over frequencies with no FFT.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .laplace import precision_operator
from .pcg import FORCING, pcg_solve
from .spectral import SpectralField
# unused here; kept for perfbench/tracing.py, which patches trace.sigma_inv_matvec
from .spectral import sigma_inv_matvec  # noqa: F401


@dataclass(frozen=True)
class ProbePairs:
    v: np.ndarray  # (M, n) Rademacher probes
    u: np.ndarray  # (M, n) solves against the fixed posterior precision
    solve_converged: np.ndarray  # (M,) bool
    pcg_iterations: int = 0  # total over the M solves

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if v.ndim != 2 or u.shape != v.shape:
            raise ConfigError(f"probe arrays must share an (M, n) shape, got {v.shape} and {u.shape}")
        if not np.all(np.abs(v) == 1.0):
            raise ConfigError("probe entries must be Rademacher (+1 or -1)")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)

    @property
    def M(self):
        return self.v.shape[0]


def rademacher(M: int, n: int, seed: int) -> np.ndarray:
    """The (M, n) Rademacher probes v drawn from seed: the same v's for the
    same (M, n, seed), on every EM map of a fit."""
    rng = np.random.default_rng(seed)
    return 2.0 * rng.integers(0, 2, size=(M, n)).astype(float) - 1.0


def make_probes(M: int, n: int, seed: int, f_t: SpectralField, c_diag,
                eps_pcg: float = 1e-3, u0=None) -> ProbePairs:
    """Draw M Rademacher probes (rademacher) and solve (Sigma_t^{-1} + C) u
    = v for each, PCG starting from row i of the (M, n) array u0, or from
    zero if u0 is None.

    A warm solve's starting residual v - A u0 measures how far the operator
    has moved since u0 was solved, so it stops at a residual change of
    max(eps_pcg, FORCING . rms(v - A u0)).  A cold solve keeps the plain
    eps_pcg stop: a tenth of rms(v) = 1 would leave u far looser than the
    fit's fixed point allows."""
    if M < 1:
        raise ConfigError(f"probe count M must be >= 1, got {M}")
    if n != f_t.n:
        raise ConfigError(f"probe length {n} does not match spectrum size {f_t.n}")
    if u0 is not None and np.shape(u0) != (M, n):
        raise ConfigError(f"probe start must be ({M}, {n}), got {np.shape(u0)}")
    v = rademacher(M, n, seed)
    op = precision_operator(f_t, np.asarray(c_diag, dtype=float))
    u = np.empty_like(v)
    ok = np.empty(M, dtype=bool)
    iterations = 0
    forcing = 0.0 if u0 is None else FORCING
    for i in range(M):
        sol = pcg_solve(op, v[i], x0=None if u0 is None else u0[i], epsilon=eps_pcg,
                        forcing=forcing)
        u[i] = sol.x
        ok[i] = sol.converged
        iterations += sol.iterations
    return ProbePairs(v, u, ok, iterations)
