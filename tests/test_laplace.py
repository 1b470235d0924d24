import numpy as np
import pytest
from scipy.optimize import bisect

from oracles import dense_log_posterior, dense_newton_mode, dense_sigma_inv
from slem import (CountGrid, CovParams, GridSpec, newton_mode, posterior_score,
                  quasi_matern_spectrum, unflatten)
from slem import laplace
from slem.laplace import EXP_CLAMP, clamped_exp, log_posterior, precision_operator


def make_instance(grid, eta, beta0=0.2, seed=0):
    """Simulated counts plus the pieces every mode-finding test needs."""
    rng = np.random.default_rng(seed)
    f = quasi_matern_spectrum(eta, grid)
    Xbeta = beta0 + 0.3 * rng.standard_normal(grid.n)
    delta = grid.delta()
    lam = np.exp(Xbeta + 0.5 * rng.standard_normal(grid.n))
    y = rng.poisson(delta * lam)
    Y = CountGrid(unflatten(y, grid.n1, grid.n2), grid)
    return Y, delta, Xbeta, f


# ---------------------------------------------------------------------------
# posterior score
# ---------------------------------------------------------------------------


def test_score_zero_when_data_match_prior_mean():
    grid = GridSpec.unit(4, 4)
    f = quasi_matern_spectrum(CovParams(1.5, 3.0), grid)
    Xbeta = np.full(16, np.log(2.0))
    delta = grid.delta()
    Y = CountGrid(np.full((4, 4), 2), grid)   # Y = delta * exp(Xbeta) exactly
    score = posterior_score(Xbeta, Y, delta, Xbeta, f)
    np.testing.assert_allclose(score, 0.0, atol=1e-12)


def test_score_alpha_zero_analytic():
    grid = GridSpec.unit(3, 3)
    sigma2 = 1.7
    f = quasi_matern_spectrum(CovParams(sigma2, 0.0), grid)
    rng = np.random.default_rng(1)
    W = rng.standard_normal(9)
    Xbeta = rng.standard_normal(9)
    delta = grid.delta()
    Y = CountGrid(rng.poisson(1.0, size=(3, 3)), grid)
    got = posterior_score(W, Y, delta, Xbeta, f)
    want = Y.vector() - delta * np.exp(W) - (W - Xbeta) / sigma2
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_score_matches_finite_differences():
    grid = GridSpec.unit(6, 6)
    Y, delta, Xbeta, f = make_instance(grid, CovParams(1.5, 3.0), seed=2)
    Sinv = dense_sigma_inv(f)
    rng = np.random.default_rng(3)
    W = Xbeta + 0.1 * rng.standard_normal(36)
    got = posterior_score(W, Y, delta, Xbeta, f)
    h = 1e-6
    fd = np.empty(36)
    for i in range(36):
        Wp, Wm = W.copy(), W.copy()
        Wp[i] += h
        Wm[i] -= h
        fd[i] = (dense_log_posterior(Wp, Y.vector(), delta, Xbeta, Sinv)
                 - dense_log_posterior(Wm, Y.vector(), delta, Xbeta, Sinv)) / (2 * h)
    assert np.linalg.norm(got - fd) / np.linalg.norm(fd) < 1e-5


def test_score_clamps_exp_and_records_event():
    grid = GridSpec.unit(3, 3)
    f = quasi_matern_spectrum(CovParams(1.0, 0.0), grid)
    W = np.full(9, 100.0)
    diagnostics = {}
    score = posterior_score(W, CountGrid(np.zeros((3, 3), dtype=int), grid),
                            grid.delta(), np.zeros(9), f, diagnostics=diagnostics)
    assert np.all(np.isfinite(score))
    assert score[0] == pytest.approx(-np.exp(EXP_CLAMP) - 100.0)
    assert diagnostics.get("clamp_events", 0) > 0
    np.testing.assert_allclose(clamped_exp(np.array([100.0])), np.exp(50.0))


# ---------------------------------------------------------------------------
# newton mode
# ---------------------------------------------------------------------------


def test_single_pixel_mode_matches_bisection():
    grid = GridSpec(1, 1, 0.0, 1.0, 0.0, 1.0)
    f = quasi_matern_spectrum(CovParams(2.0, 0.0), grid)
    Y = CountGrid(np.array([[3]]), grid)
    fit = newton_mode(Y, grid.delta(), np.zeros(1), f, epsilon=1e-8)
    root = bisect(lambda w: 3.0 - np.exp(w) - w / 2.0, -5.0, 5.0, xtol=1e-12)
    assert fit.converged
    assert fit.mode[0] == pytest.approx(root, abs=1e-6)


def test_mode_at_exact_data_is_prior_mean():
    grid = GridSpec.unit(4, 4)
    f = quasi_matern_spectrum(CovParams(1.5, 3.0), grid)
    Xbeta = np.full(16, np.log(3.0))
    Y = CountGrid(np.full((4, 4), 3), grid)
    fit = newton_mode(Y, grid.delta(), Xbeta, f)
    assert fit.converged
    np.testing.assert_allclose(fit.mode, Xbeta, atol=1e-10)


@pytest.mark.parametrize("eta", [CovParams(1.5, 3.0), CovParams(2.0, 8.0)])
def test_mode_matches_dense_newton(eta):
    # tight inner solves: the oracle comparison measures the fixed point, not
    # the default (intentionally loose) PCG tolerance
    grid = GridSpec.unit(6, 6)
    Y, delta, Xbeta, f = make_instance(grid, eta, seed=4)
    fit = newton_mode(Y, delta, Xbeta, f, epsilon=1e-6, eps_pcg=1e-10)
    oracle = dense_newton_mode(Y.vector(), delta, Xbeta, dense_sigma_inv(f))
    rms = np.linalg.norm(fit.mode - oracle) / np.sqrt(36)
    assert rms < 1e-5
    grad = posterior_score(fit.mode, Y, delta, Xbeta, f)
    assert np.linalg.norm(grad) / np.sqrt(36) < 1e-2


def test_mode_gradient_small_at_convergence():
    grid = GridSpec.unit(8, 8)
    Y, delta, Xbeta, f = make_instance(grid, CovParams(1.5, 3.0), seed=5)
    eps = 1e-4
    fit = newton_mode(Y, delta, Xbeta, f, epsilon=eps)
    assert fit.converged
    grad = posterior_score(fit.mode, Y, delta, Xbeta, f)
    assert np.linalg.norm(grad) / np.sqrt(64) < 10 * eps


def test_objective_non_decreasing_from_start():
    grid = GridSpec.unit(6, 6)
    Y, delta, Xbeta, f = make_instance(grid, CovParams(2.0, 8.0), seed=6)
    y = Y.vector()
    start = Xbeta + 2.0 * np.random.default_rng(7).standard_normal(36)
    fit = newton_mode(Y, delta, Xbeta, f, W_init=start)
    assert log_posterior(fit.mode, y, delta, Xbeta, f)[0] >= log_posterior(
        start, y, delta, Xbeta, f)[0]


def test_newton_mode_transforms_sigma_inverse_once_per_mode(monkeypatch):
    # Sigma^{-1}(W - X beta) outside the PCG solves: one for the start; every
    # line-search trial, rejected ones included, is priced from the PCG
    # residual with no transform, and the score reuses the accepted trial's
    grid = GridSpec.unit(6, 6)
    Y, delta, Xbeta, f = make_instance(grid, CovParams(20.0, 3.0), seed=6)
    start = Xbeta - 6.0  # far below the data: the first full steps overshoot
    seen = {"transforms": 0, "trials": 0, "in_pcg": False, "rhs": []}
    real_inv, real_density, real_pcg = (laplace.sigma_inv_matvec, laplace._log_density,
                                        laplace.pcg_solve)

    def sigma_inv(f, v):
        seen["transforms"] += not seen["in_pcg"]
        return real_inv(f, v)

    def density(*args):
        seen["trials"] += 1
        return real_density(*args)

    def pcg(op, b, **kwargs):
        seen["rhs"].append(b)
        seen["in_pcg"] = True
        try:
            return real_pcg(op, b, **kwargs)
        finally:
            seen["in_pcg"] = False

    monkeypatch.setattr(laplace, "sigma_inv_matvec", sigma_inv)
    monkeypatch.setattr(laplace, "_log_density", density)
    monkeypatch.setattr(laplace, "pcg_solve", pcg)
    fit = newton_mode(Y, delta, Xbeta, f, W_init=start)
    assert fit.converged
    rejected = seen["trials"] - 1 - fit.newton_iterations  # the start is one density too
    assert rejected > 0
    assert seen["transforms"] == 1
    # the start's transform gives the public score bit for bit
    monkeypatch.setattr(laplace, "sigma_inv_matvec", real_inv)
    np.testing.assert_array_equal(seen["rhs"][0], posterior_score(start, Y, delta, Xbeta, f))


def recorded_trials(monkeypatch):
    """Every (W, prior_pull, log posterior) that newton_mode prices."""
    trials = []
    real = laplace._log_density

    def density(W, y_vec, delta, Xbeta, prior_pull):
        obj, e = real(W, y_vec, delta, Xbeta, prior_pull)
        trials.append((W.copy(), prior_pull.copy(), obj))
        return obj, e

    monkeypatch.setattr(laplace, "_log_density", density)
    return trials


@pytest.mark.parametrize("max_iter", [None, 2])
@pytest.mark.parametrize("n1,n2,alpha", [(6, 6, 3.0), (16, 12, 8.0)])
def test_trial_points_are_priced_as_log_posterior_prices_them(monkeypatch, max_iter, n1, n2,
                                                              alpha):
    # Sigma^{-1} step = score - r - C step from the PCG residual r gives each
    # trial's prior pull and log posterior without a transform; they must be
    # log_posterior's, through backtracked trials and through solves cut at
    # max_iter, whose returned residual is the returned step's
    grid = GridSpec.unit(n1, n2)
    Y, delta, Xbeta, f = make_instance(grid, CovParams(20.0, alpha), seed=3)
    if max_iter is not None:
        real_pcg = laplace.pcg_solve
        monkeypatch.setattr(laplace, "pcg_solve",
                            lambda op, b, **kw: real_pcg(op, b, max_iter=max_iter, **kw))
    trials = recorded_trials(monkeypatch)
    diag = {}
    fit = newton_mode(Y, delta, Xbeta, f, W_init=Xbeta - 6.0, diagnostics=diag)
    monkeypatch.undo()
    assert len(trials) - 1 > fit.newton_iterations  # at least one trial backtracked
    if max_iter is not None:
        assert diag["pcg_nonconverged"] >= 1  # solves that stopped at max_iter
    y = Y.vector()
    for W, pull, obj in trials[1:]:
        want_obj, want_pull = log_posterior(W, y, delta, Xbeta, f)
        assert np.linalg.norm(pull - want_pull) <= 1e-10 * np.linalg.norm(want_pull)
        assert abs(obj - want_obj) <= 1e-10 * abs(want_obj)


def test_precision_operator_reads_the_cached_inverse_row(monkeypatch):
    grid = GridSpec.unit(6, 6)
    Y, delta, Xbeta, f = make_instance(grid, CovParams(1.5, 3.0), seed=2)
    row = f.inv_row
    assert f.inv_row is row and not row.flags.writeable
    np.testing.assert_array_equal(row, np.fft.irfft2(1.0 / f.values, s=f.shape).ravel(order="F"))
    calls = []
    real = np.fft.irfft2
    monkeypatch.setattr(np.fft, "irfft2", lambda *a, **k: calls.append(1) or real(*a, **k))
    for _ in range(3):
        precision_operator(f, delta * np.exp(Xbeta))
    assert calls == []


def test_precision_operator_takes_the_diagonal_without_building_the_inverse_row():
    # s0 = mean(1/f) is inv_row[0], so a field that only serves PCG never transforms 1/f
    grid = GridSpec.unit(6, 5)
    Y, delta, Xbeta, f = make_instance(grid, CovParams(1.5, 3.0), seed=2)
    c = delta * np.exp(Xbeta)
    r = np.random.default_rng(3).standard_normal(grid.n)
    got = precision_operator(f, c).precondition(r)
    assert "inv_row" not in vars(f)
    s0, c_bar = f.inv_row[0], np.mean(c)
    scale = np.sqrt((s0 + c_bar) / (s0 + c))
    middle = np.fft.irfft2(np.fft.rfft2(unflatten(scale * r, 6, 5)) / (1.0 / f.values[:, :3] + c_bar),
                           s=(6, 5))
    np.testing.assert_allclose(got, scale * middle.ravel(order="F"), rtol=1e-12, atol=1e-14)


def test_warm_start_agrees_with_cold():
    grid = GridSpec.unit(6, 6)
    Y, delta, Xbeta, f = make_instance(grid, CovParams(1.5, 3.0), seed=8)
    eps = 1e-6
    cold = newton_mode(Y, delta, Xbeta, f, epsilon=eps)
    warm = newton_mode(Y, delta, Xbeta, f, W_init=cold.mode + 0.05, epsilon=eps)
    rms = np.linalg.norm(cold.mode - warm.mode) / np.sqrt(36)
    assert rms < 10 * eps


def test_c_diag_positive_and_shapes():
    grid = GridSpec.unit(5, 5)
    Y, delta, Xbeta, f = make_instance(grid, CovParams(1.5, 3.0), seed=9)
    fit = newton_mode(Y, delta, Xbeta, f)
    assert fit.c_diag.shape == (25,)
    assert np.all(fit.c_diag > 0)
    np.testing.assert_allclose(fit.c_diag, delta * np.exp(fit.mode), rtol=1e-12)


def test_sparse_counts_mode_finds_low_intensity():
    # mostly-zero counts: damped steps must still land on the optimum
    grid = GridSpec.unit(8, 8)
    f = quasi_matern_spectrum(CovParams(2.0, 4.0), grid)
    values = np.zeros((8, 8), dtype=int)
    values[2, 3] = 1
    Y = CountGrid(values, grid)
    fit = newton_mode(Y, grid.delta(), np.zeros(64), f, epsilon=1e-6, eps_pcg=1e-10)
    assert fit.converged
    oracle = dense_newton_mode(Y.vector(), grid.delta(), np.zeros(64),
                               dense_sigma_inv(f))
    assert np.linalg.norm(fit.mode - oracle) / np.sqrt(64) < 1e-5


@pytest.mark.parametrize("seed", range(3))
def test_inexact_newton_saves_pcg_iterations_and_keeps_the_mode(monkeypatch, seed):
    # from W = X beta each system is solved to a tenth of its score; the
    # fully solved systems (FORCING = 0) reach the same mode in more PCG
    # iterations
    grid = GridSpec.unit(32, 32)
    Y, delta, Xbeta, f = make_instance(grid, CovParams(5.0, 2.0), seed=seed)
    eps = 1e-3
    forced_diag, plain_diag = {}, {}
    forced = newton_mode(Y, delta, Xbeta, f, epsilon=eps, diagnostics=forced_diag)
    monkeypatch.setattr(laplace, "FORCING", 0.0)
    plain = newton_mode(Y, delta, Xbeta, f, epsilon=eps, diagnostics=plain_diag)
    assert forced.converged and plain.converged
    assert forced_diag["newton_pcg_iterations"] < plain_diag["newton_pcg_iterations"]
    assert forced_diag["newton_steps"] == forced.newton_iterations
    assert np.linalg.norm(forced.mode - plain.mode) / np.sqrt(grid.n) < eps
