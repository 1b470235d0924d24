"""Acceptance gate: one numbered end-to-end check per release criterion.

Every test prints a single verdict line (``acceptance NN PASS|FAIL: detail``)
before asserting, so running

    pytest tests/test_acceptance.py -s

reads as a checklist.  The checks, in order: circulant covariance ops against
dense oracles, Laplace mode accuracy on simulated counts, Hutchinson trace
accuracy and unbiasedness, both M-step updates against brute force, monotone
EM surrogate over a full run, slope recovery on the 70x70 benchmark scenario,
insensitivity to the probe count M, local posterior variance, scoring oracles,
and byte-level reproducibility of the golden pipeline.

The 70x70 scenario (criteria 06 and 07) dominates the runtime; the whole
file finishes in a few minutes.
"""

import os
import time

import numpy as np
import pytest

from golden_pipeline import EXPECTED_FILES, run_all
from oracles import (dense_newton_mode, dense_sigma, dense_sigma_inv,
                     dense_trace, naive_log_score, naive_rmse, trace_term)
from slem import (CountGrid, CovParams, FitConfig, GridSpec, SimScenario,
                  amplitude_for_variance, calibrate_range_to_matern,
                  fit, interior_mask, local_variance,
                  log_det, log_score, make_probes, newton_mode,
                  posterior_score, power_spectrum, probe_spectrum, q_tilde,
                  quartic_profile, quasi_matern_spectrum, rmse_log_intensity, sample_gp,
                  sigma_inv_matvec, sigma_matvec, simulate_dataset,
                  unflatten, update_beta, update_eta)
from test_golden import EXPECTED_ROOT, assert_numeric_close, normalized_text

PARAM_SETS = [CovParams(1.5, 3.0), CovParams(2.0, 8.0)]
BENCH_BETA = np.array([1.0, 0.85, 0.6, 0.95])


def _verdict(num, ok, detail):
    line = f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _rel(got, want):
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.fixture(scope="module")
def bench70():
    """The 70x70 benchmark scenario: unit pixels, pixel variance 2 with the
    range calibrated to a Matern(range 18, nu 1) correlation, four-coefficient
    design, 20 replicates."""
    grid = GridSpec.unit(70, 70)
    alpha = calibrate_range_to_matern(grid, 18.0)
    eta = CovParams(amplitude_for_variance(2.0, alpha, grid), alpha)
    return SimScenario(grid, eta, BENCH_BETA, replicates=20, seed=2)


def test_01_circulant_ops_match_dense_oracles():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(0)
    for n1, n2 in [(6, 6), (8, 8), (5, 7), (7, 5), (9, 4)]:
        grid = GridSpec.unit(n1, n2)
        for eta in PARAM_SETS:
            f = quasi_matern_spectrum(eta, grid)
            S = dense_sigma(f)
            Sinv = dense_sigma_inv(f)
            v = rng.standard_normal(grid.n)
            worst = max(worst, _rel(sigma_matvec(f, v), S @ v))
            worst = max(worst, _rel(sigma_inv_matvec(f, v), Sinv @ v))
            worst = max(worst, _rel(log_det(f), np.linalg.slogdet(S)[1]))
            worst = max(worst, _rel(f.inv_row, Sinv[0]))
    dt = time.perf_counter() - t0
    _verdict(1, worst < 1e-8,
             f"circulant ops vs dense, max rel err {worst:.2e} "
             f"(bound 1e-8) in {dt:.2f}s")


def test_02_laplace_mode_matches_dense_newton():
    t0 = time.perf_counter()
    grid = GridSpec.unit(6, 6)
    eta = CovParams(1.5, 3.0)
    f = quasi_matern_spectrum(eta, grid)
    rng = np.random.default_rng(7)
    Z = sample_gp(f, seed=7)
    Xbeta = 0.3 + 0.4 * rng.standard_normal(grid.n)
    delta = grid.delta()
    Y = CountGrid(unflatten(rng.poisson(delta * np.exp(Xbeta + Z)), 6, 6), grid)

    res = newton_mode(Y, delta, Xbeta, f, eps_pcg=1e-10)
    W_dense = dense_newton_mode(Y.vector(), delta, Xbeta, dense_sigma_inv(f))
    rms = float(np.linalg.norm(res.mode - W_dense) / np.sqrt(grid.n))
    score = posterior_score(res.mode, Y, delta, Xbeta, f)
    score_rms = float(np.linalg.norm(score) / np.sqrt(grid.n))
    dt = time.perf_counter() - t0
    ok = rms < 1e-5 and score_rms < 1e-2
    _verdict(2, ok,
             f"mode RMS vs dense Newton {rms:.2e} (bound 1e-5), "
             f"score RMS {score_rms:.2e} (bound 1e-2) in {dt:.2f}s")


def test_03_trace_estimator_accuracy_and_unbiasedness():
    t0 = time.perf_counter()
    grid = GridSpec.unit(8, 8)
    f_t = quasi_matern_spectrum(CovParams(1.5, 3.0), grid)
    f_cand = quasi_matern_spectrum(CovParams(2.0, 8.0), grid)
    rng = np.random.default_rng(0)
    c_diag = rng.uniform(0.5, 2.0, grid.n)
    exact = dense_trace(f_cand, f_t, c_diag)

    probes = make_probes(500, grid.n, 1, f_t, c_diag, eps_pcg=1e-10)
    est = trace_term(f_cand, probes)
    rel = abs(est - exact) / abs(exact)

    vals = np.array([
        trace_term(f_cand, make_probes(20, grid.n, s, f_t, c_diag, eps_pcg=1e-10))
        for s in range(200)
    ])
    se = float(np.std(vals, ddof=1) / np.sqrt(vals.size))
    bias = abs(float(np.mean(vals)) - exact)
    dt = time.perf_counter() - t0
    ok = rel < 0.05 and bias < 3 * se and dt < 60.0
    _verdict(3, ok,
             f"M=500 rel err {rel:.3%} (bound 5%), 200-seed bias {bias:.3e} "
             f"vs 3 SE {3 * se:.3e}, in {dt:.1f}s (bound 60s)")


def test_04_m_step_updates_match_brute_force():
    t0 = time.perf_counter()
    grid = GridSpec.unit(6, 6)
    rng = np.random.default_rng(5)

    # beta step against the dense GLS solution, both covariance settings
    worst_beta = 0.0
    for eta in PARAM_SETS:
        f_t = quasi_matern_spectrum(eta, grid)
        X = np.column_stack([np.ones(grid.n),
                             rng.standard_normal(grid.n),
                             rng.standard_normal(grid.n)])
        W = sample_gp(f_t, 17) + X @ np.array([0.5, 0.3, -0.2])
        Sinv = dense_sigma_inv(f_t)
        A = X.T @ Sinv @ X
        want = np.linalg.solve(A, X.T @ Sinv @ W)
        worst_beta = max(worst_beta, _rel(update_beta(W, X, f_t), want))

    # eta step against an exhaustive 2-D grid over (sigma2, alpha); the dense
    # sweep factors out sigma2 analytically so only alphas need dense algebra
    bounds = (1e-2, 6.0)
    alphas = np.geomspace(bounds[0], bounds[1], 48)
    sigmas = np.geomspace(0.05, 100.0, 57)
    log_step_a = np.log(alphas[1] / alphas[0])
    log_step_s = np.log(sigmas[1] / sigmas[0])
    worst_a = worst_s = 0.0
    dominated = True
    for seed, eta_t in zip((11, 12), PARAM_SETS):
        f_t = quasi_matern_spectrum(eta_t, grid)
        W = sample_gp(f_t, seed)
        c = 0.2 + np.random.default_rng(seed).random(grid.n)
        probes = make_probes(20, grid.n, seed, f_t, c, eps_pcg=1e-10)
        P = power_spectrum(W, grid, probe_spectrum(probes, grid))
        eta_hat = update_eta(quartic_profile(P, grid), bounds)

        q_grid = np.empty((sigmas.size, alphas.size))
        for j, a in enumerate(alphas):
            Sinv1 = dense_sigma_inv(quasi_matern_spectrum(CovParams(1.0, a), grid))
            quad1 = W @ Sinv1 @ W
            tr1 = float(np.mean([probes.v[i] @ Sinv1 @ probes.u[i]
                                 for i in range(probes.M)]))
            logdet1 = -np.linalg.slogdet(Sinv1)[1]
            for k, s in enumerate(sigmas):
                q_grid[k, j] = -0.5 * (grid.n * np.log(s) + logdet1
                                       + (quad1 + tr1) / s)
        k_star, j_star = np.unravel_index(np.argmax(q_grid), q_grid.shape)
        assert 0 < k_star < sigmas.size - 1
        q_hat = q_tilde(P, quasi_matern_spectrum(eta_hat, grid), grid)
        dominated &= bool(q_hat >= q_grid[k_star, j_star] - 1e-9 * (1 + abs(q_hat)))
        worst_a = max(worst_a, abs(np.log(eta_hat.alpha / alphas[j_star])))
        worst_s = max(worst_s, abs(np.log(eta_hat.sigma2 / sigmas[k_star])))

    dt = time.perf_counter() - t0
    ok = (worst_beta < 1e-8 and dominated
          and worst_a <= log_step_a + 1e-12 and worst_s <= log_step_s + 1e-12
          and dt < 60.0)
    _verdict(4, ok,
             f"GLS rel err {worst_beta:.2e} (bound 1e-8); eta within "
             f"{worst_a:.3f}/{worst_s:.3f} log-steps of grid argmax "
             f"(steps {log_step_a:.3f}/{log_step_s:.3f}), dominates grid: "
             f"{dominated}, in {dt:.1f}s (bound 60s)")


def test_05_em_surrogate_never_decreases():
    t0 = time.perf_counter()
    grid = GridSpec.unit(32, 32)
    eta = CovParams(amplitude_for_variance(2.0, 8.0, grid), 8.0)
    scen = SimScenario(grid, eta, BENCH_BETA, replicates=1, seed=4)
    data = simulate_dataset(scen, 0)
    # eps_em below resolution so the run uses all 100 iterations
    config = FitConfig(M=1, scheme="joint", seed=0, max_em=100, eps_em=1e-300)
    res = fit(data.Y, data.X, grid, config)
    rows = res.objective_trace
    violations = int(np.sum(rows[:, 1] < rows[:, 0]))
    dt = time.perf_counter() - t0
    ok = rows.shape[0] == 100 and violations == 0
    _verdict(5, ok,
             f"{rows.shape[0]} EM iterations, {violations} surrogate "
             f"decreases (bound 0), min gain {np.min(rows[:, 1] - rows[:, 0]):.2e}, "
             f"in {dt:.1f}s")


def test_06_benchmark_scenario_recovers_coefficients(bench70):
    t0 = time.perf_counter()
    config = FitConfig(M=1, scheme="joint", seed=0)
    betas = np.empty((bench70.replicates, BENCH_BETA.size))
    for rep in range(bench70.replicates):
        data = simulate_dataset(bench70, rep)
        betas[rep] = fit(data.Y, data.X, bench70.grid, config).theta_star.beta
    mean = betas.mean(axis=0)
    err = np.abs(mean - BENCH_BETA)
    dt = time.perf_counter() - t0
    ok = bool(np.all(err[1:] <= 0.10) and err[0] <= 0.25 and dt < 7200.0)
    _verdict(6, ok,
             f"mean beta {np.array2string(mean, precision=3)} vs truth "
             f"{np.array2string(BENCH_BETA, precision=3)}; slope errs "
             f"{np.array2string(err[1:], precision=3)} (bound 0.10), intercept "
             f"err {err[0]:.3f} (bound 0.25), 20 fits in {dt:.0f}s (bound 2h)")


def test_07_probe_count_changes_runtime_not_estimates(bench70):
    t0 = time.perf_counter()
    data = simulate_dataset(bench70, 0)
    res1 = fit(data.Y, data.X, bench70.grid, FitConfig(M=1, scheme="joint", seed=0))
    res10 = fit(data.Y, data.X, bench70.grid, FitConfig(M=10, scheme="joint", seed=0))
    diff = np.abs(res1.theta_star.beta - res10.theta_star.beta)
    t_1 = res1.diagnostics["runtime_seconds"]
    t_10 = res10.diagnostics["runtime_seconds"]
    dt = time.perf_counter() - t0
    ok = bool(np.all(diff < 1e-2) and t_10 > t_1)
    _verdict(7, ok,
             f"max |beta(M=1) - beta(M=10)| {diff.max():.2e} (bound 1e-2), "
             f"runtimes {t_1:.1f}s vs {t_10:.1f}s (M=10 must be slower), "
             f"in {dt:.0f}s")


def test_08_local_variance_exact_and_monotone():
    t0 = time.perf_counter()
    # k covering the whole 7x7 grid reproduces the dense posterior variance
    grid7 = GridSpec.unit(7, 7)
    f7 = quasi_matern_spectrum(CovParams(1.5, 3.0), grid7)
    rng = np.random.default_rng(3)
    psi7 = rng.uniform(0.5, 2.0, grid7.n)
    exact7 = np.diag(np.linalg.inv(dense_sigma_inv(f7) + np.diag(psi7)))
    err_exact = float(np.max(np.abs(local_variance(f7, psi7, k=7) - exact7)))

    # growing windows improve the approximation on average over pixels
    grid8 = GridSpec.unit(8, 8)
    f8 = quasi_matern_spectrum(CovParams(2.0, 8.0), grid8)
    psi8 = rng.uniform(0.5, 2.0, grid8.n)
    exact8 = np.diag(np.linalg.inv(dense_sigma_inv(f8) + np.diag(psi8)))
    mean_errs = [float(np.mean(np.abs(local_variance(f8, psi8, k=k) - exact8)))
                 for k in (1, 3, 5, 7)]
    monotone = bool(np.all(np.diff(mean_errs) < 0))
    dt = time.perf_counter() - t0
    ok = err_exact < 1e-8 and monotone
    shown = ", ".join(f"{e:.2e}" for e in mean_errs)
    _verdict(8, ok,
             f"k=7 on 7x7 max |err| {err_exact:.2e} (bound 1e-8); mean |err| "
             f"over pixels for k=1,3,5,7: [{shown}] "
             f"monotone decreasing: {monotone}, in {dt:.2f}s")


def test_09_scoring_matches_naive_loops():
    t0 = time.perf_counter()
    grid = GridSpec.unit(8, 8)
    rng = np.random.default_rng(9)
    lam = np.exp(rng.standard_normal(grid.n))
    Y = CountGrid(unflatten(rng.poisson(lam), 8, 8), grid)
    delta = grid.delta()
    worst = 0.0
    for scale in (1.0, 0.25):
        worst = max(worst, _rel(log_score(Y, lam, delta, scale=scale),
                                naive_log_score(Y.vector(), lam, delta, scale)))
    est = rng.standard_normal(grid.n)
    truth = est + 0.1 * rng.standard_normal(grid.n)
    got = rmse_log_intensity(est, truth, grid, margin=2)
    want = naive_rmse(est, truth, 8, 8, margin=2)
    worst = max(worst, _rel(got[0], want[0]), _rel(got[1], want[1]))

    counts_ok = all(
        int(interior_mask(GridSpec.unit(n1, n2), 2).sum()) == (n1 - 4) * (n2 - 4)
        for n1, n2 in [(8, 8), (7, 9), (16, 5)]
    )
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and counts_ok
    _verdict(9, ok,
             f"score/rmse vs naive loops, max rel err {worst:.2e} "
             f"(bound 1e-10); interior pixel counts match (n1-4)(n2-4): "
             f"{counts_ok}, in {dt:.2f}s")


def test_10_golden_pipeline_reproducible(tmp_path):
    t0 = time.perf_counter()
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        run_all(tmp_path / run)
    checked = 0
    repeat_ok = True
    stored_ok = True
    for stage, names in EXPECTED_FILES.items():
        for name in names:
            pa = str(tmp_path / "a" / stage / name)
            pb = str(tmp_path / "b" / stage / name)
            repeat_ok &= normalized_text(pa) == normalized_text(pb)
            want = os.path.join(EXPECTED_ROOT, stage, name)
            got_text, want_text = normalized_text(pa), normalized_text(want)
            if got_text != want_text:
                try:
                    assert_numeric_close(got_text, want_text,
                                         f"{stage}/{name}", rtol=1e-8)
                except AssertionError:
                    stored_ok = False
            checked += 1
    dt = time.perf_counter() - t0
    ok = repeat_ok and stored_ok
    _verdict(10, ok,
             f"{checked} pipeline files: repeated runs bit-identical "
             f"(modulo recorded runtime): {repeat_ok}, match stored outputs "
             f"at 1e-8: {stored_ok}, in {dt:.1f}s")
