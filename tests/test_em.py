import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_gls, dense_q_tilde, dense_sigma_inv, profiled_q, trace_term
from slem import (CollinearityError, ConfigError, CountGrid, CovParams,
                  FitConfig, GridSpec, NumericalError, ProbePairs, SimScenario,
                  SpectralField, Theta, amplitude_for_variance,
                  calibrate_range_to_matern, fit, flatten,
                  make_probes, power_spectrum, probe_spectrum, q_tilde,
                  quasi_matern_spectrum, sample_gp, sigma_inv_matvec,
                  simulate_dataset, unflatten, update_beta,
                  update_eta)
from slem import em, laplace, spectral, trace
from slem.em import _pack, em_step, glm_start, quartic_profile, squarem

GRID6 = GridSpec.unit(6, 6)
PARAM_SETS = [CovParams(1.5, 3.0), CovParams(2.0, 8.0)]


def em_instance(eta_t, seed=0, M=3, p=2):
    """W from the prior, a small design, and tight-solve probe pairs."""
    rng = np.random.default_rng(seed)
    f_t = quasi_matern_spectrum(eta_t, GRID6)
    W = sample_gp(f_t, seed)
    X = np.column_stack([np.ones(GRID6.n)] + [rng.standard_normal(GRID6.n) for _ in range(p)])
    c = 0.2 + rng.random(GRID6.n)
    probes = make_probes(M, GRID6.n, seed, f_t, c, eps_pcg=1e-10)
    return W, X, c, probes


def spectrum(r, probes, grid):
    """P for residual r and probe pairs (None: no trace part)."""
    return power_spectrum(r, grid, 0.0 if probes is None else probe_spectrum(probes, grid))


def q_at(eta, r, probes, grid):
    return q_tilde(spectrum(r, probes, grid), quasi_matern_spectrum(eta, grid), grid)


def profiled_sigma2(r, alpha, probes, grid):
    return profiled_q(spectrum(r, probes, grid), alpha, grid)[1]


def dense_trace_value(eta_cand, probes, grid):
    Sinv = dense_sigma_inv(quasi_matern_spectrum(eta_cand, grid))
    return float(np.mean([probes.v[i] @ Sinv @ probes.u[i] for i in range(probes.M)]))


# ---------------------------------------------------------------------------
# surrogate objective
# ---------------------------------------------------------------------------


def test_q_tilde_white_noise_closed_form():
    # alpha = 0: Sigma = sigma2 I, so Q = -1/2 (n log s2 + ||W||^2 / s2)
    rng = np.random.default_rng(0)
    W = rng.standard_normal(GRID6.n)
    for s2 in (0.5, 1.0, 3.7):
        got = q_at(CovParams(s2, 0.0), W, None, GRID6)
        want = -0.5 * (GRID6.n * np.log(s2) + W @ W / s2)
        np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("eta_t", PARAM_SETS)
def test_q_tilde_matches_dense(eta_t):
    W, X, c, probes = em_instance(eta_t, seed=1)
    beta = np.array([0.3, -0.5, 0.9])
    theta = Theta(beta, CovParams(0.8, 2.1))
    r = W - X @ beta
    tr_val = dense_trace_value(theta.eta, probes, GRID6)
    want = dense_q_tilde(theta.eta.sigma2, theta.eta.alpha, r, tr_val, GRID6)
    got = q_at(theta.eta, r, probes, GRID6)
    np.testing.assert_allclose(got, want, rtol=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(5, 7), (7, 5), (6, 6), (8, 8), (1, 6)]),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_power_spectrum_matches_matvec_and_trace_term(shape, M, seed):
    # Parseval: (1/n) sum P / f is the quadratic form plus the Hutchinson
    # trace, for any spectrum symmetric under frequency negation
    n1, n2 = shape
    grid = GridSpec.unit(n1, n2)
    rng = np.random.default_rng(seed)
    raw = np.exp(rng.uniform(-3.0, 3.0, size=shape))
    f = SpectralField(0.5 * (raw + np.roll(raw[::-1, ::-1], (1, 1), axis=(0, 1))))
    r = rng.standard_normal(grid.n) * rng.uniform(0.1, 10.0)
    probes = None
    if M:
        v = rng.choice([-1.0, 1.0], size=(M, grid.n))
        probes = ProbePairs(v, rng.standard_normal((M, grid.n)), np.ones(M, dtype=bool))
    got = float(np.sum(spectrum(r, probes, grid) / f.values)) / grid.n
    quad = float(r @ sigma_inv_matvec(f, r))
    tr = trace_term(f, probes) if probes is not None else 0.0
    # random u can cancel the quadratic part, so scale by the terms' magnitudes
    scale = quad + (np.mean([abs(vi @ sigma_inv_matvec(f, ui))
                             for vi, ui in zip(probes.v, probes.u)]) if M else 0.0)
    assert abs(got - (quad + tr)) <= 1e-12 * scale


def test_power_spectrum_rejects_bad_input():
    r = np.ones(GRID6.n)
    with pytest.raises(ConfigError):
        power_spectrum(r[:-1], GRID6, 0.0)
    with pytest.raises(ConfigError):
        short = np.ones((1, GRID6.n - 1))
        probe_spectrum(ProbePairs(short, short, np.ones(1, dtype=bool)), GRID6)
    r[3] = np.nan
    with pytest.raises(NumericalError):
        power_spectrum(r, GRID6, 0.0)


def test_theta_vector_layout():
    v = Theta(np.array([1.0, 2.0]), CovParams(3.0, 4.0)).vector()
    np.testing.assert_array_equal(v, [1.0, 2.0, 3.0, 4.0])


# ---------------------------------------------------------------------------
# beta step
# ---------------------------------------------------------------------------


def test_update_beta_intercept_only_white_noise():
    rng = np.random.default_rng(3)
    W = rng.standard_normal(GRID6.n)
    f = quasi_matern_spectrum(CovParams(2.5, 0.0), GRID6)
    beta = update_beta(W, np.ones((GRID6.n, 1)), f)
    np.testing.assert_allclose(beta, [W.mean()], rtol=1e-12)


def test_update_beta_exact_fit_is_fixed_point():
    W, X, _, _ = em_instance(PARAM_SETS[0], seed=4)
    beta0 = np.array([1.0, -2.0, 0.5])
    f = quasi_matern_spectrum(PARAM_SETS[1], GRID6)
    np.testing.assert_allclose(update_beta(X @ beta0, X, f), beta0, atol=1e-10)


@pytest.mark.parametrize("eta_t", PARAM_SETS)
def test_update_beta_matches_dense_gls(eta_t):
    W, X, _, _ = em_instance(eta_t, seed=5)
    f = quasi_matern_spectrum(eta_t, GRID6)
    want = dense_gls(W, X, dense_sigma_inv(f))
    np.testing.assert_allclose(update_beta(W, X, f), want, rtol=1e-8)


def test_update_beta_torus_shift_invariant():
    # circulant Sigma commutes with torus translations, so shifting the
    # response and the design rows together must leave the GLS solution alone
    W, X, _, _ = em_instance(PARAM_SETS[0], seed=6)
    f = quasi_matern_spectrum(PARAM_SETS[0], GRID6)

    def shift(v):
        return flatten(np.roll(unflatten(v, 6, 6), (2, 3), axis=(0, 1)))

    Ws = shift(W)
    Xs = np.column_stack([shift(X[:, j]) for j in range(X.shape[1])])
    np.testing.assert_allclose(update_beta(Ws, Xs, f), update_beta(W, X, f), rtol=1e-10)


def test_update_beta_collinear_design_raises():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(GRID6.n)
    X = np.column_stack([np.ones(GRID6.n), x, 2.0 + 3.0 * x])
    f = quasi_matern_spectrum(PARAM_SETS[0], GRID6)
    with pytest.raises(CollinearityError) as exc:
        update_beta(rng.standard_normal(GRID6.n), X, f)
    assert "dependent" in str(exc.value)
    assert exc.value.columns and set(exc.value.columns) <= {0, 1, 2}


# ---------------------------------------------------------------------------
# eta step
# ---------------------------------------------------------------------------


def test_profiled_sigma2_white_noise_exact():
    rng = np.random.default_rng(8)
    r = rng.standard_normal(GRID6.n)
    np.testing.assert_allclose(profiled_sigma2(r, 0.0, None, GRID6), r @ r / GRID6.n,
                               rtol=1e-12)


def test_profiled_sigma2_counts_trace_term():
    # u = v at alpha = 0 makes the trace part exactly n, shifting the
    # profiled variance by exactly one
    rng = np.random.default_rng(9)
    r = rng.standard_normal(GRID6.n)
    v = rng.choice([-1.0, 1.0], size=(4, GRID6.n))
    probes = ProbePairs(v=v, u=v.copy(), solve_converged=np.ones(4, dtype=bool))
    got = profiled_sigma2(r, 0.0, probes, GRID6)
    np.testing.assert_allclose(got, r @ r / GRID6.n + 1.0, rtol=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_profiled_sigma2_scales_quadratically(seed):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(GRID6.n)
    c = float(rng.uniform(0.2, 5.0))
    alpha = float(rng.uniform(0.0, 6.0))
    base = profiled_sigma2(r, alpha, None, GRID6)
    np.testing.assert_allclose(profiled_sigma2(c * r, alpha, None, GRID6), c * c * base,
                               rtol=1e-10)


def test_profiled_sigma2_is_stationary_point():
    W, X, c, probes = em_instance(PARAM_SETS[0], seed=10)
    alpha = 2.3
    s2 = profiled_sigma2(W, alpha, probes, GRID6)

    def q_of(s):
        return q_at(CovParams(s, alpha), W, probes, GRID6)

    q_star = q_of(s2)
    assert q_of(s2 * (1 + 1e-4)) <= q_star
    assert q_of(s2 * (1 - 1e-4)) <= q_star
    # the profiled objective is q_tilde there, constants included
    q_prof = profiled_q(spectrum(W, probes, GRID6), alpha, GRID6)[0]
    np.testing.assert_allclose(q_prof, q_star, rtol=1e-12)


@pytest.mark.parametrize("n1,n2", [(6, 6), (9, 7)])
def test_quartic_profile_matches_profiled_q(n1, n2):
    grid = GridSpec.unit(n1, n2)
    rng = np.random.default_rng(15)
    f_t = quasi_matern_spectrum(CovParams(1.5, 3.0), grid)
    probes = make_probes(2, grid.n, 15, f_t, 0.2 + rng.random(grid.n), eps_pcg=1e-10)
    P = spectrum(sample_gp(f_t, 15), probes, grid)
    price = quartic_profile(P, grid)
    for alpha in (0.0, 1e-2, 0.5, 2.3, 5.0, 29.9, 70.0):
        q_direct, s2_direct = profiled_q(P, alpha, grid)
        q, s2 = price(alpha)
        np.testing.assert_allclose(q, q_direct, rtol=1e-12)
        np.testing.assert_allclose(s2, s2_direct, rtol=1e-12)
        for sigma2 in (0.3, 1.5, 40.0):  # Q at a given sigma2, not profiled
            eta = CovParams(sigma2, alpha)
            q, s2 = price(alpha, sigma2)
            np.testing.assert_allclose(q, q_tilde(P, quasi_matern_spectrum(eta, grid), grid),
                                       rtol=1e-12)
            assert s2 == sigma2


def test_quartic_profile_memo_prices_exactly_as_a_fresh_profile(monkeypatch):
    # the memoized log sum depends on alpha and the grid shape only, so prices
    # read from a cache filled under another P are a cleared cache's, bit for bit
    grid = GridSpec.unit(9, 7)
    f_t = quasi_matern_spectrum(CovParams(1.5, 3.0), grid)
    rng = np.random.default_rng(16)
    probes = make_probes(1, grid.n, 16, f_t, 0.2 + rng.random(grid.n), eps_pcg=1e-10)
    P1, P2 = (spectrum(sample_gp(f_t, seed), probes, grid) for seed in (16, 17))
    alphas = np.geomspace(1e-2, 2.0 * grid.n1, 200)

    def prices(P, grid):
        price = quartic_profile(P, grid)
        return [price(a) for a in alphas]

    spectral._shape_log_det.cache_clear()
    fresh1 = prices(P1, grid)
    assert spectral._shape_log_det.cache_info().currsize == 200
    spectral._shape_log_det.cache_clear()
    fresh2 = prices(P2, grid)
    log1p = np.log1p
    calls = []
    monkeypatch.setattr(np, "log1p", lambda *a, **k: calls.append(1) or log1p(*a, **k))
    assert prices(P1, grid) == fresh1
    assert prices(P2, GridSpec(9, 7, -1.0, 3.0, 0.0, 5.0)) == fresh2
    assert calls == []


def test_shape_log_det_is_the_log_determinant_of_the_unit_shape():
    grid = GridSpec.unit(9, 7)
    for alpha in (0.0, 1e-2, 2.3, 29.9):
        want = float(np.sum(np.log(spectral.quasi_matern_shape(alpha, grid))))
        np.testing.assert_allclose(spectral.shape_log_det(alpha, grid), want, rtol=1e-12)


def test_update_eta_dominates_2d_grid_search():
    W, X, c, probes = em_instance(PARAM_SETS[0], seed=11, M=3)
    bounds = (1e-2, 6.0)
    eta_hat = update_eta(quartic_profile(spectrum(W, probes, GRID6), GRID6), bounds)

    alphas = np.geomspace(bounds[0], bounds[1], 40)
    sigmas = np.geomspace(0.05, 100.0, 49)
    q_grid = np.empty((sigmas.size, alphas.size))
    for j, a in enumerate(alphas):
        Sinv1 = dense_sigma_inv(quasi_matern_spectrum(CovParams(1.0, a), GRID6))
        quad1 = W @ Sinv1 @ W
        tr1 = float(np.mean([probes.v[i] @ Sinv1 @ probes.u[i] for i in range(probes.M)]))
        _, logdet1 = np.linalg.slogdet(np.linalg.inv(Sinv1))
        for k, s in enumerate(sigmas):
            q_grid[k, j] = -0.5 * (GRID6.n * np.log(s) + logdet1 + (quad1 + tr1) / s)

    k_star, j_star = np.unravel_index(np.argmax(q_grid), q_grid.shape)
    assert 0 < k_star < sigmas.size - 1  # grid brackets the optimum
    q_hat = q_at(eta_hat, W, probes, GRID6)
    assert q_hat >= q_grid[k_star, j_star] - 1e-9 * (1 + abs(q_hat))
    log_step_a = np.log(alphas[1] / alphas[0])
    log_step_s = np.log(sigmas[1] / sigmas[0])
    assert abs(np.log(eta_hat.alpha / alphas[j_star])) <= log_step_a + 1e-12
    assert abs(np.log(eta_hat.sigma2 / sigmas[k_star])) <= log_step_s + 1e-12


def test_update_eta_never_loses_to_incumbent():
    W, X, c, probes = em_instance(PARAM_SETS[1], seed=12)
    incumbent = CovParams(0.37, 2.2)
    eta_hat = update_eta(quartic_profile(spectrum(W, probes, GRID6), GRID6), (1e-2, 6.0),
                         incumbent=incumbent)
    q_new = q_at(eta_hat, W, probes, GRID6)
    q_inc = q_at(incumbent, W, probes, GRID6)
    assert q_new >= q_inc - 1e-9 * (1 + abs(q_inc))


def test_update_eta_records_bound_hits():
    W, _, _, probes = em_instance(PARAM_SETS[0], seed=13)
    diagnostics = {}
    eta_hat = update_eta(quartic_profile(spectrum(W, probes, GRID6), GRID6), (6.0, 6.01),
                         diagnostics=diagnostics)
    assert 6.0 <= eta_hat.alpha <= 6.01
    assert diagnostics["alpha_bound_hits"] >= 1


@pytest.mark.parametrize("bounds", [(0.0, 5.0), (3.0, 2.0), (-1.0, 1.0)])
def test_update_eta_rejects_bad_bounds(bounds):
    W, _, _, probes = em_instance(PARAM_SETS[0], seed=14)
    with pytest.raises(ConfigError):
        update_eta(quartic_profile(spectrum(W, probes, GRID6), GRID6), bounds)


# ---------------------------------------------------------------------------
# full fits
# ---------------------------------------------------------------------------


def small_dataset(seed=0, n1=8, beta=(0.2, 0.7)):
    grid = GridSpec.unit(n1, n1)
    eta = CovParams(amplitude_for_variance(0.5, 3.0, grid), 3.0)
    scen = SimScenario(grid, eta, np.asarray(beta), seed=seed)
    data = simulate_dataset(scen)
    return data.Y, data.X, grid


def test_fit_all_zero_counts_intensity_collapses():
    # no events anywhere: the likelihood has no maximizer, the intercept
    # drifts negative, and the fitted total intensity falls below one event
    grid = GridSpec.unit(8, 8)
    Y = CountGrid(np.zeros((8, 8)), grid)
    res = fit(Y, np.ones((64, 1)), grid, FitConfig(seed=0))
    assert res.theta_star.beta[0] < -4.0
    assert float(np.exp(res.W_star).sum()) < 1.0


def test_fit_z_star_is_w_minus_xbeta():
    Y, X, grid = small_dataset(seed=1)
    res = fit(Y, X, grid, FitConfig(max_em=5, seed=0))
    np.testing.assert_allclose(res.Z_star, res.W_star - X @ res.theta_star.beta,
                               atol=1e-12)


def test_fit_is_deterministic():
    Y, X, grid = small_dataset(seed=2)
    r1 = fit(Y, X, grid, FitConfig(max_em=6, seed=5))
    r2 = fit(Y, X, grid, FitConfig(max_em=6, seed=5))
    np.testing.assert_array_equal(r1.theta_star.vector(), r2.theta_star.vector())
    np.testing.assert_array_equal(r1.W_star, r2.W_star)
    np.testing.assert_array_equal(r1.objective_trace, r2.objective_trace)


def test_fit_objective_trace_is_monotone_within_iterations():
    Y, X, grid = small_dataset(seed=3)
    res = fit(Y, X, grid, FitConfig(max_em=12, seed=0))
    q_inc, q_new = res.objective_trace[:, 0], res.objective_trace[:, 1]
    assert res.objective_trace.shape[0] >= 1
    assert np.all(q_new >= q_inc - 1e-9 * (1 + np.abs(q_inc)))


def test_fit_converged_flag_with_loose_tolerance():
    Y, X, grid = small_dataset(seed=4)
    res = fit(Y, X, grid, FitConfig(eps_em=1e6, seed=0))
    assert res.converged and res.em_iterations == 1


def test_fit_covariance_only_ignores_scheme():
    Y, _, grid = small_dataset(seed=5, beta=())
    ra = fit(Y, None, grid, FitConfig(max_em=6, scheme="joint", seed=0))
    rb = fit(Y, None, grid, FitConfig(max_em=6, scheme="fixed", seed=0))
    assert ra.theta_star.beta.size == 0
    np.testing.assert_array_equal(ra.theta_star.vector(), rb.theta_star.vector())
    np.testing.assert_array_equal(ra.W_star, rb.W_star)


def test_fit_without_design_equals_empty_design():
    Y, _, grid = small_dataset(seed=5, beta=())
    cfg = FitConfig(max_em=4, seed=0)
    ra = fit(Y, None, grid, cfg)
    rb = fit(Y, np.empty((grid.n, 0)), grid, cfg)
    for a, b in ((ra.theta_star.vector(), rb.theta_star.vector()), (ra.W_star, rb.W_star),
                 (ra.Z_star, rb.Z_star), (ra.objective_trace, rb.objective_trace)):
        np.testing.assert_array_equal(a, b)
    assert (ra.em_iterations, ra.converged) == (rb.em_iterations, rb.converged)
    del ra.diagnostics["runtime_seconds"], rb.diagnostics["runtime_seconds"]
    assert ra.diagnostics == rb.diagnostics


def test_fixed_scheme_keeps_the_glm_start_beta():
    Y, X, grid = small_dataset(seed=6)
    beta0, _, _ = glm_start(Y, X, grid, (1e-2, float(grid.n1)))
    for max_em in (1, 6):
        res = fit(Y, X, grid, FitConfig(max_em=max_em, scheme="fixed", seed=0))
        np.testing.assert_array_equal(res.theta_star.beta, beta0)


def test_m_step_that_lowers_q_is_rejected(monkeypatch):
    # a GLS beta far from the data lowers Q, so the joint scheme must keep
    # the incumbent beta and the recorded pairs stay monotone
    Y, X, grid = small_dataset(seed=6)
    beta0, _, _ = glm_start(Y, X, grid, (1e-2, float(grid.n1)))
    monkeypatch.setattr(em, "update_beta",
                        lambda W, X, f, column_dfts=None: np.full(X.shape[1], 50.0))
    res = fit(Y, X, grid, FitConfig(max_em=4, seed=0))
    np.testing.assert_array_equal(res.theta_star.beta, beta0)
    q_inc, q_new = res.objective_trace.T
    assert np.all(q_new >= q_inc)


def test_em_step_builds_one_field_and_prices_q_as_q_tilde(monkeypatch):
    # the E-step's spectrum is the map's only SpectralField: the incumbent,
    # the GLS candidate and the range candidate are priced in closed form,
    # to the numbers the any-spectrum q_tilde gives at the same parameters
    Y, X, grid = small_dataset(seed=7)
    config = FitConfig(M=2, seed=0)
    beta, eta, W = glm_start(Y, X, grid, (1e-2, float(grid.n1)))
    seen = {}
    builds = []
    check = SpectralField.__post_init__
    monkeypatch.setattr(SpectralField, "__post_init__",
                        lambda self: builds.append(1) or check(self))
    monkeypatch.setattr(em, "q_tilde", lambda *args: pytest.fail("q_tilde on the fit path"))
    real = em.make_probes
    monkeypatch.setattr(em, "make_probes",
                        lambda *args: seen.setdefault("probes", real(*args)))
    beta_new, eta_new, W_new, _, q_inc, q_new = em_step(Y, X, grid, config, beta, eta, W, {})
    assert len(builds) == 1
    assert not np.array_equal(beta_new, beta) and eta_new != eta
    for b, e, q in ((beta, eta, q_inc), (beta_new, eta_new, q_new)):
        P = spectrum(W_new - X @ b, seen["probes"], grid)
        want = q_tilde(P, quasi_matern_spectrum(e, grid), grid)
        np.testing.assert_allclose(q, want, rtol=1e-12)


def test_em_step_is_the_same_map_with_and_without_the_fit_transforms():
    # column_dfts and v_dfts only spare transforms; a cold and a warm map
    # give the same six outputs, bit for bit, and the same diagnostics
    Y, X, grid = small_dataset(seed=7)
    config = FitConfig(M=2, seed=3)
    beta, eta, W = glm_start(Y, X, grid, (1e-2, float(grid.n1)))
    column_dfts = em.design_dfts(X, (grid.n1, grid.n2))
    v_dfts = em.row_dfts(trace.rademacher(config.M, grid.n, config.seed), grid)
    U = None
    for _ in range(2):
        plain_diag, given_diag = {}, {}
        plain = em_step(Y, X, grid, config, beta, eta, W, plain_diag, U)
        given = em_step(Y, X, grid, config, beta, eta, W, given_diag, U,
                        column_dfts=column_dfts, v_dfts=v_dfts)
        (b0, e0, W0, U0, *q0), (b1, e1, W1, U1, *q1) = plain, given
        assert e0 == e1 and q0 == q1 and plain_diag == given_diag
        for a, b in ((b0, b1), (W0, W1), (U0, U1)):
            np.testing.assert_array_equal(a, b)
        beta, eta, W, U = b0, e0, W0, U0


def test_probe_vs_are_transformed_once_per_fit_and_us_once_per_map(monkeypatch):
    # the v's are the same on every map and the u's are fixed within one, so
    # pricing the beta and eta candidates must not transform either again
    Y, X, grid = small_dataset(seed=8)
    fft2 = np.fft.fft2
    v_ffts, u_ffts = [], []

    def counting_fft2(a, *args, **kwargs):
        a = np.asarray(a)
        if a.ndim == 3:  # a stack of probe rows; residuals come one at a time
            rademacher = np.all(np.abs(a) == 1.0)
            (v_ffts if rademacher else u_ffts).append(a.shape[0])
        return fft2(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft2", counting_fft2)
    res = fit(Y, X, grid, FitConfig(M=2, max_em=3, eps_em=1e-300, seed=0))
    assert res.em_iterations == 3
    assert v_ffts == [2]
    assert u_ffts == [2] * 3


def test_design_columns_are_transformed_once_per_fit(monkeypatch):
    # the GLS step applies Sigma^{-1} to the same columns on every map; only
    # the inverse transform depends on the map's spectrum
    Y, X, grid = small_dataset(seed=8, beta=(0.2, 0.7, -0.4))
    columns = [unflatten(X[:, j], grid.n1, grid.n2) for j in range(X.shape[1])]
    seen = [0] * len(columns)
    rfft = np.fft.rfft

    def counting_rfft(a, *args, **kwargs):
        for j, col in enumerate(columns):
            seen[j] += np.shape(a) == col.shape and np.array_equal(a, col)
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    res = fit(Y, X, grid, FitConfig(max_em=3, eps_em=1e-300, seed=0))
    assert res.em_iterations == 3
    assert seen == [1, 1, 1]


def test_frequency_sines_are_computed_once_per_grid_shape():
    # the start, every map's spectrum and quartic profiles, and the final
    # refresh all read one memoized, read-only copy per grid shape
    Y, X, grid = small_dataset(seed=8)
    spectral._sines.cache_clear()
    res = fit(Y, X, grid, FitConfig(max_em=3, eps_em=1e-300, seed=0))
    assert res.em_iterations == 3
    assert spectral._sines.cache_info().misses == 1
    s = spectral.frequency_sines(grid)
    assert spectral.frequency_sines(GridSpec(grid.n1, grid.n2, -1.0, 3.0, 0.0, 5.0)) is s
    assert not s.flags.writeable
    with pytest.raises(ValueError):
        s[0, 0] = 1.0
    other = spectral.frequency_sines(GridSpec.unit(grid.n1, grid.n2 + 1))
    assert other is not s and other.shape == (grid.n1, grid.n2 + 1)
    w1 = np.pi * np.arange(grid.n1) / grid.n1
    w2 = np.pi * np.arange(grid.n2 + 1) / (grid.n2 + 1)
    np.testing.assert_array_equal(other, np.sin(w1)[:, None] ** 2 + np.sin(w2)[None, :] ** 2)


@pytest.mark.parametrize("scheme,profiles", [("joint", 2), ("fixed", 1)])
def test_em_step_builds_one_quartic_profile_per_priced_residual(monkeypatch, scheme, profiles):
    # the incumbent's residual, and under the joint scheme the GLS
    # candidate's, each get one profile; the range search reuses the kept one
    Y, X, grid = small_dataset(seed=7)
    beta, eta, W = glm_start(Y, X, grid, (1e-2, float(grid.n1)))
    built = []
    real = em.quartic_profile
    monkeypatch.setattr(em, "quartic_profile", lambda *args: built.append(1) or real(*args))
    em_step(Y, X, grid, FitConfig(scheme=scheme, seed=0), beta, eta, W, {})
    assert len(built) == profiles


def test_probes_are_drawn_from_config_seed_on_every_map(monkeypatch):
    # common random probes: every EM map solves against the same v's, and
    # each map after the first starts its solves from the previous map's u
    Y, X, grid = small_dataset(seed=8)
    calls = []
    real = em.make_probes

    def recording(M, n, seed, f_t, c_diag, eps_pcg, u0=None):
        probes = real(M, n, seed, f_t, c_diag, eps_pcg, u0)
        calls.append((seed, u0, probes.u))
        return probes

    monkeypatch.setattr(em, "make_probes", recording)
    res = fit(Y, X, grid, FitConfig(max_em=7, eps_em=1e-300, seed=11))
    assert [seed for seed, _, _ in calls] == [11] * res.em_iterations == [11] * 7
    # a rejected extrapolation would hand the next map an older map's u
    assert res.diagnostics["squarem_rejects"] == 0
    assert calls[0][1] is None
    for (_, _, u_prev), (_, u0, _) in zip(calls, calls[1:]):
        assert u0 is u_prev


def test_diagnostics_total_pcg_iterations_per_kind(monkeypatch):
    Y, X, grid = small_dataset(seed=8)
    seen = {"newton": 0, "probe": 0}

    def counting(kind, solve):
        def counted(*args, **kwargs):
            sol = solve(*args, **kwargs)
            seen[kind] += sol.iterations
            return sol
        return counted

    monkeypatch.setattr(laplace, "pcg_solve", counting("newton", laplace.pcg_solve))
    monkeypatch.setattr(trace, "pcg_solve", counting("probe", trace.pcg_solve))
    res = fit(Y, X, grid, FitConfig(M=2, max_em=6, seed=0))
    assert res.diagnostics["newton_pcg_iterations"] == seen["newton"] > 0
    assert res.diagnostics["probe_pcg_iterations"] == seen["probe"] > 0


def test_diagnostics_total_newton_steps_over_every_call(monkeypatch):
    # every map's mode and the final refresh at theta*
    Y, X, grid = small_dataset(seed=8)
    steps = []
    real = em.newton_mode

    def counting(*args, **kwargs):
        lap = real(*args, **kwargs)
        steps.append(lap.newton_iterations)
        return lap

    monkeypatch.setattr(em, "newton_mode", counting)
    res = fit(Y, X, grid, FitConfig(max_em=4, eps_em=1e-300, seed=0))
    assert len(steps) == res.em_iterations + 1 == 5
    assert res.diagnostics["newton_steps"] == sum(steps) > len(steps)


def test_warm_started_fit_is_as_close_to_a_tight_solve_as_a_cold_one(monkeypatch):
    # at the loose PCG stop the fixed point moves with how each probe solve
    # starts; on a single dataset either start can land closer to the
    # eps_pcg = 1e-10 fit, so the comparison is the mean over datasets
    real = em.make_probes

    def theta(Y, X, grid, config):
        res = fit(Y, X, grid, config)
        assert res.converged
        return _pack(res.theta_star.beta, res.theta_star.eta)

    warm, cold = [], []
    for seed in range(6):
        Y, X, grid = small_dataset(seed=seed, n1=16)
        tight = theta(Y, X, grid, FitConfig(seed=0, eps_pcg=1e-10))
        warm.append(np.max(np.abs(theta(Y, X, grid, FitConfig(seed=0)) - tight)))
        monkeypatch.setattr(em, "make_probes", lambda *args: real(*args[:6]))
        cold.append(np.max(np.abs(theta(Y, X, grid, FitConfig(seed=0)) - tight)))
        monkeypatch.setattr(em, "make_probes", real)
    assert np.mean(warm) <= np.mean(cold)


def test_converged_fit_is_a_fixed_point():
    Y, X, grid = small_dataset(seed=3, n1=16)
    config = FitConfig(seed=0)
    res = fit(Y, X, grid, config)
    assert res.converged and res.em_iterations < config.max_em
    theta = res.theta_star
    beta, eta, *_ = em_step(Y, X, grid, config, theta.beta, theta.eta, res.W_star, {})
    step = _pack(beta, eta) - _pack(theta.beta, theta.eta)
    assert float(np.sqrt(np.mean(step * step))) < 10 * config.eps_em


def test_fit_recovers_slopes_at_intercept_minus_two():
    # 0.56 events per pixel and 76% empty pixels, the sparse regime of
    # lightning grids, where an EM that climbs slowly to its fixed point
    # stops at max_em with every slope attenuated
    grid = GridSpec.unit(70, 70)
    alpha = calibrate_range_to_matern(grid, 18.0)
    eta = CovParams(amplitude_for_variance(2.0, alpha, grid), alpha)
    slopes = np.array([0.85, 0.6, 0.95])
    data = simulate_dataset(SimScenario(grid, eta, np.r_[-2.0, slopes], seed=2))
    res = fit(data.Y, data.X, grid, FitConfig(seed=0))
    assert np.max(np.abs(res.theta_star.beta[1:] - slopes)) < 0.25


# ---------------------------------------------------------------------------
# SQUAREM
# ---------------------------------------------------------------------------


RATES = np.array([0.5, 0.9, 0.99])
FIXED = np.array([1.0, -2.0, 3.0])


def contraction(calls, rates=RATES, fixed=FIXED):
    """x -> fixed + rates (x - fixed), recording each input in calls."""
    def F(x, state):
        calls.append(x.copy())
        return fixed + rates * (x - fixed), state
    return F


def plain_maps(F, x, eps):
    for maps in range(1, 100_000):
        x_new, _ = F(x, None)
        if np.sqrt(np.mean((x_new - x) ** 2)) < eps:
            return maps
        x = x_new


def test_squarem_converges_in_far_fewer_maps_than_plain_iteration():
    unbounded = np.full(3, np.inf)
    calls = []
    x, state, maps, converged, rejects = squarem(
        contraction(calls), np.zeros(3), "W", -unbounded, unbounded, 1e-8, 10_000)
    assert converged and rejects == 0 and state == "W"
    assert maps == len(calls)
    np.testing.assert_allclose(x, FIXED, atol=1e-5)  # step / (1 - 0.99)
    plain = plain_maps(contraction([]), np.zeros(3), 1e-8)
    assert plain > 1000 and maps < plain / 20


def test_squarem_steplength_is_at_most_minus_one():
    # an oscillating map has ||r|| / ||v|| = 1 / 1.5; clamped to -1, the
    # extrapolated point is exactly the second plain map's output
    calls = []
    F = contraction(calls, rates=np.array([-0.5]), fixed=np.array([0.0]))
    squarem(F, np.array([1.0]), None, np.array([-np.inf]), np.array([np.inf]), 1e-300, 3)
    assert calls[2][0] == -0.5 * calls[1][0]


def test_squarem_clips_extrapolated_points_to_the_box():
    calls = []
    lo, hi = np.array([-np.inf, -np.inf, -np.inf]), np.array([np.inf, np.inf, 2.0])
    squarem(contraction(calls), np.zeros(3), None, lo, hi, 1e-300, 30)
    extrapolated = np.array(calls[2::3])
    assert np.all(extrapolated[:, 2] <= 2.0)
    assert np.any(extrapolated[:, 2] == 2.0)


@pytest.mark.parametrize("fault", ["raise", "blow up"])
def test_squarem_falls_back_to_the_plain_step(fault):
    calls = []
    linear = contraction(calls)

    def F(x, state):
        y, state = linear(x, state)
        if len(calls) == 3:  # the first extrapolated point
            if fault == "raise":
                raise NumericalError("no mode here")
            y = y + 1e6
        return y, state

    unbounded = np.full(3, np.inf)
    _, _, maps, _, rejects = squarem(F, np.zeros(3), None, -unbounded, unbounded, 1e-300, 5)
    assert rejects == 1 and maps == 5
    second = FIXED + RATES * (calls[1] - FIXED)
    np.testing.assert_array_equal(calls[3], second)


def test_fit_recovers_strong_slope():
    grid = GridSpec.unit(16, 16)
    eta = CovParams(amplitude_for_variance(0.5, 4.0, grid), 4.0)
    scen = SimScenario(grid, eta, np.array([0.5, 0.8]), seed=3)
    data = simulate_dataset(scen)
    res = fit(data.Y, data.X, grid, FitConfig(eps_em=1e-4, max_em=40, seed=0))
    assert abs(res.theta_star.beta[1] - 0.8) < 0.15


def test_fit_rejects_wrong_design_shape():
    Y, X, grid = small_dataset(seed=7)
    with pytest.raises(ConfigError):
        fit(Y, np.ones((5, 2)), grid, FitConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_design(bad):
    # rejected at the boundary, not deep inside the Newton loop's matvecs
    Y, X, grid = small_dataset(seed=7)
    X = X.copy()
    X[3, 1] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        fit(Y, X, grid, FitConfig(max_em=2))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"scheme": "both"},
    {"M": 0},
    {"eps_em": 0.0},
    {"eps_newton": -1.0},
    {"max_em": 0},
    {"max_newton": 0},
    {"alpha_bounds": (3.0, 2.0)},
    {"alpha_bounds": (0.0, 1.0)},
    {"alpha_bounds": (1.0, 2.0, 3.0)},
    {"alpha_bounds": (1.0, float("inf"))},
    {"alpha_bounds": 5},
    {"M": "x"},
    {"max_em": 2.5},
    {"M": True},
    {"seed": -1},
    {"eps_pcg": "1e-3"},
    {"alpha_bounds": ["1", "2"]},
])
def test_fit_config_validation(kwargs):
    with pytest.raises(ConfigError):
        FitConfig(**kwargs)
    with pytest.raises(ConfigError):
        FitConfig.from_dict(kwargs)


def test_fit_config_json_round_trip():
    cfg = FitConfig(M=3, scheme="fixed", eps_em=1e-4, alpha_bounds=(0.5, 7.0), seed=11)
    doc = json.loads(json.dumps(cfg.to_dict()))
    assert FitConfig.from_dict(doc) == cfg
    plain = FitConfig()
    assert FitConfig.from_dict(json.loads(json.dumps(plain.to_dict()))) == plain


def test_fit_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as exc:
        FitConfig.from_dict({"M": 2, "niter": 50})
    assert "niter" in str(exc.value)
