import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import dense_posterior_precision, dense_trace, trace_term
from slem import (ConfigError, CovParams, GridSpec, ProbePairs, make_probes, pcg_solve,
                  quasi_matern_spectrum, sigma_matvec, trace)
from slem.laplace import precision_operator

GRID8 = GridSpec.unit(8, 8)
ETA_T = CovParams(1.5, 3.0)


def standard_instance(seed=0):
    f_t = quasi_matern_spectrum(ETA_T, GRID8)
    c = 0.5 + np.random.default_rng(seed).random(64)
    return f_t, c


# ---------------------------------------------------------------------------
# probe construction
# ---------------------------------------------------------------------------


def test_probes_are_rademacher_and_deterministic():
    f_t, c = standard_instance()
    p1 = make_probes(8, 64, seed=3, f_t=f_t, c_diag=c)
    p2 = make_probes(8, 64, seed=3, f_t=f_t, c_diag=c)
    assert p1.M == 8
    assert np.all(np.isin(p1.v, [-1.0, 1.0]))
    np.testing.assert_array_equal(p1.v, p2.v)
    np.testing.assert_array_equal(p1.u, p2.u)
    np.testing.assert_array_equal(p1.v, trace.rademacher(8, 64, 3))
    p3 = make_probes(8, 64, seed=4, f_t=f_t, c_diag=c)
    assert not np.array_equal(p1.v, p3.v)


def test_probe_solves_match_dense():
    f_t, c = standard_instance(1)
    probes = make_probes(5, 64, seed=0, f_t=f_t, c_diag=c, eps_pcg=1e-10)
    P = dense_posterior_precision(f_t, c)
    for i in range(5):
        expected = np.linalg.solve(P, probes.v[i])
        assert np.linalg.norm(probes.u[i] - expected) < 1e-5


def test_huge_curvature_makes_u_diagonal():
    f_t = quasi_matern_spectrum(ETA_T, GRID8)
    c = np.full(64, 1e12)
    probes = make_probes(3, 64, seed=2, f_t=f_t, c_diag=c)
    np.testing.assert_allclose(probes.u, probes.v / c, rtol=1e-6, atol=1e-15)


def test_warm_start_from_a_tight_solution_stops_at_once(monkeypatch):
    # the EM passes each map the previous map's u; started at a solution,
    # every solve returns within one PCG iteration and stays at it
    f_t, c = standard_instance(2)
    tight = make_probes(4, 64, seed=5, f_t=f_t, c_diag=c, eps_pcg=1e-10)
    iterations = []
    real = trace.pcg_solve

    def recording(*args, **kwargs):
        sol = real(*args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(trace, "pcg_solve", recording)
    warm = make_probes(4, 64, seed=5, f_t=f_t, c_diag=c, u0=tight.u)
    assert len(iterations) == 4 and max(iterations) <= 1
    assert warm.pcg_iterations == sum(iterations)
    np.testing.assert_array_equal(warm.v, tight.v)
    assert np.max(np.abs(warm.u - tight.u)) <= 1e-3
    assert warm.solve_converged.all()


def test_cold_probe_solves_keep_the_plain_stop():
    # no forcing term without a start: a tenth of rms(v) = 1 would be looser
    # than the fit's fixed point allows
    f_t, c = standard_instance(3)
    probes = make_probes(3, 64, seed=7, f_t=f_t, c_diag=c, eps_pcg=1e-3)
    op = precision_operator(f_t, c)
    for v, u in zip(probes.v, probes.u):
        np.testing.assert_array_equal(u, pcg_solve(op, v, epsilon=1e-3).x)


@pytest.mark.parametrize("seed", range(3))
def test_warm_probe_solves_stop_at_a_tenth_of_their_start(monkeypatch, seed):
    # between EM maps the spectrum and the curvature move; the solve from the
    # last map's u need only close a tenth of the residual that move left
    f_t, c = standard_instance(seed)
    start = make_probes(4, 64, seed=5, f_t=f_t, c_diag=c, eps_pcg=1e-10).u
    f_new = quasi_matern_spectrum(CovParams(1.65, 2.85), GRID8)
    c_new = c * np.exp(0.3 * np.random.default_rng(seed + 10).standard_normal(64))

    def solve():
        return make_probes(4, 64, seed=5, f_t=f_new, c_diag=c_new, eps_pcg=1e-6, u0=start)

    forced = solve()
    monkeypatch.setattr(trace, "FORCING", 0.0)
    plain = solve()
    assert forced.solve_converged.all() and plain.solve_converged.all()
    assert forced.pcg_iterations < plain.pcg_iterations
    assert np.max(np.abs(forced.u - plain.u)) < 1e-3


@pytest.mark.parametrize("shape", [(3, 64), (4, 63), (64,), (1, 4, 64)])
def test_probe_start_of_the_wrong_shape_is_rejected(shape):
    f_t, c = standard_instance()
    with pytest.raises(ConfigError, match="probe start"):
        make_probes(4, 64, seed=0, f_t=f_t, c_diag=c, u0=np.zeros(shape))


def test_probe_pairs_validation():
    with pytest.raises(Exception):
        ProbePairs(np.full((2, 4), 0.5), np.zeros((2, 4)), np.ones(2, dtype=bool))


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------


def test_identity_trace_is_exactly_n():
    # f_candidate = f_t, C = 0, exact solves: v' Sigma^{-1} Sigma v = v'v = n
    f_t = quasi_matern_spectrum(ETA_T, GRID8)
    rng = np.random.default_rng(5)
    v = 2.0 * rng.integers(0, 2, size=(4, 64)).astype(float) - 1.0
    u = np.array([sigma_matvec(f_t, vi) for vi in v])   # exact (Sigma^{-1})^{-1} v
    probes = ProbePairs(v, u, np.ones(4, dtype=bool))
    assert trace_term(f_t, probes) == pytest.approx(64.0, rel=1e-10)


def test_trace_within_five_percent_at_m500():
    f_t, c = standard_instance(3)
    f_cand = quasi_matern_spectrum(CovParams(2.0, 4.0), GRID8)
    probes = make_probes(500, 64, seed=0, f_t=f_t, c_diag=c)
    exact = dense_trace(f_cand, f_t, c)
    assert abs(trace_term(f_cand, probes) - exact) < 0.05 * abs(exact)


def test_doubling_sigma2_halves_trace_exactly():
    f_t, c = standard_instance(4)
    probes = make_probes(6, 64, seed=1, f_t=f_t, c_diag=c)
    t1 = trace_term(quasi_matern_spectrum(CovParams(1.2, 5.0), GRID8), probes)
    t2 = trace_term(quasi_matern_spectrum(CovParams(2.4, 5.0), GRID8), probes)
    assert t2 == pytest.approx(0.5 * t1, rel=1e-14)


@given(st.floats(min_value=0.1, max_value=10.0))
def test_scale_identity(c_scale):
    f_t, c = standard_instance(5)
    probes = make_probes(4, 64, seed=2, f_t=f_t, c_diag=c)
    base = trace_term(quasi_matern_spectrum(CovParams(1.0, 3.0), GRID8), probes)
    scaled = trace_term(quasi_matern_spectrum(CovParams(c_scale, 3.0), GRID8), probes)
    assert scaled == pytest.approx(base / c_scale, rel=1e-12)


def test_unbiased_over_seeds():
    f_t, c = standard_instance(6)
    f_cand = quasi_matern_spectrum(CovParams(2.0, 4.0), GRID8)
    exact = dense_trace(f_cand, f_t, c)
    estimates = []
    for seed in range(200):
        probes = make_probes(20, 64, seed=seed, f_t=f_t, c_diag=c)
        estimates.append(trace_term(f_cand, probes))
    estimates = np.asarray(estimates)
    se = estimates.std(ddof=1) / np.sqrt(len(estimates))
    assert abs(estimates.mean() - exact) < 3.0 * se


def test_variance_shrinks_with_more_probes():
    f_t, c = standard_instance(7)
    f_cand = quasi_matern_spectrum(CovParams(1.8, 2.0), GRID8)
    at_m = {}
    for M in (1, 10):
        vals = [trace_term(f_cand, make_probes(M, 64, seed=s, f_t=f_t, c_diag=c))
                for s in range(100)]
        at_m[M] = np.var(vals, ddof=1)
    assert at_m[10] < at_m[1]


def test_reuse_across_candidates_is_pure():
    # one probe set serves every candidate eta without mutation
    f_t, c = standard_instance(8)
    probes = make_probes(4, 64, seed=9, f_t=f_t, c_diag=c)
    u_before = probes.u.copy()
    for alpha in (0.5, 2.0, 7.0):
        trace_term(quasi_matern_spectrum(CovParams(1.0, alpha), GRID8), probes)
    np.testing.assert_array_equal(probes.u, u_before)
