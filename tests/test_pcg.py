import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import dense_sigma_inv
from slem import (ConfigError, CovParams, GridSpec, NumericalError,
                  SpdOperator, pcg_solve, quasi_matern_spectrum)
from slem.laplace import precision_operator
from slem.pcg import FORCING, default_max_iter


def dense_operator(A):
    d = np.diag(A).copy()
    return SpdOperator(apply=lambda v: A @ v, precondition=lambda r: r / d)


def spd_test_system(seed):
    """Sigma^{-1} + diagonal on a 5x10 grid, materialized densely (n = 50)."""
    grid = GridSpec(5, 10, 0.0, 5.0, 0.0, 10.0)
    Sinv = dense_sigma_inv(quasi_matern_spectrum(CovParams(1.5, 3.0), grid))
    rng = np.random.default_rng(seed)
    A = Sinv + np.diag(0.5 + rng.random(50))
    b = rng.standard_normal(50)
    return A, b


def test_identity_solved_in_one_iteration():
    b = np.random.default_rng(0).standard_normal(20)
    res = pcg_solve(dense_operator(np.eye(20)), b)
    assert res.converged
    assert res.iterations == 1
    np.testing.assert_allclose(res.x, b, atol=1e-12)


def test_diagonal_solved_in_one_step():
    d = np.array([1.0, 4.0, 0.5, 9.0, 2.0])
    b = np.array([2.0, -1.0, 3.0, 0.5, 7.0])
    res = pcg_solve(dense_operator(np.diag(d)), b)
    assert res.converged
    assert res.iterations == 1
    np.testing.assert_allclose(res.x, b / d, rtol=1e-12)


def test_random_spd_system_matches_dense_solve():
    A, b = spd_test_system(1)
    res = pcg_solve(dense_operator(A), b, epsilon=1e-8, max_iter=500)
    assert res.converged
    expected = np.linalg.solve(A, b)
    assert np.linalg.norm(res.x - expected) / np.linalg.norm(expected) < 1e-6


def test_zero_rhs():
    A, _ = spd_test_system(2)
    res = pcg_solve(dense_operator(A), np.zeros(50))
    assert res.converged
    assert res.iterations == 0
    np.testing.assert_array_equal(res.x, np.zeros(50))


def test_zero_rhs_from_a_warm_start_returns_zero():
    # the exact solution of A x = 0 is 0, not the starting guess
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    res = pcg_solve(dense_operator(A), np.zeros(2), x0=np.array([1.0, -2.0]))
    assert res.converged
    assert res.iterations == 0
    np.testing.assert_array_equal(res.x, np.zeros(2))


def test_exact_start_early_return():
    A, b = spd_test_system(3)
    x_star = np.linalg.solve(A, b)
    res = pcg_solve(dense_operator(A), b, x0=x_star)
    assert res.converged
    assert res.iterations == 0


def test_x0_invariance_when_converged():
    A, b = spd_test_system(4)
    eps = 1e-9
    a = pcg_solve(dense_operator(A), b, epsilon=eps, max_iter=500)
    start = np.random.default_rng(9).standard_normal(50)
    c = pcg_solve(dense_operator(A), b, x0=start, epsilon=eps, max_iter=500)
    assert a.converged and c.converged
    assert np.linalg.norm(a.x - c.x) < 10 * eps * max(1.0, np.linalg.norm(a.x))


def test_deterministic():
    A, b = spd_test_system(5)
    r1 = pcg_solve(dense_operator(A), b)
    r2 = pcg_solve(dense_operator(A), b)
    np.testing.assert_array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


def test_error_norm_monotone_in_a_norm():
    # CG error decreases monotonically in the A-norm; iterates recovered by
    # rerunning with increasing max_iter (the method is deterministic)
    A, b = spd_test_system(6)
    x_star = np.linalg.solve(A, b)
    errs = []
    for k in range(1, 12):
        res = pcg_solve(dense_operator(A), b, epsilon=1e-14, max_iter=k)
        e = res.x - x_star if res.converged else (res.x - x_star)
        errs.append(float(e @ A @ e))
    assert all(e2 <= e1 * (1 + 1e-10) for e1, e2 in zip(errs, errs[1:]))


def test_nonconvergence_returns_best_iterate():
    A, b = spd_test_system(7)
    res = pcg_solve(dense_operator(A), b, epsilon=1e-14, max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    assert np.all(np.isfinite(res.x))


def test_resid_norm_history_recorded():
    A, b = spd_test_system(8)
    res = pcg_solve(dense_operator(A), b, epsilon=1e-10, max_iter=200)
    assert len(res.resid_norms) == res.iterations
    assert res.resid_norms[-1] < res.resid_norms[0]


@pytest.mark.parametrize("epsilon,max_iter,converged", [(1e-10, 200, True), (1e-14, 3, False)])
def test_precondition_runs_once_per_iteration(epsilon, max_iter, converged):
    # the residual that stops a solve is never preconditioned
    A, b = spd_test_system(9)
    op, calls = dense_operator(A), []
    counted = SpdOperator(op.apply, lambda r: calls.append(1) or op.precondition(r))
    res = pcg_solve(counted, b, epsilon=epsilon, max_iter=max_iter)
    assert res.converged is converged and res.iterations > 1
    assert len(calls) == res.iterations == len(res.resid_norms)


def test_indefinite_operator_rejected():
    A = np.diag([1.0, 1.0, 1.0])
    A[2, 2] = 1.0
    op = SpdOperator(apply=lambda v: np.array([v[0], v[1], -v[2]]), precondition=lambda r: r)
    with pytest.raises(NumericalError):
        pcg_solve(op, np.array([1.0, 1.0, 1.0]), epsilon=1e-12)


def test_nonpositive_diag_rejected():
    d = np.array([1.0, 0.0])
    with pytest.raises(NumericalError), np.errstate(divide="ignore"):
        pcg_solve(SpdOperator(apply=lambda v: v, precondition=lambda r: r / d), np.ones(2))


def test_nan_propagation_is_hard_error():
    def bad_apply(v):
        out = v.copy()
        out[0] = np.nan
        return out
    with pytest.raises(NumericalError):
        pcg_solve(SpdOperator(apply=bad_apply, precondition=lambda r: r), np.ones(4))


def test_parameter_validation():
    op = dense_operator(np.eye(3))
    with pytest.raises(ConfigError):
        pcg_solve(op, np.ones(3), epsilon=0.0)
    with pytest.raises(ConfigError):
        pcg_solve(op, np.ones(3), max_iter=0)
    for forcing in (-0.1, 1.0, np.nan):
        with pytest.raises(ConfigError, match="forcing"):
            pcg_solve(op, np.ones(3), forcing=forcing)
    with pytest.raises(ConfigError):
        # a size-4 operator's preconditioner against a size-3 rhs
        pcg_solve(SpdOperator(apply=lambda v: v, precondition=lambda r: np.ones(4)), np.ones(3))


# ---------------------------------------------------------------------------
# the inexact (forcing-term) stop
# ---------------------------------------------------------------------------


def jacobi_cg_changes(A, b, x0, steps):
    """sqrt(mean((r_k - r_{k-1})^2)) for k = 1 .. steps of textbook
    Jacobi-preconditioned CG from x0: the quantity pcg_solve's stop tests."""
    d = np.diag(A)
    r = b - A @ x0
    z = r / d
    p = z.copy()
    changes = []
    for _ in range(steps):
        Ap = A @ p
        alpha = (r @ z) / (p @ Ap)
        r_new = r - alpha * Ap
        changes.append(np.sqrt(np.mean((r_new - r) ** 2)))
        z_new = r_new / d
        p = z_new + (r_new @ z_new) / (r @ z) * p
        r, z = r_new, z_new
    return np.array(changes)


def warm_start(A, b, seed):
    """The solution perturbed by 10%, as an outer iteration's warm start is."""
    x = np.linalg.solve(A, b)
    noise = np.random.default_rng(seed).standard_normal(x.size)
    return x + 0.1 * np.sqrt(np.mean(x * x)) * noise


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("warm", [False, True])
def test_zero_forcing_is_the_plain_stop(seed, warm):
    A, b = spd_test_system(seed)
    x0 = warm_start(A, b, seed) if warm else None
    for eps in (1e-3, 1e-8):
        plain = pcg_solve(dense_operator(A), b, x0=x0, epsilon=eps, max_iter=500)
        zero = pcg_solve(dense_operator(A), b, x0=x0, epsilon=eps, max_iter=500, forcing=0.0)
        np.testing.assert_array_equal(zero.x, plain.x)
        assert zero.iterations == plain.iterations


@pytest.mark.parametrize("seed", [1, 4, 6, 8])
@pytest.mark.parametrize("warm", [False, True])
def test_forcing_stops_at_the_first_change_below_a_tenth_of_the_start(seed, warm):
    A, b = spd_test_system(seed)
    x0 = warm_start(A, b, seed) if warm else np.zeros(b.size)
    changes = jacobi_cg_changes(A, b, x0, 60)
    r0_rms = np.sqrt(np.mean((b - A @ x0) ** 2))
    eps = 1e-12  # far below the forcing term, which therefore binds
    hits = np.nonzero(changes <= FORCING * r0_rms)[0]
    assert hits.size
    forced = pcg_solve(dense_operator(A), b, x0=x0, epsilon=eps, max_iter=500, forcing=FORCING)
    plain = pcg_solve(dense_operator(A), b, x0=x0, epsilon=eps, max_iter=500)
    assert forced.converged
    assert forced.iterations == hits[0] + 1 < plain.iterations


@pytest.mark.parametrize("seed", [2, 5])
def test_epsilon_is_the_floor_of_the_forcing_stop(seed):
    # where epsilon exceeds a tenth of the starting residual it binds, and the
    # solve is the plain one
    A, b = spd_test_system(seed)
    eps = 2.0 * FORCING * np.sqrt(np.mean(b * b))
    forced = pcg_solve(dense_operator(A), b, epsilon=eps, forcing=FORCING)
    plain = pcg_solve(dense_operator(A), b, epsilon=eps)
    np.testing.assert_array_equal(forced.x, plain.x)
    assert forced.iterations == plain.iterations


# ---------------------------------------------------------------------------
# the posterior-precision preconditioner
# ---------------------------------------------------------------------------


def sparse_curvature(n, seed):
    """Data curvature Delta exp(W), log-normal with median ~0.37 events per pixel."""
    return np.exp(np.random.default_rng(seed).normal(-1.0, 1.0, n))


def constant_curvature_operator(n1, n2, alpha):
    grid = GridSpec.unit(n1, n2)
    f = quasi_matern_spectrum(CovParams(2.0, alpha), grid)
    return precision_operator(f, np.full(grid.n, 0.7)), grid.n


@pytest.mark.parametrize("n1,n2", [(9, 7), (12, 20), (32, 32)])
@pytest.mark.parametrize("alpha", [2.3, 29.9])
def test_constant_curvature_preconditioner_is_exact_inverse(n1, n2, alpha):
    # the circulant part inverts Sigma^{-1} + c I exactly, in the grid's own
    # column-major pixel order
    op, n = constant_curvature_operator(n1, n2, alpha)
    x = np.random.default_rng(0).standard_normal(n)
    assert np.linalg.norm(op.precondition(op.apply(x)) - x) < 1e-8 * np.linalg.norm(x)


@pytest.mark.parametrize("n1,n2", [(9, 7), (12, 20), (32, 32)])
def test_constant_curvature_solved_in_one_iteration(n1, n2):
    # alpha = 2.3: at 29.9, cond ~ 3e6 leaves round-off above the 1e-12 exact stop
    op, n = constant_curvature_operator(n1, n2, 2.3)
    res = pcg_solve(op, np.random.default_rng(1).standard_normal(n))
    assert res.converged
    assert res.iterations == 1


def test_flat_spectrum_preconditioner_is_jacobi():
    grid = GridSpec.unit(6, 5)
    f = quasi_matern_spectrum(CovParams(1.7, 0.0), grid)
    c = sparse_curvature(grid.n, 1)
    r = np.random.default_rng(2).standard_normal(grid.n)
    s0 = f.inv_row[0]
    assert s0 == pytest.approx(1.0 / 1.7, rel=1e-14)
    np.testing.assert_allclose(precision_operator(f, c).precondition(r), r / (s0 + c),
                               rtol=1e-12)


@pytest.mark.parametrize("n1,n2", [(9, 7), (12, 20)])
@pytest.mark.parametrize("alpha", [2.3, 29.9])
def test_preconditioned_solve_matches_dense_on_nonsquare_grid(n1, n2, alpha):
    grid = GridSpec.unit(n1, n2)
    f = quasi_matern_spectrum(CovParams(2.0, alpha), grid)
    c = sparse_curvature(grid.n, 3)
    b = np.random.default_rng(4).standard_normal(grid.n)
    res = pcg_solve(precision_operator(f, c), b, epsilon=1e-13, max_iter=500)
    assert res.converged
    expected = np.linalg.solve(dense_sigma_inv(f) + np.diag(c), b)
    assert np.linalg.norm(res.x - expected) / np.linalg.norm(expected) < 1e-8


def test_preconditioner_beats_jacobi_on_sparse_data():
    # the paper's range on 32 x 32 at weak curvature: Jacobi leaves the
    # ill-conditioned Sigma^{-1} part untouched and needs hundreds of steps
    grid = GridSpec.unit(32, 32)
    f = quasi_matern_spectrum(CovParams(2.0, 29.9), grid)
    c = sparse_curvature(grid.n, 5)
    b = np.random.default_rng(6).standard_normal(grid.n)
    op = precision_operator(f, c)
    jacobi_d = f.inv_row[0] + c
    jacobi = SpdOperator(apply=op.apply, precondition=lambda r: r / jacobi_d)
    bound = 20
    assert pcg_solve(jacobi, b).iterations > bound
    res = pcg_solve(op, b)
    assert res.converged
    assert res.iterations <= bound


def test_precision_operator_rejects_bad_curvature():
    grid = GridSpec.unit(4, 4)
    f = quasi_matern_spectrum(CovParams(1.0, 2.0), grid)
    with pytest.raises(ConfigError):
        precision_operator(f, np.ones(15))
    for bad in (np.nan, np.inf, -1e-3):
        c = np.ones(16)
        c[5] = bad
        with pytest.raises(NumericalError):
            precision_operator(f, c)


def test_non_spd_preconditioner_rejected():
    for scale in (-1.0, 0.0, np.nan):
        op = SpdOperator(apply=lambda v: v, precondition=lambda r, s=scale: s * r)
        with pytest.raises(NumericalError):
            pcg_solve(op, np.ones(3))


def test_default_max_iter_rule():
    assert default_max_iter(4) == 20
    assert default_max_iter(4900) == 700
    assert default_max_iter(10**6) == 2000


@given(st.integers(0, 2**32 - 1))
def test_solves_random_spd_instances(seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((12, 12))
    A = B @ B.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    res = pcg_solve(dense_operator(A), b, epsilon=1e-10, max_iter=200)
    expected = np.linalg.solve(A, b)
    assert np.linalg.norm(res.x - expected) / np.linalg.norm(expected) < 1e-6


# ---------------------------------------------------------------------------
# the boundary checks and the returned residual
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["b", "x0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected_at_the_boundary(name, bad):
    # the iterations no longer scan their vectors, so a bad b or x0 is caught
    # before the first matvec, and the message names it
    A, b = spd_test_system(10)
    x0 = np.zeros(b.size)
    (b if name == "b" else x0)[7] = bad
    applied = []
    op = SpdOperator(lambda v: applied.append(1) or A @ v, lambda r: r / np.diag(A))
    with pytest.raises(NumericalError, match=f"PCG input {name} contains non-finite"):
        pcg_solve(op, b, x0=x0)
    assert applied == []


@pytest.mark.parametrize("k", [1, 2, 6])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["apply", "precondition"])
def test_operator_turning_non_finite_at_iteration_k_raises(k, bad, where):
    A, b = spd_test_system(11)
    d = np.diag(A)
    calls = {"apply": 0, "precondition": 0}

    def faulty(kind, fn):
        def call(v):
            calls[kind] += 1
            out = fn(v)
            if kind == where and calls[kind] == k:
                out[3] = bad
            return out
        return call

    op = SpdOperator(faulty("apply", lambda v: A @ v), faulty("precondition", lambda r: r / d))
    with pytest.raises(NumericalError):
        pcg_solve(op, b, epsilon=1e-14, max_iter=50)
    assert calls[where] == k


def cg_iterates(A, b, steps):
    """(x_j, b - A x_j) for j = 0 .. steps of textbook Jacobi-preconditioned
    CG from zero, the residual recomputed from x_j."""
    d = np.diag(A)
    x, r = np.zeros(b.size), b.copy()
    z = r / d
    p = z.copy()
    out = [(x.copy(), r.copy())]
    for _ in range(steps):
        Ap = A @ p
        alpha = (r @ z) / (p @ Ap)
        x = x + alpha * p
        r_new = r - alpha * Ap
        z_new = r_new / d
        p = z_new + (r_new @ z_new) / (r @ z) * p
        r, z = r_new, z_new
        out.append((x.copy(), b - A @ x))
    return out


@pytest.mark.parametrize("max_iter", range(1, 9))
def test_nonconverged_solve_returns_the_best_iterate_and_its_residual(max_iter):
    # the best iterate is kept by swapping buffers; it must be the iterate of
    # least ||r|| among x_0 .. x_k, returned with its own residual b - A x
    A, b = spd_test_system(12)
    res = pcg_solve(dense_operator(A), b, epsilon=1e-14, max_iter=max_iter)
    assert not res.converged and res.iterations == max_iter
    iterates = cg_iterates(A, b, max_iter)
    best_x, best_r = min(iterates, key=lambda xr: np.linalg.norm(xr[1]))
    scale = np.linalg.norm(b)
    assert np.linalg.norm(res.x - best_x) <= 1e-10 * max(1.0, np.linalg.norm(best_x))
    assert np.linalg.norm(res.residual - (b - A @ res.x)) <= 1e-12 * scale
    assert np.linalg.norm(res.residual - best_r) <= 1e-10 * scale


def test_best_iterate_is_not_always_the_last():
    # the system above has a residual norm that rises at some step, so the
    # swap path (returning the spare pair) is exercised
    A, b = spd_test_system(12)
    norms = [np.linalg.norm(r) for _, r in cg_iterates(A, b, 8)]
    assert any(later > earlier for earlier, later in zip(norms, norms[1:]))


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("eps,max_iter", [(1e-8, 500), (1e-3, 500), (1e-14, 4)])
def test_returned_residual_is_b_minus_a_x(warm, eps, max_iter):
    A, b = spd_test_system(13)
    x0 = warm_start(A, b, 13) if warm else None
    for solve_b in (b, np.zeros(b.size)):
        res = pcg_solve(dense_operator(A), solve_b, x0=x0, epsilon=eps, max_iter=max_iter)
        np.testing.assert_allclose(res.residual, solve_b - A @ res.x, rtol=0,
                                   atol=1e-12 * np.linalg.norm(b))
    x_star = np.linalg.solve(A, b)
    exact = pcg_solve(dense_operator(A), b, x0=x_star)
    assert exact.iterations == 0
    np.testing.assert_array_equal(exact.residual, b - A @ x_star)
