import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import dense_local_variance, dense_posterior_precision
from slem import (ConfigError, CovParams, GridSpec, NumericalError, SpectralField,
                  estimate_intensity, intensity_mean, local_variance,
                  quasi_matern_spectrum, recover_z)
from slem import posterior


def posterior_instance(n1, n2, eta=CovParams(1.5, 3.0), seed=0):
    grid = GridSpec.unit(n1, n2)
    f = quasi_matern_spectrum(eta, grid)
    psi = 0.3 + np.random.default_rng(seed).random(grid.n)
    return grid, f, psi


def dense_diag_inv(f, psi):
    return np.diag(np.linalg.inv(dense_posterior_precision(f, psi)))


# ---------------------------------------------------------------------------
# latent recovery
# ---------------------------------------------------------------------------


def test_recover_z_without_design_copies():
    W = np.arange(4.0)
    z = recover_z(W, None, np.zeros(0))
    np.testing.assert_array_equal(z, W)
    z[0] = 99.0
    assert W[0] == 0.0


@pytest.mark.parametrize("X,beta", [
    (np.ones((4, 1)), np.zeros(0)),
    (None, np.zeros(2)),
    (np.ones((4, 3)), np.zeros(2)),
    (np.ones((3, 2)), np.zeros(2)),
], ids=["design_without_beta", "beta_without_design", "extra_column", "wrong_rows"])
def test_design_must_match_beta(X, beta):
    W = np.arange(4.0)
    with pytest.raises(ConfigError):
        recover_z(W, X, beta)
    with pytest.raises(ConfigError):
        intensity_mean(W, np.zeros(4), X, beta)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_design_is_rejected(bad):
    # an inf used to give intensity 0 and z_mode -inf at its pixel, silently
    grid, f, _ = posterior_instance(6, 6)
    W = np.zeros(grid.n)
    X = np.ones((grid.n, 2))
    X[5, 1] = bad
    beta = np.array([0.1, 0.2])
    with pytest.raises(ConfigError, match="non-finite"):
        recover_z(W, X, beta)
    with pytest.raises(ConfigError, match="non-finite"):
        estimate_intensity(W, X, beta, f, grid.delta(), k=3)


def test_recover_z_subtracts_linear_predictor():
    rng = np.random.default_rng(1)
    W = rng.standard_normal(12)
    X = np.column_stack([np.ones(12), rng.standard_normal(12)])
    beta = np.array([0.4, -1.1])
    np.testing.assert_allclose(recover_z(W, X, beta), W - X @ beta, atol=1e-15)


# ---------------------------------------------------------------------------
# local variance
# ---------------------------------------------------------------------------


def test_local_variance_k1_closed_form():
    # 1 x 1 neighborhood: var_i = 1 / (Sigma^{-1}_{ii} + psi_i)
    grid, f, psi = posterior_instance(6, 6)
    prior_diag = f.inv_row[0]
    np.testing.assert_allclose(local_variance(f, psi, k=1), 1.0 / (prior_diag + psi),
                               rtol=1e-10)


def test_local_variance_full_neighborhood_is_exact():
    grid, f, psi = posterior_instance(7, 7, seed=2)
    got = local_variance(f, psi, k=7)
    np.testing.assert_allclose(got, dense_diag_inv(f, psi), rtol=1e-8)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_local_variance_matches_dense_block_inverse(k):
    # a non-square grid wraps each neighborhood differently along the two axes
    grid, f, psi = posterior_instance(9, 7, seed=5)
    np.testing.assert_allclose(local_variance(f, psi, k=k), dense_local_variance(f, psi, k),
                               rtol=1e-10)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_local_variance_matches_dense_block_inverse_at_paper_alpha(k):
    # alpha 29.9 is the paper benchmark's range: Psi's condition number ~3e6
    grid, f, psi = posterior_instance(24, 20, eta=CovParams(1.5, 29.9), seed=11)
    np.testing.assert_allclose(local_variance(f, psi, k=k), dense_local_variance(f, psi, k),
                               rtol=1e-10)


@pytest.mark.parametrize("shape", [(5, 5), (6, 5)])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_local_variance_matches_dense_block_inverse_on_wrapping_grids(shape, k):
    # windows as wide as the grid: pixels at both window edges are stencil
    # neighbours across the wrap
    grid, f, psi = posterior_instance(*shape, seed=12)
    np.testing.assert_allclose(local_variance(f, psi, k=k), dense_local_variance(f, psi, k),
                               rtol=1e-12)


def symmetrized_random_spectrum(shape, seed):
    raw = np.exp(np.random.default_rng(seed).uniform(-3.0, 3.0, size=shape))
    return SpectralField(0.5 * (raw + np.roll(raw[::-1, ::-1], (1, 1), axis=(0, 1))))


@pytest.mark.parametrize("make", [
    lambda grid: SpectralField(quasi_matern_spectrum(CovParams(1.5, 3.0), grid).values ** 2),
    lambda grid: symmetrized_random_spectrum((grid.n1, grid.n2), seed=13),
], ids=["squared_quasi_matern", "symmetrized_random"])
def test_local_variance_rejects_a_precision_that_is_not_a_stencil(make):
    grid = GridSpec.unit(12, 10)
    f = make(grid)
    psi = np.ones(grid.n)
    with pytest.raises(ConfigError, match="quasi-Matern"):
        local_variance(f, psi, k=5)


def test_local_variance_rejects_an_indefinite_block():
    # a 5-point stencil with a positive center but axis weights too large to
    # be positive definite; k = 3 has no window lag outside the stencil
    inv_row = np.zeros(36)
    inv_row[0] = 1.0
    inv_row[[1, 5, 6, 30]] = -2.0  # lags (+-1, 0) and (0, +-1), column-major
    f = SimpleNamespace(shape=(6, 6), inv_row=inv_row)
    with pytest.raises(NumericalError, match="positive definite"):
        local_variance(f, np.zeros(36), k=3)


def test_local_variance_schedule_is_built_once_per_shape():
    grid, f, psi = posterior_instance(9, 7, seed=14)
    posterior._schedule.cache_clear()
    first = local_variance(f, psi, k=5)
    second = local_variance(f, 2.0 * psi, k=5)
    info = posterior._schedule.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert np.all(second < first)


@pytest.mark.parametrize("n1,n2,k", [(9, 7, 5), (24, 20, 7), (posterior.CHUNK + 7, 5, 5)],
                         ids=["wrapping_9x7", "paper_alpha_24x20", "column_over_chunk"])
def test_local_variance_chunking_changes_no_bit(n1, n2, k, monkeypatch):
    # 9 x 7: no chunk width divides n2 and the windows wrap; the tallest grid
    # has one column per chunk at every CHUNK
    grid, f, psi = posterior_instance(n1, n2, eta=CovParams(1.5, 29.9), seed=17)
    expected = local_variance(f, psi, k=k)
    for chunk in (1, n1 - 1, n1, 2 * n1 + 1, posterior.CHUNK):
        monkeypatch.setattr(posterior, "CHUNK", chunk)
        assert np.array_equal(local_variance(f, psi, k=k), expected), chunk


@pytest.mark.parametrize("n1,n2,k", [(5, 5, 5), (6, 5, 3), (9, 7, 5), (24, 20, 7), (30, 30, 9)])
def test_local_variance_schedule_numbers_each_column_as_one_run(n1, n2, k):
    s = posterior._schedule(n1, n2, k)
    k2 = k * k
    stops = [k2] + [stop for _, stop in s.cols]
    assert [start for start, _ in s.cols] == stops[:-1]  # runs tile k^2.. in pivot order
    assert stops[-1] == s.lags.size
    assert s.cols[-1][0] == s.cols[-1][1]  # the center has no later neighbour
    for p, ((start, stop), (i, j, target)) in enumerate(zip(s.cols, s.pairs)):
        assert np.all(i <= j) and np.all(j < stop - start)
        # a pair updates a later pivot's diagonal or column, never this column
        assert np.all(((target > p) & (target < k2)) | (target >= stop))


def test_local_variance_allocates_one_workspace_per_call():
    # 70 x 70 at k = 5: the workspace is (188 + 11 + 2 * 66) x 980 doubles,
    # 2.6 MB; per-pivot temporaries and per-chunk index arrays took 4.5 MB
    grid, f, psi = posterior_instance(70, 70, eta=CovParams(1.5, 29.9), seed=18)
    local_variance(f, psi, k=5)
    tracemalloc.start()
    try:
        local_variance(f, psi, k=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_local_variance_tight_prior_is_tiny():
    grid, f, psi = posterior_instance(6, 6, eta=CovParams(1e-6, 3.0))
    assert np.all(local_variance(f, psi, k=5) < 1e-3)


def test_local_variance_error_shrinks_with_k():
    grid, f, psi = posterior_instance(8, 8, seed=3)
    truth = dense_diag_inv(f, psi)
    errs = [np.max(np.abs(local_variance(f, psi, k=k) - truth)) for k in (1, 3, 5, 7)]
    assert all(b <= a + 1e-14 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0]


def test_local_variance_constant_curvature_is_translation_invariant():
    # constant psi keeps the torus symmetry, so every pixel sees the same
    # neighborhood problem; edges must match the interior exactly
    grid, f, _ = posterior_instance(8, 6)
    lv = local_variance(f, np.full(grid.n, 0.7), k=5)
    assert np.ptp(lv) < 1e-12 * lv[0]


@pytest.mark.parametrize("k", [0, 2, 4, 9])
def test_local_variance_rejects_bad_k(k):
    grid, f, psi = posterior_instance(6, 6)
    with pytest.raises(ConfigError):
        local_variance(f, psi, k=k)


def test_local_variance_rejects_bad_psi():
    grid, f, psi = posterior_instance(6, 6)
    with pytest.raises(ConfigError):
        local_variance(f, psi[:-1], k=3)
    bad = psi.copy()
    bad[0] = -0.1
    with pytest.raises(NumericalError):
        local_variance(f, bad, k=3)
    bad[0] = np.nan
    with pytest.raises(NumericalError):
        local_variance(f, bad, k=3)


@pytest.mark.parametrize("shape", [(8, 6), (1, 48)])
def test_local_variance_rejects_a_psi_that_is_not_a_grid_vector(shape):
    # a right-sized raster is rejected, not read in some pixel order
    grid, f, _ = posterior_instance(8, 6)
    with pytest.raises(ConfigError, match="psi_diag"):
        local_variance(f, np.ones(shape), k=3)


@pytest.mark.parametrize("name", ["W_star", "delta"])
@pytest.mark.parametrize("shape", [(47,), (8, 6)])
def test_estimate_intensity_rejects_inputs_that_are_not_grid_vectors(name, shape):
    grid, f, _ = posterior_instance(8, 6)
    args = {"W_star": np.zeros(grid.n), "delta": grid.delta()}
    args[name] = np.ones(shape)
    with pytest.raises(ConfigError, match=name):
        estimate_intensity(args["W_star"], None, np.zeros(0), f, args["delta"], k=3)


def test_local_variance_positive_and_below_prior():
    # adding data curvature can only shrink the variance below the prior's
    grid, f, psi = posterior_instance(6, 6, seed=4)
    lv = local_variance(f, psi, k=5)
    prior_var = local_variance(f, np.zeros(grid.n), k=5)
    assert np.all(lv > 0)
    assert np.all(lv <= prior_var + 1e-12)


# ---------------------------------------------------------------------------
# intensity summaries
# ---------------------------------------------------------------------------


def test_intensity_mean_zero_variance():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(9)
    X = np.column_stack([np.ones(9), rng.standard_normal(9)])
    beta = np.array([0.2, 0.5])
    np.testing.assert_allclose(intensity_mean(z, np.zeros(9), X, beta),
                               np.exp(X @ beta + z), rtol=1e-12)


def test_intensity_mean_latent_only_constant():
    got = intensity_mean(np.zeros(4), np.full(4, 2.0), None, np.zeros(0))
    np.testing.assert_allclose(got, np.full(4, np.e), rtol=1e-12)


def test_intensity_mean_large_mode_is_finite():
    out = intensity_mean(np.full(3, 500.0), np.ones(3), None, np.zeros(0))
    assert np.all(np.isfinite(out))


def test_estimate_intensity_composition():
    grid, f, _ = posterior_instance(8, 8, seed=6)
    rng = np.random.default_rng(7)
    W = rng.standard_normal(grid.n)
    X = np.column_stack([np.ones(grid.n), rng.standard_normal(grid.n)])
    beta = np.array([0.3, -0.4])
    delta = grid.delta()

    est = estimate_intensity(W, X, beta, f, delta, k=5)
    z = W - X @ beta
    lv = local_variance(f, delta * np.exp(W), k=5)
    np.testing.assert_allclose(est.z_mode, z, atol=1e-15)
    np.testing.assert_allclose(est.local_var, lv, rtol=1e-12)
    np.testing.assert_allclose(est.latent_mean, np.exp(z + 0.5 * lv), rtol=1e-12)
    np.testing.assert_allclose(est.intensity, np.exp(X @ beta) * est.latent_mean,
                               rtol=1e-12)
    assert np.all(est.latent_mean >= np.exp(est.z_mode))


def test_estimate_intensity_equals_its_parts_bit_for_bit():
    grid, f, _ = posterior_instance(8, 8, seed=15)
    rng = np.random.default_rng(16)
    W = rng.standard_normal(grid.n)
    X = np.column_stack([np.ones(grid.n), rng.standard_normal(grid.n)])
    beta = np.array([0.3, -0.4])
    est = estimate_intensity(W, X, beta, f, grid.delta(), k=5)
    np.testing.assert_array_equal(est.z_mode, recover_z(W, X, beta))
    np.testing.assert_array_equal(est.intensity,
                                  intensity_mean(est.z_mode, est.local_var, X, beta))


def test_estimate_intensity_without_design():
    grid, f, _ = posterior_instance(6, 6, seed=8)
    W = np.random.default_rng(9).standard_normal(grid.n)
    est = estimate_intensity(W, None, np.zeros(0), f, grid.delta(), k=3)
    np.testing.assert_array_equal(est.z_mode, W)
    np.testing.assert_allclose(est.intensity, est.latent_mean, rtol=1e-15)
