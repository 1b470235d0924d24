import numpy as np
import pytest

from oracles import naive_block_summaries, poisson_loglik
from slem import (ConfigError, CountGrid, CovariateMatrix, GridSpec,
                  MinuteStack, NumericalError, block_summaries, select_summary,
                  standardize, summarize_blocks)
from slem.covariates import _poisson_irls

GRID = GridSpec.unit(6, 6)


def stack_of(frames):
    return MinuteStack(np.asarray(frames, dtype=float), GRID)


# ---------------------------------------------------------------------------
# ten-minute block summaries
# ---------------------------------------------------------------------------


def test_block_summaries_constant_stack():
    st = stack_of(np.full((20, 6, 6), 2.5))
    diffs, means = block_summaries(st)
    assert diffs.shape == means.shape == (2, 6, 6)
    np.testing.assert_array_equal(diffs, 0.0)
    np.testing.assert_array_equal(means, 2.5)


def test_block_summaries_linear_ramp():
    # frame t equals t everywhere: every block changes by 9 and averages
    # its start plus 4.5
    frames = np.arange(30.0)[:, None, None] * np.ones((1, 6, 6))
    diffs, means = block_summaries(stack_of(frames))
    np.testing.assert_allclose(diffs, 9.0)
    np.testing.assert_allclose(means[0], 4.5)
    np.testing.assert_allclose(means[1], 14.5)
    np.testing.assert_allclose(means[2], 24.5)


def test_block_summaries_match_naive_loops_with_missing_pixels():
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((40, 6, 6))
    miss = rng.random((40, 6, 6)) < 0.05
    frames[miss] = np.nan
    diffs, means = block_summaries(stack_of(frames))
    want_d, want_m = naive_block_summaries(frames)
    np.testing.assert_array_equal(diffs, want_d)
    # reduction order differs between the vectorized mean and the loop
    np.testing.assert_allclose(means, want_m, rtol=1e-12)


def test_block_means_recover_block_sums():
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((20, 6, 6))
    _, means = block_summaries(stack_of(frames))
    for b in range(2):
        np.testing.assert_allclose(10.0 * means[b], frames[10 * b:10 * (b + 1)].sum(axis=0),
                                   rtol=1e-12)


def test_summarize_blocks_small_example():
    blocks = np.arange(1.0, 7.0)[:, None, None] * np.ones((1, 2, 2))
    np.testing.assert_allclose(summarize_blocks(blocks, "avg"), 3.5)
    np.testing.assert_allclose(summarize_blocks(blocks, "min"), 1.0)
    np.testing.assert_allclose(summarize_blocks(blocks, "max"), 6.0)
    np.testing.assert_allclose(summarize_blocks(blocks, "range"), 5.0)
    with pytest.raises(ConfigError):
        summarize_blocks(blocks, "median")


def test_summarize_blocks_matches_loops():
    rng = np.random.default_rng(2)
    blocks = rng.standard_normal((5, 4, 3))
    for fn, ref in [("avg", np.mean), ("min", np.min), ("max", np.max)]:
        want = np.empty((4, 3))
        for i in range(4):
            for j in range(3):
                want[i, j] = ref(blocks[:, i, j])
        np.testing.assert_allclose(summarize_blocks(blocks, fn), want, rtol=1e-14)
    np.testing.assert_allclose(summarize_blocks(blocks, "range"),
                               summarize_blocks(blocks, "max") - summarize_blocks(blocks, "min"),
                               rtol=1e-14)


def test_minute_stack_validation():
    with pytest.raises(ConfigError):
        stack_of(np.zeros((25, 6, 6)))  # not a multiple of 10
    with pytest.raises(ConfigError):
        stack_of(np.zeros((0, 6, 6)))
    with pytest.raises(ConfigError):
        stack_of(np.zeros((10, 5, 6)))  # wrong spatial shape
    st = stack_of(np.zeros((10, 6, 6)))
    with pytest.raises(ValueError):
        st.frames[0, 0, 0] = 1.0  # frames are frozen


def test_minute_stack_mask():
    frames = np.zeros((10, 6, 6))
    frames[3, 1, 2] = np.nan
    st = stack_of(frames)
    assert st.mask().sum() == 1
    assert st.mask()[3, 1, 2]
    assert st.n_blocks == 1


# ---------------------------------------------------------------------------
# single-covariate Poisson selection
# ---------------------------------------------------------------------------


def make_counts(x_flat, a, b, seed):
    lam = np.exp(a + b * x_flat)
    y = np.random.default_rng(seed).poisson(lam)
    return CountGrid(y.reshape((6, 6), order="F"), GRID)


def test_irls_loglik_matches_numeric_mle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(GRID.n)
    y = make_counts(x, 0.5, 0.9, seed=4).vector()
    delta = GRID.delta()
    (a, b), ll = _poisson_irls(y, delta, np.column_stack([np.ones_like(x), x]))
    want = poisson_loglik(y, delta, np.column_stack([np.ones_like(x), x]))
    np.testing.assert_allclose(ll, want, rtol=1e-8)
    assert abs(b - 0.9) < 0.5  # slope lands near the truth on one draw


def test_irls_fits_a_multi_column_design():
    rng = np.random.default_rng(3)
    D = np.column_stack([np.ones(GRID.n)] + [rng.standard_normal(GRID.n) for _ in range(3)])
    y = rng.poisson(np.exp(D @ np.array([0.5, 0.9, -0.4, 0.3])))
    coef, ll = _poisson_irls(y, GRID.delta(), D)
    np.testing.assert_allclose(ll, poisson_loglik(y, GRID.delta(), D), rtol=1e-8)
    # the score X' (y - mu) vanishes at the MLE
    np.testing.assert_allclose(D.T @ (y - np.exp(D @ coef)), 0.0, atol=1e-6)


def test_select_summary_prefers_the_generating_covariate():
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((6, 6))
    decoys = [rng.standard_normal((6, 6)) for _ in range(3)]
    hits = 0
    for seed in range(100):
        Y = make_counts(x0.reshape(-1, order="F"), 0.3, 1.2, seed=seed)
        idx, lls = select_summary(Y, GRID.delta(), [x0] + decoys)
        hits += idx == 0
    assert hits >= 95


def test_select_summary_tie_breaks_to_first():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, 6))
    Y = make_counts(x.reshape(-1, order="F"), 0.2, 0.8, seed=7)
    idx, lls = select_summary(Y, GRID.delta(), [x, x.copy()])
    assert idx == 0
    assert lls[0] == lls[1]


def test_select_summary_is_affine_invariant():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 6))
    noise = rng.standard_normal((6, 6))
    Y = make_counts(x.reshape(-1, order="F"), 0.2, 1.0, seed=9)
    idx, lls = select_summary(Y, GRID.delta(), [x, 3.0 * x + 2.0, noise])
    assert idx in (0, 1)
    np.testing.assert_allclose(lls[0], lls[1], rtol=1e-6)
    assert lls[0] > lls[2]


def test_select_summary_imputes_missing_pixels():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((6, 6))
    Y = make_counts(x.reshape(-1, order="F"), 0.2, 1.0, seed=11)
    x_miss = x.copy()
    x_miss[0, 0] = np.nan
    idx, lls = select_summary(Y, GRID.delta(), [x_miss, rng.standard_normal((6, 6))])
    assert np.isfinite(lls[0])
    assert idx == 0


def test_select_summary_all_unusable_raises():
    Y = make_counts(np.zeros(GRID.n), 0.0, 0.0, seed=12)
    with pytest.raises(NumericalError):
        select_summary(Y, GRID.delta(), [np.full((6, 6), np.nan)])


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------


def test_standardize_columns_are_centered_and_unit_scale():
    rng = np.random.default_rng(13)
    cols = [rng.standard_normal((6, 6)), 5.0 + 2.0 * rng.standard_normal((6, 6))]
    cm = standardize(cols, GRID, names=["a", "b"])
    assert cm.names == ("intercept", "a", "b")
    np.testing.assert_array_equal(cm.X[:, 0], 1.0)
    for j in (1, 2):
        np.testing.assert_allclose(cm.X[:, j].mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.std(cm.X[:, j], ddof=1), 1.0, rtol=1e-12)


def test_standardize_is_idempotent():
    rng = np.random.default_rng(14)
    raw = rng.standard_normal((6, 6))
    once = standardize([raw], GRID)
    twice = standardize([once.X[:, 1].reshape((6, 6), order="F")], GRID)
    np.testing.assert_allclose(twice.X, once.X, atol=1e-12)


def test_standardize_imputes_to_exact_zero():
    rng = np.random.default_rng(15)
    raw = rng.standard_normal((6, 6))
    raw[2, 3] = np.nan
    raw[4, 1] = np.nan
    cm = standardize([raw], GRID)
    assert cm.n_imputed == 2
    flat = raw.reshape(-1, order="F")
    np.testing.assert_allclose(cm.X[np.isnan(flat), 1], 0.0, atol=1e-12)


def test_standardize_rejects_degenerate_columns():
    with pytest.raises(ConfigError):
        standardize([np.full((6, 6), 3.0)], GRID)  # constant aliases intercept
    with pytest.raises(ConfigError):
        standardize([np.full((6, 6), np.nan)], GRID)
    with pytest.raises(ConfigError):
        standardize([np.zeros((5, 6))], GRID)


def test_covariate_matrix_shape_check():
    with pytest.raises(ConfigError):
        CovariateMatrix(np.ones((4, 2)), ("intercept",))
