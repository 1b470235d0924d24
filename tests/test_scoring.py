import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import naive_log_score, naive_rmse
from slem import ConfigError, CountGrid, GridSpec, log_score, rmse_log_intensity
from slem.scoring import DEFAULT_SCALE, interior_mask

GRID = GridSpec.unit(8, 8)


# ---------------------------------------------------------------------------
# log score
# ---------------------------------------------------------------------------


def test_log_score_all_zero_counts():
    # zero counts leave only the exposure penalty -scale * sum(delta lambda)
    lam = np.full(GRID.n, 3.0)
    got = log_score(np.zeros(GRID.n), lam, GRID.delta())
    np.testing.assert_allclose(got, -DEFAULT_SCALE * lam.sum(), rtol=1e-12)


def test_log_score_single_count_closed_form():
    lam = np.full(GRID.n, 2.0)
    y = np.zeros(GRID.n)
    y[5] = 1.0
    got = log_score(y, lam, GRID.delta())
    want = np.log(2.0 / 9.0) - (GRID.n / 9.0) * 2.0
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_log_score_matches_naive_loop():
    rng = np.random.default_rng(0)
    lam = np.exp(rng.standard_normal(GRID.n))
    y = rng.poisson(lam / 9.0)
    delta = GRID.delta()
    got = log_score(y, lam, delta)
    want = naive_log_score(y.astype(float), lam, delta, DEFAULT_SCALE)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_log_score_accepts_count_grid():
    rng = np.random.default_rng(1)
    y = rng.poisson(1.0, GRID.n).astype(float)
    Y = CountGrid(y.reshape((8, 8), order="F"), GRID)
    assert log_score(Y, np.ones(GRID.n), GRID.delta()) == log_score(y, np.ones(GRID.n),
                                                                    GRID.delta())


def test_log_score_scale_behaviour():
    # at scale 1 with lambda = y / delta the score is the saturated loglik,
    # which upper-bounds any other intensity's score
    rng = np.random.default_rng(2)
    y = rng.poisson(2.0, GRID.n).astype(float) + 1.0
    delta = GRID.delta()
    sat = log_score(y, y / delta, delta, scale=1.0)
    other = log_score(y, np.full(GRID.n, 1.7), delta, scale=1.0)
    assert sat >= other


@given(st.integers(0, 2**32 - 1))
def test_log_score_exposure_monotone_in_scale(seed):
    # with zero counts the score decreases as the thinning scale grows
    rng = np.random.default_rng(seed)
    lam = np.exp(rng.standard_normal(GRID.n))
    s1, s2 = sorted(rng.uniform(0.05, 2.0, size=2))
    if s1 == s2:
        return
    y = np.zeros(GRID.n)
    assert log_score(y, lam, GRID.delta(), scale=s2) <= log_score(y, lam, GRID.delta(), scale=s1)


def test_log_score_validation():
    lam = np.ones(GRID.n)
    with pytest.raises(ConfigError):
        log_score(np.zeros(GRID.n - 1), lam, GRID.delta())
    with pytest.raises(ConfigError):
        log_score(np.zeros(GRID.n), 0.0 * lam, GRID.delta())
    with pytest.raises(ConfigError):
        log_score(np.zeros(GRID.n), lam, GRID.delta(), scale=0.0)
    bad = lam.copy()
    bad[3] = np.inf
    with pytest.raises(ConfigError):
        log_score(np.zeros(GRID.n), bad, GRID.delta())


@pytest.mark.parametrize("count", [-1.0, np.nan, np.inf, 0.5],
                         ids=["negative", "nan", "infinite", "fractional"])
def test_log_score_rejects_impossible_counts(count):
    # the CountGrid rule: a held-out count is finite, whole and non-negative
    y = np.zeros(GRID.n)
    y[[0, 7]] = [count, 2.0]
    with pytest.raises(ConfigError, match="counts must be"):
        log_score(y, np.ones(GRID.n), GRID.delta())


# ---------------------------------------------------------------------------
# RMSE on log intensity
# ---------------------------------------------------------------------------


def test_rmse_zero_error():
    v = np.linspace(-1, 1, GRID.n)
    full, interior = rmse_log_intensity(v, v, GRID)
    assert full == 0.0 and interior == 0.0


def test_rmse_constant_offset():
    v = np.zeros(GRID.n)
    full, interior = rmse_log_intensity(v + 0.3, v, GRID)
    np.testing.assert_allclose([full, interior], [0.3, 0.3], rtol=1e-12)


def test_rmse_matches_naive_loop():
    rng = np.random.default_rng(3)
    est = rng.standard_normal(GRID.n)
    truth = rng.standard_normal(GRID.n)
    got = rmse_log_intensity(est, truth, GRID)
    want = naive_rmse(est, truth, 8, 8, margin=2)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_interior_mask_count():
    for n1, n2 in [(8, 8), (7, 9), (16, 5)]:
        grid = GridSpec.unit(n1, n2)
        assert interior_mask(grid, margin=2).sum() == (n1 - 4) * (n2 - 4)


def test_interior_excludes_edge_errors():
    # corrupt only edge pixels: the interior RMSE must stay exactly zero
    truth = np.zeros(GRID.n)
    est = np.zeros(GRID.n)
    est[~interior_mask(GRID, 2)] = 5.0
    full, interior = rmse_log_intensity(est, truth, GRID)
    assert interior == 0.0 and full > 0.0


@pytest.mark.parametrize("name,bad", [("truth", np.nan), ("est", np.inf), ("est", -np.inf)])
def test_rmse_rejects_a_non_finite_input(name, bad):
    # a NaN used to come back as the RMSE and reach the score JSON as NaN
    v = {"est": np.zeros(GRID.n), "truth": np.zeros(GRID.n)}
    v[name][5] = bad
    with pytest.raises(ConfigError, match=f"rmse input {name} has a non-finite"):
        rmse_log_intensity(v["est"], v["truth"], GRID)


def test_rmse_validation():
    with pytest.raises(ConfigError):
        rmse_log_intensity(np.zeros(10), np.zeros(10), GRID)
    with pytest.raises(ConfigError):
        interior_mask(GridSpec.unit(4, 4), margin=2)  # no interior left
    with pytest.raises(ConfigError):
        interior_mask(GRID, margin=-1)
