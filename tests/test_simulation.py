import numpy as np
import pytest

from slem import (ConfigError, CovParams, GridSpec, SimScenario, bin_points,
                  scatter_points, simulate_dataset)
from slem.simulation import scenario_design

GRID32 = GridSpec.unit(32, 32)


def test_flat_unit_intensity_is_standard_poisson():
    # beta absent and a vanishing field variance leave lambda = 1 everywhere
    scen = SimScenario(GRID32, CovParams(1e-12, 0.0), np.zeros(0), seed=0)
    data = simulate_dataset(scen)
    y = data.Y.vector()
    np.testing.assert_allclose(data.log_lambda_true, 0.0, atol=1e-5)
    assert abs(y.mean() - 1.0) < 3.0 / np.sqrt(GRID32.n)
    assert data.X.shape == (GRID32.n, 0)


def test_replicates_share_the_field_and_design():
    scen = SimScenario(GRID32, CovParams(0.5, 2.0), np.array([0.2, 0.5]),
                       replicates=3, seed=1)
    d0, d1, d2 = (simulate_dataset(scen, i) for i in range(3))
    np.testing.assert_array_equal(d0.Z_true, d1.Z_true)
    np.testing.assert_array_equal(d0.Z_true, d2.Z_true)
    np.testing.assert_array_equal(d0.X, d1.X)
    assert not np.array_equal(d0.Y.vector(), d1.Y.vector())
    assert not np.array_equal(d1.Y.vector(), d2.Y.vector())
    assert (d0.replicate_index, d1.replicate_index, d2.replicate_index) == (0, 1, 2)


def test_total_count_matches_total_intensity():
    scen = SimScenario(GRID32, CovParams(0.4, 3.0), np.array([0.5, 0.3]), seed=2)
    data = simulate_dataset(scen)
    mu = (GRID32.delta() * np.exp(data.log_lambda_true)).sum()
    total = data.Y.vector().sum()
    assert abs(total - mu) < 3.0 * np.sqrt(mu)


def test_per_pixel_means_across_replicates():
    R = 100
    scen = SimScenario(GRID32, CovParams(0.3, 2.0), np.array([0.5]), replicates=R, seed=3)
    mu = GRID32.delta() * np.exp(scenario_design(scen)[2])
    acc = np.zeros(GRID32.n)
    for r in range(R):
        acc += simulate_dataset(scen, r).Y.vector()
    z = (acc / R - mu) * np.sqrt(R / mu)
    assert abs(z.mean()) < 3.0 / np.sqrt(GRID32.n)
    assert 0.7 < z.var() < 1.3


def test_simulation_is_deterministic():
    scen = SimScenario(GRID32, CovParams(0.5, 2.0), np.array([0.2, 0.5]), seed=4)
    a, b = simulate_dataset(scen), simulate_dataset(scen)
    np.testing.assert_array_equal(a.Y.values, b.Y.values)
    np.testing.assert_array_equal(a.Z_true, b.Z_true)


def test_scenario_seed_changes_the_field():
    za = scenario_design(SimScenario(GRID32, CovParams(0.5, 2.0), np.zeros(0), seed=5))[1]
    zb = scenario_design(SimScenario(GRID32, CovParams(0.5, 2.0), np.zeros(0), seed=6))[1]
    assert not np.array_equal(za, zb)


def test_design_has_leading_intercept():
    scen = SimScenario(GRID32, CovParams(0.5, 2.0), np.array([0.1, 0.2, 0.3]), seed=7)
    X = scenario_design(scen)[0]
    assert X.shape == (GRID32.n, 3)
    np.testing.assert_array_equal(X[:, 0], 1.0)
    assert np.std(X[:, 1]) > 0 and np.std(X[:, 2]) > 0


def test_covariance_only_scenario_uses_field_directly():
    scen = SimScenario(GRID32, CovParams(0.5, 2.0), np.zeros(0), seed=8)
    X, Z, log_lam = scenario_design(scen)
    assert X.shape == (GRID32.n, 0)
    np.testing.assert_array_equal(log_lam, Z)


def test_scattered_points_bin_back_to_the_counts():
    scen = SimScenario(GridSpec.unit(12, 12), CovParams(0.6, 2.0), np.array([1.0]), seed=9)
    data = simulate_dataset(scen)
    pts = scatter_points(data.Y, seed=10)
    assert pts.points.shape == (int(data.Y.vector().sum()), 2)
    rebinned = bin_points(pts, data.Y.grid)
    np.testing.assert_array_equal(rebinned.values, data.Y.values)


def test_scatter_is_deterministic_but_seed_sensitive():
    scen = SimScenario(GridSpec.unit(8, 8), CovParams(0.5, 2.0), np.array([1.0]), seed=11)
    data = simulate_dataset(scen)
    np.testing.assert_array_equal(scatter_points(data.Y, 0).points, scatter_points(data.Y, 0).points)
    assert not np.array_equal(scatter_points(data.Y, 0).points, scatter_points(data.Y, 1).points)


def test_overflowing_intensity_is_rejected():
    with pytest.raises(ConfigError):
        scenario_design(SimScenario(GRID32, CovParams(0.5, 2.0), np.array([100.0]), seed=12))


def test_scenario_validation():
    with pytest.raises(ConfigError):
        SimScenario(GRID32, CovParams(0.5, 2.0), np.zeros(0), replicates=0)
    with pytest.raises(ConfigError):
        simulate_dataset(SimScenario(GRID32, CovParams(0.5, 2.0), np.zeros(0)), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scenario_rejects_non_finite_beta(bad):
    # NaN used to end in numpy's "lam value too large" and -inf in a
    # log-intensity of -inf
    with pytest.raises(ConfigError, match="beta must be finite"):
        SimScenario(GRID32, CovParams(0.5, 2.0), np.array([0.1, bad]))
