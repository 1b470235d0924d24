import json
from pathlib import Path

import numpy as np
import pytest

import slem.simulation
from golden_pipeline import GRID_DOC
from slem import (ConfigError, CovParams, GridSpec, SimScenario, bin_points,
                  scatter_points, simulate_dataset)
from slem.cli import main
from slem.simulation import scenario_design
from test_golden import EXPECTED_ROOT, assert_numeric_close

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


@pytest.mark.parametrize("name,value", [
    ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "3"),
    ("replicates", 2.5), ("replicates", True), ("replicates", np.float64(2.0)),
])
def test_scenario_rejects_a_seed_or_replicates_that_is_not_a_valid_integer(name, value):
    # seed -1 and 1.5 used to fail later as bare numpy errors, and seed True
    # and replicates 2.5 were accepted (the latter allowing replicate index 2)
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        SimScenario(GridSpec.unit(8, 8), CovParams(0.5, 2.0), np.zeros(0), **{name: value})


def test_scenario_takes_numpy_integers():
    scen = SimScenario(GridSpec.unit(8, 8), CovParams(0.5, 2.0), np.zeros(0),
                       replicates=np.int64(2), seed=np.uint32(3))
    assert simulate_dataset(scen, 1).replicate_index == 1


def counting_field_draws(monkeypatch):
    """A list that grows by one on each latent field draw."""
    calls, draw = [], slem.simulation.sample_gp
    monkeypatch.setattr(slem.simulation, "sample_gp",
                        lambda *a, **kw: calls.append(1) or draw(*a, **kw))
    return calls


def test_replicates_draw_the_field_once_and_match_fresh_scenarios(monkeypatch):
    args = (GRID32, CovParams(0.5, 2.0), np.array([0.2, 0.5]))
    scen = SimScenario(*args, replicates=5, seed=13)
    calls = counting_field_draws(monkeypatch)
    data = [simulate_dataset(scen, i) for i in range(5)]
    assert len(calls) == 1
    for i, d in enumerate(data):
        # a fresh scenario per replicate redraws the field and design
        fresh = simulate_dataset(SimScenario(*args, replicates=5, seed=13), i)
        np.testing.assert_array_equal(d.Y.values, fresh.Y.values)
        for name in ("X", "Z_true", "log_lambda_true"):
            assert np.array_equal(getattr(d, name), getattr(fresh, name))
    assert len(calls) == 6


def test_shared_design_arrays_are_read_only():
    beta = np.array([0.2, 0.5])
    scen = SimScenario(GRID32, CovParams(0.5, 2.0), beta, replicates=2, seed=14)
    data = simulate_dataset(scen)
    for a in (data.X, data.Z_true, data.log_lambda_true, *scenario_design(scen), scen.beta_true):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    np.testing.assert_array_equal(simulate_dataset(scen, 1).X, data.X)
    beta[0] = 1.0  # the scenario holds its own copy
    assert scen.beta_true[0] == 0.2


def test_overflow_is_raised_on_every_use_of_the_scenario():
    scen = SimScenario(GRID32, CovParams(0.5, 2.0), np.array([100.0]), seed=12)
    for _ in range(2):
        with pytest.raises(ConfigError, match="exp clamp"):
            simulate_dataset(scen)


def test_cli_simulate_draws_the_field_once_and_keeps_the_golden_files(tmp_path, monkeypatch):
    # the golden pipeline's scenario with four replicates: replicate 0 and the
    # shared files must equal the stored one-replicate outputs
    cfg = tmp_path / "simulate.json"
    cfg.write_text(json.dumps({"grid": GRID_DOC, "sigma2": 1.5, "matern_range": 4.0,
                               "beta": [0.5, 0.4], "replicates": 4, "seed": 0}))
    calls = counting_field_draws(monkeypatch)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    assert len(calls) == 1
    assert sorted(p.name for p in (tmp_path / "sim").glob("Y_*.csv")) == \
        [f"Y_{r:03d}.csv" for r in range(4)]
    for name in ("Z_true.csv", "log_lambda_true.csv", "X.csv", "Y_000.csv", "points_000.csv"):
        got = (tmp_path / "sim" / name).read_text()
        want = (Path(EXPECTED_ROOT) / "simulate" / name).read_text()
        if got != want:  # test_golden's cross-platform fallback
            assert_numeric_close(got, want, f"simulate/{name}")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scenario_rejects_non_finite_beta(bad):
    # NaN used to end in numpy's "lam value too large" and -inf in a
    # log-intensity of -inf
    with pytest.raises(ConfigError, match="beta must be finite"):
        SimScenario(GRID32, CovParams(0.5, 2.0), np.array([0.1, bad]))


def test_scenarios_compare_and_hash_by_value():
    # beta is an array; equality and the hash go by its values (a -0.0 slope
    # equals 0.0, so it must hash alike), and a scenario keys a dict or a set
    beta = np.array([0.5, 0.0, -1.0])
    eta = CovParams(0.5, 2.0)
    a = SimScenario(GRID32, eta, beta, replicates=2, seed=4)
    same = SimScenario(GridSpec.unit(32, 32), CovParams(0.5, 2.0), [0.5, -0.0, -1.0],
                       replicates=2, seed=4)
    assert a == same and not a != same and hash(a) == hash(same)
    others = [SimScenario(GRID32, eta, beta[:2], replicates=2, seed=4),
              SimScenario(GRID32, eta, beta + [0.0, 1e-12, 0.0], replicates=2, seed=4),
              SimScenario(GRID32, CovParams(0.5, 2.5), beta, replicates=2, seed=4),
              SimScenario(GridSpec.unit(32, 16), eta, beta, replicates=2, seed=4),
              SimScenario(GRID32, eta, beta, replicates=3, seed=4),
              SimScenario(GRID32, eta, beta, replicates=2, seed=5)]
    assert all(a != other for other in others)
    assert len({a, same, *others}) == 1 + len(others)
    assert {a: "drawn"}[same] == "drawn"
    assert a != (GRID32, eta, beta, 2, 4) and SimScenario(GRID32, eta, [], seed=4) == \
        SimScenario(GRID32, eta, np.zeros(0), seed=4)
    # drawing the field leaves equality and the hash alone
    before = hash(a)
    simulate_dataset(a)
    assert a == same and hash(a) == before
