import json

import numpy as np
import pytest

from slem import GridSpec, PointPattern, bin_points
from slem.cli import main
from slem.covariates import SUMMARY_FNS
from slem.io import (read_points_csv, read_raster_csv, write_matrix_csv,
                     write_minute_stack, write_points_csv, write_raster_csv)
from slem.spectral import amplitude_for_variance, calibrate_range_to_matern


def grid_doc(n1, n2):
    return {"n1": n1, "n2": n2, "x_min": 0.0, "x_max": float(n1),
            "y_min": 0.0, "y_max": float(n2)}


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def simulate_dir(tmp_path, n1=8, replicates=1, beta=(0.2, 0.5), seed=0):
    out = tmp_path / "sim"
    cfg = write_config(tmp_path / "sim.json", {
        "grid": grid_doc(n1, n1), "sigma2": 0.5, "alpha": 2.0,
        "beta": list(beta), "replicates": replicates, "seed": seed,
    })
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_expected_files(tmp_path):
    out = simulate_dir(tmp_path, replicates=2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["replicates"] == 2
    assert manifest["runtime_seconds"] > 0
    for name in ("Z_true.csv", "log_lambda_true.csv", "X.csv",
                 "Y_000.csv", "Y_001.csv", "points_000.csv", "points_001.csv"):
        assert (out / name).exists()
    Y0 = read_raster_csv(out / "Y_000.csv")
    assert Y0.shape == (8, 8)
    assert manifest["files"]["replicates"]["0"]["total"] == int(Y0.sum())


def test_simulate_counts_match_scattered_points(tmp_path):
    out = simulate_dir(tmp_path)
    Y = read_raster_csv(out / "Y_000.csv")
    pts = read_points_csv(out / "points_000.csv")
    rebinned = bin_points(pts, GridSpec.unit(8, 8))
    np.testing.assert_array_equal(rebinned.values, Y)


def test_simulate_matern_range_rescales_amplitude(tmp_path):
    grid = GridSpec.unit(16, 16)
    cfg = write_config(tmp_path / "sim.json", {
        "grid": grid_doc(16, 16), "sigma2": 2.0, "matern_range": 4.0,
        "beta": [0.1], "seed": 0,
    })
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    alpha = calibrate_range_to_matern(grid, 4.0)
    np.testing.assert_allclose(manifest["alpha"], alpha, rtol=1e-12)
    np.testing.assert_allclose(manifest["sigma2"],
                               amplitude_for_variance(2.0, alpha, grid), rtol=1e-12)


def test_simulate_rejects_ambiguous_range(tmp_path):
    cfg = write_config(tmp_path / "sim.json", {
        "grid": grid_doc(8, 8), "sigma2": 1.0, "alpha": 2.0,
        "matern_range": 3.0, "beta": [0.1],
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def test_grid_command_bins_points(tmp_path, capsys):
    rng = np.random.default_rng(0)
    pts = PointPattern(rng.random((40, 2)) * 6.0)
    write_points_csv(tmp_path / "pts.csv", pts)
    cfg = write_config(tmp_path / "grid.json", {
        "points_csv": str(tmp_path / "pts.csv"), "grid": grid_doc(6, 6),
    })
    out = tmp_path / "g"
    assert main(["grid", "--config", cfg, "--out", str(out)]) == 0
    want = bin_points(pts, GridSpec.unit(6, 6)).values
    np.testing.assert_array_equal(read_raster_csv(out / "counts.csv"), want)
    assert "binned 40 of 40" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fit and predict
# ---------------------------------------------------------------------------


def fit_dir(tmp_path, sim_out, fit_doc=None, extra=None, seed=None):
    doc = {"grid": grid_doc(8, 8), "counts_csv": str(sim_out / "Y_000.csv"),
           "covariates_csv": str(sim_out / "X.csv"),
           "fit": {"max_em": 4, "seed": 0} if fit_doc is None else fit_doc}
    doc.update(extra or {})
    cfg = write_config(tmp_path / "fit.json", doc)
    out = tmp_path / "fit_out"
    argv = ["fit", "--config", cfg, "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), out


def test_fit_writes_theta_and_surfaces(tmp_path):
    sim = simulate_dir(tmp_path)
    code, out = fit_dir(tmp_path, sim)
    assert code == 0
    theta = json.loads((out / "theta.json").read_text())
    assert set(theta) == {"beta", "sigma2", "alpha", "converged", "em_iterations"}
    assert len(theta["beta"]) == 2
    W = read_raster_csv(out / "W_star.csv")
    Z = read_raster_csv(out / "Z_star.csv")
    assert W.shape == Z.shape == (8, 8)
    trace_lines = (out / "objective_trace.csv").read_text().strip().splitlines()
    assert trace_lines[0] == "iteration,q_incumbent,q_updated"
    assert len(trace_lines) == theta["em_iterations"] + 1
    diags = json.loads((out / "diagnostics.json").read_text())
    assert diags["runtime_seconds"] > 0


def test_fit_objective_trace_is_numeric(tmp_path):
    sim = simulate_dir(tmp_path)
    code, out = fit_dir(tmp_path, sim, fit_doc={"max_em": 3})
    assert code == 0
    rows = (out / "objective_trace.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3
    values = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert values.shape == (3, 3) and np.all(np.isfinite(values))


def test_fit_unconverged_still_exits_zero(tmp_path):
    sim = simulate_dir(tmp_path)
    code, out = fit_dir(tmp_path, sim, fit_doc={"max_em": 1, "eps_em": 1e-12})
    assert code == 0
    theta = json.loads((out / "theta.json").read_text())
    assert theta["converged"] is False and theta["em_iterations"] == 1


def test_fit_converged_flag_with_loose_tolerance(tmp_path):
    sim = simulate_dir(tmp_path)
    code, out = fit_dir(tmp_path, sim, fit_doc={"eps_em": 1e6})
    assert code == 0
    assert json.loads((out / "theta.json").read_text())["converged"] is True


def test_fit_rejects_unknown_keys(tmp_path):
    sim = simulate_dir(tmp_path)
    code, _ = fit_dir(tmp_path, sim, extra={"stray": 1})
    assert code == 1
    code, _ = fit_dir(tmp_path, sim, fit_doc={"niter": 50})
    assert code == 1


def test_fit_missing_required_key_exits_one(tmp_path):
    cfg = write_config(tmp_path / "fit.json", {"grid": grid_doc(8, 8)})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_fit_collinear_design_exits_two(tmp_path):
    sim = simulate_dir(tmp_path)
    X, _ = np.ones((64, 1)), None
    rng = np.random.default_rng(1)
    x = rng.standard_normal(64)
    write_matrix_csv(tmp_path / "X.csv", np.column_stack([np.ones(64), x, x]),
                     ["intercept", "x1", "x2"])
    doc = {"grid": grid_doc(8, 8), "counts_csv": str(sim / "Y_000.csv"),
           "covariates_csv": str(tmp_path / "X.csv"), "fit": {"max_em": 2}}
    cfg = write_config(tmp_path / "fit.json", doc)
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_fit_seed_override_changes_probes(tmp_path):
    sim = simulate_dir(tmp_path)
    code_a, out_a = fit_dir(tmp_path, sim, seed=None)
    trace_a = (out_a / "objective_trace.csv").read_bytes()
    code_b, out_b = fit_dir(tmp_path, sim, seed=7)
    trace_b = (out_b / "objective_trace.csv").read_bytes()
    assert code_a == code_b == 0
    assert trace_a != trace_b


def test_predict_from_fitted_model(tmp_path):
    sim = simulate_dir(tmp_path)
    _, fit_out = fit_dir(tmp_path, sim)
    cfg = write_config(tmp_path / "pred.json", {
        "grid": grid_doc(8, 8), "theta_json": str(fit_out / "theta.json"),
        "w_star_csv": str(fit_out / "W_star.csv"),
        "covariates_csv": str(sim / "X.csv"), "k": 3,
    })
    out = tmp_path / "pred_out"
    assert main(["predict", "--config", cfg, "--out", str(out), "--sqrt-display"]) == 0
    lam = read_raster_csv(out / "intensity.csv")
    np.testing.assert_allclose(read_raster_csv(out / "intensity_sqrt.csv"),
                               np.sqrt(lam), rtol=1e-12)
    assert read_raster_csv(out / "local_var.csv").min() > 0
    assert read_raster_csv(out / "latent_mean.csv").min() > 0
    meta = json.loads((out / "predict.json").read_text())
    assert meta["k"] == 3
    assert "intensity_sqrt.csv" in meta["files"]


def test_predict_requires_matching_design_and_beta(tmp_path):
    sim = simulate_dir(tmp_path)
    _, fit_out = fit_dir(tmp_path, sim)
    cfg = write_config(tmp_path / "pred.json", {
        "grid": grid_doc(8, 8), "theta_json": str(fit_out / "theta.json"),
        "w_star_csv": str(fit_out / "W_star.csv"),  # beta present, no design
    })
    assert main(["predict", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_score_pipeline(tmp_path):
    sim = simulate_dir(tmp_path, n1=10, beta=(0.5, 0.4))
    cfg = write_config(tmp_path / "score.json", {
        "grid": grid_doc(10, 10), "points_csv": str(sim / "points_000.csv"),
        "covariates_csv": str(sim / "X.csv"), "fit": {"max_em": 3, "seed": 0},
        "log_lambda_true_csv": str(sim / "log_lambda_true.csv"),
    })
    out = tmp_path / "score_out"
    assert main(["score", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "score.json").read_text())
    assert np.isfinite(report["log_score"])
    assert report["rmse_full"] > 0 and report["rmse_interior"] > 0
    assert report["runtime_seconds"] > 0


def test_score_plugin_intensity(tmp_path):
    sim = simulate_dir(tmp_path)
    cfg = write_config(tmp_path / "score.json", {
        "grid": grid_doc(8, 8), "points_csv": str(sim / "points_000.csv"),
        "fit": {"max_em": 2, "seed": 0}, "plugin_intensity": True,
    })
    out = tmp_path / "score_out"
    assert main(["score", "--config", cfg, "--out", str(out)]) == 0
    assert np.isfinite(json.loads((out / "score.json").read_text())["log_score"])
    assert json.loads((out / "score.json").read_text())["rmse_full"] is None


# ---------------------------------------------------------------------------
# covariates
# ---------------------------------------------------------------------------


def test_covariates_pipeline(tmp_path):
    rng = np.random.default_rng(2)
    base = rng.standard_normal((6, 6))
    frames = np.stack([base + 0.05 * t + 0.1 * rng.standard_normal((6, 6))
                       for t in range(20)])
    write_minute_stack(tmp_path / "stack", frames)
    counts = rng.poisson(1.0, size=(6, 6))
    write_raster_csv(tmp_path / "counts.csv", counts)
    extra = rng.standard_normal((6, 6))
    extra[0, 0] = np.nan
    write_raster_csv(tmp_path / "elev.csv", extra)

    cfg = write_config(tmp_path / "cov.json", {
        "grid": grid_doc(6, 6), "stack": str(tmp_path / "stack"),
        "counts_csv": str(tmp_path / "counts.csv"),
        "extra_rasters": {"elev": str(tmp_path / "elev.csv")},
    })
    out = tmp_path / "cov_out"
    assert main(["covariates", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "selection.json").read_text())
    assert report["x1"]["chosen"] in SUMMARY_FNS
    assert report["x2"]["chosen"] in SUMMARY_FNS
    assert set(report["x1"]["log_likelihood"]) == set(SUMMARY_FNS)
    assert report["n_imputed"] >= 1
    from slem.io import read_matrix_csv
    X, names = read_matrix_csv(out / "X.csv")
    assert names[0] == "intercept" and names[-1] == "elev"
    assert X.shape == (36, 4)
    np.testing.assert_allclose(X[:, 1:].mean(axis=0), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# entry point plumbing
# ---------------------------------------------------------------------------


def test_unknown_subcommand_exits_one(tmp_path, capsys):
    assert main(["frobnicate", "--config", "x"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["simulate", "--jobs", "2"], ["simulate", "--sqrt-display"]])
def test_options_only_on_their_subcommand(tmp_path, capsys, argv):
    cfg = write_config(tmp_path / "c.json", {"grid": grid_doc(4, 4)})
    assert main(argv + ["--config", cfg, "--out", str(tmp_path)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_malformed_json_exits_one(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["fit", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
