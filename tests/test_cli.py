import json
import os

import numpy as np
import pytest

from slem import (FitConfig, GridSpec, PointPattern, bin_points, fit, log_score,
                  split_train_test)
from slem.cli import main
from slem.covariates import SUMMARY_FNS
from slem.io import (read_matrix_csv, read_points_csv, read_raster_csv, write_matrix_csv,
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


@pytest.mark.parametrize("matern_range", [float("nan"), float("inf"), 0.0, -3.0])
def test_simulate_rejects_a_range_without_a_lag(tmp_path, capsys, matern_range):
    # NaN and Infinity used to end in a traceback, and 0 or -3 silently
    # calibrated an alpha
    cfg = write_config(tmp_path / "sim.json", {
        "grid": grid_doc(8, 8), "sigma2": 1.0, "matern_range": matern_range, "beta": [0.1],
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: matern_range must be finite and round to a lag >= 1, "
        f"got {matern_range!r}"]


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
    code, _ = fit_dir(tmp_path, sim, fit_doc=["M", 2])
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


def test_predict_rejects_design_wider_than_beta(tmp_path, capsys):
    sim = simulate_dir(tmp_path)
    _, fit_out = fit_dir(tmp_path, sim)
    X = read_matrix_csv(sim / "X.csv")[0]
    write_matrix_csv(tmp_path / "X3.csv", np.column_stack([X, X[:, 1]]), ["intercept", "x1", "x2"])
    cfg = write_config(tmp_path / "pred.json", {
        "grid": grid_doc(8, 8), "theta_json": str(fit_out / "theta.json"),
        "w_star_csv": str(fit_out / "W_star.csv"), "covariates_csv": str(tmp_path / "X3.csv"),
    })
    capsys.readouterr()
    assert main(["predict", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("config error: design matrix must be (64, 2)")


@pytest.mark.parametrize("theta,w_shape,message", [
    ({"beta": [], "sigma2": 1.0, "alpha": 2.0}, (8, 6), "raster is 8x6, grid is 8x8"),
    ({"beta": [], "sigma2": 1.0}, (8, 8), "missing required keys ['alpha']"),
], ids=["w_star_of_another_grid", "theta_without_alpha"])
def test_predict_rejects_bad_fit_files(tmp_path, capsys, theta, w_shape, message):
    write_config(tmp_path / "theta.json", theta)
    write_raster_csv(tmp_path / "W.csv", np.zeros(w_shape))
    cfg = write_config(tmp_path / "pred.json", {
        "grid": grid_doc(8, 8), "theta_json": str(tmp_path / "theta.json"),
        "w_star_csv": str(tmp_path / "W.csv"),
    })
    assert main(["predict", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err


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


def test_score_thins_by_the_realised_split(tmp_path):
    # the held-out points are scored under the intensity thinned by
    # test/train point counts of the split actually drawn, whatever the fraction
    sim = simulate_dir(tmp_path)
    fit_doc = {"max_em": 2, "seed": 0}
    cfg = write_config(tmp_path / "score.json", {
        "grid": grid_doc(8, 8), "points_csv": str(sim / "points_000.csv"),
        "fit": fit_doc, "plugin_intensity": True, "train_fraction": 0.8, "split_seed": 3,
    })
    out = tmp_path / "score_out"
    assert main(["score", "--config", cfg, "--out", str(out)]) == 0
    got = json.loads((out / "score.json").read_text())["log_score"]

    grid = GridSpec.unit(8, 8)
    train, test = split_train_test(read_points_csv(sim / "points_000.csv"), 0.8, seed=3)
    lam = np.exp(fit(bin_points(train, grid), None, grid, FitConfig(**fit_doc)).W_star)
    scale = len(test) / len(train)
    assert abs(scale - 0.25) < 0.05
    assert got == log_score(bin_points(test, grid), lam, grid.delta(), scale=scale)
    assert got != log_score(bin_points(test, grid), lam, grid.delta(), scale=1 / 9)


def test_score_rejects_scale_key(tmp_path, capsys):
    pts = PointPattern(np.random.default_rng(0).random((40, 2)) * 8.0)
    write_points_csv(tmp_path / "pts.csv", pts)
    cfg = write_config(tmp_path / "score.json", {
        "grid": grid_doc(8, 8), "points_csv": str(tmp_path / "pts.csv"),
        "fit": {"max_em": 1}, "scale": 0.25,
    })
    assert main(["score", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown keys ['scale']" in capsys.readouterr().err


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
    X, names = read_matrix_csv(out / "X.csv")
    assert names[0] == "intercept" and names[-1] == "elev"
    assert X.shape == (36, 4)
    np.testing.assert_allclose(X[:, 1:].mean(axis=0), 0.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["raster_of_another_shape", "list", "empty_list", "zero",
                                  "empty_string"])
def test_covariates_rejects_bad_extra_rasters(tmp_path, capsys, kind):
    # a 4x4 raster has a 2x8 grid's pixel count, and used to be standardized
    # into X.csv in the wrong pixel order; a list used to end in a traceback,
    # and an empty list, 0 or "" used to mean no extra rasters
    rng = np.random.default_rng(3)
    write_minute_stack(tmp_path / "stack", rng.standard_normal((10, 2, 8)))
    write_raster_csv(tmp_path / "counts.csv", rng.poisson(2.0, size=(2, 8)))
    elev = str(tmp_path / "elev44.csv")
    write_raster_csv(elev, rng.standard_normal((4, 4)))
    extras = {"raster_of_another_shape": {"elev": elev}, "list": [elev], "empty_list": [],
              "zero": 0, "empty_string": ""}[kind]
    cfg = write_config(tmp_path / "cov.json", {
        "grid": grid_doc(2, 8), "stack": str(tmp_path / "stack"),
        "counts_csv": str(tmp_path / "counts.csv"), "extra_rasters": extras,
    })
    assert main(["covariates", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    want = (f"{elev}: raster is 4x4, grid is 2x8" if kind == "raster_of_another_shape"
            else f"covariates config: extra_rasters must be an object, got {extras!r}")
    assert capsys.readouterr().err.splitlines() == [f"config error: {want}"]


@pytest.mark.parametrize("name", ["X", "x1_min", "x2_range", "sub/elev"]
                         + ([f"sub{os.sep}elev"] if os.sep != "/" else []))
def test_covariates_rejects_extra_names_that_are_not_file_names(tmp_path, capsys, name):
    # "X" used to be overwritten by the design X.csv, exiting 0, and a name
    # with a separator was joined to --out unchecked
    rng = np.random.default_rng(3)
    write_minute_stack(tmp_path / "stack", rng.standard_normal((10, 2, 8)))
    write_raster_csv(tmp_path / "counts.csv", rng.poisson(2.0, size=(2, 8)))
    elev = str(tmp_path / "elev.csv")
    write_raster_csv(elev, rng.standard_normal((2, 8)))
    cfg = write_config(tmp_path / "cov.json", {
        "grid": grid_doc(2, 8), "stack": str(tmp_path / "stack"),
        "counts_csv": str(tmp_path / "counts.csv"), "extra_rasters": {name: elev},
    })
    out = tmp_path / "o"
    assert main(["covariates", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: covariates config: extra raster name {name!r} is another output's "
        f"name or holds a path separator"]
    assert list(out.iterdir()) == []


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


MISSING_INPUTS = [("fit", "counts_csv"), ("fit", "covariates_csv"), ("predict", "theta_json"),
                  ("predict", "w_star_csv"), ("predict", "covariates_csv"),
                  ("score", "points_csv"), ("grid", "points_csv"), ("covariates", "stack"),
                  ("covariates", "extra_rasters")]


@pytest.mark.parametrize("command,key", MISSING_INPUTS)
def test_missing_input_file_exits_one(tmp_path, capsys, command, key):
    write_raster_csv(tmp_path / "counts.csv", np.zeros((8, 8), dtype=int))
    write_config(tmp_path / "theta.json", {"beta": [], "sigma2": 1.0, "alpha": 2.0})
    write_raster_csv(tmp_path / "W.csv", np.zeros((8, 8)))
    write_minute_stack(tmp_path / "stack", np.ones((10, 8, 8)))
    counts, stack = str(tmp_path / "counts.csv"), str(tmp_path / "stack")
    theta, W = str(tmp_path / "theta.json"), str(tmp_path / "W.csv")
    doc = {"grid": grid_doc(8, 8)}
    doc.update({
        "fit": {"counts_csv": counts},
        "predict": {"theta_json": theta, "w_star_csv": W},
        "score": {},
        "grid": {},
        "covariates": {"stack": stack, "counts_csv": counts},
    }[command])
    missing = str(tmp_path / "no_such_file.csv")
    doc[key] = {"elev": missing} if key == "extra_rasters" else missing
    cfg = write_config(tmp_path / "c.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: cannot read {missing}: ")


NON_STRING_PATHS = [("fit", "counts_csv", 0), ("fit", "covariates_csv", None),
                    ("predict", "theta_json", 0), ("predict", "w_star_csv", 1.5),
                    ("score", "points_csv", ["p.csv"]), ("score", "log_lambda_true_csv", True),
                    ("grid", "points_csv", {"path": "p.csv"}), ("covariates", "stack", 0),
                    ("covariates", "extra_rasters.elev", 0), ("score", "log_lambda_true_csv", "")]


@pytest.mark.parametrize("command,key,value", NON_STRING_PATHS)
def test_config_paths_must_be_strings(tmp_path, capsys, command, key, value):
    # open() takes a JSON integer as a file descriptor: "counts_csv": 0 used
    # to make `slem fit` read its counts from standard input and exit 0; an
    # empty log_lambda_true_csv used to skip the RMSE and exit 0
    path = str(tmp_path / "exists.csv")
    doc = {"grid": grid_doc(8, 8), **{
        "fit": {"counts_csv": path},
        "predict": {"theta_json": path, "w_star_csv": path},
        "score": {"points_csv": path},
        "grid": {"points_csv": path},
        "covariates": {"stack": path, "counts_csv": path},
    }[command]}
    if key.startswith("extra_rasters."):
        doc["extra_rasters"] = {key.split(".")[1]: value}
    else:
        doc[key] = value
    cfg = write_config(tmp_path / "c.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {command} config: {key} must be a path string, got {value!r}"]


BAD_NUMBERS = [
    ("grid", {"n1": "x"}, "grid: n1 must be an integer, got 'x'"),
    ("grid", {"n1": 4.7}, "grid: n1 must be an integer, got 4.7"),
    ("grid", {"x_max": True}, "grid: x_max must be a number, got True"),
    ("predict", {"k": "five"}, "predict config: k must be an integer, got 'five'"),
    ("score", {"k": 2.5}, "score config: k must be an integer, got 2.5"),
    ("score", {"train_fraction": "0.9"}, "score config: train_fraction must be a number"),
    ("score", {"split_seed": -1}, "score config: split_seed must be an integer >= 0"),
    ("simulate", {"sigma2": "1"}, "simulate config: sigma2 must be a number"),
    ("simulate", {"alpha": None}, "simulate config: alpha must be a number, got None"),
    ("simulate", {"replicates": 0}, "simulate config: replicates must be an integer >= 1"),
    ("simulate", {"seed": 1.0}, "simulate config: seed must be an integer >= 0, got 1.0"),
    ("simulate", {"beta": [0.2, "x"]}, "simulate config: beta[1] must be a number"),
    ("simulate", {"beta": 0.2}, "simulate config: beta must be a list of numbers"),
    ("simulate", {"beta": [float("nan")]}, "beta must be finite, got [nan]"),
    ("simulate", {"beta": [-float("inf")]}, "beta must be finite, got [-inf]"),
    ("fit", {"fit": 0}, "fit config: fit must be an object, got 0"),
    ("fit", {"fit": False}, "fit config: fit must be an object, got False"),
    ("fit", {"fit": ""}, "fit config: fit must be an object, got ''"),
    ("fit", {"fit": []}, "fit config: fit must be an object, got []"),
    ("fit", {"fit": None}, "fit config: fit must be an object, got None"),
    ("score", {"fit": 0}, "score config: fit must be an object, got 0"),
    ("score", {"plugin_intensity": "false"},
     "score config: plugin_intensity must be true or false, got 'false'"),
    ("score", {"plugin_intensity": "no"},
     "score config: plugin_intensity must be true or false, got 'no'"),
    ("score", {"plugin_intensity": 0},
     "score config: plugin_intensity must be true or false, got 0"),
]


@pytest.mark.parametrize("command,change,message", BAD_NUMBERS,
                         ids=[f"{c}-{next(iter(ch))}-{ch[next(iter(ch))]!r}"
                              for c, ch, _ in BAD_NUMBERS])
def test_config_numbers_are_typed(tmp_path, capsys, command, change, message):
    # each numeric scalar is read by FitConfig's rules: a string, a bool or a
    # fractional count is one config error line, never a traceback or a
    # silent truncation; the fit object and the plug-in flag are read by
    # type, not truthiness
    write_raster_csv(tmp_path / "W.csv", np.zeros((8, 8)))
    write_raster_csv(tmp_path / "counts.csv", np.zeros((8, 8), dtype=int))
    write_config(tmp_path / "theta.json", {"beta": [], "sigma2": 1.0, "alpha": 2.0})
    write_points_csv(tmp_path / "pts.csv", PointPattern(np.full((3, 2), 0.5)))
    doc = {"grid": grid_doc(8, 8), **{
        "grid": {"points_csv": str(tmp_path / "pts.csv")},
        "fit": {"counts_csv": str(tmp_path / "counts.csv")},
        "predict": {"theta_json": str(tmp_path / "theta.json"),
                    "w_star_csv": str(tmp_path / "W.csv")},
        "score": {"points_csv": str(tmp_path / "pts.csv")},
        "simulate": {"sigma2": 0.5, "alpha": 2.0, "beta": [0.2]},
    }[command]}
    if "n1" in change or "x_max" in change:
        doc["grid"] = {**doc["grid"], **change}
    else:
        doc.update(change)
    cfg = write_config(tmp_path / "c.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {message}")


BAD_FIELDS = {
    # config key -> file whose third line holds a non-numeric field
    "counts_csv": "# n1=2 n2=2\n0,1\n3,abc\n",
    "covariates_csv": "intercept,x1\n1,0.1\n1,zz\n1,0.3\n1,0.4\n",
    "stack": "# n1=2 n2=2\n1,0.5,0.5\n1,0.5,x\n",
    "points_csv": "x,y\n0.5,0.5\n1.5,?\n",
}


@pytest.mark.parametrize("key", sorted(BAD_FIELDS))
def test_non_numeric_csv_field_exits_one(tmp_path, capsys, key):
    write_raster_csv(tmp_path / "counts.csv", np.ones((2, 2), dtype=int))
    bad = tmp_path / "bad.csv"
    bad.write_text(BAD_FIELDS[key])
    command, doc = {
        "counts_csv": ("fit", {}),
        "covariates_csv": ("fit", {"counts_csv": str(tmp_path / "counts.csv")}),
        "stack": ("covariates", {"counts_csv": str(tmp_path / "counts.csv")}),
        "points_csv": ("grid", {}),
    }[key]
    doc.update({"grid": grid_doc(2, 2), key: str(bad)})
    cfg = write_config(tmp_path / "c.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {bad}:3: field ")


@pytest.mark.parametrize("field", ["1.7", "-0.5", ""], ids=["fraction", "negative", "empty"])
def test_counts_must_be_whole_and_present(tmp_path, capsys, field):
    # a fractional count used to be truncated and fitted, exiting 0
    counts = tmp_path / "counts.csv"
    counts.write_text(f"# n1=2 n2=2\n0,1\n3,{field}\n")
    cfg = write_config(tmp_path / "c.json", {"grid": grid_doc(2, 2), "counts_csv": str(counts)})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: {counts}: counts must be finite integers"]


def test_design_with_missing_value_names_its_file(tmp_path, capsys):
    write_raster_csv(tmp_path / "counts.csv", np.ones((2, 2), dtype=int))
    design = tmp_path / "X.csv"
    design.write_text("intercept,x1\n1,0.1\n1,\n1,0.3\n1,0.4\n")
    cfg = write_config(tmp_path / "c.json", {
        "grid": grid_doc(2, 2), "counts_csv": str(tmp_path / "counts.csv"),
        "covariates_csv": str(design),
    })
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: {design}: design matrix has a non-finite entry in row 1"]


def test_malformed_json_exits_one(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["fit", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    p.write_bytes(b"\xff\xfe{}")
    assert main(["fit", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
