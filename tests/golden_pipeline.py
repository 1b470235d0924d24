"""One fixed 16x16 end-to-end pipeline used for regression pinning.

simulate -> fit -> predict -> score, all through the CLI entry point with a
frozen scenario.  `run_all` executes it under any root directory; the stored
copy of its outputs lives in tests/golden/expected and is refreshed by
scripts/make_golden.py.
"""
import json
import os

from slem.cli import main

GRID_DOC = {"n1": 16, "n2": 16, "x_min": 0.0, "x_max": 16.0,
            "y_min": 0.0, "y_max": 16.0}

EXPECTED_FILES = {
    "simulate": ["manifest.json", "Z_true.csv", "log_lambda_true.csv", "X.csv",
                 "Y_000.csv", "points_000.csv"],
    "fit": ["theta.json", "W_star.csv", "Z_star.csv", "objective_trace.csv",
            "diagnostics.json"],
    "predict": ["predict.json", "local_var.csv", "latent_mean.csv",
                "intensity.csv", "intensity_sqrt.csv"],
    "score": ["score.json"],
}


def _run(argv):
    """main(argv), raising when the stage exits non-zero.  Not an assert, so
    the stage still runs under python -O."""
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"slem {' '.join(argv)} exited {code}")


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return str(path)


def run_all(root) -> dict:
    """Run the four stages under `root`; returns {stage: output dir}."""
    root = str(root)
    dirs = {stage: os.path.join(root, stage) for stage in EXPECTED_FILES}

    sim_cfg = _write(os.path.join(root, "simulate.json"), {
        "grid": GRID_DOC, "sigma2": 1.5, "matern_range": 4.0,
        "beta": [0.5, 0.4], "replicates": 1, "seed": 0,
    })
    _run(["simulate", "--config", sim_cfg, "--out", dirs["simulate"]])

    fit_cfg = _write(os.path.join(root, "fit.json"), {
        "grid": GRID_DOC,
        "counts_csv": os.path.join(dirs["simulate"], "Y_000.csv"),
        "covariates_csv": os.path.join(dirs["simulate"], "X.csv"),
        "fit": {"M": 1, "scheme": "joint", "max_em": 5, "seed": 0},
    })
    _run(["fit", "--config", fit_cfg, "--out", dirs["fit"]])

    pred_cfg = _write(os.path.join(root, "predict.json"), {
        "grid": GRID_DOC,
        "theta_json": os.path.join(dirs["fit"], "theta.json"),
        "w_star_csv": os.path.join(dirs["fit"], "W_star.csv"),
        "covariates_csv": os.path.join(dirs["simulate"], "X.csv"),
        "k": 5,
    })
    _run(["predict", "--config", pred_cfg, "--out", dirs["predict"], "--sqrt-display"])

    score_cfg = _write(os.path.join(root, "score.json"), {
        "grid": GRID_DOC,
        "points_csv": os.path.join(dirs["simulate"], "points_000.csv"),
        "covariates_csv": os.path.join(dirs["simulate"], "X.csv"),
        "fit": {"M": 1, "max_em": 3, "seed": 0},
        "train_fraction": 0.9, "split_seed": 0,
        "log_lambda_true_csv": os.path.join(dirs["simulate"], "log_lambda_true.csv"),
    })
    _run(["score", "--config", score_cfg, "--out", dirs["score"]])
    return dirs
