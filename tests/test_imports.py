"""What a fresh interpreter loads.  `import slem`, `import slem.cli`, the
fit path (fit, estimate_intensity, log_score) and Matern range calibration
need numpy only; scipy is imported inside the one function that needs it,
the collinearity diagnostic on its way to an error, so each of these runs
in its own process."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SCIPY_SUBMODULES = ("scipy.special", "scipy.linalg", "scipy.fft", "scipy.optimize",
                    "scipy.stats")


def run_fresh(code):
    """Run `code` in a new interpreter with slem on its path; returns the
    JSON document it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_fit_path_load_no_scipy_submodule():
    out = run_fresh(f"""
        import json, sys
        import numpy as np
        import slem, slem.cli

        grid = slem.GridSpec.unit(16, 16)
        eta = slem.CovParams(slem.amplitude_for_variance(1.0, 4.0, grid), 4.0)
        scenario = slem.SimScenario(grid, eta, np.array([0.5, 0.4]), replicates=2, seed=0)
        train, test = (slem.simulate_dataset(scenario, r) for r in range(2))
        res = slem.fit(train.Y, train.X, grid, slem.FitConfig(M=1, max_em=5, seed=0))
        est = slem.estimate_intensity(res.W_star, train.X, res.theta_star.beta,
                                      slem.quasi_matern_spectrum(res.theta_star.eta, grid),
                                      grid.delta())
        score = slem.log_score(test.Y, est.intensity, grid.delta(), scale=1.0)
        print(json.dumps({{"score": score,
                          "loaded": [m for m in {SCIPY_SUBMODULES!r} if m in sys.modules]}}))
    """)
    assert out["loaded"] == []
    assert out["score"] < 0


def test_matern_calibration_loads_no_scipy_submodule(tmp_path):
    # K_1 is computed with numpy: calibrating a range, directly or through
    # `slem simulate` with matern_range, used to import scipy.special
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "grid": {"n1": 16, "n2": 16, "x_min": 0.0, "x_max": 16.0, "y_min": 0.0, "y_max": 16.0},
        "sigma2": 2.0, "matern_range": 4.0, "beta": [0.1], "seed": 0}))
    out = run_fresh(f"""
        import contextlib, io, json, sys
        import slem
        from slem.cli import main

        alpha = slem.calibrate_range_to_matern(slem.GridSpec.unit(70, 70), 18.0)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["simulate", "--config", {str(config)!r}, "--out", {str(tmp_path)!r}])
        print(json.dumps({{"alpha": alpha, "code": code,
                          "loaded": [m for m in {SCIPY_SUBMODULES!r} if m in sys.modules]}}))
    """)
    assert out["loaded"] == []
    assert out["code"] == 0
    assert out["alpha"] == 29.91305580069937


def test_collinearity_error_names_its_columns_in_a_fresh_process():
    out = run_fresh("""
        import json, sys
        import numpy as np
        import slem

        grid = slem.GridSpec.unit(6, 6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(grid.n)
        X = np.column_stack([np.ones(grid.n), x, rng.standard_normal(grid.n), 2.0 * x])
        f = slem.quasi_matern_spectrum(slem.CovParams(1.5, 3.0), grid)
        before = "scipy.linalg" in sys.modules
        try:
            slem.update_beta(rng.standard_normal(grid.n), X, f)
        except slem.CollinearityError as exc:
            print(json.dumps({"before": before, "columns": list(exc.columns),
                              "message": str(exc)}))
    """)
    assert not out["before"]
    assert out["columns"] in ([1], [3])
    assert f"dependent columns: ({out['columns'][0]},)" in out["message"]
