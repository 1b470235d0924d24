"""Checks of the benchmark harness itself, on the smoke workload.

Run from the repository root (about ten seconds):

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke():
    inputs = run.set_up(run.WORKLOADS["smoke"], 2, 0)
    res = run.run_fit(inputs)
    return inputs, res, run.run_predict(inputs, res)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    out = invoke(ROOT, "--workload", "smoke", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert "smoke" not in {w["name"] for w in SPEC["workloads"]}


def test_seed_fixes_the_inputs():
    w = run.WORKLOADS["smoke"]
    a, b, c = run.set_up(w, 2, 4), run.set_up(w, 2, 4), run.set_up(w, 2, 5)
    assert np.array_equal(a.train.Y.vector(), b.train.Y.vector())
    assert len(a.heldout) == run.HELDOUT
    assert all(np.array_equal(x.vector(), y.vector()) for x, y in zip(a.heldout, b.heldout))
    assert not np.array_equal(a.train.Y.vector(), c.train.Y.vector())
    draws = [a.train.Y.vector()] + [Y.vector() for Y in a.heldout + c.heldout]
    assert len({d.tobytes() for d in draws}) == len(draws)
    # the seed moves only the Poisson draw, never the field or covariates
    assert np.array_equal(a.train.log_lambda_true, c.train.log_lambda_true)


def test_checks_pass_on_a_clean_run(smoke):
    inputs, res, est = smoke
    assert run.fit_problems(res) == []
    assert run.predict_problems(est) == []
    assert run.quality_problems(run.quality(inputs, res, est)) == []


def test_checks_fire_on_a_corrupted_fit(smoke):
    inputs, res, est = smoke
    W = res.W_star.copy()
    W[3] = np.nan
    assert "non-finite W*" in run.fit_problems(replace(res, W_star=W))
    theta = replace(res.theta_star, beta=np.full(res.theta_star.beta.size, np.inf))
    assert "non-finite theta" in run.fit_problems(replace(res, theta_star=theta))
    trace = res.objective_trace.copy()
    trace[2, 1] = trace[2, 0] - 1.0
    found = run.fit_problems(replace(res, objective_trace=trace))
    assert found == ["objective decreased at EM iterations [2]"]
    collapsed = replace(res.theta_star, beta=res.theta_star.beta * [1.0, 0.1, 0.1, 0.1])
    q = run.quality(inputs, replace(res, theta_star=collapsed), est)
    assert run.quality_problems(q)


def test_checks_fire_on_a_corrupted_prediction(smoke):
    _, _, est = smoke
    lv = est.local_var.copy()
    lv[0] = 0.0
    assert run.predict_problems(replace(est, local_var=lv)) == ["non-positive local variance"]
    lam = est.intensity.copy()
    lam[1] = np.inf
    assert run.predict_problems(replace(est, intensity=lam)) == ["non-finite intensity"]


def test_failures_are_counted_against_attempts():
    r = run.Run()
    assert r.attempt("fit", lambda: 1 / 0, lambda out: [])[0] is None
    r.attempt("predict", lambda: "est", lambda out: ["bad"])
    r.attempt("predict", lambda: "est", lambda out: [])
    assert (r.attempted, r.failed, len(r.problems)) == (3, 2, 2)


def test_trace_consistency_notices_missed_solves(smoke):
    inputs, res, _ = smoke
    found = run.trace_consistency(Tracer(), res, inputs.config)
    assert any("Newton modes" in p for p in found)
    assert any("probe solves" in p for p in found)


def test_tracing_restores_the_patched_names():
    from slem import em, laplace
    before = (em.newton_mode, laplace.pcg_solve, run.slem.SpectralField.__post_init__)
    with pytest.raises(RuntimeError):
        with run.traced(Tracer()):
            assert em.newton_mode is not before[0]
            raise RuntimeError
    assert (em.newton_mode, laplace.pcg_solve, run.slem.SpectralField.__post_init__) == before


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = invoke(tmp_path, "--workload", "smoke", "--seed", "0", "--seconds", "1",
                 "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
