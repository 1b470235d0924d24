"""Smoke runs of the command-line scripts under scripts/, so a change to the
library API that breaks them fails here rather than in someone's study."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_sim_study_runs_and_summarizes(tmp_path):
    out = run_script("sim_study.py", "--n1", "16", "--n2", "16", "--range", "3",
                     "--variance", "1", "--beta", "0.5", "0.4", "--replicates", "2",
                     "--max-em", "3", "--out", "study.csv", cwd=tmp_path)
    assert out[0].startswith("calibrated alpha = ")
    assert [line[:7] for line in out[1:3]] == ["rep   0", "rep   1"]
    assert out[-4].startswith("coefficient means:")
    assert out[-3].startswith("coefficient sds:")
    assert out[-2].startswith("truth:")
    assert out[-1] == "wrote study.csv"
    rows = (tmp_path / "study.csv").read_text().splitlines()
    assert rows[0].startswith("replicate,beta0,beta1,sigma2,alpha") and len(rows) == 3


def test_calibrate_range_prints_alpha_and_amplitude(tmp_path):
    out = run_script("calibrate_range.py", "--n1", "16", "--n2", "16", "--range", "3",
                     "--variance", "1", cwd=tmp_path)
    assert out[0].startswith("alpha = ")
    assert out[1].startswith("correlation at lag 3: ")
    assert out[2].startswith("spectral amplitude for pixel variance 1: ")
    assert out[3] == "implied pixel variance: 1"


def test_fit_digest_repeats_across_runs(tmp_path):
    runs = [run_script("fit_digest.py", "--workload", "smoke", "--seed", "0", "3",
                       cwd=tmp_path) for _ in range(2)]
    assert runs[0] == runs[1]
    words = [line.split() for line in runs[0]]
    assert [w[:3] for w in words] == [["smoke", "seed", "0"], ["smoke", "seed", "3"]]
    assert all(w[3:11:2] == ["inputs", "fit", "predict", "objective"] for w in words)
    assert all(len(hex_) == 64 for w in words for hex_ in w[4:12:2])
    assert all(words[0][i] != words[1][i] for i in (4, 6, 8, 10))
    # the work counts follow the digests, as name-value pairs
    assert all(w[11::2] == ["maps", "converged", "newton_steps", "newton_pcg_iterations",
                            "probe_pcg_iterations"] for w in words)
    for w in words:
        counts = dict(zip(w[11::2], w[12::2]))
        assert counts.pop("converged") in ("True", "False")
        assert all(int(v) > 0 for v in counts.values())
