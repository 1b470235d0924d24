#!/usr/bin/env python3
"""Print inputs, fit, predict and objective sha256 digests and the work counts per benchmark fit.

Run at two commits and compare, to show that a change leaves the benchmark's
inputs and fits bit-identical, or that a change to prediction leaves the fit
alone:

    python3 scripts/fit_digest.py --workload paper70 sparse70 rough128 --seed 0 1

For each workload and seed the inputs, the fit and the prediction are the
benchmark's own (perfbench/run.py's set_up, run_fit and run_predict, imported
and not modified).  The inputs digest covers what set_up simulates: the
training counts, design, latent field and log-intensity, and every held-out
count grid.  The fit digest covers theta*, W*, Z*, the map count, the
converged flag and the diagnostics without runtime_seconds; the predict
digest covers every array estimate_intensity returns; the objective digest
covers the objective trace alone, so a change that prices Q differently at
rounding level can show that the fit itself is unchanged.  The digests are
followed by the fit's work counts, which repeat exactly from run to run
where its wall time does not, so a solver change can be sized without
timing noise.  Each line reads

    <workload> seed <seed> inputs <hex> fit <hex> predict <hex> objective <hex>
    maps <int> converged <bool> newton_steps <int> newton_pcg_iterations <int>
    probe_pcg_iterations <int>

on one line.
"""
import argparse
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import run as perfbench  # noqa: E402  (pins BLAS threads, imports slem from src/)


def sha256(*arrays, extra=None) -> str:
    """Digest of the named arrays (name, array) and the JSON of extra."""
    h = hashlib.sha256()
    for name, array in arrays:
        a = np.ascontiguousarray(array, dtype=float)
        h.update(f"{name}{a.shape}".encode())
        h.update(a.tobytes())
    if extra is not None:
        h.update(json.dumps(extra, sort_keys=True).encode())
    return h.hexdigest()


def inputs_digest(inputs) -> str:
    """Digest of the simulated training data and held-out counts."""
    train = inputs.train
    return sha256(("Y", train.Y.values), ("X", train.X), ("Z_true", train.Z_true),
                  ("log_lambda_true", train.log_lambda_true),
                  *((f"heldout{h}", Y.values) for h, Y in enumerate(inputs.heldout)))


def fit_digests(res, est) -> tuple:
    """(fit, predict, objective) digests of one fit and its prediction."""
    diagnostics = {k: v for k, v in res.diagnostics.items() if k != "runtime_seconds"}
    fit = sha256(("theta", res.theta_star.vector()), ("W", res.W_star), ("Z", res.Z_star),
                 extra=[res.em_iterations, res.converged, diagnostics])
    predict = sha256(*((f.name, getattr(est, f.name)) for f in fields(est)))
    return fit, predict, sha256(("objective", res.objective_trace))


def work_counts(res) -> dict:
    """The map count, the converged flag and the Newton and PCG work of a fit."""
    work = ("newton_steps", "newton_pcg_iterations", "probe_pcg_iterations")
    return {"maps": res.em_iterations, "converged": res.converged,
            **{key: res.diagnostics[key] for key in work}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", required=True, choices=sorted(perfbench.WORKLOADS))
    ap.add_argument("--seed", nargs="+", type=int, default=[0],
                    help="Poisson-draw seeds, as perfbench/run.py's --seed")
    ap.add_argument("--scenario-seed", type=int, default=2,
                    help="seed of the latent field and covariates (perfbench's default)")
    args = ap.parse_args(argv)
    for name in args.workload:
        for seed in args.seed:
            inputs = perfbench.set_up(perfbench.WORKLOADS[name], args.scenario_seed, seed)
            res = perfbench.run_fit(inputs)
            fit, predict, objective = fit_digests(res, perfbench.run_predict(inputs, res))
            counts = " ".join(f"{k} {v}" for k, v in work_counts(res).items())
            print(f"{name} seed {seed} inputs {inputs_digest(inputs)} fit {fit} "
                  f"predict {predict} objective {objective} {counts}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
