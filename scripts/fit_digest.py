#!/usr/bin/env python3
"""Print one sha256 per benchmark fit, to show that a change leaves fits
bit-identical.

    python3 scripts/fit_digest.py --workload paper70 sparse70 rough128 --seed 0 1

For each workload and seed the inputs, the fit and the prediction are the
benchmark's own (perfbench/run.py's set_up, run_fit and run_predict, imported
and not modified).  The digest covers theta*, W*, Z*, the map count, the
converged flag, the objective trace, the diagnostics without
runtime_seconds and every array estimate_intensity returns.  Each line reads
"<workload> seed <seed> <hex digest>"; run it at two commits and compare.
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


def fit_digest(res, est) -> str:
    h = hashlib.sha256()

    def add(name, array):
        a = np.ascontiguousarray(array, dtype=float)
        h.update(f"{name}{a.shape}".encode())
        h.update(a.tobytes())

    add("theta", res.theta_star.vector())
    add("W", res.W_star)
    add("Z", res.Z_star)
    add("objective", res.objective_trace)
    diagnostics = {k: v for k, v in res.diagnostics.items() if k != "runtime_seconds"}
    h.update(json.dumps([res.em_iterations, res.converged, diagnostics],
                        sort_keys=True).encode())
    for f in fields(est):
        add(f.name, getattr(est, f.name))
    return h.hexdigest()


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
            digest = fit_digest(res, perfbench.run_predict(inputs, res))
            print(f"{name} seed {seed} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
