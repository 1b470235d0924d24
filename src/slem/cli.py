"""Command-line front end.

Every subcommand takes a JSON config (validated up front; unknown keys are
rejected) and writes its outputs into --out.  Exit codes: 0 success (a fit
that hit max iterations still exits 0, with converged=false in its JSON),
1 usage or config error, 2 numerical hard error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import io as slemio
from .covariates import MinuteStack, block_summaries, select_summary, standardize, summarize_blocks, SUMMARY_FNS
from .em import FitConfig, config_number, design_matrix, fit
from .errors import ConfigError, NumericalError
from .grid import CountGrid, GridSpec, bin_points, domain_mask, flatten, split_train_test, unflatten
from .posterior import estimate_intensity
from .scoring import ScoreReport, log_score, rmse_log_intensity
from .simulation import SimScenario, scatter_points, scenario_design, simulate_dataset
from .spectral import (CovParams, amplitude_for_variance,
                       calibrate_range_to_matern, quasi_matern_spectrum)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

# config keys that name an input file; open() would take a JSON integer as a
# file descriptor, so each must hold a string
PATH_KEYS = ("points_csv", "counts_csv", "covariates_csv", "theta_json", "w_star_csv",
             "log_lambda_true_csv", "stack")


def _read(reader, path, *args):
    """reader(path, *args), with a file that cannot be read reported as a
    config error rather than a traceback."""
    try:
        return reader(path, *args)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_config(path) -> dict:
    with _read(open, path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be a JSON object")
    return doc


def _check_keys(doc: dict, allowed, required, where):
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


def _number(doc: dict, key, where, integer=False, least=None, default=None):
    """doc[key], or default when it is absent, read by FitConfig's rules
    (em.config_number); every numeric config scalar goes through here."""
    return config_number(f"{where}: {key}", doc.get(key, default), integer, least)


def _numbers(doc: dict, key, where, default=None) -> np.ndarray:
    """doc[key], or default when it is absent, as a list of numbers."""
    values = doc.get(key, default)
    if not isinstance(values, list):
        raise ConfigError(f"{where}: {key} must be a list of numbers, got {values!r}")
    return np.array([config_number(f"{where}: {key}[{i}]", v) for i, v in enumerate(values)])


def _grid_from_doc(doc, where="grid") -> GridSpec:
    keys = ("n1", "n2", "x_min", "x_max", "y_min", "y_max")
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(doc, keys, keys, where)
    return GridSpec(*(_number(doc, key, where, integer=key in keys[:2]) for key in keys))


def _check_path(value, name):
    """A config path must be a non-empty string; anything else is a config
    error naming it."""
    if not (isinstance(value, str) and value):
        raise ConfigError(f"{name} must be a path string, got {value!r}")


def _open_config(args, where, allowed, required):
    """(doc, grid) for the JSON config at args.config.  doc may hold only
    'grid' and the allowed keys, and must hold 'grid' and the required ones;
    every path key it holds must be a string."""
    doc = _load_config(args.config)
    _check_keys(doc, ("grid", *allowed), ("grid", *required), where)
    for key in PATH_KEYS:
        if key in doc:
            _check_path(doc[key], f"{where}: {key}")
    return doc, _grid_from_doc(doc["grid"])


def _fit_config_from_doc(doc, where, seed_override=None) -> FitConfig:
    """The FitConfig of the config's 'fit' object; absent means the defaults."""
    fit_doc = doc.get("fit", {})
    if not isinstance(fit_doc, dict):
        raise ConfigError(f"{where}: fit must be an object, got {fit_doc!r}")
    fit_doc = dict(fit_doc)
    if seed_override is not None:
        fit_doc["seed"] = seed_override
    return FitConfig.from_dict(fit_doc)


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_raster(path, grid: GridSpec) -> np.ndarray:
    vals = _read(slemio.read_raster_csv, path)
    if vals.shape != (grid.n1, grid.n2):
        raise ConfigError(f"{path}: raster is {vals.shape[0]}x{vals.shape[1]}, "
                          f"grid is {grid.n1}x{grid.n2}")
    return vals


def _checked(path, check, *args):
    """check(*args), with a ConfigError it raises prefixed by path."""
    try:
        return check(*args)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_counts(path, grid: GridSpec) -> CountGrid:
    # CountGrid rejects missing, fractional and negative counts
    return _checked(path, CountGrid, _read_raster(path, grid), grid)


def _read_design(doc, grid: GridSpec):
    """The design named by a config's covariates_csv, or None if it names
    none.  Its width is checked against beta where the design is used."""
    path = doc.get("covariates_csv")
    if not path:
        return None
    return _checked(path, design_matrix, _read(slemio.read_matrix_csv, path)[0], grid.n)


def _write_field(out, name, vec, grid: GridSpec) -> None:
    """Write the pixel vector vec as the raster file out/name."""
    slemio.write_raster_csv(os.path.join(out, name), unflatten(vec, grid.n1, grid.n2))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_grid(args) -> int:
    doc, grid = _open_config(args, "grid config", ("points_csv",), ("points_csv",))
    pattern = _read(slemio.read_points_csv, doc["points_csv"])
    inside = int(domain_mask(pattern, grid).sum())
    counts = bin_points(pattern, grid)
    out = os.path.join(args.out, "counts.csv")
    slemio.write_raster_csv(out, counts.values)
    print(f"binned {inside} of {len(pattern)} points "
          f"({len(pattern) - inside} outside the domain) -> {out}")
    return 0


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    where = "simulate config"
    doc, grid = _open_config(args, where,
                             ("sigma2", "alpha", "matern_range", "beta", "replicates", "seed"),
                             ("sigma2", "beta"))
    if ("alpha" in doc) == ("matern_range" in doc):
        raise ConfigError(f"{where} needs exactly one of 'alpha' or 'matern_range'")
    sigma2 = _number(doc, "sigma2", where)
    if "alpha" in doc:
        # direct spectral parameterization: sigma2 is the amplitude f(0)
        alpha = _number(doc, "alpha", where)
    else:
        # Matern-calibrated scenario: sigma2 is the pixel variance of Z, so the
        # amplitude is rescaled by the shape mean after calibrating the range
        alpha = calibrate_range_to_matern(grid, _number(doc, "matern_range", where))
        sigma2 = amplitude_for_variance(sigma2, alpha, grid)
        print(f"calibrated quasi-Matern alpha = {alpha:.6g} "
              f"for Matern range {doc['matern_range']} "
              f"(spectral amplitude {sigma2:.6g})")
    seed = (args.seed if args.seed is not None
            else _number(doc, "seed", where, integer=True, least=0, default=0))
    scenario = SimScenario(grid, CovParams(sigma2, alpha), _numbers(doc, "beta", where),
                           replicates=_number(doc, "replicates", where, integer=True, least=1,
                                              default=1), seed=seed)

    X, Z, log_lam = scenario_design(scenario)
    _write_field(args.out, "Z_true.csv", Z, grid)
    _write_field(args.out, "log_lambda_true.csv", log_lam, grid)
    files = {"Z_true": "Z_true.csv", "log_lambda_true": "log_lambda_true.csv"}
    if X.shape[1]:
        names = ["intercept"] + [f"x{j}" for j in range(1, X.shape[1])]
        slemio.write_matrix_csv(os.path.join(args.out, "X.csv"), X, names)
        files["X"] = "X.csv"

    files["replicates"] = {}
    for rep in range(scenario.replicates):
        data = simulate_dataset(scenario, rep)
        y_name = f"Y_{rep:03d}.csv"
        p_name = f"points_{rep:03d}.csv"
        slemio.write_raster_csv(os.path.join(args.out, y_name), data.Y.values)
        pts = scatter_points(data.Y, seed=[seed, 3, rep])
        slemio.write_points_csv(os.path.join(args.out, p_name), pts)
        files["replicates"][str(rep)] = {"counts": y_name, "points": p_name,
                                         "total": data.Y.total()}
    manifest = {"grid": dataclasses.asdict(grid), "sigma2": scenario.eta_true.sigma2,
                "alpha": scenario.eta_true.alpha, "beta": list(map(float, scenario.beta_true)),
                "replicates": scenario.replicates, "seed": seed, "files": files,
                "runtime_seconds": time.perf_counter() - t0}
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    print(f"wrote {scenario.replicates} replicate(s) to {args.out}")
    return 0


def cmd_fit(args) -> int:
    doc, grid = _open_config(args, "fit config", ("counts_csv", "covariates_csv", "fit"),
                             ("counts_csv",))
    config = _fit_config_from_doc(doc, "fit config", seed_override=args.seed)
    Y = _read_counts(doc["counts_csv"], grid)
    X = _read_design(doc, grid)
    result = fit(Y, X, grid, config)

    theta = {"beta": [float(b) for b in result.theta_star.beta],
             "sigma2": result.theta_star.eta.sigma2,
             "alpha": result.theta_star.eta.alpha,
             "converged": result.converged,
             "em_iterations": result.em_iterations}
    _write_json(os.path.join(args.out, "theta.json"), theta)
    _write_field(args.out, "W_star.csv", result.W_star, grid)
    _write_field(args.out, "Z_star.csv", result.Z_star, grid)
    with open(os.path.join(args.out, "objective_trace.csv"), "w") as fh:
        fh.write("iteration,q_incumbent,q_updated\n")
        for i, (qi, qu) in enumerate(result.objective_trace):
            fh.write(f"{i},{slemio._fmt(qi)},{slemio._fmt(qu)}\n")
    _write_json(os.path.join(args.out, "diagnostics.json"), result.diagnostics)
    runtime = result.diagnostics.get("runtime_seconds", float("nan"))
    print(f"fit finished in {result.em_iterations} EM iteration(s), "
          f"converged={str(result.converged).lower()}, {runtime:.2f}s -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    t0 = time.perf_counter()
    doc, grid = _open_config(args, "predict config",
                             ("theta_json", "w_star_csv", "covariates_csv", "k"),
                             ("theta_json", "w_star_csv"))
    theta = _load_config(doc["theta_json"])
    _check_keys(theta, ("beta", "sigma2", "alpha", "converged", "em_iterations"),
                ("sigma2", "alpha"), doc["theta_json"])
    beta = _numbers(theta, "beta", doc["theta_json"], default=[])
    eta = CovParams(_number(theta, "sigma2", doc["theta_json"]),
                    _number(theta, "alpha", doc["theta_json"]))
    k = _number(doc, "k", "predict config", integer=True, default=5)
    W_star = flatten(_read_raster(doc["w_star_csv"], grid))
    X = _read_design(doc, grid)  # estimate_intensity checks it against beta
    est = estimate_intensity(W_star, X, beta, quasi_matern_spectrum(eta, grid),
                             grid.delta(), k=k)
    fields = {"local_var.csv": est.local_var, "latent_mean.csv": est.latent_mean,
              "intensity.csv": est.intensity}
    if args.sqrt_display:
        fields["intensity_sqrt.csv"] = np.sqrt(est.intensity)
    for name, vec in fields.items():
        _write_field(args.out, name, vec, grid)
    _write_json(os.path.join(args.out, "predict.json"),
                {"k": k, "files": list(fields),
                 "runtime_seconds": time.perf_counter() - t0})
    print(f"posterior intensity -> {args.out}")
    return 0


def cmd_score(args) -> int:
    where = "score config"
    doc, grid = _open_config(args, where,
                             ("points_csv", "covariates_csv", "fit", "train_fraction", "k",
                              "split_seed", "plugin_intensity", "log_lambda_true_csv"),
                             ("points_csv",))
    split_seed = (args.seed if args.seed is not None
                  else _number(doc, "split_seed", where, integer=True, least=0, default=0))
    fraction = _number(doc, "train_fraction", where, default=0.9)
    k = _number(doc, "k", where, integer=True, default=5)
    config = _fit_config_from_doc(doc, where, seed_override=args.seed)
    plugin = doc.get("plugin_intensity", False)
    if not isinstance(plugin, bool):
        raise ConfigError(f"{where}: plugin_intensity must be true or false, got {plugin!r}")
    t0 = time.perf_counter()
    pattern = _read(slemio.read_points_csv, doc["points_csv"])
    train_pts, test_pts = split_train_test(pattern, fraction, seed=split_seed)
    Y_train = bin_points(train_pts, grid)
    Y_test = bin_points(test_pts, grid)

    X = _read_design(doc, grid)
    result = fit(Y_train, X, grid, config)

    f_star = quasi_matern_spectrum(result.theta_star.eta, grid)
    if plugin:
        lam = np.exp(result.W_star)
    else:
        est = estimate_intensity(result.W_star, X, result.theta_star.beta, f_star,
                                 grid.delta(), k=k)
        lam = est.intensity
    # the held-out points thin the intensity by the realised split ratio
    ls = log_score(Y_test, lam, grid.delta(), scale=len(test_pts) / len(train_pts))

    rmse_full = rmse_interior = None
    if "log_lambda_true_csv" in doc:
        truth = flatten(_read_raster(doc["log_lambda_true_csv"], grid))
        rmse_full, rmse_interior = rmse_log_intensity(result.W_star, truth, grid)
    report = ScoreReport(ls, rmse_full, rmse_interior, time.perf_counter() - t0)
    _write_json(os.path.join(args.out, "score.json"), report.to_dict())
    print(f"log score {ls:.4f} on {Y_test.total()} held-out points -> {args.out}")
    return 0


def cmd_covariates(args) -> int:
    t0 = time.perf_counter()
    where = "covariates config"
    doc, grid = _open_config(args, where, ("stack", "counts_csv", "extra_rasters"),
                             ("stack", "counts_csv"))
    extras = doc.get("extra_rasters", {})
    if not isinstance(extras, dict):
        raise ConfigError(f"{where}: extra_rasters must be an object, got {extras!r}")
    # each column is written as <name>.csv next to X.csv; a family column is
    # <family>_<summary>, whichever summary the data pick
    families = ("x1", "x2")
    taken = {"X"} | {f"{family}_{fn}" for family in families for fn in SUMMARY_FNS}
    for name, path in extras.items():
        if name in taken or "/" in name or os.sep in name:
            raise ConfigError(f"{where}: extra raster name {name!r} is another output's "
                              f"name or holds a path separator")
        _check_path(path, f"{where}: extra_rasters.{name}")
    stack = MinuteStack(_read(slemio.read_minute_stack, doc["stack"], grid), grid)
    Y = _read_counts(doc["counts_csv"], grid)

    report, columns, names = {}, [], []
    for family, blocks in zip(families, block_summaries(stack)):
        cands = [summarize_blocks(blocks, fn) for fn in SUMMARY_FNS]
        idx, lls = select_summary(Y, grid.delta(), cands)
        report[family] = {"chosen": SUMMARY_FNS[idx],
                          "log_likelihood": dict(zip(SUMMARY_FNS, map(float, lls)))}
        columns.append(cands[idx])
        names.append(f"{family}_{SUMMARY_FNS[idx]}")

    for name, path in sorted(extras.items()):
        columns.append(_read_raster(path, grid))
        names.append(name)
    design = standardize(columns, grid, names=names)
    report["n_imputed"] = design.n_imputed
    report["runtime_seconds"] = time.perf_counter() - t0

    for name, col in zip(names, columns):
        slemio.write_raster_csv(os.path.join(args.out, f"{name}.csv"), col)
    slemio.write_matrix_csv(os.path.join(args.out, "X.csv"), design.X, list(design.names))
    _write_json(os.path.join(args.out, "selection.json"), report)
    print(f"selected {names[0]} and {names[1]}; design with "
          f"{design.X.shape[1]} columns -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slem",
                     description="Gridded Cox process fitting via spectral EM")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, desc in (
        ("grid", cmd_grid, "bin a point CSV onto a grid"),
        ("simulate", cmd_simulate, "draw synthetic counts from a scenario"),
        ("fit", cmd_fit, "fit the model to a counts raster"),
        ("predict", cmd_predict, "posterior intensity from a fitted model"),
        ("score", cmd_score, "train/test split, refit, out-of-sample log score"),
        ("covariates", cmd_covariates, "minute stack -> selected, standardized design"),
    ):
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "predict":
            p.add_argument("--sqrt-display", action="store_true",
                           help="also export square-root transformed intensity")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
