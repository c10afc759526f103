"""Command-line front end.

Subcommands: design (space-filling designs), fit (emulator fitting from a
training CSV), calibrate (full workflow from a config file), report
(plot-ready CSV extraction from a finished run).

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure, 4 gate failure.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .calibration import _ESTIMATIONS, _TRENDS, fit_estimated
from .config import load_config, load_space
from .design import halton_sequence, lhs_design, maximin_lhs, sobol_sequence
from .diagnostics import Z_95, loocv_error
from .emulator import FittedEmulator, TrainingSet, TrendSpec
from .errors import ConfigError, DataError, GpcalError
from .fileio import (_ABSENT, _COUNT, _FLOAT, _NAMES, _NATURAL, _NONNEGATIVE, _STR,
                     _Invalid, _at_least, _check, _list, _open, make_dir, read_checked,
                     read_numeric_csv, write_csv, write_json)
from .kernels import DEFAULT_NUGGET, KERNEL_KINDS


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _arg(parse, check):
    """An argparse ``type``: the flag's text parsed, then held to a config
    schema check, so a flag takes the values its config key takes."""
    def arg(text):
        try:
            return check(parse(text), "value")
        except _Invalid as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    arg.__name__ = parse.__name__  # argparse names it in "invalid int value"
    return arg


def _cmd_design(args) -> int:
    space = load_space(args.space)
    if args.method == "lhs":
        design = lhs_design(args.n, space, seed=args.seed, midpoint=args.midpoint)
    elif args.method == "maximin":
        design = maximin_lhs(args.n, space, n_restarts=args.restarts,
                             seed=args.seed, midpoint=args.midpoint)
    elif args.method == "sobol":
        design = sobol_sequence(args.n, space, skip=args.skip)
    else:  # halton; argparse admits only these four methods
        design = halton_sequence(args.n, space, skip=args.skip)
    design.write_csv(args.out)
    print(f"wrote {design.m} x {design.dim} {args.method} design to {args.out}")
    return 0


def _load_training_csv(path):
    values, names = read_numeric_csv(path)
    if values.shape[1] < 2:
        raise DataError(f"{path}: training CSV needs at least one input column "
                        "and one output column")
    if values.shape[0] < 2:
        raise DataError(f"{path}: training CSV needs at least 2 rows")
    return values[:, :-1], values[:, -1], names


def _cmd_fit(args) -> int:
    x, y, names = _load_training_csv(args.training)
    training = TrainingSet(x, y)
    emulator, q2 = fit_estimated(training, TrendSpec(args.trend), args.kernel,
                                 args.method, args.cv_folds, args.restarts,
                                 args.seed, nugget=args.nugget)
    emulator.save(args.out)
    print(f"fitted {args.kernel} emulator on {training.m} points "
          f"(inputs: {names[:-1]}, output: {names[-1]})")
    print(f"q2_loocv = {q2:.6f}")
    if args.report:
        write_json(args.report, {
            "q2_loocv": q2,
            "loocv_error": loocv_error(emulator),
            "estimation": args.method,
            "cv_folds": (min(args.cv_folds, training.m)
                         if args.method == "cv" and not emulator.degenerate else None),
            "n_points": training.m,
            "kernel": emulator.kernel.to_dict(),
            "process_variance": emulator.process_variance,
        })
    return 0


#: the run record's files, by their manifest keys
_ARTIFACTS = {"chain_csv": "chain.csv", "posterior_summary": "posterior_summary.json",
              "validation_report": "validation_report.json", "gpcode": "gpcode.json",
              "gpbias": "gpbias.json"}
#: the variables that set the BLAS thread and simulator worker counts, which
#: a run records: chain.csv is reproducible only at the same values
_ENVIRONMENT = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "GPCAL_WORKERS")


def _cmd_calibrate(args) -> int:
    from .calibration import run_workflow

    config = load_config(args.config)
    out_dir = make_dir(args.out or config.output_dir or "gpcal_run")
    result = run_workflow(config)

    artifacts = {key: name for key, name in _ARTIFACTS.items()
                 if key != "gpbias" or result.gp_bias is not None}
    summary = result.chain.summary()
    if result.extra_chains:
        summary["chains"] = {
            "count": 1 + len(result.extra_chains),
            "per_chain_means": [c.post_burn.mean(axis=0).tolist()
                                for c in [result.chain] + result.extra_chains],
        }
    result.chain.save_csv(out_dir / artifacts["chain_csv"])
    write_json(out_dir / artifacts["posterior_summary"], summary)
    result.validation.save_json(out_dir / artifacts["validation_report"])
    result.gp_code.save(out_dir / artifacts["gpcode"])
    if result.gp_bias is not None:
        result.gp_bias.emulator.save(out_dir / artifacts["gpbias"])
    write_json(out_dir / "manifest.json", {
        "config_hash": config.config_hash, "artifacts": artifacts,
        "stage_seconds": result.stage_seconds, "theta_names": list(config.theta_names),
        "x_names": list(config.design_space.names),
        "versions": {"gpcal": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__, "python": platform.python_version()},
        "environment": {name: os.environ.get(name) for name in _ENVIRONMENT},
        "created": time.strftime("%Y-%m-%dT%H:%M:%S")})

    print(f"q2_loocv(gpcode) = {result.q2_code:.4f}  "
          f"(gate {config.thresholds['q2_gate']})")
    print(f"mcmc acceptance rate = {result.chain.accept_rate:.3f}")
    for name, stats in summary["parameters"].items():
        print(f"  {name}: mean = {stats['mean']:.6g}, std = {stats['std']:.6g}")
    print(f"validation rmse = {result.validation.rmse:.6g}, "
          f"coverage95 = {result.validation.coverage_95:.3f}")
    print(f"artifacts in {out_dir}")
    return 0


#: manifest.json's schema, and what report reads of validation_report.json
#: ((mean, sd, observed) rows) and of posterior_summary.json (the means).
#: gpbias, file and stage, is there only with the discrepancy on.
_MANIFEST = {
    "config_hash": _check(lambda v: type(v) is str and len(v) == 64
                          and set(v) <= set("0123456789abcdef"), "a SHA-256 hex digest"),
    "artifacts": {key: (_STR, _ABSENT) if key == "gpbias" else _STR for key in _ARTIFACTS},
    "stage_seconds": {stage: (_NONNEGATIVE, _ABSENT) if stage == "gpbias" else _NONNEGATIVE
                      for stage in ("split", "gpbias", "gpcode", "mcmc", "validate")},
    "theta_names": _NAMES, "x_names": _NAMES,
    "versions": dict.fromkeys(("gpcal", "numpy", "scipy", "python"), _STR),
    # older run records have no environment block
    "environment": (dict.fromkeys(_ENVIRONMENT, (_STR, None)), _ABSENT),
    "created": _STR,
}
_VALIDATION = _open({"residuals": _list(_list(_FLOAT, 3))})


def _summary(names):
    return _open({"parameters": _open(dict.fromkeys(names, _open({"mean": _FLOAT})))})


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    manifest = read_checked(run_dir / "manifest.json", _MANIFEST)
    theta_names = manifest["theta_names"]
    paths = {key: run_dir / name for key, name in manifest["artifacts"].items()}
    residuals = read_checked(paths["validation_report"], _VALIDATION)["residuals"]
    parameters = read_checked(paths["posterior_summary"],
                              _summary(theta_names))["parameters"]
    theta_mean = [parameters[n]["mean"] for n in theta_names]
    chain, names = read_numeric_csv(paths["chain_csv"])
    if names != theta_names:
        raise DataError(f"{paths['chain_csv']}: header {names} is not the "
                        f"manifest's theta_names {theta_names}")
    if chain.shape[0] == 0 or not np.isfinite(chain).all():
        raise DataError(f"{paths['chain_csv']}: needs at least one row, all finite")
    # loaded whether or not curves are drawn: a malformed emulator exits 2 either way
    emulators = {key: FittedEmulator.load(paths[key]) for key in ("gpcode", "gpbias")
                 if key in paths}

    tables = []  # (file name, header, rows), written once all are made
    for j, name in enumerate(names):
        col = chain[:, j]
        lo, hi = float(col.min()), float(col.max())
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        counts, edges = np.histogram(col, bins=args.bins, range=(lo, hi))
        tables.append((f"marginal_{name}.csv", ["bin_left", "bin_right", "count"],
                       zip(edges[:-1], edges[1:], counts)))
    tables.append(("trace.csv", ["iteration"] + names,
                   np.column_stack([np.arange(chain.shape[0]), chain])))
    tables.append(("predictive.csv",
                   ["pred_mean", "pred_sd", "observed", "lower95", "upper95"],
                   [(m, s, a, m - Z_95 * s, m + Z_95 * s) for m, s, a in residuals]))

    if len(manifest["x_names"]) == 1:
        for key, emulator in emulators.items():
            tr_x = emulator.training.x_phys
            grid = np.linspace(tr_x[:, 0].min(), tr_x[:, 0].max(), args.grid)
            if key == "gpcode":
                pts = np.column_stack([grid] + [np.full(grid.size, v)
                                                for v in theta_mean])
            else:
                pts = grid.reshape(-1, 1)
            mean, mse = emulator.predict_batch(pts, warn_extrapolation=False)
            sd = np.sqrt(mse)
            tables.append((f"{key}_curve.csv", ["x", "mean", "sd", "lower95", "upper95"],
                           zip(grid, mean, sd, mean - Z_95 * sd, mean + Z_95 * sd)))
    report_dir = make_dir(run_dir / "report")
    for fname, header, rows in tables:
        write_csv(report_dir / fname, header, rows)
    print(f"report CSVs in {report_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gpcal",
                     description="GP emulation and Bayesian inverse UQ toolkit")
    parser.add_argument("--version", action="version",
                        version=f"gpcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="generate a space-filling design")
    p.add_argument("--method", required=True,
                   choices=["lhs", "maximin", "sobol", "halton"])
    p.add_argument("--n", type=_arg(int, _NATURAL), required=True)
    p.add_argument("--space", required=True, help="parameter space JSON file")
    p.add_argument("--seed", type=_arg(int, _NATURAL), default=0)
    p.add_argument("--skip", type=_arg(int, _NATURAL), default=0)
    p.add_argument("--restarts", type=_arg(int, _COUNT), default=20)
    p.add_argument("--midpoint", action="store_true",
                   help="place LHS points at stratum midpoints")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_design)

    p = sub.add_parser("fit", help="fit an emulator to a training CSV "
                       "(inputs = all columns but the last, output = last)")
    p.add_argument("--training", required=True)
    p.add_argument("--kernel", default="gaussian",
                   choices=KERNEL_KINDS)
    p.add_argument("--trend", default="constant", choices=_TRENDS)
    p.add_argument("--method", default="mle", choices=_ESTIMATIONS)
    p.add_argument("--cv-folds", type=_arg(int, _at_least(2)), default=10)
    p.add_argument("--restarts", type=_arg(int, _COUNT), default=4)
    p.add_argument("--seed", type=_arg(int, _NATURAL), default=0)
    p.add_argument("--nugget", type=_arg(float, _NONNEGATIVE), default=DEFAULT_NUGGET)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="optional report JSON path")
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("calibrate", help="run the full calibration workflow")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("report", help="emit plot-ready CSVs from a run directory")
    p.add_argument("--run", required=True)
    p.add_argument("--bins", type=_arg(int, _COUNT), default=40)
    p.add_argument("--grid", type=_arg(int, _COUNT), default=200)
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except GpcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except SystemExit as exc:
        # argparse --help / --version
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
