"""Command-line front end.

Subcommands: design (space-filling designs), fit (emulator fitting from a
training CSV), calibrate (full workflow from a config file), report
(plot-ready CSV extraction from a finished run).

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure, 4 gate failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import _ESTIMATIONS, _TRENDS, fit_estimated
from .config import (_COUNT, _NATURAL, RunManifest, _at_least, _check, load_config,
                     load_space)
from .design import halton_sequence, lhs_design, maximin_lhs, sobol_sequence
from .diagnostics import Z_95, loocv_error
from .emulator import FittedEmulator, TrainingSet, TrendSpec
from .errors import ConfigError, DataError, GpcalError
from .fileio import make_dir, read_json, read_numeric_csv, write_csv, write_json
from .kernels import KERNEL_KINDS


#: a nugget is a variance: a finite number >= 0
_NUGGET = _check(lambda v: type(v) in (int, float) and 0 <= v <= sys.float_info.max,
                 "a finite number >= 0", float)


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
        except ConfigError as exc:
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
            "cv_folds": args.cv_folds if args.method == "cv" else None,
            "n_points": training.m,
            "kernel": emulator.kernel.to_dict(),
            "process_variance": emulator.process_variance,
        })
    return 0


def _cmd_calibrate(args) -> int:
    from .calibration import run_workflow

    config = load_config(args.config)
    out_dir = make_dir(args.out or config.output_dir or "gpcal_run")
    result = run_workflow(config)

    artifacts = {"chain_csv": "chain.csv", "posterior_summary": "posterior_summary.json",
                 "validation_report": "validation_report.json", "gpcode": "gpcode.json"}
    if result.gp_bias is not None:
        artifacts["gpbias"] = "gpbias.json"
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
    manifest = RunManifest(config_hash=config.config_hash, artifacts=artifacts,
                           stage_seconds=result.stage_seconds,
                           theta_names=list(config.theta_names),
                           x_names=list(config.design_space.names))
    manifest.save(out_dir / "manifest.json")

    print(f"q2_loocv(gpcode) = {result.q2_code:.4f}  "
          f"(gate {config.thresholds['q2_gate']})")
    print(f"mcmc acceptance rate = {result.chain.accept_rate:.3f}")
    for name, stats in summary["parameters"].items():
        print(f"  {name}: mean = {stats['mean']:.6g}, std = {stats['std']:.6g}")
    print(f"validation rmse = {result.validation.rmse:.6g}, "
          f"coverage95 = {result.validation.coverage_95:.3f}")
    print(f"artifacts in {out_dir}")
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    manifest = RunManifest.load(run_dir / "manifest.json")
    try:  # a run record edited or cut short by hand lacks keys or has wrong types
        paths = {key: run_dir / name for key, name in manifest.artifacts.items()}
        residuals = [(float(m), float(s), float(a)) for m, s, a
                     in read_json(paths["validation_report"])["residuals"]]
        parameters = read_json(paths["posterior_summary"])["parameters"]
        theta_mean = [float(parameters[n]["mean"]) for n in manifest.theta_names]
        curves = len(manifest.x_names) == 1
        chain, names = read_numeric_csv(paths["chain_csv"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{run_dir}: malformed run record "
                        f"({type(exc).__name__}: {exc})") from None
    report_dir = make_dir(run_dir / "report")

    for j, name in enumerate(names):
        col = chain[:, j]
        lo, hi = float(col.min()), float(col.max())
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        counts, edges = np.histogram(col, bins=args.bins, range=(lo, hi))
        write_csv(report_dir / f"marginal_{name}.csv",
                  ["bin_left", "bin_right", "count"],
                  zip(edges[:-1], edges[1:], counts))
    write_csv(report_dir / "trace.csv", ["iteration"] + names,
              np.column_stack([np.arange(chain.shape[0]), chain]))
    write_csv(report_dir / "predictive.csv",
              ["pred_mean", "pred_sd", "observed", "lower95", "upper95"],
              [(m, s, a, m - Z_95 * s, m + Z_95 * s) for m, s, a in residuals])

    if curves:
        for key, fname in (("gpcode", "gpcode_curve.csv"),
                           ("gpbias", "gpbias_curve.csv")):
            if key not in paths:
                continue
            emulator = FittedEmulator.load(paths[key])
            tr_x = emulator.training.x_phys
            grid = np.linspace(tr_x[:, 0].min(), tr_x[:, 0].max(), args.grid)
            if key == "gpcode":
                pts = np.column_stack([grid] + [np.full(grid.size, v)
                                                for v in theta_mean])
            else:
                pts = grid.reshape(-1, 1)
            mean, mse = emulator.predict_batch(pts, warn_extrapolation=False)
            sd = np.sqrt(mse)
            write_csv(report_dir / fname,
                      ["x", "mean", "sd", "lower95", "upper95"],
                      zip(grid, mean, sd, mean - Z_95 * sd, mean + Z_95 * sd))
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
    p.add_argument("--nugget", type=_arg(float, _NUGGET), default=1e-10)
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
