"""Command-line front end.

Subcommands: design (space-filling designs), fit (emulator fitting from a
training CSV), calibrate (full workflow from a config file), report
(plot-ready CSV extraction from a finished run).

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure, 4 gate failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunManifest, load_config
from .design import halton_sequence, lhs_design, maximin_lhs, sobol_sequence
from .diagnostics import Z_95, loocv_error, q2_loocv
from .emulator import FittedEmulator, TrainingSet, TrendSpec, fit_cv, fit_mle
from .errors import ConfigError, DataError, GpcalError
from .fileio import atomic_write, read_numeric_csv, write_csv
from .kernels import KERNEL_KINDS
from .spaces import ParameterSpace


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _cmd_design(args) -> int:
    space = ParameterSpace.load(args.space)
    if args.method == "lhs":
        design = lhs_design(args.n, space, seed=args.seed, midpoint=args.midpoint)
    elif args.method == "maximin":
        design = maximin_lhs(args.n, space, n_restarts=args.restarts,
                             seed=args.seed, midpoint=args.midpoint)
    elif args.method == "sobol":
        design = sobol_sequence(args.n, space, skip=args.skip)
    elif args.method == "halton":
        design = halton_sequence(args.n, space, skip=args.skip)
    else:
        raise ConfigError(f"unknown design method {args.method!r}")
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
    trend = TrendSpec(args.trend)
    if args.method == "mle":
        emulator = fit_mle(training, trend, args.kernel, n_restarts=args.restarts,
                           seed=args.seed, nugget=args.nugget)
    else:
        emulator = fit_cv(training, trend, args.kernel,
                          k_folds=min(args.cv_folds, training.m),
                          n_restarts=args.restarts, seed=args.seed,
                          nugget=args.nugget)
    emulator.save(args.out)
    q2 = q2_loocv(emulator) if not emulator.degenerate else 1.0
    print(f"fitted {args.kernel} emulator on {training.m} points "
          f"(inputs: {names[:-1]}, output: {names[-1]})")
    print(f"q2_loocv = {q2:.6f}")
    if args.report:
        report = {
            "q2_loocv": q2,
            "loocv_error": loocv_error(emulator) if not emulator.degenerate else 0.0,
            "estimation": args.method,
            "cv_folds": args.cv_folds if args.method == "cv" else None,
            "n_points": training.m,
            "kernel": emulator.kernel.to_dict(),
            "process_variance": emulator.process_variance,
        }
        atomic_write(Path(args.report), json.dumps(report, indent=2) + "\n")
    return 0


def _cmd_calibrate(args) -> int:
    from .calibration import run_workflow

    config = load_config(args.config)
    out_dir = Path(args.out or config.output_dir or "gpcal_run")
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_workflow(config)

    artifacts = {}
    chain_path = out_dir / "chain.csv"
    result.chain.save_csv(chain_path)
    artifacts["chain_csv"] = chain_path.name
    summary_path = out_dir / "posterior_summary.json"
    summary = result.chain.summary()
    if result.extra_chains:
        summary["chains"] = {
            "count": 1 + len(result.extra_chains),
            "per_chain_means": [c.post_burn.mean(axis=0).tolist()
                                for c in [result.chain] + result.extra_chains],
        }
    atomic_write(summary_path, json.dumps(summary, indent=2) + "\n")
    artifacts["posterior_summary"] = summary_path.name
    val_path = out_dir / "validation_report.json"
    result.validation.save_json(val_path)
    artifacts["validation_report"] = val_path.name
    code_path = out_dir / "gpcode.json"
    result.gp_code.save(code_path)
    artifacts["gpcode"] = code_path.name
    if result.gp_bias is not None:
        bias_path = out_dir / "gpbias.json"
        result.gp_bias.emulator.save(bias_path)
        artifacts["gpbias"] = bias_path.name
    manifest = RunManifest(config_hash=config.config_hash, artifacts=artifacts,
                           stage_seconds=result.stage_seconds,
                           theta_names=list(config.theta_names),
                           x_names=list(config.design_space.names))
    manifest.save(out_dir / "manifest.json")

    print(f"q2_loocv(gpcode) = {result.q2_code:.4f}  "
          f"(gate {config.q2_gate})")
    print(f"mcmc acceptance rate = {result.chain.accept_rate:.3f}")
    for name, stats in result.chain.summary()["parameters"].items():
        print(f"  {name}: mean = {stats['mean']:.6g}, std = {stats['std']:.6g}")
    print(f"validation rmse = {result.validation.rmse:.6g}, "
          f"coverage95 = {result.validation.coverage_95:.3f}")
    print(f"artifacts in {out_dir}")
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    manifest = RunManifest.load(run_dir / "manifest.json")
    report_dir = run_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)

    chain, names = read_numeric_csv(run_dir / manifest.artifacts["chain_csv"])
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

    with open(run_dir / manifest.artifacts["validation_report"]) as fh:
        val = json.load(fh)
    rows = []
    for mean, sd, actual in val["residuals"]:
        rows.append((mean, sd, actual, mean - Z_95 * sd, mean + Z_95 * sd))
    write_csv(report_dir / "predictive.csv",
              ["pred_mean", "pred_sd", "observed", "lower95", "upper95"],
              [(m, s, a, lo, hi) for m, s, a, lo, hi in rows])

    with open(run_dir / manifest.artifacts["posterior_summary"]) as fh:
        summary = json.load(fh)
    theta_mean = [summary["parameters"][n]["mean"] for n in manifest.theta_names]

    if len(manifest.x_names) == 1:
        for key, fname in (("gpcode", "gpcode_curve.csv"),
                           ("gpbias", "gpbias_curve.csv")):
            if key not in manifest.artifacts:
                continue
            emulator = FittedEmulator.load(run_dir / manifest.artifacts[key])
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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space", required=True, help="parameter space JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skip", type=int, default=0)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--midpoint", action="store_true",
                   help="place LHS points at stratum midpoints")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_design)

    p = sub.add_parser("fit", help="fit an emulator to a training CSV "
                       "(inputs = all columns but the last, output = last)")
    p.add_argument("--training", required=True)
    p.add_argument("--kernel", default="gaussian",
                   choices=KERNEL_KINDS)
    p.add_argument("--trend", default="constant", choices=["constant", "linear"])
    p.add_argument("--method", default="mle", choices=["mle", "cv"])
    p.add_argument("--cv-folds", type=int, default=10)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nugget", type=float, default=1e-10)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="optional report JSON path")
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("calibrate", help="run the full calibration workflow")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("report", help="emit plot-ready CSVs from a run directory")
    p.add_argument("--run", required=True)
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--grid", type=int, default=200)
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
