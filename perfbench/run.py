"""gpcal benchmark: ``gpcal calibrate`` end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a gpcal checkout; gpcal is imported from its ``src``.
The workload's inputs are made from ``--seed`` (see workloads.py). Each
calibrate runs in a fresh interpreter (worker.py) that calls
``gpcal.cli.main(["calibrate", ...])`` in-process, one after another until
``--seconds`` have passed (at least twice). Every run is checked against the
oracles in oracles.py and against the first run's chain.csv.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics (spans of each
traced run in its ``spans.json``). The last line of standard output is one
JSON object: correct, attempted, failed, metrics. Run artifacts go under
``.perfbench_out/`` in the checkout.
"""

import os
import sys

# fixed before numpy loads: chain.csv is reproducible only for a fixed BLAS
# thread count; 1 also keeps the two-core machine from oversubscribing
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["GPCAL_WORKERS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.stats import qmc  # noqa: E402

from oracles import DenseGP, bulk_ess, dense_log_posterior  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_RUNS = 2
SETUP_PROBES = 3
WORKER_TIMEOUT = 150
#: GPcode mean at fresh points vs the simulator formula: root-mean-square
#: error as a share of the training outputs' sd (a test-point Q2 >= 0.9975)
GP_TOL = 0.05
#: program vs dense log posterior: |difference| / max(1, |dense value|)
LOG_POST_TOL = 1e-7
LOG_POST_DRAWS = 5
FRESH_POINTS = 64
SIGMA_LIMIT = 3.0

END_TO_END_UNITS = {"setup_s": "s", "calibrate_s": "s", "gpcode_s": "s",
                    "mcmc_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def worker(config, run_dir=None, traced=False):
    """Run worker.py in a fresh interpreter; returns its result, with
    ``exit`` set to the failure when the worker itself fails."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(SRC), str(config),
           str(run_dir) if run_dir else "-", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"exit": f"worker timed out after {WORKER_TIMEOUT} s"}
    if proc.returncode != 0:
        return {"exit": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checker:
    """Correctness checks of one calibrate run's artifacts."""

    def __init__(self, workload):
        from gpcal.calibration import split_experiments
        from gpcal.config import load_config

        self.workload = workload
        config = load_config(workload.config)
        split = config.split
        self.iuq, _ = split_experiments(
            config.experiments, iuq_indices=split.get("iuq"),
            val_indices=split.get("val"), fraction=split.get("fraction"),
            seed=split.get("seed"))
        self.prior = config.prior
        if any(c.kind != "uniform" for c in self.prior.components):
            raise ValueError("the dense oracle covers uniform priors only")
        self.prior_box = ([c.p1 for c in self.prior.components],
                          [c.p2 for c in self.prior.components])
        self.dim_x = config.design_space.dim
        dim = self.dim_x + self.prior.dim
        self.unit = qmc.Halton(dim, scramble=False).random(FRESH_POINTS + 1)[1:]
        self.first_chain = None

    def __call__(self, run_dir: Path):
        """Names of the checks this run fails; empty when all pass."""
        failures = []
        chain_bytes = (run_dir / "chain.csv").read_bytes()
        if self.first_chain is None:
            self.first_chain = chain_bytes
        elif chain_bytes != self.first_chain:
            failures.append("chain.csv differs from the first run's")
        chain = np.loadtxt(run_dir / "chain.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        mean, sd = chain.mean(axis=0), chain.std(axis=0)
        if np.any(np.abs(mean - self.workload.truth) > SIGMA_LIMIT * sd):
            failures.append(f"posterior mean {mean.tolist()} (sd {sd.tolist()}) "
                            f"not within {SIGMA_LIMIT} sd of the truth "
                            f"{self.workload.truth.tolist()}")
        failures += self._check_gpcode(run_dir)
        failures += self._check_log_posterior(run_dir, chain)
        return failures

    def _check_gpcode(self, run_dir):
        from gpcal.emulator import FittedEmulator
        emu = FittedEmulator.load(run_dir / "gpcode.json")
        x = emu.training.x_phys
        lo, hi = x.min(axis=0), x.max(axis=0)
        pts = lo + self.unit * (hi - lo)
        mean, _ = emu.predict_batch(pts, warn_extrapolation=False)
        truth = self.workload.formula(pts[:, :self.dim_x], pts[:, self.dim_x:])
        err = float(np.sqrt(np.mean((mean - truth) ** 2))
                    / np.std(emu.training.y_phys))
        if not err <= GP_TOL:
            return [f"GPcode RMS error {err:.3g} training sd > {GP_TOL} at "
                    "fresh points"]
        return []

    def _check_log_posterior(self, run_dir, chain):
        from gpcal.calibration import DiscrepancyModel, make_log_posterior
        from gpcal.emulator import FittedEmulator

        code_doc = json.loads((run_dir / "gpcode.json").read_text())
        bias_path = run_dir / "gpbias.json"
        bias_doc = json.loads(bias_path.read_text()) if bias_path.exists() else None
        code = FittedEmulator.from_dict(code_doc)
        bias = None
        if bias_doc is not None:
            bias = DiscrepancyModel(FittedEmulator.from_dict(bias_doc),
                                    np.zeros(0), np.zeros(0))
        program = make_log_posterior(code, bias, self.iuq, self.prior)
        dense_code = DenseGP(code_doc)
        dense_bias = DenseGP(bias_doc) if bias_doc is not None else None
        rows = np.linspace(0, chain.shape[0] - 1, LOG_POST_DRAWS).astype(int)
        failures = []
        for theta in chain[rows]:
            want = dense_log_posterior(theta, dense_code, dense_bias, self.iuq.x,
                                       self.iuq.y, self.iuq.noise_variances(),
                                       self.prior_box)
            got = program(theta)
            if not abs(got - want) <= LOG_POST_TOL * max(1.0, abs(want)):
                failures.append(f"log posterior {got!r} != dense {want!r} at "
                                f"theta {theta.tolist()}")
        return failures


def med(values):
    return statistics.median(values) if values else 0.0


def end_to_end(workers, ok):
    """End-to-end metrics: medians over the calibrate runs that exited 0;
    set-up over every worker that reported one."""
    values = {"setup_s": med([w["setup_s"] for w in workers if "setup_s" in w]),
              "calibrate_s": med([r["calibrate_s"] for r in ok]),
              "gpcode_s": med([r["stage_seconds"]["gpcode"] for r in ok]),
              "mcmc_s": med([r["stage_seconds"]["mcmc"] for r in ok]),
              "peak_rss_mb": med([r["peak_rss_mb"] for r in ok])}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(ok, out):
    """Per-layer metrics: counts from the first traced run (they must repeat
    in every traced run), times as medians over traced runs; returns
    (metrics, whether the counts repeated)."""
    traced = [r for r in ok if r["traced"]]
    layers = [r["layers"] for r in traced]
    metrics, counts_repeat = {}, True
    for name, (value, unit) in (layers[0].items() if layers else ()):
        if unit == "count":
            seen = [lay[name][0] for lay in layers]
            if any(v != value for v in seen):
                counts_repeat = False
                print(f"count {name} differs between traced runs: {seen}",
                      file=sys.stderr)
        else:
            value = med([lay[name][0] for lay in layers])
        metrics[name] = {"value": value, "unit": unit}
    if traced:
        run_dir = out / f"run{traced[0]['index']}"
        summary = json.loads((run_dir / "posterior_summary.json").read_text())
        chain = np.loadtxt(run_dir / "chain.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        metrics["mcmc.proposals"] = {
            "value": summary["n_burn"] + summary["n_samples"] * summary["thin"],
            "unit": "count"}
        metrics["mcmc.accept_rate"] = {"value": summary["accept_rate"],
                                       "unit": "ratio"}
        metrics["mcmc.ess_min"] = {
            "value": min(bulk_ess(chain[:, j]) for j in range(chain.shape[1])),
            "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": med([r["calibrate_s"] for r in traced])
        - med([r["calibrate_s"] for r in ok if not r["traced"]]),
        "unit": "s"}
    return metrics, counts_repeat


def run(args):
    if not (SRC / "gpcal" / "cli.py").is_file():
        print(f"error: {SRC}/gpcal not found; run from the root of a gpcal "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; options: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "inputs").mkdir(parents=True)
    (out / "tmp").mkdir()
    # the subprocess simulator's scratch files stay inside the checkout
    os.environ["TMPDIR"] = str(out / "tmp")

    workload = WORKLOADS[args.workload](args.seed, ROOT, out / "inputs")
    setup = [] if args.trace else [worker(workload.config) for _ in range(SETUP_PROBES)]
    checker = Checker(workload)
    records = []
    begin = time.perf_counter()
    # with --trace 1 a round is one untraced then one traced run
    per_round = 1 + args.trace
    while len(records) < MIN_RUNS * per_round or len(records) % per_round \
            or time.perf_counter() - begin < args.seconds:
        traced = len(records) % per_round == 1
        run_dir = out / f"run{len(records)}"
        rec = worker(workload.config, run_dir, traced)
        rec.update(index=len(records), traced=traced)
        if rec["exit"] == 0:
            try:
                rec["stage_seconds"] = json.loads(
                    (run_dir / "manifest.json").read_text())["stage_seconds"]
                rec["failures"] = checker(run_dir)
            except Exception as exc:  # a check that cannot run fails the run
                rec["failures"] = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            rec["failures"] = [f"exit {rec['exit']}"]
        for msg in rec["failures"]:
            print(f"{args.workload} run {len(records)}: {msg}", file=sys.stderr)
        records.append(rec)

    ok = [r for r in records if r["exit"] == 0]
    failed = sum(1 for r in records if r["failures"])
    correct = all(not r["failures"] for r in ok)
    if args.trace:
        metrics, counts_repeat = per_layer(ok, out)
        correct = correct and counts_repeat
    else:
        metrics = end_to_end(setup + records, ok)

    env = {"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
           "blas_threads": BLAS_THREADS, "numpy": np.__version__,
           "scipy": scipy.__version__, "python": sys.version.split()[0]}
    (out / "runs.json").write_text(json.dumps({"env": env, "runs": [
        {k: v for k, v in r.items() if k != "layers"} for r in records]},
        indent=1, default=str))
    print("# " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
