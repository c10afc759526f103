"""Workload inputs: a gpcal config plus experiment data, made from a seed.

Every workload returns a ``Workload`` naming the config to calibrate, the
generating truth the posterior must recover, and the simulator formula the
oracles evaluate. Only measurement noise, the truth and the MCMC seed follow
``--seed``; the experiment settings, the split and the emulator seed are
fixed, so every seed gives the program the same amount of emulator work and
the run-to-run spread measures the machine, not the workload.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracles import decay_formula, linear_formula

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Workload:
    config: Path
    truth: np.ndarray
    formula: object


def _write_experiments(path: Path, names, x, y, sd):
    lines = [",".join(list(names) + ["y", "sigma_exp"])]
    for xi, yi in zip(x, y):
        lines.append(",".join(repr(float(v)) for v in list(xi) + [yi, sd]))
    path.write_text("\n".join(lines) + "\n")


def _write_config(path: Path, cfg: dict):
    # JSON is a YAML subset, so load_config reads it unchanged
    path.write_text(json.dumps(cfg, indent=2) + "\n")


def demo(seed: int, root: Path, work: Path) -> Workload:
    """The bundled demo as shipped; it has no seed (truth from
    demo/make_demo_data.py)."""
    return Workload(root / "demo" / "linear_demo.yaml", np.array([2.0, 1.0]),
                    linear_formula)


def cross_m480(seed: int, root: Path, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 480])
    truth = np.array([rng.uniform(1.0, 3.0), rng.uniform(0.0, 2.0)])
    x = np.linspace(0.0, 10.0, 20).reshape(-1, 1)
    y = linear_formula(x, truth) + rng.normal(0.0, 0.05, x.shape[0])
    _write_experiments(work / "experiments.csv", ["x"], x, y, 0.05)
    cfg = {
        "design_space": {"names": ["x"], "lower": [0.0], "upper": [10.0]},
        "calibration": {
            "names": ["slope", "offset"],
            "priors": [{"dist": "uniform", "lower": 0.0, "upper": 4.0},
                       {"dist": "uniform", "lower": -1.0, "upper": 3.0}],
            "nominal": truth.tolist()},
        "simulator": {"kind": "builtin", "name": "linear"},
        "experiments": {"path": "experiments.csv",
                        "split": {"iuq": list(range(0, 20, 2)),
                                  "val": list(range(1, 20, 2))}},
        "emulator": {"kernel": "matern_5_2", "trend": "constant",
                     "estimation": "mle", "n_train": 480, "design": "cross",
                     "design_method": "lhs", "n_restarts": 4, "seed": 11},
        "mcmc": {"samples": 1600, "burn": 400, "thin": 1, "seed": 1000 + seed},
        "discrepancy": {"enabled": True},
        "thresholds": {"q2_gate": 0.7},
        "validation": {"draws": 200},
    }
    _write_config(work / "config.json", cfg)
    return Workload(work / "config.json", truth, linear_formula)


#: prior box of (a, k, c) for the decay simulator
_DECAY_LO = np.array([0.5, 0.2, -1.0])
_DECAY_HI = np.array([3.0, 2.0, 1.0])


def joint_cv_subprocess(seed: int, root: Path, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 5])
    mid = 0.5 * (_DECAY_LO + _DECAY_HI)
    width = _DECAY_HI - _DECAY_LO
    # truth 10-25% of the prior width away from the nominal (the prior
    # centre) in every component
    sign = rng.choice([-1.0, 1.0], size=3)
    truth = mid + sign * rng.uniform(0.10, 0.25, size=3) * width
    g1, g2 = np.meshgrid(np.linspace(0.0, 2.0, 6), np.linspace(0.0, 1.0, 5),
                         indexing="ij")
    x = np.column_stack([g1.ravel(), g2.ravel()])
    y = decay_formula(x, truth) + rng.normal(0.0, 0.05, x.shape[0])
    _write_experiments(work / "experiments.csv", ["x1", "x2"], x, y, 0.05)
    cfg = {
        "design_space": {"names": ["x1", "x2"], "lower": [0.0, 0.0],
                         "upper": [2.0, 1.0]},
        "calibration": {
            "names": ["a", "k", "c"],
            "priors": [{"dist": "uniform", "lower": float(lo), "upper": float(hi)}
                       for lo, hi in zip(_DECAY_LO, _DECAY_HI)],
            "nominal": mid.tolist()},
        "simulator": {"kind": "subprocess",
                      "command": [sys.executable, str(BENCH_DIR / "sim_decay.py")],
                      "columns": ["x1", "x2", "a", "k", "c"]},
        "experiments": {"path": "experiments.csv",
                        "split": {"fraction": 0.6, "seed": 7}},
        "emulator": {"kernel": "matern_5_2", "trend": "constant",
                     "estimation": "cv", "cv_folds": 10, "n_train": 120,
                     "design": "joint", "design_method": "lhs",
                     "n_restarts": 4, "seed": 11},
        "mcmc": {"samples": 4000, "burn": 2000, "thin": 1, "seed": 1000 + seed},
        # discrepancy on with theta0 off the truth lets GPbias absorb the
        # misfit (see CHANGES.md); this workload exercises the code emulator
        "discrepancy": {"enabled": False},
        "thresholds": {"q2_gate": 0.7},
        "validation": {"draws": 100},
    }
    _write_config(work / "config.json", cfg)
    return Workload(work / "config.json", truth, decay_formula)


WORKLOADS = {"demo": demo, "cross-m480": cross_m480,
             "joint-cv-subprocess": joint_cv_subprocess}


if __name__ == "__main__":
    # python3 perfbench/workloads.py <workload> <seed> <dir>: write the inputs
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    out.mkdir(parents=True, exist_ok=True)
    made = WORKLOADS[name](seed, BENCH_DIR.parent, out)
    print(f"{made.config} (truth {made.truth.tolist()})")
