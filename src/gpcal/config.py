"""Workflow configuration, config hashing and the run manifest.

The config file is YAML (JSON is accepted too; JSON is a YAML subset). All
seeds must be explicit: a run is fully determined by its configuration file
plus the referenced data files. The config hash covers the parsed semantic
content (so comments, key order and formatting do not change it) together
with a digest of the experiment data file.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .calibration import ExperimentData
from .errors import ConfigError
from .fileio import atomic_write
from .kernels import KERNEL_KINDS
from .priors import Prior1D, PriorSpec
from .simulators import SimulatorBinding, simulator_from_config
from .spaces import ParameterSpace


@dataclass
class WorkflowConfig:
    design_space: ParameterSpace
    theta_names: tuple
    prior: PriorSpec
    simulator: SimulatorBinding
    experiments: ExperimentData
    experiments_path: str
    split: dict
    kernel: str
    trend: str
    estimation: str
    cv_folds: int
    n_train: int
    code_design: str
    design_method: str
    n_restarts: int
    emulator_seed: int
    mcmc_samples: int
    mcmc_burn: int | None
    mcmc_thin: int
    mcmc_seed: int
    mcmc_chains: int
    q2_gate: float
    discrepancy_enabled: bool
    validation_draws: int
    validation_max_sim_evals: int | None
    output_dir: str | None
    config_hash: str
    semantic: dict = field(repr=False, default_factory=dict)


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"config is missing required field {where}.{key}")
    return d[key]


def _positive(value, name):
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a positive integer, got {value!r}") from None
    if value < 1:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def load_config(path) -> WorkflowConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping: {path}")
    base = path.parent

    design_space = ParameterSpace.from_dict(_require(raw, "design_space", "<root>"))

    cal = _require(raw, "calibration", "<root>")
    theta_names = tuple(_require(cal, "names", "calibration"))
    priors = [Prior1D.from_dict(p) for p in _require(cal, "priors", "calibration")]
    if len(priors) != len(theta_names):
        raise ConfigError(f"{len(priors)} priors for {len(theta_names)} "
                          "calibration parameters")
    prior = PriorSpec(priors, cal.get("nominal"))

    sim_cfg = dict(_require(raw, "simulator", "<root>"))
    if sim_cfg.get("kind") == "table":
        sim_cfg["path"] = str((base / sim_cfg["path"]).resolve())
        if not Path(sim_cfg["path"]).exists():
            raise ConfigError(f"simulator table not found: {sim_cfg['path']}")
    simulator = simulator_from_config(sim_cfg, design_space.dim, prior.dim)

    exp_cfg = _require(raw, "experiments", "<root>")
    exp_path = base / _require(exp_cfg, "path", "experiments")
    if not exp_path.exists():
        raise ConfigError(f"experiments file not found: {exp_path}")
    experiments = ExperimentData.from_csv(exp_path, design_space.names)
    split = dict(_require(exp_cfg, "split", "experiments"))
    if "fraction" in split and "seed" not in split:
        raise ConfigError("fractional split requires an explicit seed")

    emu = _require(raw, "emulator", "<root>")
    kernel = emu.get("kernel", "matern_5_2")
    if kernel not in KERNEL_KINDS:
        raise ConfigError(f"unknown kernel {kernel!r}; options: {KERNEL_KINDS}")
    trend = emu.get("trend", "constant")
    if trend not in ("constant", "linear"):
        raise ConfigError(f"emulator trend must be constant or linear, got {trend!r}")
    estimation = emu.get("estimation", "mle")
    if estimation not in ("mle", "cv"):
        raise ConfigError(f"estimation must be mle or cv, got {estimation!r}")
    code_design = emu.get("design", "cross")
    design_method = emu.get("design_method", "lhs")
    n_train = _positive(_require(emu, "n_train", "emulator"), "emulator.n_train")
    n_restarts = _positive(emu.get("n_restarts", 4), "emulator.n_restarts")
    cv_folds = _positive(emu.get("cv_folds", 10), "emulator.cv_folds")
    if "seed" not in emu:
        raise ConfigError("emulator.seed must be explicit (no implicit entropy)")
    emulator_seed = int(emu["seed"])

    mc = _require(raw, "mcmc", "<root>")
    mcmc_samples = _positive(_require(mc, "samples", "mcmc"), "mcmc.samples")
    mcmc_burn = int(mc["burn"]) if "burn" in mc else None
    if mcmc_burn is not None and mcmc_burn < 1:
        raise ConfigError(f"mcmc.burn must be positive, got {mcmc_burn}")
    mcmc_thin = _positive(mc.get("thin", 1), "mcmc.thin")
    if "seed" not in mc:
        raise ConfigError("mcmc.seed must be explicit (no implicit entropy)")
    mcmc_seed = int(mc["seed"])
    mcmc_chains = _positive(mc.get("chains", 1), "mcmc.chains")

    thresholds = raw.get("thresholds", {})
    q2_gate = float(thresholds.get("q2_gate", 0.7))
    discrepancy_enabled = bool(raw.get("discrepancy", {}).get("enabled", True))
    val_cfg = raw.get("validation", {})
    validation_draws = _positive(val_cfg.get("draws", 200), "validation.draws")
    max_evals = val_cfg.get("max_sim_evals")
    validation_max_sim_evals = int(max_evals) if max_evals is not None else None

    semantic = {
        "design_space": design_space.to_dict(),
        "calibration": {"names": list(theta_names), "prior": prior.to_dict()},
        "simulator": sim_cfg,
        "experiments": {"sha256": hashlib.sha256(exp_path.read_bytes()).hexdigest(),
                        "split": split},
        "emulator": {"kernel": kernel, "trend": trend, "estimation": estimation,
                     "cv_folds": cv_folds, "n_train": n_train,
                     "design": code_design, "design_method": design_method,
                     "n_restarts": n_restarts, "seed": emulator_seed},
        "mcmc": {"samples": mcmc_samples, "burn": mcmc_burn, "thin": mcmc_thin,
                 "seed": mcmc_seed, "chains": mcmc_chains},
        "thresholds": {"q2_gate": q2_gate},
        "discrepancy": {"enabled": discrepancy_enabled},
        "validation": {"draws": validation_draws,
                       "max_sim_evals": validation_max_sim_evals},
    }
    digest = hashlib.sha256(
        json.dumps(semantic, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    return WorkflowConfig(
        design_space=design_space, theta_names=theta_names, prior=prior,
        simulator=simulator, experiments=experiments,
        experiments_path=str(exp_path), split=split, kernel=kernel, trend=trend,
        estimation=estimation, cv_folds=cv_folds, n_train=n_train,
        code_design=code_design, design_method=design_method,
        n_restarts=n_restarts, emulator_seed=emulator_seed,
        mcmc_samples=mcmc_samples, mcmc_burn=mcmc_burn, mcmc_thin=mcmc_thin,
        mcmc_seed=mcmc_seed, mcmc_chains=mcmc_chains, q2_gate=q2_gate,
        discrepancy_enabled=discrepancy_enabled,
        validation_draws=validation_draws,
        validation_max_sim_evals=validation_max_sim_evals,
        output_dir=raw.get("output_dir"), config_hash=digest, semantic=semantic)


def versions() -> dict:
    import numpy
    import scipy
    from . import __version__
    return {"gpcal": __version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


@dataclass
class RunManifest:
    config_hash: str
    artifacts: dict
    stage_seconds: dict
    theta_names: list
    x_names: list
    versions: dict = field(default_factory=versions)
    created: str = field(default_factory=lambda: time.strftime("%Y-%m-%dT%H:%M:%S"))

    def save(self, path) -> None:
        atomic_write(Path(path), json.dumps({
            "config_hash": self.config_hash,
            "artifacts": self.artifacts,
            "stage_seconds": self.stage_seconds,
            "theta_names": self.theta_names,
            "x_names": self.x_names,
            "versions": self.versions,
            "created": self.created,
        }, indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        path = Path(path)
        if not path.exists():
            from .errors import DataError
            raise DataError(f"manifest not found: {path}")
        with open(path) as fh:
            d = json.load(fh)
        return cls(config_hash=d["config_hash"], artifacts=d["artifacts"],
                   stage_seconds=d["stage_seconds"],
                   theta_names=d["theta_names"], x_names=d["x_names"],
                   versions=d["versions"], created=d["created"])
