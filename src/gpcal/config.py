"""Workflow configuration, parameter-space files and config hashing.

The config file is YAML (JSON is accepted too; JSON is a YAML subset). All
seeds must be explicit: a run is fully determined by its configuration file
plus the referenced data files. The config hash covers the parsed semantic
content (so comments, key order and formatting do not change it) together
with a digest of the experiment data file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import yaml

from .calibration import (_CODE_DESIGNS, _DESIGN_METHODS, _ESTIMATIONS, _TRENDS,
                          ExperimentData)
from .errors import ConfigError
from .fileio import (_ABSENT, _BOOL, _COUNT, _FLOAT, _NAMES, _NATURAL, _STR,
                     _at_least, _check, _choice, _list, _variant, checked, read_checked)
from .kernels import KERNEL_KINDS
from .priors import Prior1D, PriorSpec
from .simulators import BUILTIN_SIMULATORS, SimulatorBinding, simulator_from_config
from .spaces import ParameterSpace


@dataclass
class WorkflowConfig:
    design_space: ParameterSpace
    theta_names: tuple
    prior: PriorSpec
    simulator: SimulatorBinding
    experiments: ExperimentData
    split: dict
    emulator: dict
    mcmc: dict
    thresholds: dict
    discrepancy: dict
    validation: dict
    output_dir: str | None
    config_hash: str


_COMMAND = _check(lambda v: v and (type(v) is str or type(v) is list
                                   and all(type(c) is str for c in v)),
                  "a command string or a nonempty list of strings")

#: the config file's schema (see gpcal.fileio.checked). The five sections
#: from "emulator" on, defaults filled in, are what run_workflow reads.
_SCHEMA = {
    "design_space": {"names": _NAMES, "lower": _list(_FLOAT), "upper": _list(_FLOAT)},
    "calibration": {
        "names": _NAMES,
        "priors": _list(_variant("dist", {
            "uniform": {"lower": _FLOAT, "upper": _FLOAT},
            "normal": {"mean": _FLOAT, "sd": _FLOAT},
            "lognormal": {"log_mean": _FLOAT, "log_sd": _FLOAT}})),
        "nominal": (_list(_FLOAT), None)},
    "simulator": _variant("kind", {
        "builtin": {"name": _choice(tuple(BUILTIN_SIMULATORS))},
        "subprocess": {"command": _COMMAND, "columns": (_list(_STR), _ABSENT),
                       "workdir": (_STR, _ABSENT)},
        "table": {"path": _STR}}),
    "experiments": {
        "path": _STR,
        "split": {"iuq": (_list(_NATURAL), _ABSENT), "val": (_list(_NATURAL), _ABSENT),
                  "fraction": (_FLOAT, _ABSENT), "seed": (_NATURAL, _ABSENT)}},
    "emulator": {"kernel": (_choice(KERNEL_KINDS), "matern_5_2"),
                 "trend": (_choice(_TRENDS), "constant"),
                 "estimation": (_choice(_ESTIMATIONS), "mle"),
                 "cv_folds": (_at_least(2), 10),
                 "n_train": _COUNT,
                 "design": (_choice(_CODE_DESIGNS), "cross"),
                 "design_method": (_choice(_DESIGN_METHODS), "lhs"),
                 "n_restarts": (_COUNT, 4),
                 "seed": _NATURAL},
    "mcmc": {"samples": _COUNT, "burn": (_COUNT, None), "thin": (_COUNT, 1),
             "seed": _NATURAL, "chains": (_COUNT, 1)},
    "thresholds": ({"q2_gate": (_FLOAT, 0.7)}, {}),
    "discrepancy": ({"enabled": (_BOOL, True)}, {}),
    "validation": ({"draws": (_COUNT, 200), "max_sim_evals": (_COUNT, None)}, {}),
    "output_dir": (_STR, None),
}
_RUN_SECTIONS = ("emulator", "mcmc", "thresholds", "discrepancy", "validation")


def load_config(path) -> WorkflowConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    with open(path, "rb") as fh:  # bytes: a bad encoding is a YAMLError
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    base = path.parent
    cfg = checked(raw, _SCHEMA, ConfigError, path)

    design_space = ParameterSpace(**cfg["design_space"])

    cal = cfg["calibration"]
    # each prior's "dist" names the Prior1D constructor its other keys go to
    priors = [getattr(Prior1D, p.pop("dist"))(**p) for p in cal["priors"]]
    if len(priors) != len(cal["names"]):
        raise ConfigError(f"{len(priors)} priors for {len(cal['names'])} "
                          "calibration parameters")
    prior = PriorSpec(priors, cal["nominal"])

    sim_cfg = cfg["simulator"]
    # a table's path and a subprocess's workdir, relative to the config file
    for key, what, found in (("path", "table", Path.is_file),
                             ("workdir", "workdir", Path.is_dir)):
        if key in sim_cfg:
            sim_cfg[key] = str((base / sim_cfg[key]).resolve())
            if not found(Path(sim_cfg[key])):
                raise ConfigError(f"simulator {what} not found: {sim_cfg[key]}")
    # a subprocess runs in the config file's directory unless given a workdir;
    # the default goes to the binding only, so the hashed section is as loaded
    binding = ({"workdir": str(base.resolve()), **sim_cfg}
               if sim_cfg["kind"] == "subprocess" else sim_cfg)
    simulator = simulator_from_config(binding, design_space.dim, prior.dim)

    exp_path = base / cfg["experiments"]["path"]
    if not exp_path.is_file():
        raise ConfigError(f"experiments file not found: {exp_path}")
    experiments = ExperimentData.from_csv(exp_path, design_space.names)
    split = cfg["experiments"]["split"]

    run = {name: cfg[name] for name in _RUN_SECTIONS}
    semantic = {
        "design_space": design_space.to_dict(),
        "calibration": {"names": cal["names"], "prior": prior.to_dict()},
        "simulator": sim_cfg,
        "experiments": {"sha256": hashlib.sha256(exp_path.read_bytes()).hexdigest(),
                        "split": split},
        **run,
    }
    digest = hashlib.sha256(
        json.dumps(semantic, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    return WorkflowConfig(
        design_space=design_space, theta_names=tuple(cal["names"]), prior=prior,
        simulator=simulator, experiments=experiments, split=split,
        output_dir=cfg["output_dir"], config_hash=digest, **run)


def load_space(path) -> ParameterSpace:
    """The parameter space in a JSON file, checked like a config's
    ``design_space``; every failure is a ConfigError naming the file."""
    return ParameterSpace(**read_checked(path, _SCHEMA["design_space"], ConfigError))
