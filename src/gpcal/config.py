"""Workflow configuration, parameter-space files, config hashing and the
run manifest.

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
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .calibration import (_CODE_DESIGNS, _DESIGN_METHODS, _ESTIMATIONS, _TRENDS,
                          ExperimentData)
from .errors import ConfigError, DataError
from .fileio import read_json, write_json
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


def _check(ok, what, to=lambda v: v):
    """A value check: ``to(value)`` if ``ok(value)``, else a ConfigError
    naming the value's dotted path."""
    def check(value, path):
        if not ok(value):
            raise ConfigError(f"{path} {value!r} is not {what}")
        return to(value)
    return check


def _at_least(n):
    # type(), not isinstance(): a bool is no int here. An integral float
    # becomes an int, so 11.0 hashes as 11 did.
    return _check(lambda v: (type(v) is int or type(v) is float and v.is_integer())
                  and v >= n, f"an integer >= {n}", int)


def _choice(options):
    return _check(lambda v: type(v) is str and v in options,
                  f"one of {', '.join(options)}")


def _list(item):
    def check(value, path):
        if not isinstance(value, list):
            raise ConfigError(f"{path} {value!r} is not a list")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return check


def _variant(tag, schemas):
    """A mapping whose ``tag`` key picks the schema of its other keys."""
    choose = _choice(tuple(schemas))

    def check(value, path):
        kind = choose(value.get(tag), f"{path}.{tag}") if isinstance(value, dict) else None
        return _section(value, {tag: (choose, _REQUIRED), **schemas.get(kind, {})}, path)
    return check


_REQUIRED, _ABSENT = object(), object()
_NATURAL, _COUNT = _at_least(0), _at_least(1)
# abs(v) <= max, not isfinite(v): a 400-digit int overflows isfinite
_FLOAT = _check(lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
                "a finite number", float)
_BOOL = _check(lambda v: type(v) is bool, "true or false")
_STR = _check(lambda v: type(v) is str, "a string")
_COMMAND = _check(lambda v: v and (type(v) is str or type(v) is list
                                   and all(type(c) is str for c in v)),
                  "a command string or a nonempty list of strings")

#: key -> (check or nested schema, default). A _REQUIRED key must be given;
#: an _ABSENT one is left out when not given. The five sections from
#: "emulator" on, defaults filled in, are what run_workflow reads.
_SCHEMA = {
    "design_space": ({"names": (_list(_STR), _REQUIRED),
                      "lower": (_list(_FLOAT), _REQUIRED),
                      "upper": (_list(_FLOAT), _REQUIRED)}, _REQUIRED),
    "calibration": ({
        "names": (_list(_STR), _REQUIRED),
        "priors": (_list(_variant("dist", {
            "uniform": {"lower": (_FLOAT, _REQUIRED), "upper": (_FLOAT, _REQUIRED)},
            "normal": {"mean": (_FLOAT, _REQUIRED), "sd": (_FLOAT, _REQUIRED)},
            "lognormal": {"log_mean": (_FLOAT, _REQUIRED),
                          "log_sd": (_FLOAT, _REQUIRED)}})), _REQUIRED),
        "nominal": (_list(_FLOAT), None)}, _REQUIRED),
    "simulator": (_variant("kind", {
        "builtin": {"name": (_choice(tuple(BUILTIN_SIMULATORS)), _REQUIRED)},
        "subprocess": {"command": (_COMMAND, _REQUIRED),
                       "columns": (_list(_STR), _ABSENT),
                       "workdir": (_STR, _ABSENT)},
        "table": {"path": (_STR, _REQUIRED)}}), _REQUIRED),
    "experiments": ({
        "path": (_STR, _REQUIRED),
        "split": ({"iuq": (_list(_NATURAL), _ABSENT), "val": (_list(_NATURAL), _ABSENT),
                   "fraction": (_FLOAT, _ABSENT), "seed": (_NATURAL, _ABSENT)},
                  _REQUIRED)}, _REQUIRED),
    "emulator": ({"kernel": (_choice(KERNEL_KINDS), "matern_5_2"),
                  "trend": (_choice(_TRENDS), "constant"),
                  "estimation": (_choice(_ESTIMATIONS), "mle"),
                  "cv_folds": (_at_least(2), 10),
                  "n_train": (_COUNT, _REQUIRED),
                  "design": (_choice(_CODE_DESIGNS), "cross"),
                  "design_method": (_choice(_DESIGN_METHODS), "lhs"),
                  "n_restarts": (_COUNT, 4),
                  "seed": (_NATURAL, _REQUIRED)}, _REQUIRED),
    "mcmc": ({"samples": (_COUNT, _REQUIRED), "burn": (_COUNT, None),
              "thin": (_COUNT, 1), "seed": (_NATURAL, _REQUIRED),
              "chains": (_COUNT, 1)}, _REQUIRED),
    "thresholds": ({"q2_gate": (_FLOAT, 0.7)}, {}),
    "discrepancy": ({"enabled": (_BOOL, True)}, {}),
    "validation": ({"draws": (_COUNT, 200), "max_sim_evals": (_COUNT, None)}, {}),
    "output_dir": (_STR, None),
}
_RUN_SECTIONS = ("emulator", "mcmc", "thresholds", "discrepancy", "validation")


def _section(d, schema, path):
    """``d`` checked against ``schema`` at the dotted ``path``, with every
    default filled in; nested schemas are walked in turn."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path or 'config root'} {d!r} is not a mapping")
    prefix = f"{path}." if path else ""
    for key in d:
        if key not in schema:
            raise ConfigError(f"unknown config key {prefix}{key}")
    out = {}
    for key, (check, default) in schema.items():
        value = d.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"config is missing required field {prefix}{key}")
        if value is None and default is None:
            out[key] = None
        elif value is not _ABSENT:
            out[key] = (_section(value, check, prefix + key) if isinstance(check, dict)
                        else check(value, prefix + key))
    return out


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
    cfg = _section(raw, _SCHEMA, "")

    design_space = ParameterSpace(**cfg["design_space"])

    cal = cfg["calibration"]
    priors = [Prior1D.from_dict(p) for p in cal["priors"]]
    if len(priors) != len(cal["names"]):
        raise ConfigError(f"{len(priors)} priors for {len(cal['names'])} "
                          "calibration parameters")
    prior = PriorSpec(priors, cal["nominal"])

    sim_cfg = cfg["simulator"]
    if sim_cfg["kind"] == "table":
        sim_cfg["path"] = str((base / sim_cfg["path"]).resolve())
        if not Path(sim_cfg["path"]).is_file():
            raise ConfigError(f"simulator table not found: {sim_cfg['path']}")
    simulator = simulator_from_config(sim_cfg, design_space.dim, prior.dim)

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
    doc = read_json(path, ConfigError)
    try:
        return ParameterSpace(**_section(doc, _SCHEMA["design_space"][0], ""))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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
        write_json(path, asdict(self))

    @classmethod
    def load(cls, path) -> "RunManifest":
        doc = read_json(path)
        names = [f.name for f in fields(cls)]
        missing = [n for n in names if n not in doc] if isinstance(doc, dict) else names
        if missing:
            raise DataError(f"{path}: run manifest is missing {', '.join(missing)}")
        return cls(**{name: doc[name] for name in names})
