"""Simulator bindings: builtin analytic models, external subprocess commands,
and precomputed lookup tables.

All bindings share one contract: ``run`` maps a (q, n_x + n_theta) array of
input rows (design-variable columns first, then calibration columns) to a
length-q output vector, deterministically.

Subprocess protocol: the configured command is invoked with two extra
arguments, the path of an input CSV (header row with column names, one input
row per line) and the path where it must write an output CSV (header ``y``,
one output row per input row), exiting 0 on success. A command that cannot
be started, a nonzero exit status, output that is not UTF-8, a malformed
cell or a row-count mismatch is a binding error that names the offending
rows. Batches can be split across ``GPCAL_WORKERS`` parallel invocations;
outputs are reassembled in input order.
"""

from __future__ import annotations

import io
import os
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ConfigError, SimulatorError
from .fileio import _NAME, _list, checked, read_numeric_rows, read_text, write_csv


class SimulatorBinding:
    """Base interface; subclasses implement ``run``."""

    name = "simulator"
    n_x = 0
    n_theta = 0

    def run(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_inputs(self, inputs) -> np.ndarray:
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        want = self.n_x + self.n_theta
        if inputs.shape[1] != want:
            raise SimulatorError(
                f"{self.name}: expected {want} input columns "
                f"({self.n_x} design + {self.n_theta} calibration), "
                f"got {inputs.shape[1]}")
        return inputs

    def run_at(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Evaluate at design rows x with one shared calibration vector."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        theta = np.asarray(theta, dtype=float).reshape(1, -1)
        return self.run(np.hstack([x, np.repeat(theta, x.shape[0], axis=0)]))


def _linear(x, theta):
    return theta[:, 0] * x[:, 0] + theta[:, 1]


def _linear_biased(x, theta):
    return theta[:, 0] * x[:, 0] + theta[:, 1] + 0.5 * np.sin(x[:, 0])


#: name -> (n_x, n_theta, vectorized callable)
BUILTIN_SIMULATORS = {
    "linear": (1, 2, _linear),
    "linear_biased": (1, 2, _linear_biased),
}


class BuiltinSimulator(SimulatorBinding):
    """Analytic demo models evaluated in-process."""

    def __init__(self, name: str):
        if name not in BUILTIN_SIMULATORS:
            raise ConfigError(f"unknown builtin simulator {name!r}; options: "
                              f"{sorted(BUILTIN_SIMULATORS)}")
        self.name = f"builtin:{name}"
        self.n_x, self.n_theta, self._fn = BUILTIN_SIMULATORS[name]

    def run(self, inputs) -> np.ndarray:
        inputs = self._check_inputs(inputs)
        x = inputs[:, :self.n_x]
        theta = inputs[:, self.n_x:]
        return np.asarray(self._fn(x, theta), dtype=float).reshape(inputs.shape[0])


def _worker_count() -> int:
    value = os.environ.get("GPCAL_WORKERS", "1")
    if not (value.strip().isdecimal() and int(value) >= 1):
        raise ConfigError(f"GPCAL_WORKERS must be an integer >= 1, got {value!r}")
    return int(value)


class SubprocessSimulator(SimulatorBinding):
    """External command speaking the CSV-in/CSV-out protocol."""

    def __init__(self, command, n_x: int, n_theta: int, columns=None,
                 workdir=None):
        if not command:
            raise ConfigError("subprocess simulator needs a non-empty command")
        self.command = [str(c) for c in (command if isinstance(command, (list, tuple))
                                         else [command])]
        self.name = f"subprocess:{self.command[0]}"
        self.n_x = int(n_x)
        self.n_theta = int(n_theta)
        if columns is None:
            columns = ([f"x{i + 1}" for i in range(self.n_x)]
                       + [f"theta{i + 1}" for i in range(self.n_theta)])
        # the input CSV's header: one distinct name per input column
        names = _list(_NAME, self.n_x + self.n_theta, distinct=True)
        self.columns = checked({"columns": list(columns)}, {"columns": names},
                               ConfigError, self.name)["columns"]
        self.workdir = workdir

    def _run_chunk(self, chunk: np.ndarray, offset: int) -> np.ndarray:
        rows_at = f"rows {offset + 1}..{offset + len(chunk)}"
        with tempfile.TemporaryDirectory(prefix="gpcal_sim_") as tmp:
            in_path = Path(tmp) / "inputs.csv"
            out_path = Path(tmp) / "outputs.csv"
            write_csv(in_path, self.columns, chunk)
            try:
                proc = subprocess.run(self.command + [str(in_path), str(out_path)],
                                      capture_output=True, cwd=self.workdir)
            except OSError as exc:
                raise SimulatorError(f"{self.name} could not be started on "
                                     f"{rows_at}: {exc}") from None
            if proc.returncode != 0:
                raise SimulatorError(
                    f"{self.name} exited with status {proc.returncode} on "
                    f"{rows_at}: {proc.stderr.decode(errors='replace').strip()[:500]}")
            text = read_text(out_path, lambda msg: SimulatorError(
                f"{self.name} output for {rows_at}: {msg}"))
            lines = [ln.strip() for ln in io.StringIO(text, newline=None) if ln.strip()]
            rows = lines[1:] if lines else []
            if len(rows) != chunk.shape[0]:
                raise SimulatorError(
                    f"{self.name} returned {len(rows)} rows for "
                    f"{chunk.shape[0]} inputs ({rows_at})")
            out = np.empty(chunk.shape[0])
            for j, cell in enumerate(rows):
                try:
                    out[j] = float(cell.split(",")[0])
                except ValueError:
                    raise SimulatorError(
                        f"{self.name} returned malformed output {cell!r} for "
                        f"input row {offset + j + 1}: "
                        f"{chunk[j].tolist()}") from None
                if not np.isfinite(out[j]):
                    raise SimulatorError(
                        f"{self.name} returned a non-finite value for input "
                        f"row {offset + j + 1}: {chunk[j].tolist()}")
            return out

    def run(self, inputs) -> np.ndarray:
        inputs = self._check_inputs(inputs)
        q = inputs.shape[0]
        if q == 0:
            return np.empty(0)
        workers = min(_worker_count(), q)
        if workers == 1:
            return self._run_chunk(inputs, 0)
        bounds = np.linspace(0, q, workers + 1).astype(int)
        chunks = [(inputs[a:b], a) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda cb: self._run_chunk(*cb), chunks))
        return np.concatenate(parts)


#: table inputs and looked-up rows match when equal rounded to this many digits
_KEY_DIGITS = 12


class TableSimulator(SimulatorBinding):
    """Replay of precomputed runs: exact row lookup in a CSV whose columns are
    the inputs followed by a final output column."""

    def __init__(self, path, n_x: int, n_theta: int):
        self.name = f"table:{path}"
        self.n_x = int(n_x)
        self.n_theta = int(n_theta)
        values, _, lines = read_numeric_rows(path)
        want = self.n_x + self.n_theta + 1
        if values.shape[1] != want:
            raise ConfigError(
                f"{self.name}: table has {values.shape[1]} columns, expected "
                f"{want} (inputs + one output)")
        self._table = {}  # input key -> (line of the file, output)
        for i, row in zip(lines, values):
            first, y = self._table.setdefault(self._key(row[:-1]), (i, float(row[-1])))
            if y != row[-1]:
                raise ConfigError(
                    f"{self.name}: rows {first} and {i} give different outputs "
                    f"({y!r}, {float(row[-1])!r}) for the inputs {row[:-1].tolist()}")

    def _key(self, row) -> tuple:
        return tuple(np.round(np.asarray(row, dtype=float), _KEY_DIGITS))

    def run(self, inputs) -> np.ndarray:
        inputs = self._check_inputs(inputs)
        out = np.empty(inputs.shape[0])
        for i, row in enumerate(inputs):
            key = self._key(row)
            if key not in self._table:
                raise SimulatorError(
                    f"{self.name}: no precomputed output for input row {i + 1}: "
                    f"{row.tolist()}")
            out[i] = self._table[key][1]
        return out


def simulator_from_config(cfg: dict, n_x: int, n_theta: int) -> SimulatorBinding:
    """The binding for ``{kind: <kind>, ...}``, the other keys passed to its
    constructor as keyword arguments."""
    fields = dict(cfg)
    kind = fields.pop("kind", None)
    if kind == "builtin":
        sim = BuiltinSimulator(**fields)
        if (sim.n_x, sim.n_theta) != (n_x, n_theta):
            raise ConfigError(
                f"{sim.name} takes {sim.n_x} design and {sim.n_theta} "
                f"calibration inputs; config declares ({n_x}, {n_theta})")
        return sim
    if kind == "subprocess":
        return SubprocessSimulator(n_x=n_x, n_theta=n_theta, **fields)
    if kind == "table":
        return TableSimulator(n_x=n_x, n_theta=n_theta, **fields)
    raise ConfigError(f"unknown simulator kind {kind!r}; "
                      "options: builtin, subprocess, table")
