"""The CLI exit-code contract under mutated configs, experiments CSVs, run
records and training CSVs.

One node of a small copy of the demo config is mutated at a time: a wrong
type, NaN or infinity, a bool, a float for an int, a string, a list, a
missing key or an extra key. One cell or line of the demo's experiments CSV
is mutated the same way: a byte that is not UTF-8, NaN or infinity, an empty
cell, text, a missing or extra cell, a missing line, or only the header left.
``gpcal calibrate`` must return an exit code in 0-4 without raising, and
print an ``error:`` line whenever it fails. So must ``gpcal report`` on a
finished run with one node of one record file or one cell of its chain.csv
mutated, and ``gpcal fit`` on a training CSV with one cell mutated.
"""

import contextlib
import copy
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import pytest
import yaml
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from gpcal.cli import main

DEMO = Path(__file__).resolve().parent.parent / "demo"
BASE = yaml.safe_load((DEMO / "linear_demo.yaml").read_text())
# small enough that a mutant that stays valid calibrates in a fraction of
# a second
BASE["emulator"]["n_train"] = 30
BASE["mcmc"].update(samples=150, burn=50)
BASE["validation"]["draws"] = 10
CSV = (DEMO / "experiments.csv").read_bytes()

#: (path, value, dotted path the error must name). All but the last six
#: ended in a traceback or loaded silently and changed the run before the
#: config schema. The next five hold the name rules: a name is written as a
#: CSV header cell and into file names, and a repeated calibration name
#: collapses two posterior summaries into one. The last holds the finite
#: check to ints beyond float range.
CASES = [
    (("calibration", "priors"), {"a": {"dist": "uniform", "lower": 0, "upper": 1}},
     "calibration.priors"),
    (("calibration", "names"), 5, "calibration.names"),
    (("calibration", "nominal"), "ab", "calibration.nominal"),
    (("calibration", "priors", 0, "lower"), "a", "calibration.priors[0].lower"),
    (("calibration", "priors", 0), {"dist": "uniform"}, "calibration.priors[0].lower"),
    (("design_space", "lower"), "x", "design_space.lower"),
    (("simulator",), {"kind": "builtin"}, "simulator.name"),
    (("simulator",), {"kind": "subprocess"}, "simulator.command"),
    (("output_dir",), 5, "output_dir"),
    (("experiments", "split", "val"), ["a"], "experiments.split.val[0]"),
    (("emulator", "n_restart"), 16, "emulator.n_restart"),
    (("discrepancy", "enabled"), "false", "discrepancy.enabled"),
    (("thresholds", "q2_gate"), math.nan, "thresholds.q2_gate"),
    (("mcmc", "seed"), True, "mcmc.seed"),
    (("emulator", "seed"), 11.9, "emulator.seed"),
    (("mcmc", "samples"), 2.5, "mcmc.samples"),
    (("validation", "max_sim_evals"), -5, "validation.max_sim_evals"),
    (("emulator", "cv_folds"), 1, "emulator.cv_folds"),
    (("calibration", "names"), ["slo,pe", "offset"], "calibration.names[0]"),
    (("calibration", "names"), ["slope", "slope"], "calibration.names[1]"),
    (("calibration", "names"), ["slope", ""], "calibration.names[1]"),
    (("calibration", "names"), ["slope\noffset", "c"], "calibration.names[0]"),
    (("design_space", "names"), ["x/../../escaped"], "design_space.names[0]"),
    (("thresholds", "q2_gate"), 10 ** 400, "thresholds.q2_gate"),
]


class _Marker:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


MISSING, EXTRA = _Marker("MISSING"), _Marker("EXTRA")
AS_FLOAT, PLUS_HALF = _Marker("AS_FLOAT"), _Marker("PLUS_HALF")
DROP_LINE, HEADER_ONLY = _Marker("DROP_LINE"), _Marker("HEADER_ONLY")


def _paths(node, path=()):
    if path:
        yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _mutated(path, value, doc=BASE):
    cfg = copy.deepcopy(doc)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    old = parent[key] if isinstance(parent, list) or key in parent else None
    number = isinstance(old, (int, float)) and not isinstance(old, bool)
    if value is MISSING:
        del parent[key]
    elif value is EXTRA:
        if isinstance(parent, list):
            parent.append(old)
        else:
            parent[f"{key}_extra"] = old
    elif value is AS_FLOAT:
        parent[key] = float(old) if number else 1.0
    elif value is PLUS_HALF:
        parent[key] = old + 0.5 if number else 0.5
    else:
        parent[key] = value
    return cfg


def _mutated_csv(row, col, value, csv=CSV):
    """The demo CSV with one cell of line ``row`` (0 is the header) replaced
    by ``value`` (bytes or text), dropped (MISSING) or repeated (EXTRA), or
    with that line dropped, or with only the header left."""
    lines = [line.split(b",") for line in csv.splitlines()]
    cells = lines[row]
    if value is HEADER_ONLY:
        del lines[1:]
    elif value is DROP_LINE:
        del lines[row]
    elif value is MISSING:
        del cells[col]
    elif value is EXTRA:
        cells.insert(col, cells[col])
    else:
        cells[col] = value if isinstance(value, bytes) else value.encode()
    return b"".join(b",".join(line) + b"\n" for line in lines)


def _exit(argv):
    """(exit code, standard error) of one ``gpcal`` run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _holds_the_contract(code, err):
    event(f"exit code {code}")
    assert isinstance(code, int) and 0 <= code <= 4
    if code != 0:
        assert any(line.startswith("error: ") for line in err.splitlines()), err


def _calibrate(tmp_path, cfg, csv=CSV):
    """(exit code, standard error, output directory) of one calibrate."""
    (tmp_path / "experiments.csv").write_bytes(csv)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    return (*_exit(["calibrate", "--config", str(config), "--out", str(out)]), out)


def _with_cases(test):
    for path, value, _ in CASES:
        test = example(path=path, value=value)(test)
    return test


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(path=st.sampled_from(list(_paths(BASE))),
       value=st.one_of(
           st.sampled_from([MISSING, EXTRA, AS_FLOAT, PLUS_HALF, None,
                            math.nan, math.inf, -math.inf]),
           st.booleans(), st.text(max_size=6),
           st.lists(st.integers(-2, 25), max_size=3),
           st.dictionaries(st.text(max_size=3), st.integers(), max_size=1)))
@_with_cases
def test_mutated_config_keeps_the_exit_code_contract(tmp_path_factory, path, value):
    code, err, _ = _calibrate(tmp_path_factory.mktemp("mutant"), _mutated(path, value))
    _holds_the_contract(code, err)


@pytest.mark.parametrize("path, value, dotted", CASES,
                         ids=[dotted for _, _, dotted in CASES])
def test_config_error_names_its_path_before_any_output(tmp_path, path, value,
                                                       dotted):
    code, err, out = _calibrate(tmp_path, _mutated(path, value))
    assert code == 1
    assert err.startswith("error: ") and dotted in err
    assert not out.exists()


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(row=st.integers(0, CSV.count(b"\n") - 1), col=st.integers(0, 2),
       value=st.one_of(
           st.sampled_from([MISSING, EXTRA, DROP_LINE, HEADER_ONLY, b"\xe9",
                            "nan", "inf", "-inf", "", " ", "1e400", "0"]),
           st.text(max_size=6)))
@example(row=20, col=2, value=b"0.05\xe9")
def test_mutated_experiments_csv_keeps_the_exit_code_contract(
        tmp_path_factory, row, col, value):
    code, err, _ = _calibrate(tmp_path_factory.mktemp("mutant"), BASE,
                              _mutated_csv(row, col, value))
    _holds_the_contract(code, err)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    code, err, out = _calibrate(tmp_path_factory.mktemp("finished"), BASE)
    assert code == 0, err
    return out


def _report(tmp_path, run, edit):
    """``gpcal report`` on a copy of ``run`` whose files ``edit`` changed."""
    copy_dir = tmp_path / "run"
    shutil.copytree(run, copy_dir)
    edit(copy_dir)
    return _exit(["report", "--run", str(copy_dir), "--bins", "5", "--grid", "5"])


def _edit_json(name, path, value):
    def edit(run):
        doc = json.loads((run / name).read_text())
        paths = list(_paths(doc))
        where = path if isinstance(path, tuple) else paths[path % len(paths)]
        (run / name).write_text(json.dumps(_mutated(where, value, doc)))
    return edit


RECORD = ("manifest.json", "gpcode.json", "gpbias.json", "posterior_summary.json",
          "validation_report.json")

#: (file, path, value, dotted key the error must name). gpcal report exited
#: 0 on the first nine and 1, the config-error code, on the last four.
PROBES = [
    ("gpcode.json", ("hyperparameters", "omega", 0), PLUS_HALF, "hyperparameters.omega"),
    ("gpcode.json", ("hyperparameters", "beta", 0), PLUS_HALF, "hyperparameters.beta"),
    ("gpcode.json", ("scaling", "x_min", 0), PLUS_HALF, "scaling.x_min"),
    ("gpcode.json", ("scaling", "y_scale"), PLUS_HALF, "scaling.y_scale"),
    ("gpcode.json", ("degenerate",), True, "degenerate"),
    # a known constant has no beta: the stored one is what disagrees
    ("gpcode.json", ("trend", "kind"), "known_constant", "hyperparameters.beta"),
    ("manifest.json", ("config_hash",), 5, "config_hash"),
    ("manifest.json", ("created",), None, "created"),
    ("manifest.json", ("stage_seconds",), "fast", "stage_seconds"),
    ("gpcode.json", ("kernel", "kind"), "foo", "kernel.kind"),
    ("gpcode.json", ("kernel", "omega"), [1, -1, 2], "kernel.omega[1]"),
    ("gpcode.json", ("trend", "kind"), "custom", "trend.kind"),
    ("gpcode.json", ("trend", "kind"), "cubic", "trend.kind"),
]


def _with_probes(test):
    for name, path, value, _ in PROBES:
        test = example(name=name, path=path, value=value)(test)
    return test


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(RECORD), path=st.integers(0, 10 ** 6),
       value=st.one_of(
           st.sampled_from([MISSING, EXTRA, AS_FLOAT, PLUS_HALF, None,
                            math.nan, math.inf, -math.inf]),
           st.booleans(), st.text(max_size=6),
           st.lists(st.integers(-2, 25), max_size=3),
           st.dictionaries(st.text(max_size=3), st.integers(), max_size=1)))
@_with_probes
def test_mutated_run_record_keeps_the_exit_code_contract(tmp_path_factory,
                                                         finished_run, name, path,
                                                         value):
    event(name)
    _holds_the_contract(*_report(tmp_path_factory.mktemp("mutant"), finished_run,
                                 _edit_json(name, path, value)))


@pytest.mark.parametrize("name, path, value, dotted", PROBES,
                         ids=[f"{n}:{d}={v!r}" for n, _, v, d in PROBES])
def test_run_record_error_names_its_file_and_key(tmp_path, finished_run, name, path,
                                                 value, dotted):
    code, err = _report(tmp_path, finished_run, _edit_json(name, path, value))
    assert code == 2
    assert err.startswith("error: ") and f"{name}: {dotted} " in err, err
    assert not (tmp_path / "run" / "report").exists()


def _edit_chain(row, col, value):
    def edit(run):
        path = run / "chain.csv"
        path.write_bytes(_mutated_csv(row, col, value, path.read_bytes()))
    return edit


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(row=st.integers(0, 20), col=st.integers(0, 1),
       value=st.one_of(
           st.sampled_from([MISSING, EXTRA, DROP_LINE, HEADER_ONLY, b"\xe9",
                            "nan", "inf", "-inf", "", " ", "1e400", "0"]),
           st.text(max_size=6)))
@example(row=0, col=0, value="x/../../../escaped")
def test_mutated_chain_csv_keeps_the_exit_code_contract(tmp_path_factory,
                                                        finished_run, row, col, value):
    tmp = tmp_path_factory.mktemp("mutant")
    _holds_the_contract(*_report(tmp, finished_run, _edit_chain(row, col, value)))
    assert not list(tmp.glob("**/escaped*"))


def _training_csv():
    x = np.linspace(0.0, 1.0, 12)
    rows = [f"{a},{b},{math.sin(4 * a) + b}"
            for a, b in zip(x.tolist(), x[::-1].tolist())]
    return ("x1,x2,y\n" + "\n".join(rows) + "\n").encode()


TRAINING = _training_csv()


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(row=st.integers(0, TRAINING.count(b"\n") - 1), col=st.integers(0, 2),
       value=st.one_of(
           st.sampled_from([MISSING, EXTRA, DROP_LINE, HEADER_ONLY, b"\xe9",
                            "nan", "inf", "-inf", "", " ", "1e400", "0"]),
           st.text(max_size=6)))
def test_mutated_training_csv_keeps_the_exit_code_contract(tmp_path_factory, row, col,
                                                           value):
    tmp = tmp_path_factory.mktemp("mutant")
    (tmp / "train.csv").write_bytes(_mutated_csv(row, col, value, TRAINING))
    _holds_the_contract(*_exit(["fit", "--training", str(tmp / "train.csv"),
                                "--restarts", "1", "--out", str(tmp / "e.json")]))
