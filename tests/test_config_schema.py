"""The CLI exit-code contract under mutated configs and experiments CSVs.

One node of a small copy of the demo config is mutated at a time: a wrong
type, NaN or infinity, a bool, a float for an int, a string, a list, a
missing key or an extra key. One cell or line of the demo's experiments CSV
is mutated the same way: a byte that is not UTF-8, NaN or infinity, an empty
cell, text, a missing or extra cell, a missing line, or only the header left.
``gpcal calibrate`` must return an exit code in 0-4 without raising, and
print an ``error:`` line whenever it fails.
"""

import contextlib
import copy
import io
import math
from pathlib import Path

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

#: (path, value, dotted path the error must name). All but the last ended
#: in a traceback or loaded silently and changed the run before the config
#: schema; the last holds the finite check to ints beyond float range.
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


def _mutated(path, value):
    cfg = copy.deepcopy(BASE)
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


def _mutated_csv(row, col, value):
    """The demo CSV with one cell of line ``row`` (0 is the header) replaced
    by ``value`` (bytes or text), dropped (MISSING) or repeated (EXTRA), or
    with that line dropped, or with only the header left."""
    lines = [line.split(b",") for line in CSV.splitlines()]
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


def _calibrate(tmp_path, cfg, csv=CSV):
    """(exit code, standard error, output directory) of one calibrate."""
    (tmp_path / "experiments.csv").write_bytes(csv)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["calibrate", "--config", str(config), "--out", str(out)])
    return code, err.getvalue(), out


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
    event(f"exit code {code}")
    assert isinstance(code, int) and 0 <= code <= 4
    if code != 0:
        assert any(line.startswith("error: ") for line in err.splitlines()), err


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
    event(f"exit code {code}")
    assert isinstance(code, int) and 0 <= code <= 4
    if code != 0:
        assert any(line.startswith("error: ") for line in err.splitlines()), err
