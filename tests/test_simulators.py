import sys
import textwrap

import numpy as np
import pytest

from gpcal import (BuiltinSimulator, ConfigError, SimulatorError,
                   SubprocessSimulator, TableSimulator)
from gpcal.fileio import write_csv
from gpcal.simulators import simulator_from_config


def test_builtin_linear():
    sim = BuiltinSimulator("linear")
    out = sim.run(np.array([[2.0, 3.0, 1.0], [0.5, 2.0, -1.0]]))
    assert np.allclose(out, [7.0, 0.0])
    out2 = sim.run_at(np.array([[2.0], [0.5]]), np.array([3.0, 1.0]))
    assert np.allclose(out2, [7.0, 2.5])


def test_builtin_linear_biased():
    biased = BuiltinSimulator("linear_biased")
    got = biased.run(np.array([[2.0, 3.0, 1.0]]))
    assert got[0] == pytest.approx(7.0 + 0.5 * np.sin(2.0))


def test_builtin_validation():
    with pytest.raises(ConfigError):
        BuiltinSimulator("nonexistent")
    sim = BuiltinSimulator("linear")
    with pytest.raises(SimulatorError):
        sim.run(np.zeros((2, 2)))


def test_builtin_smooth_1d_is_not_offered():
    # it took no calibration inputs, and a prior needs at least one
    with pytest.raises(ConfigError, match=r"options: \['linear', 'linear_biased'\]"):
        BuiltinSimulator("smooth_1d")


def _write_script(tmp_path, body):
    script = tmp_path / "sim.py"
    script.write_text(textwrap.dedent(body))
    return [sys.executable, str(script)]


GOOD_SIM = """
    import sys, csv
    inp, outp = sys.argv[1], sys.argv[2]
    rows = list(csv.reader(open(inp)))[1:]
    with open(outp, "w") as fh:
        fh.write("y\\n")
        for r in rows:
            x, t1, t2 = map(float, r)
            fh.write(f"{t1 * x + t2}\\n")
"""


def test_subprocess_protocol_roundtrip(tmp_path):
    sim = SubprocessSimulator(_write_script(tmp_path, GOOD_SIM), n_x=1, n_theta=2)
    inputs = np.array([[1.0, 2.0, 0.5], [3.0, 1.0, -1.0], [0.0, 5.0, 2.0]])
    out = sim.run(inputs)
    assert np.allclose(out, [2.5, 2.0, 2.0])


def test_subprocess_parallel_chunks_preserve_order(tmp_path, monkeypatch):
    sim = SubprocessSimulator(_write_script(tmp_path, GOOD_SIM), n_x=1, n_theta=2)
    inputs = np.column_stack([np.arange(20.0), np.full(20, 2.0), np.zeros(20)])
    monkeypatch.setenv("GPCAL_WORKERS", "4")
    out = sim.run(inputs)
    assert np.allclose(out, 2.0 * np.arange(20.0))


@pytest.mark.parametrize("value", ["four", "0", "2.5"])
def test_subprocess_workers_must_be_a_positive_integer(tmp_path, monkeypatch, value):
    # not quietly one worker: a ConfigError (exit 1) naming the variable
    sim = SubprocessSimulator(_write_script(tmp_path, GOOD_SIM), n_x=1, n_theta=2)
    monkeypatch.setenv("GPCAL_WORKERS", value)
    with pytest.raises(ConfigError, match="GPCAL_WORKERS"):
        sim.run(np.array([[1.0, 2.0, 0.5]]))


def test_subprocess_nonzero_exit(tmp_path):
    cmd = _write_script(tmp_path, "import sys; sys.exit(3)")
    sim = SubprocessSimulator(cmd, n_x=1, n_theta=0)
    with pytest.raises(SimulatorError, match="status 3"):
        sim.run(np.array([[1.0]]))


def test_subprocess_row_count_mismatch(tmp_path):
    body = """
        import sys
        open(sys.argv[2], "w").write("y\\n1.0\\n")
    """
    sim = SubprocessSimulator(_write_script(tmp_path, body), n_x=1, n_theta=0)
    with pytest.raises(SimulatorError, match="returned 1 rows for 3"):
        sim.run(np.array([[1.0], [2.0], [3.0]]))


def test_subprocess_malformed_cell_names_row(tmp_path):
    body = """
        import sys
        open(sys.argv[2], "w").write("y\\n1.0\\nbogus\\n2.0\\n")
    """
    sim = SubprocessSimulator(_write_script(tmp_path, body), n_x=1, n_theta=0)
    with pytest.raises(SimulatorError, match="input row 2"):
        sim.run(np.array([[1.0], [2.0], [3.0]]))


def test_table_simulator(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["x", "t", "y"], [[0.0, 1.0, 5.0], [1.0, 2.0, 7.0]])
    sim = TableSimulator(path, n_x=1, n_theta=1)
    out = sim.run(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.allclose(out, [7.0, 5.0])
    with pytest.raises(SimulatorError, match="row 1"):
        sim.run(np.array([[0.5, 0.5]]))


def test_table_with_two_outputs_for_one_input_row_is_rejected(tmp_path):
    # the later row once won without a word
    path = tmp_path / "table.csv"
    path.write_text("x,a,b,y\n1,2,3,10\n0,0,0,1\n1,2,3,99\n")
    with pytest.raises(ConfigError, match=r"rows 2 and 4 give different outputs "
                                          r"\(10.0, 99.0\) for the inputs \[1.0, 2.0, 3.0\]"):
        TableSimulator(path, n_x=1, n_theta=2)
    path.write_text("x,a,b,y\n1,2,3,10\n0,0,0,1\n1,2,3,10\n")
    sim = TableSimulator(path, n_x=1, n_theta=2)
    assert sim.run(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])).tolist() == [10.0, 1.0]


def test_table_duplicate_error_names_the_lines_of_the_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("x,a,b,y\n\n1,2,3,10\n0,0,0,1\n\n1,2,3,99\n")
    with pytest.raises(ConfigError, match="rows 3 and 6 give different outputs"):
        TableSimulator(path, n_x=1, n_theta=2)


def test_table_lookup_matches_inputs_at_12_digits(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("x,t,y\n0.1,0.2,5\n0.1000000000000001,0.2,5\n")
    sim = TableSimulator(path, n_x=1, n_theta=1)
    assert sim.run(np.array([[0.1 + 1e-14, 0.2]])).tolist() == [5.0]
    with pytest.raises(SimulatorError, match="no precomputed output"):
        sim.run(np.array([[0.1 + 1e-9, 0.2]]))
    path.write_text("x,t,y\n0.1,0.2,5\n0.1000000000000001,0.2,6\n")
    with pytest.raises(ConfigError, match="rows 2 and 3 give different outputs"):
        TableSimulator(path, n_x=1, n_theta=1)


def test_simulator_from_config(tmp_path):
    sim = simulator_from_config({"kind": "builtin", "name": "linear"}, 1, 2)
    assert sim.n_theta == 2
    with pytest.raises(ConfigError):
        simulator_from_config({"kind": "builtin", "name": "linear"}, 2, 2)
    with pytest.raises(ConfigError):
        simulator_from_config({"kind": "warp"}, 1, 1)
