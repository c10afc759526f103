import json

import numpy as np
import pytest

from gpcal import ConfigError, DataError, DesignMatrix, ParameterSpace
from gpcal.config import load_space


def test_space_validation():
    with pytest.raises(ConfigError):
        ParameterSpace(["a", "a"], [0, 0], [1, 1])
    with pytest.raises(ConfigError):
        ParameterSpace(["a", "b"], [0, 2], [1, 1])
    with pytest.raises(ConfigError):
        ParameterSpace(["a"], [0, 0], [1, 1])


def test_scaling_round_trip(rng):
    space = ParameterSpace(["a", "b", "c"], [-3.0, 10.0, 0.1], [7.0, 11.0, 0.2])
    u = rng.uniform(0, 1, (50, 3))
    width = space.upper - space.lower
    x = space.unscale(u)
    back = (x - space.lower) / width
    assert np.max(np.abs(back - u)) <= 1e-12 * max(1.0, np.abs(u).max())
    dm = DesignMatrix(u, space)
    again = (dm.to_physical() - space.lower) / width
    assert np.max(np.abs(again - dm.points)) <= 1e-12


def test_design_matrix_bounds_check():
    space = ParameterSpace(["a"], [0.0], [1.0])
    with pytest.raises(DataError):
        DesignMatrix(np.array([[1.5]]), space)
    with pytest.raises(DataError):
        DesignMatrix(np.array([[0.5, 0.5]]), space)
    empty = DesignMatrix(np.empty((0, 1)), space)
    assert empty.m == 0


def test_csv_roundtrip_and_sidecar(tmp_path):
    space = ParameterSpace(["pressure", "flow"], [1.0, 0.0], [5.0, 2.0])
    pts = np.array([[0.0, 0.25], [1.0, 0.75], [0.125, 0.5]])
    dm = DesignMatrix(pts, space, meta={"method": "lhs", "seed": 7})
    out = tmp_path / "design.csv"
    dm.write_csv(out)
    text = out.read_text().splitlines()
    assert text[0] == "pressure,flow"
    assert len(text) == 4
    phys = np.array([[float(c) for c in line.split(",")] for line in text[1:]])
    assert np.allclose(phys, dm.to_physical(), rtol=0, atol=0)
    sidecar = json.loads((tmp_path / "design.csv.meta.json").read_text())
    assert sidecar["method"] == "lhs"
    assert sidecar["seed"] == 7
    assert np.allclose(sidecar["unit_cube"], pts)


def test_space_json_roundtrip(tmp_path):
    space = ParameterSpace(["a", "b"], [0.0, -1.0], [2.0, 1.0])
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space.to_dict()))
    loaded = load_space(path)
    assert loaded.names == space.names
    assert np.array_equal(loaded.lower, space.lower)
    with pytest.raises(ConfigError):
        load_space(tmp_path / "missing.json")
