import ast
from pathlib import Path

import numpy as np
import pytest

import gpcal
from gpcal import ConfigError, DataError
from gpcal.fileio import (atomic_write, format_float, make_dir, read_json,
                          read_numeric_csv, write_csv, write_json)


def test_float_formatting_round_trips():
    for v in (1 / 3, 1e-17, 123456.789012345678, -0.1, 2.0 ** -1074):
        assert float(format_float(v)) == v


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write(target, "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write(target, "replaced\n")
    assert target.read_text() == "replaced\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
    assert leftovers == []


def test_atomic_write_failure_keeps_previous_content(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    atomic_write(target, "original\n")

    import os
    real_replace = os.replace

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(ConfigError, match=f"cannot write {target}: disk full"):
        atomic_write(target, "new\n")
    monkeypatch.setattr(os, "replace", real_replace)
    assert target.read_text() == "original\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
    assert leftovers == []


def test_unwritable_paths_are_config_errors_naming_the_path(tmp_path):
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("x")
    with pytest.raises(ConfigError, match=f"cannot write {tmp_path / 'a_dir'}"):
        atomic_write(tmp_path / "a_dir", "text\n")
    with pytest.raises(ConfigError, match=f"cannot create directory {tmp_path / 'a_file'}"):
        atomic_write(tmp_path / "a_file" / "out.txt", "text\n")
    with pytest.raises(ConfigError, match="cannot create directory"):
        make_dir(tmp_path / "a_file")
    assert make_dir(tmp_path / "new" / "sub") == tmp_path / "new" / "sub"
    assert (tmp_path / "new" / "sub").is_dir()
    leftovers = sorted(p.name for p in tmp_path.iterdir())
    assert leftovers == ["a_dir", "a_file", "new"]
    assert list((tmp_path / "a_dir").iterdir()) == []


def test_csv_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    rows = np.array([[1 / 3, 2.0], [1e-12, -5.5]])
    write_csv(path, ["a", "b"], rows)
    values, names = read_numeric_csv(path)
    assert names == ["a", "b"]
    assert np.array_equal(values, rows)


def test_csv_error_reporting(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="row 3"):
        read_numeric_csv(path)
    with pytest.raises(DataError, match="not found"):
        read_numeric_csv(tmp_path / "missing.csv")
    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(DataError, match="empty"):
        read_numeric_csv(tmp_path / "empty.csv")


def test_csv_errors_name_the_line_of_the_file(tmp_path):
    # a blank line once shifted every later row number down by one
    path = tmp_path / "gap.csv"
    path.write_text("x,y\n0.1,1.0\n\n0.2,oops\n")
    with pytest.raises(DataError, match=r"row 4, column 2 \('y'\): 'oops'"):
        read_numeric_csv(path)
    path.write_text("\nx,y\r\n\r\n0.1,1.0\r\n0.2\r\n")
    with pytest.raises(DataError, match="row 5 has 1 cells"):
        read_numeric_csv(path)


def test_csv_reader_keeps_universal_newlines_and_rejects_non_utf8(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"a,b\r\n1,2\r3,4\n\n  \n5,6")
    values, names = read_numeric_csv(path)
    assert names == ["a", "b"]
    assert np.array_equal(values, [[1, 2], [3, 4], [5, 6]])
    path.write_bytes(b"a,b\n1,2\xe9\n")
    with pytest.raises(DataError, match="not UTF-8"):
        read_numeric_csv(path)


def test_json_round_trip_and_errors(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"b": [1.5, None], "a": {"x": "y"}}
    write_json(path, doc)
    assert path.read_text() == ('{\n  "b": [\n    1.5,\n    null\n  ],\n'
                                '  "a": {\n    "x": "y"\n  }\n}\n')
    assert read_json(path) == doc
    for name, data, message in (("missing.json", None, "not found"),
                                ("latin1.json", b'{"a": "\xe9"}', "not UTF-8"),
                                ("cut.json", b'{"a": [1', "malformed JSON")):
        if data is not None:
            (tmp_path / name).write_bytes(data)
        with pytest.raises(DataError, match=message) as info:
            read_json(tmp_path / name)
        assert name in str(info.value)
    with pytest.raises(ConfigError, match="malformed JSON"):
        read_json(tmp_path / "cut.json", ConfigError)


def test_only_fileio_parses_json_or_writes_atomically():
    """gpcal's file formats have one owner: no other module calls
    ``json.load``/``json.loads`` or ``atomic_write``."""
    for module in sorted(Path(gpcal.__file__).parent.glob("*.py")):
        if module.name == "fileio.py":
            continue
        tree = ast.parse(module.read_text())
        used = {f"json.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "json"}
        used |= {f"{node.module}.{alias.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not used & {"json.load", "json.loads", "fileio.atomic_write",
                           "atomic_write"}, module.name
