"""File I/O: atomic writes, the CSV dialect, the JSON documents used
everywhere and the one walker that checks a document against its declared
schema. No other module reads or writes gpcal's files itself.

CSV dialect: comma separator, '.' decimal, mandatory header row, UTF-8, LF
line endings. Floats are emitted with 17 significant digits so values
round-trip exactly through text. JSON documents are indented by 2 and end
in a newline.
"""

from __future__ import annotations

import io
import json
import os
import reprlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError


def format_float(v) -> str:
    return format(float(v), ".17g")


def make_dir(path) -> Path:
    """Create directory ``path`` and its parents if missing; a path that
    cannot be made a directory is a :class:`ConfigError` naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path}: "
                          f"{exc.strerror or exc}") from None
    return path


def atomic_write(path, text: str) -> None:
    """Write text to path via a temp file + rename so readers never see a
    truncated artifact. A path that cannot be written is a
    :class:`ConfigError` naming it, and leaves no temp file behind."""
    path = Path(path)
    make_dir(path.parent)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                   suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def write_csv(path, header, rows) -> None:
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(format_float(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def write_json(path, doc) -> None:
    atomic_write(path, json.dumps(doc, indent=2) + "\n")


def read_text(path, error=DataError) -> str:
    """The UTF-8 text of a file. A missing file or bytes that are not UTF-8
    raise ``error`` (an exception class, or any callable taking the message)
    with a message naming the path."""
    path = Path(path)
    if not path.is_file():
        raise error(f"file not found: {path}")
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte "
                    f"{exc.start})") from None


def read_json(path, error=DataError):
    """The JSON document in a file; a missing file, bytes that are not UTF-8
    or malformed JSON raise ``error`` as in :func:`read_text`."""
    try:
        return json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: malformed JSON ({exc})") from None


def read_numeric_csv(path) -> tuple[np.ndarray, list]:
    """Read a headered all-numeric CSV. Malformed cells are reported with
    their 1-based row and column position, and a file that is not UTF-8 is a
    :class:`DataError` too. Row N is line N of the file, blank lines counted.
    """
    values, names, _ = read_numeric_rows(path)
    return values, names


def read_numeric_rows(path) -> tuple[np.ndarray, list, list]:
    """:func:`read_numeric_csv`, plus the line of the file each row is on."""
    text = read_text(path)
    # universal newlines, as text-mode open() reads them
    lines = [(n, ln.rstrip("\n")) for n, ln in
             enumerate(io.StringIO(text, newline=None), start=1) if ln.strip()]
    if not lines:
        raise DataError(f"empty CSV: {path}")
    names = [c.strip() for c in lines[0][1].split(",")]
    ncol = len(names)
    out = np.empty((len(lines) - 1, ncol), dtype=float)
    for i, (n, line) in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != ncol:
            raise DataError(
                f"{path}: row {n} has {len(cells)} cells, expected {ncol}")
        for j, cell in enumerate(cells):
            try:
                out[i, j] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: malformed numeric cell at row {n}, "
                    f"column {j + 1} ({names[j]!r}): {cell!r}") from None
    return out, names, [n for n, _ in lines[1:]]


class _Invalid(Exception):
    """A value that breaks its schema, raised by :func:`checked` as ``error``."""


def checked(doc, schema, error=DataError, source=None):
    """``doc`` checked against ``schema``, with every default filled in. A
    schema is a check, ``check(value, dotted_path)`` -> the value converted,
    or a mapping of key -> check, nested schema or (either, default); a bare
    entry or a _REQUIRED default must be given, an _ABSENT one may be left
    out. A value that breaks it raises ``error`` naming its dotted path,
    after ``source`` (its file) when given."""
    try:
        return _section(doc, schema, "")
    except _Invalid as exc:
        raise error(f"{source}: {exc}" if source else str(exc)) from None


def read_checked(path, schema, error=DataError):
    """The JSON document in a file, :func:`checked` against ``schema``."""
    return checked(read_json(path, error), schema, error, path)


def _section(d, schema, path):
    if not isinstance(schema, dict):
        return schema(d, path)
    if not isinstance(d, dict):
        raise _Invalid(f"{path or 'the top level'} {reprlib.repr(d)} is not a mapping")
    prefix = f"{path}." if path else ""
    for key in d:
        if key not in schema:
            raise _Invalid(f"unknown key {prefix}{key}")
    out = {}
    for key, entry in schema.items():
        check, default = entry if isinstance(entry, tuple) else (entry, _REQUIRED)
        value = d.get(key, default)
        if value is _REQUIRED:
            raise _Invalid(f"missing required field {prefix}{key}")
        if value is None and default is None:
            out[key] = None
        elif value is not _ABSENT:
            out[key] = _section(value, check, prefix + key)
    return out


def _check(ok, what, to=lambda v: v):
    """A value check: ``to(value)`` if ``ok(value)``, else _Invalid."""
    def check(value, path):
        if not ok(value):
            raise _Invalid(f"{path} {reprlib.repr(value)} is not {what}")
        return to(value)
    return check


def _number(ok, what):
    """A check of a number (an int or float, no bool) that ``ok`` admits."""
    return _check(lambda v: type(v) in (int, float) and ok(v), what, float)


def _at_least(n):
    # type(), not isinstance(): a bool is no int here. An integral float
    # becomes an int, so 11.0 hashes as 11 did.
    return _check(lambda v: (type(v) is int or type(v) is float and v.is_integer())
                  and v >= n, f"an integer >= {n}", int)


def _choice(options):
    return _check(lambda v: type(v) is str and v in options,
                  f"one of {', '.join(options)}")


def _list(item, size=None, distinct=False):
    """A list of ``item``s, of ``size`` entries if given, none repeated if
    ``distinct``."""
    def check(value, path):
        if not isinstance(value, list):
            raise _Invalid(f"{path} {reprlib.repr(value)} is not a list")
        if size is not None and len(value) != size:
            raise _Invalid(f"{path} has {len(value)} entries, not {size}")
        out = [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
        for i, v in enumerate(out if distinct else ()):
            if v in out[:i]:
                raise _Invalid(f"{path}[{i}] {v!r} repeats an earlier entry")
        return out
    return check


def _variant(tag, schemas):
    """A mapping whose ``tag`` key picks the schema of its other keys."""
    choose = _choice(tuple(schemas))

    def check(value, path):
        kind = choose(value.get(tag), f"{path}.{tag}") if isinstance(value, dict) else None
        return _section(value, {tag: choose, **schemas.get(kind, {})}, path)
    return check


def _open(schema):
    """``schema``, but a key it does not name is left out, not an error."""
    def check(value, path):
        if isinstance(value, dict):
            value = {k: v for k, v in value.items() if k in schema}
        return _section(value, schema, path)
    return check


_REQUIRED, _ABSENT = object(), object()
_NATURAL, _COUNT = _at_least(0), _at_least(1)
# abs(v) <= max, not isfinite(v): a 400-digit int overflows isfinite
_FLOAT = _number(lambda v: abs(v) <= sys.float_info.max, "a finite number")
_NONNEGATIVE = _number(lambda v: 0 <= v <= sys.float_info.max, "a finite number >= 0")
_BOOL = _check(lambda v: type(v) is bool, "true or false")
_STR = _check(lambda v: type(v) is str, "a string")
#: parameter names: CSV header cells, read back stripped and split at commas
#: and line breaks, and parts of file names
_NAME = _check(lambda v: type(v) is str and v == v.strip() != ""
               and not set(v) & set(",/\n\r"),
               "a nonempty name without surrounding spaces, ',', '/' or a line break")
_NAMES = _list(_NAME, distinct=True)
