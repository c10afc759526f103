"""File I/O: atomic writes, the CSV dialect and the JSON documents used
everywhere. No other module reads or writes gpcal's files itself.

CSV dialect: comma separator, '.' decimal, mandatory header row, UTF-8, LF
line endings. Floats are emitted with 17 significant digits so values
round-trip exactly through text. JSON documents are indented by 2 and end
in a newline.
"""

from __future__ import annotations

import io
import json
import os
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
    :class:`DataError` too."""
    text = read_text(path)
    # universal newlines, as text-mode open() reads them
    lines = [ln.rstrip("\n") for ln in io.StringIO(text, newline=None)
             if ln.strip()]
    if not lines:
        raise DataError(f"empty CSV: {path}")
    names = [c.strip() for c in lines[0].split(",")]
    ncol = len(names)
    out = np.empty((len(lines) - 1, ncol), dtype=float)
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != ncol:
            raise DataError(
                f"{path}: row {i} has {len(cells)} cells, expected {ncol}")
        for j, cell in enumerate(cells):
            try:
                out[i - 2, j] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: malformed numeric cell at row {i}, "
                    f"column {j + 1} ({names[j]!r}): {cell!r}") from None
    return out, names
