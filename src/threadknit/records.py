"""Artifact files: one column spec per record type drives that type's CSV
writer and reader and its JSON writer, and every file is replaced
atomically, so an interrupted write never leaves a truncated artifact.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence, TextIO

from .errors import DataError


class RecordSpec(NamedTuple):
    """One record type's layout: (column, attribute, type) triples in CSV
    order, the type being str, int or float, plus columns written to JSON
    only.  ``make`` builds a record from attributes; ``check`` raises
    ValueError for a record read back that the program cannot have written.
    """

    noun: str
    make: Callable[..., Any]
    columns: tuple[tuple[str, str, type], ...]
    json_only: tuple[tuple[str, str, type], ...] = ()
    check: Callable[[Any], object] = lambda record: None


def write_atomic(path: str | Path, serialise: Callable[[TextIO], object]) -> Path:
    """Write a UTF-8 file through ``serialise(handle)`` into a sibling
    temporary file, which replaces ``path`` only once complete; on failure
    the temporary file is removed and ``path`` is left as it was."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    # what open(path, "w") asks of the system, less its text layer
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)
    try:
        descriptor = os.open(temporary, flags, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor = os.open(temporary, flags, 0o666)
    try:
        try:
            text = io.StringIO()
            serialise(text)
            data = memoryview(text.getvalue().encode("utf-8"))
            while data:
                data = data[os.write(descriptor, data) :]
        finally:
            os.close(descriptor)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return path


def write_csv(spec: RecordSpec, records: Sequence[Any], path: str | Path) -> Path:
    """Header, then one row per record; floats are written with repr."""

    def serialise(handle: TextIO) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([name for name, _, _ in spec.columns])
        for record in records:
            cells = [(getattr(record, attr), kind) for _, attr, kind in spec.columns]
            writer.writerow([repr(value) if kind is float else value for value, kind in cells])

    return write_atomic(path, serialise)


def write_json(spec: RecordSpec, records: Sequence[Any], path: str | Path) -> Path:
    """A list of objects with sorted keys, indented, UTF-8 unescaped."""
    columns = spec.columns + spec.json_only
    payload = [{name: getattr(record, attr) for name, attr, _ in columns} for record in records]
    text = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    return write_atomic(path, lambda handle: handle.write(text))


def _cell(cell: str, name: str, kind: type) -> Any:
    try:
        value = kind(cell)
        # only the text write_csv writes: int() and float() also take '1_000', ' 10 ' or '١٠'
        if (repr if kind is float else str)(value) != cell:
            raise ValueError
    except ValueError:  # int() and float() advice names no field; str() never fails
        shown = repr(cell[:40]) + ("..." if len(cell) > 40 else "")
        raise ValueError(f"field {name!r} must be {kind.__name__}, got {shown}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"field {name!r} is non-finite: {value!r}")
    return value


def read_records(spec: RecordSpec, path: str | Path) -> list[Any]:
    """Records from a file ``write_csv`` wrote.  Any problem, from an
    unreadable file to a non-finite float or no records at all, is a
    DataError naming ``path``."""
    path = Path(path)
    names = [name for name, _, _ in spec.columns]
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != names:
                raise DataError(f"{path}: expected columns {', '.join(names)}, got {header}")
            rows = [row for row in reader if row]
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read {spec.noun} records {path}: {err}") from err
    except csv.Error as err:
        raise DataError(f"{path}: malformed CSV: {err}") from err
    records = []
    for number, row in enumerate(rows, 2):
        try:
            if len(row) != len(names):
                raise ValueError(f"{len(row)} cell(s) for {len(names)} columns")
            cells = zip(spec.columns, row)
            fields = {attr: _cell(cell, name, kind) for (name, attr, kind), cell in cells}
            record = spec.make(**fields)
            spec.check(record)
        except ValueError as err:
            raise DataError(f"{path}:{number}: bad {spec.noun} record: {err}") from err
        records.append(record)
    if not records:
        raise DataError(f"{path}: no rows")
    return records
