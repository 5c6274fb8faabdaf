"""Versioned files of interned tables plus fixed-width binary columns.

A column file holds, in order:

* a magic line, ``<magic> v<version>``;
* one sorted-key JSON object of tables, on one line, whose ``rows`` is
  the length of every column;
* the columns, one after the other, each ``rows`` little-endian items of
  its ``array`` typecode.

The layout follows the Apache Arrow columnar format: fixed-width value
buffers beside a separate table of strings. Columns are written and read
with ``array.tofile``/``frombytes``, byte-swapped on a big-endian host, so
nothing is unpickled or evaluated on load. A file that is not of the
magic, or whose tables are not one object with exactly the keys asked
for, raises ValueError; one of another version raises VersionMismatch. A
short column and bytes after the last column raise ValueError too.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from typing import Sequence

from .model import VersionMismatch, _atomic_writer

# the item size each typecode the codec writes must have on disk
ITEM_SIZES = {"i": 4}
INT32_MAX = 2**31 - 1

_SWAP = sys.byteorder == "big"


def _check_typecode(typecode: str) -> None:
    if array(typecode).itemsize != ITEM_SIZES.get(typecode):
        raise ValueError(f"typecode {typecode!r} is not one of {sorted(ITEM_SIZES)} "
                         "at its on-disk size on this host")


def write_columns(
    path: str | Path, magic: str, version: int, tables: dict, columns: Sequence[array]
) -> None:
    """Write ``tables`` and ``columns``, all of one length, atomically."""
    rows = {len(column) for column in columns}
    if len(rows) > 1:
        raise ValueError(f"columns of unequal length: {sorted(rows)}")
    header = json.dumps({"rows": rows.pop() if rows else 0, **tables}, sort_keys=True)
    with _atomic_writer(path, binary=True) as fh:
        fh.write(f"{magic} v{version}\n{header}\n".encode("utf-8"))
        for column in columns:
            _check_typecode(column.typecode)
            if _SWAP:
                column = array(column.typecode, column)
                column.byteswap()
            column.tofile(fh)


def read_columns(
    path: str | Path, magic: str, version: int, keys: Sequence[str], typecodes: str
) -> tuple[dict, list[array]]:
    """The tables (``rows`` left out) and the columns of a file
    ``write_columns`` wrote with this magic and version, tables with
    exactly ``keys`` and columns of ``typecodes``."""
    with open(path, "rb") as fh:
        first = fh.readline().decode("utf-8", "replace").rstrip("\n")
        if first.partition(" ")[0] != magic:
            raise ValueError(f"{path}: not a {magic} file")
        if first != f"{magic} v{version}":
            raise VersionMismatch(
                f"{path}: format {first.partition(' ')[2] or '?'} unsupported "
                f"(expected v{version})"
            )
        try:
            tables = json.loads(fh.readline())
        except ValueError as exc:
            raise ValueError(f"{path}: tables line is not JSON: {exc}") from None
        if not isinstance(tables, dict):
            raise ValueError(f"{path}: tables line is not an object")
        expected = {"rows", *keys}
        if tables.keys() != expected:
            raise ValueError(
                f"{path}: tables have keys {sorted(tables)}, not {sorted(expected)}")
        rows = tables.pop("rows")
        if type(rows) is not int or rows < 0:
            raise ValueError(f"{path}: rows {rows!r} is not a count")
        columns = []
        for i, typecode in enumerate(typecodes):
            _check_typecode(typecode)
            column = array(typecode)
            size = rows * column.itemsize
            data = fh.read(size)
            if len(data) < size:
                raise ValueError(f"{path}: column {i} is short: {len(data)} of {size} bytes")
            column.frombytes(data)
            if _SWAP:
                column.byteswap()
            columns.append(column)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last column")
    return tables, columns
