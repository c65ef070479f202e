"""The artifact formats: every CSV and JSON file the experiments write.

A CSV artifact is ``# key=value`` header lines, in the order the caller
passes them, then a row of column names and one comma-separated row per
record.  A cell is written as itself when it is a string, in decimal when it
is an integer, and as ``%.12g`` otherwise.  A JSON artifact is the payload
with sorted keys, indented by two.  A path of None or '-' means stdout.
"""

from __future__ import annotations

import contextlib
import json
import sys

import numpy as np


class UnwritablePathError(ValueError):
    """An artifact path that cannot be opened for writing."""


def _open(path):
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise UnwritablePathError(f"cannot write {str(path)!r}: {exc.strerror}") from exc


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.12g" % float(x)


def write_csv(path, metadata_pairs, header, rows) -> None:
    with _open(path) as out:
        for key, val in metadata_pairs:
            out.write(f"# {key}={val}\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_cell(x) for x in row) + "\n")


def write_json(path, payload: dict) -> None:
    with _open(path) as out:
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
