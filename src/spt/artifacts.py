"""The artifact formats: every CSV and JSON file the experiments write.

A CSV artifact is ``# key=value`` header lines, in the order the caller
passes them, then a row of column names and one comma-separated row per
record.  A cell is written as itself when it is a string, in decimal when it
is an integer, and as ``%.12g`` otherwise.  A JSON artifact is the payload
with sorted keys, indented by two, and null for each number that is not
finite (RFC 8259 has no NaN or infinity).  A path of None or '-' means stdout.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys

import numpy as np


class UnwritablePathError(ValueError):
    """An artifact path that cannot be opened for writing."""


def _open(path, mode: str = "w"):
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, mode, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise UnwritablePathError(f"cannot write {str(path)!r}: {exc.strerror}") from exc


def check_writable(path) -> None:
    """UnwritablePathError unless ``path`` can be opened for writing, checked
    by opening it to append: a file that is there keeps its bytes, and one
    that was not is removed again."""
    if path in (None, "-"):
        return
    existed = os.path.lexists(path)
    _open(path, "a").close()
    if not existed:
        os.remove(path)


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


def _finite_or_null(x):
    """``x``, and each value of a dict ``x`` in depth, with null (None) for
    a float that is not finite."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def write_json(path, payload: dict) -> None:
    with _open(path) as out:
        out.write(json.dumps(_finite_or_null(payload), sort_keys=True, indent=2,
                             allow_nan=False) + "\n")
