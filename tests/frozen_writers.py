"""The three CSV writers that spt.artifacts.write_csv replaced, frozen as a byte oracle.

``timeseries_to_csv`` is ``TimeSeries.to_csv`` (header keys in insertion
order, every cell ``%.12g`` of its real part), ``trajectories_to_csv`` the jump
log writer, and ``write_csv`` the command line's writer (header keys sorted,
cells formatted by type).  Every artifact the library writes must equal what
these wrote, byte for byte.
"""

import contextlib
import sys

import numpy as np


def timeseries_to_csv(times, channels: dict, metadata: dict, path) -> None:
    names = list(channels)
    with (contextlib.nullcontext(sys.stdout) if path in (None, "-")
          else open(path, "w", encoding="utf-8", newline="\n")) as fh:
        for key, val in metadata.items():
            fh.write(f"# {key}={val}\n")
        fh.write(",".join(["time"] + names) + "\n")
        cols = [times] + [np.asarray(channels[n]) for n in names]
        for row in zip(*cols):
            fh.write(",".join("%.12g" % float(np.real(x)) for x in row) + "\n")


def trajectories_to_csv(trajectories: list, path, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, val in (metadata or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write("trajectory_id,jump_time,channel\n")
        for i, tr in enumerate(trajectories):
            for t, lab in tr.jumps:
                fh.write("%d,%.12g,%s\n" % (i, t, lab))


def write_csv(path, metadata: dict, header: list, rows) -> None:
    out = sys.stdout if path in (None, "-") else open(path, "w", encoding="utf-8", newline="\n")
    try:
        for key in sorted(metadata):
            out.write(f"# {key}={metadata[key]}\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(x) for x in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.12g" % float(x)
