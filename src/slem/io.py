"""File formats for the CLI: point CSVs, shape-tagged raster CSVs, design
matrices, and minute-frame stacks.

Rasters carry their shape in a `# n1=<int> n2=<int>` first line and then one
CSV line per i1 (numpy axis 0).  Floats use the shortest round-trip repr, so
files are reproducible bit for bit on a platform and parse back exactly.
"""
from __future__ import annotations

import os
import re

import numpy as np

from .errors import ConfigError
from .grid import GridSpec, PointPattern

_HEADER_RE = re.compile(r"^#\s*n1=(\d+)\s+n2=(\d+)\s*$")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if np.isnan(x):
        return ""  # empty field encodes missing
    return repr(x)


def write_raster_csv(path, values: np.ndarray) -> None:
    values = np.asarray(values)
    if values.ndim != 2:
        raise ConfigError(f"raster must be 2-D, got shape {values.shape}")
    n1, n2 = values.shape
    with open(path, "w") as fh:
        fh.write(f"# n1={n1} n2={n2}\n")
        for row in values:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _field(text: str, path, ln) -> float:
    """One CSV field as a float; an empty field is NaN (missing)."""
    if text == "":
        return np.nan
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{path}:{ln}: field {text!r} is not a number") from None


def _records(fh, path):
    """(line number, numeric fields) for each non-blank line left in fh,
    counting the header as line 1."""
    for ln, line in enumerate(fh, start=2):
        line = line.strip()
        if line:
            yield ln, [_field(f, path, ln) for f in line.split(",")]


def _shape_header(fh, path, kind):
    m = _HEADER_RE.match(fh.readline().strip())
    if not m:
        raise ConfigError(f"{path}: missing '# n1=<int> n2=<int>' {kind} header")
    return int(m.group(1)), int(m.group(2))


def read_raster_csv(path) -> np.ndarray:
    with open(path) as fh:
        n1, n2 = _shape_header(fh, path, "raster")
        rows = [row for _, row in _records(fh, path)]
    if len({len(r) for r in rows}) > 1:
        raise ConfigError(f"{path}: raster rows have inconsistent field counts")
    arr = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    if arr.shape != (n1, n2):
        raise ConfigError(f"{path}: raster body shape {arr.shape} does not match header {n1}x{n2}")
    return arr


def write_points_csv(path, pattern: PointPattern) -> None:
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x, y in pattern.points:
            fh.write(f"{_fmt(x)},{_fmt(y)}\n")


def read_points_csv(path) -> PointPattern:
    with open(path) as fh:
        header = fh.readline().strip().lower()
        if header.replace(" ", "") != "x,y":
            raise ConfigError(f"{path}: point CSV must start with an 'x,y' header")
        pts = []
        for ln, pt in _records(fh, path):
            if len(pt) != 2:
                raise ConfigError(f"{path}:{ln}: expected two fields, got {len(pt)}")
            if np.isnan(pt).any():
                raise ConfigError(f"{path}:{ln}: missing coordinate")
            pts.append(pt)
    return PointPattern(np.asarray(pts, dtype=float).reshape(-1, 2))


def write_matrix_csv(path, X: np.ndarray, names) -> None:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(names):
        raise ConfigError("matrix shape does not match column names")
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in X:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_matrix_csv(path):
    with open(path) as fh:
        names = [s.strip() for s in fh.readline().strip().split(",")]
        rows = [row for _, row in _records(fh, path)]
    if not rows or any(len(r) != len(names) for r in rows):
        raise ConfigError(f"{path}: ragged or empty matrix CSV")
    return np.asarray(rows, dtype=float), names


# ---------------------------------------------------------------------------
# minute stacks: a directory of frame_<ttt>.csv rasters, or one concatenated
# CSV whose lines are t,<n2 values> with n1 consecutive lines per frame
# ---------------------------------------------------------------------------


def read_minute_stack(path, grid: GridSpec) -> np.ndarray:
    if os.path.isdir(path):
        files = sorted(f for f in os.listdir(path) if re.fullmatch(r"frame_\d+\.csv", f))
        if not files:
            raise ConfigError(f"{path}: no frame_<index>.csv files found")
        frames = [read_raster_csv(os.path.join(path, f)) for f in files]
    else:
        frames = _read_concatenated_stack(path, grid)
    stack = np.stack(frames)
    if stack.shape[1:] != (grid.n1, grid.n2):
        raise ConfigError(
            f"{path}: frames are {stack.shape[1:]} but the grid is {grid.n1}x{grid.n2}"
        )
    return stack


def _read_concatenated_stack(path, grid: GridSpec):
    with open(path) as fh:
        n1, n2 = _shape_header(fh, path, "stack")
        per_frame = {}
        for ln, fields in _records(fh, path):
            if len(fields) != n2 + 1:
                raise ConfigError(f"{path}:{ln}: expected t plus {n2} values")
            if not float(fields[0]).is_integer():
                raise ConfigError(f"{path}:{ln}: frame index {fields[0]} is not an integer")
            per_frame.setdefault(int(fields[0]), []).append(fields[1:])
    frames = []
    for t in sorted(per_frame):
        body = np.asarray(per_frame[t], dtype=float)
        if body.shape != (n1, n2):
            raise ConfigError(f"{path}: frame t={t} has shape {body.shape}, expected {n1}x{n2}")
        frames.append(body)
    return frames


def write_minute_stack(dirpath, frames: np.ndarray) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for t, frame in enumerate(np.asarray(frames, dtype=float), start=1):
        write_raster_csv(os.path.join(dirpath, f"frame_{t:03d}.csv"), frame)
