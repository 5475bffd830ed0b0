"""ASCII point-cloud readers/writers and normalization into the unit cube.

Supported formats: whitespace-separated XYZ lines (``x y z [r g b]
[nx ny nz]``, colors as floats in [0, 1]) and ASCII PLY with the same
properties (uchar color properties are rescaled from [0, 255]).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .octree import QuantizedCloud


@dataclass
class RawCloud:
    positions: np.ndarray
    colors: np.ndarray | None = None
    normals: np.ndarray | None = None


def read_points(path: str) -> RawCloud:
    if str(path).lower().endswith(".ply"):
        return _read_ply(path)
    return _read_xyz(path)


def _open_text(path: str):
    """Open as UTF-8, a byte that is not UTF-8 reading as U+FFFD, so that it
    fails to parse on its own line (or is skipped in a comment)."""
    return open(path, encoding="utf-8", errors="replace")


def _read_xyz(path: str) -> RawCloud:
    with _open_text(path) as f, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            data = np.loadtxt(f, comments="#", ndmin=2)
        except ValueError:
            data = None
    if data is None or data.shape[0] == 0 or data.shape[1] not in (3, 6, 9):
        data = _scan_xyz(path)  # raises the line-numbered error, or parses what float() takes
    _check_finite(path, data)
    colors = data[:, 3:6] if data.shape[1] >= 6 else None
    normals = data[:, 6:9] if data.shape[1] == 9 else None
    return RawCloud(data[:, :3], colors, normals)


def _scan_xyz(path: str) -> np.ndarray:
    """Parse line by line; each error names the ``path:lineno`` it is on."""
    rows = []
    width = None
    with _open_text(path) as f:
        for lineno, line in enumerate(f, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.split()
            if width is None:
                width = len(fields)
                if width not in (3, 6, 9):
                    raise DataError(
                        f"{path}:{lineno}: expected 3, 6, or 9 columns, got {width}")
            elif len(fields) != width:
                raise DataError(f"{path}:{lineno}: inconsistent column count")
            try:
                rows.append([float(v) for v in fields])
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparseable number") from None
    if not rows:
        raise DataError(f"{path}: no points")
    return np.asarray(rows, dtype=np.float64)


def _check_finite(path: str, data: np.ndarray) -> None:
    """Reject nan and overflowed (inf) values in any column read from a file."""
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}: non-finite value in point {int(np.argmin(finite))}")


_PLY_PROPS = {
    "x": 0, "y": 1, "z": 2,
    "red": 3, "green": 4, "blue": 5,
    "nx": 6, "ny": 7, "nz": 8,
}


def _read_ply(path: str) -> RawCloud:
    with _open_text(path) as f:
        magic, fmt = f.readline(), f.readline()
        if magic.strip() != "ply":
            raise DataError(f"{path}: not a PLY file")
        if "ascii" not in fmt:
            raise DataError(f"{path}: only ascii PLY is supported")
        header_chars = len(magic) + len(fmt)
        count = None
        props: list[tuple[str, str]] = []
        in_vertex = False
        for line in f:
            header_chars += len(line)
            tok = line.split()
            if not tok:
                continue
            if tok[0] == "element":
                in_vertex = tok[1:2] == ["vertex"]
                if in_vertex:
                    count = int(tok[2]) if tok[2:3] and tok[2].isdecimal() else -1
            elif tok[0] == "property" and in_vertex:
                if len(tok) < 3:
                    raise DataError(f"{path}: vertex property without a name")
                props.append((tok[2], tok[1]))
            elif tok[0] == "end_header":
                break
        if count is None:
            raise DataError(f"{path}: no vertex element")
        if count < 0:
            raise DataError(f"{path}: vertex count is not a non-negative integer")
        names = [p[0] for p in props]
        if not all(c in names for c in ("x", "y", "z")):
            raise DataError(f"{path}: PLY lacks x/y/z properties")
        if count == 0:
            raise DataError(f"{path}: no points")
        # an ascii row spends at least one digit and one separator per property;
        # characters never outnumber bytes, so this never undercounts what is left
        left = os.path.getsize(path) - header_chars
        if 2 * len(props) * count > left:
            raise DataError(f"{path}: header declares {count} vertices, "
                            f"but only {left} bytes follow it")
        data = np.full((count, 9), np.nan)
        have = np.zeros(9, dtype=bool)
        for col, (name, typ) in enumerate(props):
            if name in _PLY_PROPS:
                have[_PLY_PROPS[name]] = True
        for i in range(count):
            line = f.readline()
            if not line:
                raise DataError(f"{path}: truncated vertex data at row {i}")
            fields = line.split()
            if len(fields) != len(props):
                raise DataError(f"{path}: bad vertex row {i}")
            for col, (name, typ) in enumerate(props):
                if name not in _PLY_PROPS:
                    continue
                try:
                    v = float(fields[col])
                except ValueError:
                    raise DataError(f"{path}: unparseable number in vertex row {i}") from None
                if typ in ("uchar", "uint8"):
                    v /= 255.0
                data[i, _PLY_PROPS[name]] = v
    _check_finite(path, data[:, have])
    positions = data[:, :3]
    colors = data[:, 3:6] if have[3:6].all() else None
    normals = data[:, 6:9] if have[6:9].all() else None
    return RawCloud(positions, colors, normals)


def write_points(path: str, cloud: RawCloud) -> None:
    if str(path).lower().endswith(".ply"):
        _write_ply(path, cloud)
    else:
        _write_xyz(path, cloud)


WRITE_CHUNK_ROWS = 4096


def _write_rows(f, cloud: RawCloud) -> None:
    """Write one line per point: its position, colour and normal fields, each
    ``%.9g``. Rows are formatted in chunks of ``WRITE_CHUNK_ROWS`` from Python
    floats, so the text held in memory stays bounded and no numpy scalar is
    formatted."""
    table = np.hstack([a for a in (cloud.positions, cloud.colors, cloud.normals)
                       if a is not None])
    row = " ".join(["%.9g"] * table.shape[1]) + "\n"
    for start in range(0, table.shape[0], WRITE_CHUNK_ROWS):
        chunk = table[start:start + WRITE_CHUNK_ROWS]
        f.write((row * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def _write_xyz(path: str, cloud: RawCloud) -> None:
    if cloud.normals is not None and cloud.colors is None:
        raise ConfigError("xyz format cannot store normals without colors")
    with open(path, "w") as f:
        _write_rows(f, cloud)


def _write_ply(path: str, cloud: RawCloud) -> None:
    names = ["x", "y", "z"]
    if cloud.colors is not None:
        names += ["red", "green", "blue"]
    if cloud.normals is not None:
        names += ["nx", "ny", "nz"]
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {cloud.positions.shape[0]}\n")
        for name in names:
            f.write(f"property float {name}\n")
        f.write("end_header\n")
        _write_rows(f, cloud)


def normalize_cloud(raw: RawCloud, depth: int,
                    scale: float | None = None) -> QuantizedCloud:
    """Map raw coordinates into [0, 1)^3.

    ``scale`` is the voxel edge length in input units (the cube spans
    scale * 2**depth); when omitted the bounding box is fit to the cube.
    """
    pos = raw.positions
    origin = pos.min(axis=0)
    if scale is None:
        extent = float((pos - origin).max())
        extent = extent if extent > 0 else 1.0
        unit = (pos - origin) / (extent * (1 + 1e-9))
    else:
        if not (np.isfinite(scale) and scale > 0):
            raise ConfigError(f"scale must be a finite positive number, got {scale}")
        span = scale * (1 << depth)
        unit = (pos - origin) / span
        if unit.max() >= 1.0:
            raise DataError(
                f"cloud spans more than scale * 2^depth = {span}; "
                "increase depth or scale")
    colors = raw.colors
    if colors is not None:
        colors = np.clip(colors, 0.0, 1.0)
    return QuantizedCloud(unit, depth, colors=colors, normals=raw.normals)


def load_point_cloud(path: str, depth: int,
                     scale: float | None = None) -> QuantizedCloud:
    return normalize_cloud(read_points(path), depth, scale)
