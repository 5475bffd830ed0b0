"""Shuffled keys: 3D z-order (Morton) codes for octree nodes.

A key interleaves coordinate bits as ``x1 y1 z1 x2 y2 z2 ... xd yd zd``
with x in the most significant slot of each triple, so integer order on
keys is z-order on cells and the eight children of any node occupy one
contiguous run of eight consecutive codes.

The library has one encoder: ``encode_cells`` / ``decode_cells``, vectorized
over numpy arrays of cells. A parent key is the code shifted right by one
triple. ``tests/oracles.py`` keeps a naive scalar reference for both.
"""

from __future__ import annotations

import numpy as np

# 3 * 21 = 63 bits: keys always fit one 64-bit word.
MAX_DEPTH = 21

_U = np.uint64
_MASK21 = _U(0x1FFFFF)
_S1 = _U(0x1F00000000FFFF)
_S2 = _U(0x1F0000FF0000FF)
_S3 = _U(0x100F00F00F00F00F)
_S4 = _U(0x10C30C30C30C30C3)
_S5 = _U(0x1249249249249249)


def _check_depth(depth: int) -> None:
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_DEPTH}], got {depth}")


def _spread(v: np.ndarray) -> np.ndarray:
    v = v & _MASK21
    v = (v | (v << _U(32))) & _S1
    v = (v | (v << _U(16))) & _S2
    v = (v | (v << _U(8))) & _S3
    v = (v | (v << _U(4))) & _S4
    v = (v | (v << _U(2))) & _S5
    return v


def _compact(v: np.ndarray) -> np.ndarray:
    v = v & _S5
    v = (v | (v >> _U(2))) & _S4
    v = (v | (v >> _U(4))) & _S3
    v = (v | (v >> _U(8))) & _S2
    v = (v | (v >> _U(16))) & _S1
    v = (v | (v >> _U(32))) & _MASK21
    return v


def encode_cells(cells: np.ndarray, depth: int) -> np.ndarray:
    """Vectorized encode of integer cells, shape (N, 3) -> uint64 codes."""
    _check_depth(depth)
    cells = np.asarray(cells)
    lim = 1 << depth
    if cells.size and (cells.min() < 0 or cells.max() >= lim):
        raise ValueError(f"cell coordinates out of [0, {lim})")
    c = cells.astype(np.uint64)
    return (
        (_spread(c[..., 0]) << _U(2))
        | (_spread(c[..., 1]) << _U(1))
        | _spread(c[..., 2])
    )


def decode_cells(codes: np.ndarray, depth: int) -> np.ndarray:
    """Vectorized decode: uint64 codes -> integer cells of shape (N, 3)."""
    _check_depth(depth)
    codes = np.asarray(codes, dtype=np.uint64)
    x = _compact(codes >> _U(2))
    y = _compact(codes >> _U(1))
    z = _compact(codes)
    return np.stack([x, y, z], axis=-1).astype(np.int64)
