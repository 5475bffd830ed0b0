"""Octrees over quantized point clouds.

An octree here is the set of *non-empty* cells at every depth, each level
stored as a strictly increasing array of shuffled keys. Construction is a
sort + dedup of max-depth keys followed by repeated parent derivation, so
the result is a pure function of the occupied cell set.

Each conv footprint is cached as :class:`Taps`, per tap the int32 (output
row, input row) pairs of the present neighbours. The (N_out, taps) table they
come from is dropped once built; :meth:`Taps.table` builds it anew.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field

import numpy as np

from . import morton
from .errors import ConfigError, DataError
from .tensor import Tensor

OCTREE_MAGIC = b"OCTF"
OCTREE_VERSION = 1


@dataclass
class QuantizedCloud:
    """A point cloud normalized into the unit cube, plus octree depth.

    ``positions`` are unitless coordinates in [0, 1)^3; the voxel size at
    the octree's max depth is 1 / 2**depth of the cube edge. ``origin``
    and ``scale`` record how raw coordinates were normalized so outputs
    can be mapped back.
    """

    positions: np.ndarray
    depth: int
    colors: np.ndarray | None = None
    normals: np.ndarray | None = None
    origin: np.ndarray | None = None
    scale: float | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise DataError("positions must have shape (N, 3)")
        if not 1 <= self.depth <= morton.MAX_DEPTH:
            raise ConfigError(f"octree depth must be in [1, {morton.MAX_DEPTH}]")
        if self.positions.shape[0] == 0:
            raise DataError("empty point cloud")
        if not np.isfinite(self.positions).all():
            raise DataError("positions contain non-finite values")
        if self.positions.min() < 0.0 or self.positions.max() >= 1.0:
            raise DataError("positions must lie in [0, 1)^3")
        for name in ("colors", "normals"):
            attr = getattr(self, name)
            if attr is not None:
                attr = np.asarray(attr, dtype=np.float64)
                if attr.shape != self.positions.shape:
                    raise DataError(f"{name} must match positions in shape")
                setattr(self, name, attr)

    @property
    def num_points(self) -> int:
        return self.positions.shape[0]

    def cells(self) -> np.ndarray:
        """Integer cell coordinates of every point at the max depth."""
        scale = float(1 << self.depth)
        c = np.floor(self.positions * scale).astype(np.int64)
        # guard against float round-up at the open boundary
        return np.clip(c, 0, (1 << self.depth) - 1)


def kernel_offsets(kernel: int) -> np.ndarray:
    """(kernel**3, 3) tap offsets: {-1,0,1}^3 for 3, {0,1}^3 for 2, dz fastest."""
    if kernel not in (2, 3):
        raise ValueError(f"kernel must be 2 or 3, got {kernel}")
    span = np.arange(kernel) - (kernel == 3)
    return np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)


def tap_recurrence(kernel: int) -> tuple[np.ndarray, np.ndarray]:
    """(8, kernel**3) parent taps P and child slots S of every (slot, tap).

    A cell in slot s (bits x, y, z, x most significant) of its parent, moved
    by tap t's offset, lands in child slot ``S[s, t]`` of the parent's k3
    neighbour ``P[s, t]``: per axis, bit + offset is in [-1, 2], its floor
    half is the parent offset and its low bit the child bit.
    """
    moved = kernel_offsets(2)[:, None, :] + kernel_offsets(kernel)
    return (moved >> 1) @ np.array([9, 3, 1]) + 13, (moved & 1) @ np.array([4, 2, 1])


@dataclass(frozen=True, eq=False)
class Taps:
    """A conv footprint's taps into ``n_out`` output rows: ``pairs[t]`` holds
    tap t's present entries as read-only int32 ``(out_rows, in_rows)``, the
    output rows sorted. Anchors shifted by one offset stay distinct, so each
    tap's input rows are too."""

    n_out: int
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_out, len(self.pairs)

    def table(self) -> np.ndarray:
        """Read-only (n_out, taps) int32 table, built anew; -1 where empty."""
        table = np.full(self.shape, -1, dtype=np.int32)
        for t, (rows, cols) in enumerate(self.pairs):
            table[rows, t] = cols
        table.setflags(write=False)
        return table


@dataclass
class Octree:
    """Per-depth sorted key arrays with parent/child index maps. Every index
    array (parents, point assignment, child tables and tap pairs) is int32; the
    children of node i at depth l are the nodes whose ``keys[l+1] >> 3`` is
    ``keys[l][i]``, a contiguous run."""

    depth: int
    keys: list[np.ndarray | None]          # keys[l] for l in [1, depth]
    parent_index: list[np.ndarray | None]  # (N_l,) indices into keys[l-1]
    point_assignment: np.ndarray           # (P,) leaf index at max depth
    _coords: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _taps: dict[tuple[int, int, int], Taps] = field(default_factory=dict, repr=False)
    _child_tables: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def node_count(self, depth: int) -> int:
        self._check_depth(depth)
        return int(self.keys[depth].shape[0])

    def coords(self, depth: int) -> np.ndarray:
        """Decoded integer coordinates of the nodes at ``depth``, cached."""
        self._check_depth(depth)
        if depth not in self._coords:
            self._coords[depth] = morton.decode_cells(self.keys[depth], depth)
        return self._coords[depth]

    def tap_table(self, depth: int, kernel: int, stride: int) -> Taps:
        """Conv taps into the depth-``depth`` nodes, built once. Stride 1 anchors
        at those nodes; stride 2 at twice the coordinates of their parents."""
        key = (depth, kernel, stride)
        if key not in self._taps:
            self._build_taps(depth, kernel, stride)
        return self._taps[key]

    def _build_taps(self, depth: int, kernel: int, stride: int) -> np.ndarray:
        """Cache the taps of one footprint; return the table built on the way,
        which the caller drops.

        No key search: a cell's neighbour is a child of its parent's
        neighbour, so ``table[a, t] = children[up[q, P[s, t]], S[s, t]]`` with
        ``up`` the k3 stride-1 table one depth up (a centre-only virtual root
        above depth 1), ``children`` the by-slot child table of that depth,
        ``q``/``s`` the anchor's parent and slot (stride 2: the output node and
        slot 0) and ``P``/``S`` from :func:`tap_recurrence`. ``up`` is rebuilt
        from its cached taps, or is the table that building them returned.
        """
        self._check_depth(depth)
        if stride not in (1, 2) or depth < stride:
            raise ValueError(f"stride {stride} is not 1, or 2 at depth >= 2")
        parent_of, slot_of = tap_recurrence(kernel)
        children = self._children(depth - 1)
        if (kernel, stride) == (2, 2):
            table = children[:-1]  # children by slot are the k2 stride-2 taps
        else:
            if depth == 1:
                up = _ROOT_TAPS
            elif (depth - 1, 3, 1) in self._taps:
                up = self._taps[depth - 1, 3, 1].table()
            else:
                up = self._build_taps(depth - 1, 3, 1)
            if stride == 1:  # one anchor slot at a time: (N_s, taps) temporaries
                slots = self.keys[depth] & np.uint64(7)
                q = self.parent_index[depth] if depth > 1 else np.zeros(slots.shape, np.int32)
                table = np.empty((slots.shape[0], kernel**3), np.int32)
                for s in range(8):
                    rows = np.flatnonzero(slots == s)
                    table[rows] = children[up[q[rows, None], parent_of[s]], slot_of[s]]
            else:
                table = children[up[:, parent_of[0]], slot_of[0]]
        rows = [np.flatnonzero(col >= 0).astype(np.int32) for col in table.T]
        pairs = tuple((r, col[r]) for r, col in zip(rows, table.T))
        for arr in itertools.chain(*pairs):
            arr.setflags(write=False)
        self._taps[depth, kernel, stride] = Taps(table.shape[0], pairs)
        return table

    def _children(self, depth: int) -> np.ndarray:
        """(N_depth + 1, 8) child indices by slot of the depth-``depth`` nodes
        (depth 0: the root), -1 where absent; the extra last row is all -1 so
        that an absent neighbour (-1) propagates. Cached, read-only."""
        if depth not in self._child_tables:
            n = self.node_count(depth) if depth else 1
            children = np.full((n + 1, 8), -1, dtype=np.int32)
            below = self.keys[depth + 1]
            parents = self.parent_index[depth + 1] if depth else 0
            children[parents, (below & np.uint64(7)).astype(np.intp)] = np.arange(below.shape[0])
            children.setflags(write=False)
            self._child_tables[depth] = children
        return self._child_tables[depth]

    def neighbors(self, depth: int, anchors: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """(N, T) node indices at ``depth`` of ``anchors + offsets``; -1 where empty."""
        self._check_depth(depth)
        cells = anchors[:, None, :] + offsets
        inside = ((cells >= 0) & (cells < (1 << depth))).all(axis=2)
        keys, codes = self.keys[depth], morton.encode_cells(cells[inside], depth)
        pos = np.minimum(np.searchsorted(keys, codes), keys.shape[0] - 1)
        table = np.full(inside.shape, -1, dtype=np.int64)
        table[inside] = np.where(keys[pos] == codes, pos, -1)
        return table

    def _check_depth(self, depth: int) -> None:
        if not 1 <= depth <= self.depth:
            raise ValueError(f"depth {depth} out of [1, {self.depth}]")


_ROOT_TAPS = np.where(np.arange(27) == 13, 0, -1)[None]  # depth 0: centre tap only


def build_octree(cloud: QuantizedCloud) -> Octree:
    """Sort + dedup quantized cells, then derive every coarser level."""
    if cloud.num_points >= 1 << 31:
        raise DataError(f"{cloud.num_points} points: int32 octree indices address "
                        "fewer than 2^31")
    d = cloud.depth
    point_keys = morton.encode_cells(cloud.cells(), d)
    keys: list[np.ndarray | None] = [None] * (d + 1)
    keys[d] = np.unique(point_keys)
    for level in range(d - 1, 0, -1):
        keys[level] = np.unique(keys[level + 1] >> np.uint64(3))

    parent_index: list[np.ndarray | None] = [None] * (d + 1)
    for level in range(2, d + 1):
        parent_index[level] = np.searchsorted(
            keys[level - 1], keys[level] >> np.uint64(3)
        ).astype(np.int32)

    assignment = np.searchsorted(keys[d], point_keys).astype(np.int32)
    return Octree(d, keys, parent_index, assignment)


def init_leaf_features(
    octree: Octree,
    cloud: QuantizedCloud,
    use_color: bool = False,
    use_normal: bool = False,
    use_position: bool = True,
) -> Tensor:
    """Per-leaf means of the selected point signals.

    Position channels are the mean point offset from the leaf voxel
    center, in voxel units; color and normal channels are plain means.
    Channel order is position, color, normal for whichever are enabled.
    """
    if use_color and cloud.colors is None:
        raise ConfigError("cloud has no colors")
    if use_normal and cloud.normals is None:
        raise ConfigError("cloud has no normals")
    if not (use_color or use_normal or use_position):
        raise ConfigError("no feature channels selected")

    parts = []
    if use_position:
        scale = float(1 << cloud.depth)
        frac = cloud.positions * scale - cloud.cells().astype(np.float64)
        parts.append(frac - 0.5)
    if use_color:
        parts.append(cloud.colors)
    if use_normal:
        parts.append(cloud.normals)
    signal = np.concatenate(parts, axis=1)

    n_leaf = octree.node_count(octree.depth)
    sums = np.zeros((n_leaf, signal.shape[1]), dtype=np.float64)
    np.add.at(sums, octree.point_assignment, signal)
    counts = np.bincount(octree.point_assignment, minlength=n_leaf).astype(np.float64)
    return Tensor(sums / counts[:, None])


def filter_and_pad_count(n: int, k: int, d: int) -> int:
    """Smallest multiple of k*d that is >= n (0 stays 0)."""
    if n < 0 or k < 1 or d < 1:
        raise ValueError("need n >= 0, k >= 1, d >= 1")
    group = k * d
    return ((n + group - 1) // group) * group


def dump_octree(octree: Octree, path: str) -> None:
    """Write the per-depth key arrays in the binary interchange layout."""
    with open(path, "wb") as f:
        f.write(OCTREE_MAGIC)
        f.write(struct.pack("<II", OCTREE_VERSION, octree.depth))
        for level in range(1, octree.depth + 1):
            keys = octree.keys[level]
            f.write(struct.pack("<Q", keys.shape[0]))
            f.write(keys.astype("<u8").tobytes())

