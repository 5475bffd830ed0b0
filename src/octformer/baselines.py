"""Reference attention baselines: global dense, cubic windows, k-NN sliding.

These exist for correctness cross-checks and efficiency comparisons; they
run in plain numpy (forward only, no tape) and intentionally avoid the
batching tricks that make the octree window attention fast. The k-NN
baseline's neighbours are exact: one cube search around each node, and a
scan of every node for the few whose neighbours are far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import morton
from .errors import ConfigError, ShapeError
from .octree import Octree
from .partition import AttentionParams
from .tensor import Tensor, as_tensor, row_blocks

GLOBAL_ATTENTION_GUARD = 4096


def _heads_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                   heads: int) -> np.ndarray:
    """Dense multi-head attention over one token group; 2-D inputs."""
    n, proj = q.shape
    dh = proj // heads
    qh = q.reshape(n, heads, dh).transpose(1, 0, 2)
    kh = k.reshape(n, heads, dh).transpose(1, 0, 2)
    vh = v.reshape(n, heads, dh).transpose(1, 0, 2)
    logits = qh @ kh.transpose(0, 2, 1) / np.sqrt(dh)
    logits -= logits.max(axis=2, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=2, keepdims=True)
    ctx = w @ vh
    return ctx.transpose(1, 0, 2).reshape(n, proj)


def global_attention(x: Tensor, params: AttentionParams) -> Tensor:
    """Scaled dot-product attention with a single window over all tokens."""
    x = as_tensor(x)
    n = x.shape[0]
    if n > GLOBAL_ATTENTION_GUARD:
        raise ConfigError(
            f"global attention guarded at N <= {GLOBAL_ATTENTION_GUARD}, got {n}")
    q = x.data @ params.w_q.data
    k = x.data @ params.w_k.data
    v = x.data @ params.w_v.data
    ctx = _heads_forward(q, k, v, params.heads)
    return Tensor(ctx @ params.w_o.data)


@dataclass
class CubicPartition:
    """Nodes grouped by fixed-size 3D cubes; counts vary per bucket."""

    window_size: int
    buckets: list[tuple[tuple[int, int, int], np.ndarray]]


def cubic_partition(octree: Octree, depth: int, window_size: int) -> CubicPartition:
    """Group nodes by floor-division of their coordinates by window_size."""
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    coords = octree.coords(depth)
    cube = coords // window_size
    # order buckets along the z-order of cube ids for determinism
    cube_bits = max(int(cube.max()).bit_length(), 1) if cube.size else 1
    cube_keys = morton.encode_cells(cube, min(cube_bits, morton.MAX_DEPTH))
    order = np.argsort(cube_keys, kind="stable")
    sorted_keys = cube_keys[order]
    boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
    groups = np.split(order, boundaries)
    buckets = [(tuple(int(v) for v in cube[g[0]]), np.sort(g)) for g in groups]
    return CubicPartition(window_size, buckets)


def cubic_window_attention(x: Tensor, partition: CubicPartition,
                           params: AttentionParams) -> Tensor:
    """Dense attention inside each variable-size cubic bucket."""
    x = as_tensor(x)
    out = np.empty((x.shape[0], params.w_o.shape[1]), dtype=x.dtype)
    wq, wk, wv, wo = (params.w_q.data, params.w_k.data, params.w_v.data,
                      params.w_o.data)
    for _, idx in partition.buckets:
        rows = x.data[idx]
        ctx = _heads_forward(rows @ wq, rows @ wk, rows @ wv, params.heads)
        out[idx] = ctx @ wo
    return Tensor(out)


def _cube_offsets(radius: int) -> tuple[np.ndarray, np.ndarray]:
    side = np.arange(-radius, radius + 1)
    grid = np.stack(np.meshgrid(side, side, side, indexing="ij"), axis=-1)
    offsets = grid.reshape(-1, 3)
    d2 = (offsets**2).sum(axis=1)
    order = np.argsort(d2, kind="stable")
    return offsets[order], d2[order]


def knn_indices(octree: Octree, depth: int, k: int) -> np.ndarray:
    """Exact k nearest nodes per node: squared Euclidean distance on cell
    coordinates, ties broken by node index, self included.

    One search. A cube around each query grows a radius at a time while it
    holds fewer cells than there are nodes; a query is settled once its k-th
    distance beats every cell outside the cube. Queries still pending when
    the cube would hold n cells or more (their k-th neighbour is far) scan
    all n nodes instead, so no search costs more than an all-pairs row.
    """
    coords = octree.coords(depth)
    n = coords.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k_neighbors {k} outside [1, node count {n}]")
    out = np.empty((n, k), dtype=np.int64)
    pending = np.arange(n)
    radius = 1
    while (2 * radius + 1) ** 3 < k:  # smallest cube that can hold k candidates
        radius += 1
    while pending.size and (2 * radius + 1) ** 3 < n:
        offsets, d2 = _cube_offsets(radius)
        # composite key d2*n + index: distance first, node index second. The
        # cube has fewer than n cells, so d2 <= 3r^2 < n and no key overflows.
        # A key below `bound` is a hit at distance below (r+1)^2, closer than
        # any cell outside the cube; empty cells get `bound` itself.
        bound = (radius + 1) ** 2 * n
        settled = np.zeros(pending.size, dtype=bool)
        for blk in row_blocks(pending.size, d2.size):
            rows = pending[blk]
            hit = octree.neighbors(depth, coords[rows], offsets)
            top = np.partition(np.where(hit >= 0, d2 * n + hit, bound), k - 1,
                               axis=1)[:, :k]
            done = top[:, k - 1] < bound
            out[rows[done]] = np.sort(top[done], axis=1) % n
            settled[blk] = done
        pending = pending[~settled]
        radius += 1
    for blk in row_blocks(pending.size, n):
        rows = pending[blk]
        d2 = ((coords[rows, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
        out[rows] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out


def knn_sliding_attention(x: Tensor, octree: Octree, depth: int, k_neighbors: int,
                          params: AttentionParams) -> Tensor:
    """Per-token attention over its k nearest nodes, recomputed per token.

    Deliberately shares no computation between overlapping neighborhoods;
    this is the slow sliding-window baseline. Tokens run in
    :func:`row_blocks` of their (k, C) gathers.
    """
    x = as_tensor(x)
    n = x.shape[0]
    if x.shape[0] != octree.node_count(depth):
        raise ShapeError("x rows must match the node count at depth")
    neighbors = knn_indices(octree, depth, k_neighbors)
    heads, dh = params.heads, params.head_dim
    proj = heads * dh
    out = np.empty((n, params.w_o.shape[1]), dtype=x.dtype)
    for rows in row_blocks(n, k_neighbors * x.shape[1]):
        gathered = x.data[neighbors[rows]]          # (m, k, C)
        m, k, _ = gathered.shape
        q = (x.data[rows] @ params.w_q.data).reshape(m, heads, dh)
        kk = (gathered.reshape(m * k, -1) @ params.w_k.data).reshape(m, k, heads, dh)
        vv = (gathered.reshape(m * k, -1) @ params.w_v.data).reshape(m, k, heads, dh)
        logits = np.einsum("mhd,mkhd->mhk", q, kk, optimize=True) / np.sqrt(dh)
        logits -= logits.max(axis=2, keepdims=True)
        w = np.exp(logits)
        w /= w.sum(axis=2, keepdims=True)
        ctx = np.einsum("mhk,mkhd->mhd", w, vv, optimize=True).reshape(m, proj)
        out[rows] = ctx @ params.w_o.data
    return Tensor(out)
