"""Sparse convolutions over octree node arrays.

Every variant sums one contraction per tap of a fixed footprint:

* stride 1: anchored at each node of the input depth, output at the same
  nodes;
* stride 2: anchored at the even-coordinate child (2x the parent coords),
  output at the non-empty parents one depth up.

Kernel 3 uses the 27 offsets in {-1,0,1}^3, kernel 2 the 8 offsets in
{0,1}^3, both ordered with dz fastest (z-order over offsets). Absent
neighbors contribute zero, matching dense zero padding.

Tap t adds ``x[in_rows] @ W[t]`` (dense) or ``x[in_rows] * w[t]``
(depthwise) into ``out[out_rows]``, so no (N_out, taps, C) gather is built.
The forward runs each tap's pairs in ``tensor.row_blocks`` of its products,
so the gather, the product and the ``out[out_rows]`` read are block-sized;
the bits are those of the unblocked expression. Within a tap distinct
outputs read distinct inputs, so backward scatters into ``gx[in_rows]`` with
plain fancy indexing. Each footprint's per-tap int32 row pairs are built once
and cached, read-only, on the ``Octree`` as :class:`~octformer.octree.Taps`;
no (N_out, taps) table is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .octree import Octree, Taps
from .tensor import (
    BatchNormState,
    Tensor,
    batch_norm,
    fill_rows,
    from_op,
    init_weight,
    relu,
    row_blocks,
    taping,
)


@dataclass
class ConvSpec:
    """One convolution: footprint, channel map, and its weight tensor."""

    kernel: int
    stride: int
    in_channels: int
    out_channels: int
    weights: Tensor
    depthwise: bool = False

    def __post_init__(self):
        if self.kernel not in (2, 3):
            raise ConfigError(f"kernel must be 2 or 3, got {self.kernel}")
        if self.stride not in (1, 2):
            raise ConfigError(f"stride must be 1 or 2, got {self.stride}")
        taps = self.kernel**3
        if self.depthwise:
            if self.in_channels != self.out_channels:
                raise ConfigError("depthwise conv needs in_channels == out_channels")
            expect = (taps, self.in_channels)
        else:
            expect = (taps, self.in_channels, self.out_channels)
        if self.weights.shape != expect:
            raise ShapeError(f"conv weights must be {expect}, got {self.weights.shape}")

    @classmethod
    def init(cls, kernel: int, stride: int, in_channels: int, out_channels: int,
             rng: np.random.Generator | None) -> "ConvSpec":
        return cls(kernel, stride, in_channels, out_channels,
                   init_weight((kernel**3, in_channels, out_channels), rng))


def conv_indices(octree: Octree, depth: int, kernel: int, stride: int) -> np.ndarray:
    """Tap table (N_out, taps) into the depth-``depth`` node array, built anew.
    The convs call this and drop the table at once only because perfbench's
    tracer patches this name to time the taps and count their fill; ROADMAP
    item 1 deletes those calls."""
    return octree.tap_table(depth, kernel, stride).table()


def _conv_rows(xd: np.ndarray, pairs, w: np.ndarray, depthwise: bool, n_out: int,
               part: slice | None = None) -> np.ndarray:
    """Output rows ``part`` (by default all ``n_out``) of the conv, each tap's
    pairs in :func:`row_blocks` of its products. A tap's rows are sorted, so
    its pairs with rows in ``part`` are a ``searchsorted`` range."""
    start, stop = (0, n_out) if part is None else (part.start, part.stop)
    out = np.zeros((stop - start, w.shape[-1]), dtype=np.result_type(xd, w))
    for (rows, cols), wt in zip(pairs, w):
        if part is not None:
            lo, hi = np.searchsorted(rows, (start, stop))
            rows, cols = rows[lo:hi] - start, cols[lo:hi]
        for blk in row_blocks(rows.shape[0], out.shape[1]):
            r, c = rows[blk], cols[blk]
            y = np.take(xd, c, axis=0)
            if depthwise:  # in place unless wt promotes the product
                y = np.multiply(y, wt, out=y if y.dtype == out.dtype else None)
            else:
                y = y @ wt
            y += np.take(out, r, axis=0)  # the bits of out[r] += ...: IEEE + commutes
            out[r] = y
    return out


def gathered_conv(x: Tensor, idx: Taps, weights: Tensor, depthwise: bool,
                  then=None, blocks: list[slice] | None = None) -> Tensor:
    """Per-tap contractions over a footprint's pairs ``idx``, as one taped op.

    ``then(conv)`` is returned for a row-local ``then`` (the head's MLP), with
    its bits when ``then`` keeps them over the row ``blocks`` of the output
    (by default one block). Untaped, each block of output rows is convolved
    and passed through ``then`` on its own, so no full-size conv output exists.
    """
    pairs, n = idx.pairs, idx.n_out
    xd, w = x.data, weights.data
    if then is not None and not taping():
        return Tensor(fill_rows(n, blocks or [slice(0, n)], lambda blk: then(
            Tensor(_conv_rows(xd, pairs, w, depthwise, n, blk))).data))
    out = _conv_rows(xd, pairs, w, depthwise, n)

    def vjp(g):
        gx = np.zeros(xd.shape, dtype=g.dtype)
        gw = np.empty_like(w)
        for t, ((rows, cols), wt) in enumerate(zip(pairs, w)):
            gt, xt = np.take(g, rows, axis=0), np.take(xd, cols, axis=0)
            gw[t] = np.einsum("nc,nc->c", xt, gt) if depthwise else xt.T @ gt
            y = gt * wt if depthwise else gt @ wt.T
            y += np.take(gx, cols, axis=0)
            gx[cols] = y
        return gx, gw

    conv = from_op(out, (x, weights), vjp)
    return conv if then is None else then(conv)


def octree_conv(x: Tensor, octree: Octree, depth: int, spec: ConvSpec, then=None,
                blocks: list[slice] | None = None) -> Tensor:
    """Sparse convolution at ``depth``; stride 2 emits depth - 1 features.
    ``then`` and ``blocks`` are :func:`gathered_conv`'s."""
    n_in = octree.node_count(depth)
    if x.shape[0] != n_in:
        raise ShapeError(f"x has {x.shape[0]} rows, depth {depth} has {n_in} nodes")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(f"x has {x.shape[1]} channels, spec wants {spec.in_channels}")
    conv_indices(octree, depth, spec.kernel, spec.stride)  # dropped at once; see there
    return gathered_conv(x, octree.tap_table(depth, spec.kernel, spec.stride),
                         spec.weights, spec.depthwise, then, blocks)


def depthwise_conv(x: Tensor, octree: Octree, depth: int, kernel: Tensor) -> Tensor:
    """3^3 depthwise stencil used by the conditional positional encoding."""
    if kernel.shape != (27, x.shape[1]):
        raise ShapeError(f"depthwise kernel must be (27, {x.shape[1]})")
    conv_indices(octree, depth, 3, 1)  # dropped at once; see there
    return gathered_conv(x, octree.tap_table(depth, 3, 1), kernel, depthwise=True)


@dataclass
class ConvBnParams:
    """A dense conv and the batch norm after it: an embedding module or a
    stage downsample."""

    conv: ConvSpec
    bn: BatchNormState

    @classmethod
    def init(cls, kernel: int, stride: int, in_channels: int, out_channels: int,
             rng: np.random.Generator | None) -> "ConvBnParams":
        conv = ConvSpec.init(kernel, stride, in_channels, out_channels, rng)
        return cls(conv, BatchNormState.create(out_channels))


@dataclass
class EmbeddingParams:
    """Five conv/BN/ReLU modules, kernels {3,2,3,2,3}, strides {1,2,1,2,1}."""

    modules: list[ConvBnParams] = field(default_factory=list)

    KERNELS = (3, 2, 3, 2, 3)
    STRIDES = (1, 2, 1, 2, 1)

    @classmethod
    def init(cls, in_channels: int, channels: int,
             rng: np.random.Generator | None) -> "EmbeddingParams":
        modules = []
        c_in = in_channels
        for kernel, stride in zip(cls.KERNELS, cls.STRIDES):
            modules.append(ConvBnParams.init(kernel, stride, c_in, channels, rng))
            c_in = channels
        return cls(modules)


def embedding_stack(x: Tensor, octree: Octree, depth: int,
                    params: EmbeddingParams, training: bool) -> Tensor:
    """Project leaf features to the working width and downsample 4x."""
    if depth < 3:
        raise ConfigError("embedding needs an octree at least 3 levels deep")
    cur_depth = depth
    for mod in params.modules:
        x = octree_conv(x, octree, cur_depth, mod.conv)
        if mod.conv.stride == 2:
            cur_depth -= 1
        # untaped, the norm and the ReLU run in place on the conv's output
        x = relu(batch_norm(x, mod.bn, training, overwrite_x=True), overwrite_x=True)
    return x


def downsample(x: Tensor, octree: Octree, depth: int, params: ConvBnParams,
               training: bool) -> Tensor:
    """Kernel-2 stride-2 conv + BN; output lives at depth - 1. Untaped, the
    norm runs in place on the conv's output."""
    x = octree_conv(x, octree, depth, params.conv)
    return batch_norm(x, params.bn, training, overwrite_x=True)
