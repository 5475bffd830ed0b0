"""Fixed-point-count window partition and windowed multi-head attention.

Features sorted along the z-order curve are padded to a multiple of K*D,
then regrouped into windows of exactly K tokens. Dilation D > 1 takes
every D-th token via a reshape-transpose, so every window still costs the
same K^2 attention. Padded slots are masked out of the softmax, which
keeps total complexity O(K^2 * N / K) — linear in N.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .octconv import depthwise_conv
from .octree import Octree, filter_and_pad_count
from .tensor import (
    DEFAULT_DTYPE,
    BatchNormState,
    Tensor,
    add,
    as_tensor,
    assert_finite,
    batch_norm,
    from_op,
    init_weight,
    matmul,
    mul,
    reshape,
    softmax,
    transpose,
)


@dataclass(frozen=True)
class PartitionPlan:
    """Reversible pad + regroup of N tokens into B windows of exactly K.

    Padded-sequence position ``span*k*d + i*d + j`` (0 <= i < k, 0 <= j < d)
    lands in window ``span*d + j``, slot ``i``: reshape to (spans, k, d),
    swap the last two axes, reshape to (b, k). For d == 1 this is plain
    chunking. Positions >= n are padding. ``padded`` is a multiple of k*d,
    at least the minimal one (:func:`make_plan`); windows past the minimal
    plan's are fully masked.
    """

    n: int
    k: int
    d: int
    padded: int

    def __post_init__(self):
        minimal = filter_and_pad_count(self.n, self.k, self.d)
        if self.padded < minimal or self.padded % (self.k * self.d) != 0:
            raise ValueError(f"padded must be a multiple of {self.k * self.d} "
                             f"and >= {minimal}, got {self.padded}")

    @property
    def b(self) -> int:
        return self.padded // self.k

    def to_windows(self, a: np.ndarray) -> np.ndarray:
        """(rows <= padded, ...) -> (b, k, ...); missing rows become zeros."""
        a = np.pad(a, [(0, self.padded - a.shape[0])] + [(0, 0)] * (a.ndim - 1))
        tail = a.shape[1:]
        grouped = a.reshape((-1, self.k, self.d) + tail).swapaxes(1, 2)
        return grouped.reshape((self.b, self.k) + tail)

    def from_windows(self, a: np.ndarray) -> np.ndarray:
        """(b, k, ...) -> (padded, ...); the inverse of :meth:`to_windows`."""
        tail = a.shape[2:]
        grouped = a.reshape((-1, self.d, self.k) + tail).swapaxes(1, 2)
        return grouped.reshape((self.padded,) + tail)

    def window_sources(self) -> np.ndarray:
        """For each flat window slot, the sequence position feeding it."""
        return self.to_windows(np.arange(self.padded)).reshape(-1)

    def window_of_position(self) -> np.ndarray:
        """Window id of every padded-sequence position."""
        return self.from_windows(np.arange(self.padded).reshape(self.b, self.k) // self.k)


def make_plan(n: int, k: int, d: int) -> PartitionPlan:
    """The minimal partition of n tokens, point number k, dilation d: padded
    to the smallest multiple of k*d covering n."""
    return PartitionPlan(n, k, d, filter_and_pad_count(n, k, d))


def apply_plan(x: Tensor, plan: PartitionPlan) -> Tensor:
    """(N, C) -> (B, K, C); padded slots become zero rows."""
    x = as_tensor(x)
    if x.shape[0] != plan.n:
        raise ShapeError(f"x has {x.shape[0]} rows, plan expects {plan.n}")
    return from_op(plan.to_windows(x.data), (x,),
                   lambda g: (plan.from_windows(g)[: plan.n],))


def reverse_plan(y: Tensor, plan: PartitionPlan) -> Tensor:
    """(B, K, C) -> (N, C): undo the regroup, drop the padded rows."""
    y = as_tensor(y)
    if y.shape[:2] != (plan.b, plan.k):
        raise ShapeError(f"y has shape {y.shape}, plan expects ({plan.b}, {plan.k}, C)")
    return from_op(plan.from_windows(y.data)[: plan.n], (y,),
                   lambda g: (plan.to_windows(g),))


def heads_for(channels: int) -> int:
    """The head count of attention over ``channels`` channels: the largest
    divisor of ``channels`` that is at most ``channels // 16`` (at least 1),
    so one head per 16 channels wherever that divides them."""
    cap = max(1, channels // 16)
    return max(h for h in range(1, cap + 1) if channels % h == 0)


@dataclass
class AttentionParams:
    """Projection weights for multi-head scaled dot-product attention."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    heads: int
    head_dim: int

    @classmethod
    def init(cls, channels: int, heads: int, rng: np.random.Generator | None,
             dtype=None) -> "AttentionParams":
        if channels % heads != 0:
            raise ConfigError(f"channels {channels} not divisible by heads {heads}")
        head_dim = channels // heads
        shape = (channels, heads * head_dim)
        return cls(
            w_q=init_weight(shape, rng, dtype),
            w_k=init_weight(shape, rng, dtype),
            w_v=init_weight(shape, rng, dtype),
            w_o=init_weight((heads * head_dim, channels), rng, dtype),
            heads=heads,
            head_dim=head_dim,
        )


MASK_LOGIT = -1e9  # additive mask; large enough to underflow to 0 in softmax


def windowed_attention(x: Tensor, plan: PartitionPlan,
                       params: AttentionParams) -> Tensor:
    """Masked multi-head self-attention within each window of the plan.

    Padded keys get an additive -1e9 logit (excluded from the softmax up
    to underflow); padded query rows are dropped by the reverse partition.
    A plan with no padding adds no mask: adding +0.0 would only turn a -0.0
    score into +0.0, which the softmax maps to the same values.
    """
    x = as_tensor(x)
    if x.shape[0] != plan.n:
        raise ShapeError(f"x has {x.shape[0]} rows, plan expects {plan.n}")
    assert_finite(x, "windowed_attention input")
    b, k = plan.b, plan.k
    h, dh = params.heads, params.head_dim

    def split_heads(t: Tensor) -> Tensor:
        """(B*K, H*dh) -> (B, H, K, dh)."""
        return transpose(reshape(t, (b, k, h, dh)), (0, 2, 1, 3))

    flat = reshape(apply_plan(x, plan), (b * k, x.shape[1]))  # (B*K, C) windows
    q = split_heads(matmul(flat, params.w_q))
    key = split_heads(matmul(flat, params.w_k))
    val = split_heads(matmul(flat, params.w_v))
    del flat  # untaped, the padded windows die here

    # One name, rebound at each op, holds the (B, H, K, K) arrays, so untaped
    # each one dies as soon as the next op has read it: the scores in the mask
    # add, the masked scores in the softmax, and the probabilities in the
    # context matmul. q and key die after the scores, val after the context.
    attn = matmul(mul(q, 1.0 / np.sqrt(dh)), transpose(key, (0, 1, 3, 2)))
    del q, key
    if plan.padded > plan.n:
        pad = (plan.window_sources() >= plan.n).reshape(b, k)
        bias = np.where(pad[:, None, None, :], MASK_LOGIT, 0.0).astype(x.dtype)
        attn = add(attn, Tensor(bias))
    attn = softmax(attn)
    ctx = matmul(attn, val)                             # (B, H, K, dh)
    del attn, val
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (b * k, h * dh))
    out = reshape(matmul(ctx, params.w_o), (b, k, x.shape[1]))
    return reverse_plan(out, plan)


@dataclass
class CpeParams:
    """Depthwise 3^3 stencil + batch norm; initialized to the identity."""

    kernel: Tensor  # (27, C)
    bn: BatchNormState

    @classmethod
    def init(cls, channels: int) -> "CpeParams":
        return cls(Tensor(np.zeros((27, channels), dtype=DEFAULT_DTYPE)),
                   BatchNormState.create(channels))


def conditional_positional_encoding(x: Tensor, octree: Octree, depth: int,
                                    cpe: CpeParams, training: bool) -> Tensor:
    """x + batch_norm(depthwise_conv(x)); absent neighbors contribute zero."""
    x = as_tensor(x)
    if x.shape[0] != octree.node_count(depth):
        raise ShapeError(
            f"x has {x.shape[0]} rows, depth {depth} has {octree.node_count(depth)} nodes"
        )
    # untaped, the norm runs in place on the conv's output and x is added into it
    encoded = batch_norm(depthwise_conv(x, octree, depth, cpe.kernel), cpe.bn, training,
                         overwrite_x=True)
    return add(x, encoded, overwrite_b=True)


def plan_to_csv(plan: PartitionPlan) -> str:
    """Debug dump: one row per (window, slot) with source position or -1."""
    src = plan.window_sources()
    pad = src >= plan.n
    buf = io.StringIO()
    buf.write("window,slot,source_index,is_pad\n")
    for flat in range(plan.padded):
        w, s = divmod(flat, plan.k)
        source = -1 if pad[flat] else int(src[flat])
        buf.write(f"{w},{s},{source},{int(pad[flat])}\n")
    return buf.getvalue()
