"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (loops, dense arrays, 64-bit) and
shares no code with the library paths it checks. The dense attention and
convolution references live in ``octformer.selftest``, which the built-in
``selftest`` command also runs, and are re-exported here. The last section
holds small helpers that only the tests need, built on the public surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from octformer.morton import MAX_DEPTH
from octformer.network import MLP_RATIO, backbone_apply, trainable_parameters
from octformer.octree import QuantizedCloud, build_octree, init_leaf_features
from octformer.partition import heads_for
from octformer.selftest import dense_conv3d, dense_masked_attention  # noqa: F401


# -- scalar shuffled keys: the reference for morton.encode_cells/decode_cells ------

def _check_depth(depth: int) -> None:
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_DEPTH}], got {depth}")


@dataclass(frozen=True, slots=True)
class Key:
    """A shuffled key: interleaved-bit code plus the depth it lives at."""

    code: int
    depth: int

    def __post_init__(self):
        _check_depth(self.depth)
        if not 0 <= self.code < 8**self.depth:
            raise ValueError(
                f"code {self.code} out of range for depth {self.depth}"
            )


def encode(x: int, y: int, z: int, depth: int) -> Key:
    """Interleave coordinate bits into a shuffled key (x in the high slot)."""
    _check_depth(depth)
    lim = 1 << depth
    if not (0 <= x < lim and 0 <= y < lim and 0 <= z < lim):
        raise ValueError(f"coordinate ({x}, {y}, {z}) out of [0, {lim})")
    code = 0
    for j in range(depth):
        code |= ((x >> j) & 1) << (3 * j + 2)
        code |= ((y >> j) & 1) << (3 * j + 1)
        code |= ((z >> j) & 1) << (3 * j)
    return Key(code, depth)


def decode(key: Key) -> tuple[int, int, int]:
    """Exact inverse of :func:`encode`."""
    x = y = z = 0
    for j in range(key.depth):
        x |= ((key.code >> (3 * j + 2)) & 1) << j
        y |= ((key.code >> (3 * j + 1)) & 1) << j
        z |= ((key.code >> (3 * j)) & 1) << j
    return x, y, z


def parent_key(key: Key) -> Key:
    """Drop the lowest coordinate triple; depth decreases by one."""
    if key.depth < 2:
        raise ValueError("a depth-1 node has no parent at node level")
    return Key(key.code >> 3, key.depth - 1)


def child_keys(key: Key) -> list[Key]:
    """The eight children: one contiguous code run at depth + 1."""
    if key.depth >= MAX_DEPTH:
        raise ValueError(f"children would exceed max depth {MAX_DEPTH}")
    base = key.code << 3
    return [Key(base + o, key.depth + 1) for o in range(8)]


def neighbor_key(key: Key, dx: int, dy: int, dz: int) -> Key | None:
    """Key of the cell offset by (dx, dy, dz); None when out of bounds."""
    x, y, z = decode(key)
    x, y, z = x + dx, y + dy, z + dz
    lim = 1 << key.depth
    if not (0 <= x < lim and 0 <= y < lim and 0 <= z < lim):
        return None
    return encode(x, y, z, key.depth)


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product."""
    m, k = a.shape
    k2, p = b.shape
    assert k == k2
    out = np.zeros((m, p), dtype=np.float64)
    for i in range(m):
        for j in range(p):
            s = 0.0
            for t in range(k):
                s += float(a[i, t]) * float(b[t, j])
            out[i, j] = s
    return out


def finite_difference(f, x: np.ndarray, step: float = 1e-5,
                      samples: np.ndarray | None = None) -> np.ndarray:
    """Central finite differences of scalar f at x.

    With ``samples`` (flat indices) only those entries are probed and the
    rest of the returned gradient is NaN.
    """
    x = x.astype(np.float64)
    grad = np.full(x.size, np.nan)
    flat_indices = range(x.size) if samples is None else samples
    flat = x.reshape(-1).copy()
    for i in flat_indices:
        orig = flat[i]
        flat[i] = orig + step
        fp = f(flat.reshape(x.shape))
        flat[i] = orig - step
        fm = f(flat.reshape(x.shape))
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * step)
    return grad.reshape(x.shape)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def grads_close(analytic: np.ndarray, fd: np.ndarray, rtol: float = 1e-4,
                atol: float = 1e-6) -> bool:
    """Per-entry gradient agreement: relative within rtol, or both below
    the finite-difference noise floor atol."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(fd, dtype=np.float64).ravel()
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    return bool(((diff <= atol) | (diff <= rtol * scale)).all())


def finite_difference_filtered(f, x: np.ndarray, samples: np.ndarray,
                               steps=(1e-5, 1e-6)):
    """Central differences at two step sizes; probes where the two
    estimates disagree sit near a non-differentiable point (ReLU kink)
    and are reported invalid. Returns (fd, valid) over the samples."""
    fd_a = finite_difference(f, x, step=steps[0], samples=samples).reshape(-1)
    fd_b = finite_difference(f, x, step=steps[1], samples=samples).reshape(-1)
    fd_a, fd_b = fd_a[samples], fd_b[samples]
    scale = np.maximum(np.abs(fd_a), np.abs(fd_b))
    valid = np.abs(fd_a - fd_b) <= 1e-3 * scale + 1e-8
    return fd_b, valid


def groupby_cell_mean(cells: np.ndarray, values: np.ndarray):
    """Dict oracle: mean of values grouped by integer cell triple."""
    sums: dict[tuple[int, int, int], np.ndarray] = {}
    counts: dict[tuple[int, int, int], int] = {}
    for cell, v in zip(cells, values):
        key = tuple(int(c) for c in cell)
        if key in sums:
            sums[key] += v
            counts[key] += 1
        else:
            sums[key] = v.astype(np.float64).copy()
            counts[key] = 1
    return {k: sums[k] / counts[k] for k in sums}


def brute_force_knn(coords: np.ndarray, k: int) -> np.ndarray:
    """All-pairs k nearest neighbors; ties broken by index order."""
    n = coords.shape[0]
    d2 = ((coords[:, None, :].astype(np.float64)
           - coords[None, :, :].astype(np.float64)) ** 2).sum(axis=2)
    order = np.lexsort((np.broadcast_to(np.arange(n), (n, n)), d2), axis=1)
    return order[:, :k]


def interleave2d(x: int, y: int, bits: int) -> int:
    """2D z-order code with x in the high slot of each pair."""
    code = 0
    for j in range(bits):
        code |= ((x >> j) & 1) << (2 * j + 1)
        code |= ((y >> j) & 1) << (2 * j)
    return code


def gradcheck(build, shapes, seed=0, tol=1e-4, step=1e-5, max_probe=40):
    """FD-check gradients of a scalar-valued builder over all its inputs.

    ``build`` maps a list of float64 Tensors to a scalar Tensor. Probes a
    bounded random sample of entries per input and compares central
    differences against the tape gradients at relative tolerance ``tol``.
    """
    from octformer import tensor as T

    r = np.random.default_rng(seed)
    values = [r.normal(size=s) for s in shapes]
    with T.Tape() as tape:
        inputs = [T.Tensor(v, dtype=np.float64) for v in values]
        loss = build(inputs)
    T.backward(tape, loss)
    worst = 0.0
    for i, v in enumerate(values):
        analytic = tape.grad(inputs[i])

        def f(x, i=i):
            vals = [x if j == i else values[j] for j in range(len(values))]
            return build([T.Tensor(w, dtype=np.float64) for w in vals]).item()

        probes = None
        if v.size > max_probe:
            probes = r.choice(v.size, size=max_probe, replace=False)
        fd = finite_difference(f, v, step=step, samples=probes)
        mask = ~np.isnan(fd)
        err = relative_error(analytic[mask.reshape(v.shape)],
                             fd[mask.reshape(v.shape)])
        worst = max(worst, err)
        assert err < tol, f"input {i}: rel err {err}"
    return worst


# -- the whole segmentation network: the reference for network.segment_logits ----

NORM_EPS = 1e-5  # every layer and batch norm adds this to the variance (README)


class _Nodes:
    """The non-empty cells at one depth in z-order (scalar key) rank, with a
    dict from integer cell to rank."""

    def __init__(self, cells, depth: int):
        self.depth = depth
        self.cells = sorted(set(cells), key=lambda c: encode(*c, depth).code)
        self.rank = {c: i for i, c in enumerate(self.cells)}


def _naive_conv(x: np.ndarray, src: _Nodes, dst: _Nodes, weights: np.ndarray,
                kernel: int, stride: int, depthwise: bool = False) -> np.ndarray:
    """Per output node, per offset (dz fastest) dict lookup of the input cell
    ``stride * c + offset``; an absent cell adds nothing."""
    offs = (-1, 0, 1) if kernel == 3 else (0, 1)
    taps = [(dx, dy, dz) for dx in offs for dy in offs for dz in offs]
    w = np.asarray(weights, dtype=np.float64)
    out = np.zeros((len(dst.cells), w.shape[-1]))
    for o, (cx, cy, cz) in enumerate(dst.cells):
        for t, (dx, dy, dz) in enumerate(taps):
            j = src.rank.get((stride * cx + dx, stride * cy + dy, stride * cz + dz))
            if j is not None:
                out[o] += x[j] * w[t] if depthwise else x[j] @ w[t]
    return out


def _naive_norm(x: np.ndarray, mean, var, gamma, beta) -> np.ndarray:
    return (x - mean) / np.sqrt(var + NORM_EPS) * np.asarray(gamma, np.float64) \
        + np.asarray(beta, np.float64)


def _naive_batch_norm(x: np.ndarray, bn, training: bool) -> np.ndarray:
    if training:  # statistics of this batch: mean and biased variance per channel
        return _naive_norm(x, x.mean(axis=0), x.var(axis=0), bn.gamma.data, bn.beta.data)
    return _naive_norm(x, bn.running_mean, bn.running_var, bn.gamma.data, bn.beta.data)


def _naive_layer_norm(x: np.ndarray, ln) -> np.ndarray:
    mean = x.mean(axis=1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
    return _naive_norm(x, mean, var, ln.gamma.data, ln.beta.data)


def _naive_linear(x: np.ndarray, p) -> np.ndarray:
    return x @ p.weight.data.astype(np.float64) + p.bias.data.astype(np.float64)


def _naive_gelu(x: np.ndarray) -> np.ndarray:
    from scipy.special import erf

    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def naive_segment_logits(cloud, model, training: bool = False) -> np.ndarray:
    """Per-point logits of the segmentation network at float64, from the
    paper's layout: an embedding of five conv/BN/ReLU modules (kernels
    3,2,3,2,3, strides 1,2,1,2,1) takes the leaf features two depths up; four
    stages of blocks (CPE, then pre-norm windowed attention with
    ``heads_for(C)`` heads and a pre-norm GELU MLP ``MLP_RATIO`` times as wide,
    each with a residual) run one depth apart, joined by kernel-2
    stride-2 conv/BN downsamples; block b of a stage has dilation 1 when b is
    even and the config's dilation when b is odd. The FPN head adds each
    level's lateral linear to its parent's (cell >> 1) merged row, then runs a
    k3 conv, a ReLU hidden layer and the classifier per finest node, and every
    point takes its node's logits.

    Attention is ``dense_masked_attention`` over all N tokens of a depth, with
    window id ``(p // (K D)) D + p % D`` for z-order rank p. ``training``
    uses each batch norm's batch statistics, as the program does.
    """
    config = model.config
    depth = cloud.depth
    scaled = cloud.positions * float(1 << depth)
    grid = np.minimum(np.floor(scaled), (1 << depth) - 1)  # a point at 1 - ulp
    cells = [tuple(int(v) for v in c) for c in grid]
    nodes = {level: _Nodes([(x >> (depth - level), y >> (depth - level),
                             z >> (depth - level)) for x, y, z in cells], level)
             for level in range(depth - 5, depth + 1)}

    # leaf features: per leaf, the mean of (offset from the voxel centre, in
    # voxel units), colour and normal, in that order, for the enabled ones
    signal = []
    if "position" in config.features:
        signal.append(scaled - grid - 0.5)
    if "color" in config.features:
        signal.append(cloud.colors)
    if "normal" in config.features:
        signal.append(cloud.normals)
    signal = np.concatenate(signal, axis=1)
    leaves = nodes[depth]
    x = np.zeros((len(leaves.cells), signal.shape[1]))
    counts = np.zeros(len(leaves.cells))
    for c, row in zip(cells, signal):
        x[leaves.rank[c]] += row
        counts[leaves.rank[c]] += 1
    x /= counts[:, None]

    level = depth
    for kernel, stride, mod in zip((3, 2, 3, 2, 3), (1, 2, 1, 2, 1),
                                   model.backbone.embedding.modules):
        src, level = nodes[level], level - (stride == 2)
        x = _naive_conv(x, src, nodes[level], mod.conv.weights.data, kernel, stride)
        x = np.maximum(_naive_batch_norm(x, mod.bn, training), 0.0)

    k = config.point_number
    pyramid = []
    for stage in model.backbone.stages:
        here = nodes[level]
        ranks = np.arange(len(here.cells))
        for b, block in enumerate(stage.blocks):
            if block.cpe is not None:
                enc = _naive_conv(x, here, here, block.cpe.kernel.data, 3, 1,
                                  depthwise=True)
                x = x + _naive_batch_norm(enc, block.cpe.bn, training)
            d = 1 if b % 2 == 0 else config.dilation
            window = (ranks // (k * d)) * d + ranks % d
            a, c = block.attn, x.shape[1]
            x = x + dense_masked_attention(_naive_layer_norm(x, block.ln1), a.w_q.data,
                                           a.w_k.data, a.w_v.data, a.w_o.data,
                                           heads_for(c), window)
            assert block.mlp.fc1.weight.shape == (c, MLP_RATIO * c)
            h = _naive_gelu(_naive_linear(_naive_layer_norm(x, block.ln2), block.mlp.fc1))
            x = x + _naive_linear(h, block.mlp.fc2)
        pyramid.append((x, here))
        if stage.down is not None:
            level -= 1
            x = _naive_conv(x, here, nodes[level], stage.down.conv.weights.data, 2, 2)
            x = _naive_batch_norm(x, stage.down.bn, training)

    head = model.seg_head
    u, above = None, None
    for (feat, here), lateral in reversed(list(zip(pyramid, head.lateral))):
        lat = _naive_linear(feat, lateral)
        if u is not None:
            lat += np.stack([u[above.rank[(cx >> 1, cy >> 1, cz >> 1)]]
                             for cx, cy, cz in here.cells])
        u, above = lat, here
    u = _naive_conv(u, above, above, head.fuse.weights.data, 3, 1)
    u = _naive_linear(np.maximum(_naive_linear(u, head.hidden), 0.0), head.classifier)
    shift = depth - above.depth
    return np.stack([u[above.rank[(x >> shift, y >> shift, z >> shift)]]
                     for x, y, z in cells])


# -- test helpers on the public surface ----------------------------------------

def full_grid_tree(depth: int):
    """The octree of one point at the centre of every cell at ``depth``."""
    lim = 1 << depth
    g = (np.arange(lim) + 0.5) / lim
    xs, ys, zs = np.meshgrid(g, g, g, indexing="ij")
    pos = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    return build_octree(QuantizedCloud(pos, depth))


def backbone_forward(cloud, config, params, training: bool = False):
    """The feature pyramid of ``cloud``: octree, leaf features, backbone."""
    octree = build_octree(cloud)
    feats = init_leaf_features(octree, cloud, **config.feature_flags())
    return backbone_apply(octree, feats, config, params, training)


def float64(tree):
    """``tree`` with every parameter cast to float64 in place (a built model
    is float32; its running statistics already are float64)."""
    for _, t in trainable_parameters(tree):
        t.data = t.data.astype(np.float64)
    return tree


def count_parameters(obj) -> int:
    """Total trainable entries; buffers (running stats) excluded."""
    return sum(t.size for _, t in trainable_parameters(obj))


def linear_fit_r2(ns: np.ndarray, times: np.ndarray) -> float:
    """R^2 of an affine fit time ~ a*n + b."""
    ns = np.asarray(ns, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    coeffs = np.polyfit(ns, times, deg=1)
    pred = np.polyval(coeffs, ns)
    ss_res = ((times - pred) ** 2).sum()
    ss_tot = ((times - times.mean()) ** 2).sum()
    return float(1.0 - ss_res / ss_tot) if ss_tot > 0 else 1.0
