"""Built-in oracle equivalence suite for the `selftest` CLI command.

Each check recomputes the expected answer with a deliberately naive
reference (dense arrays, explicit loops, 64-bit) and compares against the
library path. Output is deterministic: names and pass/fail only, no
timings, so two runs of `selftest` are byte-identical. The dense attention
and convolution references here are the only copies; the pytest oracles
import them from this module.
"""

from __future__ import annotations

import numpy as np

from . import morton
from . import tensor as T
from .octree import QuantizedCloud, build_octree, filter_and_pad_count
from .partition import AttentionParams, make_plan, windowed_attention
from .octconv import ConvSpec, octree_conv


def dense_masked_attention(
    x: np.ndarray,
    w_q: np.ndarray,
    w_k: np.ndarray,
    w_v: np.ndarray,
    w_o: np.ndarray,
    heads: int,
    window_id: np.ndarray,
) -> np.ndarray:
    """Full N x N multi-head attention where (i, j) may attend iff they
    share a window; everything computed at 64-bit."""
    x = x.astype(np.float64)
    n, c = x.shape
    proj = w_q.shape[1]
    dh = proj // heads
    q = (x @ w_q.astype(np.float64)).reshape(n, heads, dh)
    k = (x @ w_k.astype(np.float64)).reshape(n, heads, dh)
    v = (x @ w_v.astype(np.float64)).reshape(n, heads, dh)
    allowed = window_id[:, None] == window_id[None, :]
    ctx = np.zeros((n, heads, dh))
    for h in range(heads):
        logits = (q[:, h] @ k[:, h].T) / np.sqrt(dh)
        logits = np.where(allowed, logits, -np.inf)
        logits -= logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        w /= w.sum(axis=1, keepdims=True)
        ctx[:, h] = w @ v[:, h]
    return ctx.reshape(n, heads * dh) @ w_o.astype(np.float64)


def dense_conv3d(
    grid: np.ndarray, weights: np.ndarray, kernel: int, stride: int,
    depthwise: bool,
) -> np.ndarray:
    """Dense zero-padded 3D convolution on a full (S,S,S,Cin) grid.

    Tap order matches the library: offsets in product order, dz fastest.
    Kernel 3 ranges over {-1,0,1}, kernel 2 over {0,1}; stride 2 anchors
    at even coordinates and halves the resolution.
    """
    s = grid.shape[0]
    c_in = grid.shape[3]
    offs = [-1, 0, 1] if kernel == 3 else [0, 1]
    out_s = s if stride == 1 else s // 2
    c_out = c_in if depthwise else weights.shape[2]
    out = np.zeros((out_s, out_s, out_s, c_out), dtype=np.float64)
    tap = 0
    for dx in offs:
        for dy in offs:
            for dz in offs:
                w = weights[tap]
                tap += 1
                for ox in range(out_s):
                    ix = ox * stride + dx
                    if not 0 <= ix < s:
                        continue
                    for oy in range(out_s):
                        iy = oy * stride + dy
                        if not 0 <= iy < s:
                            continue
                        for oz in range(out_s):
                            iz = oz * stride + dz
                            if not 0 <= iz < s:
                                continue
                            v = grid[ix, iy, iz].astype(np.float64)
                            if depthwise:
                                out[ox, oy, oz] += v * w
                            else:
                                out[ox, oy, oz] += v @ w
    return out


def check_morton() -> bool:
    # x=11b, y=01b, z=10b -> 101110b; the parent cell (1, 0, 1) is 46 >> 3
    if morton.encode_cells([[3, 1, 2]], 2)[0] != 46:
        return False
    if morton.encode_cells([[1, 0, 1]], 1)[0] != 46 >> 3:
        return False
    rng = np.random.default_rng(101)
    for depth in (1, 7, 21):
        cells = rng.integers(0, 1 << depth, size=(500, 3))
        codes = morton.encode_cells(cells, depth)
        if not np.array_equal(morton.decode_cells(codes, depth), cells):
            return False
    return True


def check_octree() -> bool:
    rng = np.random.default_rng(102)
    for trial in range(3):
        depth = 4 + trial
        cloud = QuantizedCloud(rng.random((600, 3)), depth)
        tree = build_octree(cloud)
        distinct = {tuple(c) for c in cloud.cells().tolist()}
        if tree.node_count(depth) != len(distinct):
            return False
        for level in range(1, depth + 1):
            keys = tree.keys[level]
            if not (np.diff(keys.astype(np.int64)) > 0).all():
                return False
        for level in range(1, depth):
            # node i's children: the run of keys[level + 1] whose >> 3 is keys[level][i]
            up = tree.keys[level + 1] >> np.uint64(3)
            lo = np.searchsorted(up, tree.keys[level], "left")
            hi = np.searchsorted(up, tree.keys[level], "right")
            if not ((hi > lo).all() and (lo[1:] == hi[:-1]).all()):
                return False
    return True


def check_partition_goldens() -> bool:
    plan = make_plan(28, 7, 1)
    src = plan.window_sources().reshape(4, 7)
    if src[0].tolist() != [0, 1, 2, 3, 4, 5, 6]:
        return False
    plan = make_plan(28, 7, 2)
    src = plan.window_sources().reshape(4, 7)
    if src[0].tolist() != [0, 2, 4, 6, 8, 10, 12]:
        return False
    if src[1].tolist() != [1, 3, 5, 7, 9, 11, 13]:
        return False
    plan = make_plan(5, 4, 2)
    if plan.padded != 8 or filter_and_pad_count(30, 32, 4) != 128:
        return False
    src = plan.window_sources().reshape(2, 4)
    return src[0].tolist() == [0, 2, 4, 6] and src[1].tolist() == [1, 3, 5, 7]


def check_attention_oracle() -> bool:
    rng = np.random.default_rng(103)
    for n, k, d, c, h in ((30, 8, 1, 16, 2), (50, 16, 2, 8, 1), (64, 8, 4, 16, 4)):
        params = AttentionParams.init(c, h, rng, dtype=np.float64)
        x = rng.normal(size=(n, c))
        plan = make_plan(n, k, d)
        got = windowed_attention(T.Tensor(x, np.float64), plan, params).data
        ref = dense_masked_attention(x, params.w_q.data, params.w_k.data,
                                     params.w_v.data, params.w_o.data, h,
                                     plan.window_of_position()[:n])
        if np.abs(got - ref).max() >= 1e-10:
            return False
    return True


def check_conv_oracle() -> bool:
    rng = np.random.default_rng(104)
    depth = 3
    lim = 1 << depth
    g = (np.arange(lim) + 0.5) / lim
    xs, ys, zs = np.meshgrid(g, g, g, indexing="ij")
    pos = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    tree = build_octree(QuantizedCloud(pos, depth))
    c = 3
    x = rng.normal(size=(tree.node_count(depth), c))
    grid = np.zeros((lim, lim, lim, c))
    coords = tree.coords(depth)
    grid[coords[:, 0], coords[:, 1], coords[:, 2]] = x

    for kernel, stride in ((3, 1), (2, 2)):
        w = rng.normal(size=(kernel**3, c, c))
        spec = ConvSpec(kernel, stride, c, c, T.Tensor(w, np.float64))
        got = octree_conv(T.Tensor(x, np.float64), tree, depth, spec).data
        out_coords = tree.coords(depth if stride == 1 else depth - 1)
        ref_grid = dense_conv3d(grid, w, kernel, stride, depthwise=False)
        ref = ref_grid[out_coords[:, 0], out_coords[:, 1], out_coords[:, 2]]
        if np.abs(got - ref).max() >= 1e-5:
            return False
    return True


def check_gather_adjoint() -> bool:
    rng = np.random.default_rng(105)
    x = rng.normal(size=(10, 4))
    y = rng.normal(size=(14, 4))
    idx = rng.integers(-1, 10, size=14)
    g = T.gather_rows(T.Tensor(x, np.float64), idx).data
    s = T.scatter_rows_add(T.Tensor(y, np.float64), idx, 10).data
    return abs(float((g * y).sum() - (x * s).sum())) < 1e-9


def check_gradients() -> bool:
    rng = np.random.default_rng(106)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))
    t = rng.normal(size=(3, 2))

    def f(a):
        out = T.softmax(T.matmul(T.Tensor(a, np.float64), T.Tensor(b0, np.float64)))
        return float((out.data * t).sum())

    with T.Tape() as tape:
        at = T.Tensor(a0, np.float64)
        loss = T.sum_(T.mul(T.softmax(T.matmul(at, T.Tensor(b0, np.float64))),
                            T.Tensor(t, np.float64)))
    T.backward(tape, loss)
    analytic = tape.grad(at)
    step = 1e-5
    for i in range(a0.size):
        flat = a0.reshape(-1).copy()
        flat[i] += step
        fp = f(flat.reshape(a0.shape))
        flat[i] -= 2 * step
        fm = f(flat.reshape(a0.shape))
        fd = (fp - fm) / (2 * step)
        if abs(fd - analytic.reshape(-1)[i]) > 1e-4 * max(1.0, abs(fd)):
            return False
    return True


CHECKS = [
    ("morton-bijectivity", check_morton),
    ("octree-invariants", check_octree),
    ("partition-goldens", check_partition_goldens),
    ("attention-dense-oracle", check_attention_oracle),
    ("conv-dense-oracle", check_conv_oracle),
    ("gather-scatter-adjoint", check_gather_adjoint),
    ("gradient-finite-differences", check_gradients),
]


def run_selftest() -> bool:
    passed_count = 0
    for name, fn in CHECKS:
        passed = fn()
        passed_count += int(passed)
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    print(f"selftest: {passed_count}/{len(CHECKS)} passed")
    return passed_count == len(CHECKS)
