import numpy as np
import pytest

from octformer import tensor as T
from octformer.errors import ConfigError, ShapeError
from octformer.octconv import (
    ConvBnParams,
    ConvSpec,
    EmbeddingParams,
    downsample,
    embedding_stack,
    gathered_conv,
    octree_conv,
)
from octformer.octree import QuantizedCloud, build_octree

from oracles import dense_conv3d, finite_difference, float64, full_grid_tree, relative_error


def grid_from_features(tree, depth, x):
    lim = 1 << depth
    grid = np.zeros((lim, lim, lim, x.shape[1]))
    coords = tree.coords(depth)
    grid[coords[:, 0], coords[:, 1], coords[:, 2]] = x
    return grid


def features_from_grid(tree, depth, grid):
    coords = tree.coords(depth)
    return grid[coords[:, 0], coords[:, 1], coords[:, 2]]


def test_k2s2_all_ones_sums_children():
    cells = np.array([[0, 0, 0], [0, 0, 1], [1, 1, 1]])  # 3 children of parent 0
    pos = (cells + 0.5) / 4
    tree = build_octree(QuantizedCloud(pos, 2))
    c = 3
    spec = ConvSpec(2, 2, c, c, T.Tensor(np.ones((8, c), dtype=np.float32)),
                    depthwise=True)
    v = np.random.default_rng(0).normal(size=c).astype(np.float32)
    x = np.tile(v, (3, 1))
    out = octree_conv(T.Tensor(x), tree, 2, spec).data
    assert out.shape == (1, c)
    assert np.allclose(out[0], 3 * v, atol=1e-6)


def test_k3s1_center_identity():
    tree = full_grid_tree(2)
    c = 4
    w = np.zeros((27, c, c), dtype=np.float32)
    w[13] = np.eye(c)
    spec = ConvSpec(3, 1, c, c, T.Tensor(w))
    x = np.random.default_rng(1).normal(size=(tree.node_count(2), c)).astype(np.float32)
    out = octree_conv(T.Tensor(x), tree, 2, spec).data
    assert np.allclose(out, x, atol=1e-6)


@pytest.mark.parametrize("kernel,stride,depthwise", [
    (3, 1, False), (3, 1, True),
    (2, 2, False), (2, 2, True),
    (3, 2, False), (3, 2, True),
    (2, 1, False), (2, 1, True),
])
def test_dense_grid_equivalence(kernel, stride, depthwise):
    depth = 3 if stride == 1 else 4  # output at depth-1 needs full parents
    tree = full_grid_tree(depth)
    rng = np.random.default_rng(kernel * 10 + stride)
    c_in, c_out = 3, (3 if depthwise else 5)
    taps = kernel**3
    wshape = (taps, c_in) if depthwise else (taps, c_in, c_out)
    w = rng.normal(size=wshape)
    spec = ConvSpec(kernel, stride, c_in, c_out, T.Tensor(w, np.float64), depthwise)
    x = rng.normal(size=(tree.node_count(depth), c_in))
    out = octree_conv(T.Tensor(x, np.float64), tree, depth, spec).data

    grid = grid_from_features(tree, depth, x)
    ref_grid = dense_conv3d(grid, w, kernel, stride, depthwise)
    out_depth = depth if stride == 1 else depth - 1
    ref = features_from_grid(tree, out_depth, ref_grid)
    assert np.abs(out - ref).max() < 1e-5


VARIANTS = [(k, s, dw) for k in (3, 2) for s in (1, 2) for dw in (False, True)]


def random_tree_and_weights(seed, kernel, depthwise, depth=3, n=40, c_in=3, c_out=2):
    rng = np.random.default_rng(seed)
    tree = build_octree(QuantizedCloud(rng.random((n, 3)), depth))
    c_out = c_in if depthwise else c_out
    w = rng.normal(size=(kernel**3, c_in) if depthwise else (kernel**3, c_in, c_out))
    return rng, tree, w, c_out


@pytest.mark.parametrize("kernel,stride,depthwise", VARIANTS)
def test_sparse_vs_dense_with_holes(kernel, stride, depthwise):
    # sparse octree vs dense conv on the zero-filled grid: absent == zero
    rng, tree, w, c_out = random_tree_and_weights(5, kernel, depthwise)
    depth = 3
    spec = ConvSpec(kernel, stride, 3, c_out, T.Tensor(w, np.float64), depthwise)
    x = rng.normal(size=(tree.node_count(depth), 3))
    out = octree_conv(T.Tensor(x, np.float64), tree, depth, spec).data
    assert out.dtype == np.float64
    grid = grid_from_features(tree, depth, x)
    ref_grid = dense_conv3d(grid, w, kernel, stride, depthwise)
    ref = features_from_grid(tree, depth + 1 - stride, ref_grid)
    assert np.abs(out - ref).max() < 1e-10


def test_locality():
    tree = full_grid_tree(3)
    rng = np.random.default_rng(6)
    c = 2
    spec = ConvSpec(3, 1, c, c, T.Tensor(rng.normal(size=(27, c, c)), np.float64))
    x = rng.normal(size=(tree.node_count(3), c))
    base = octree_conv(T.Tensor(x, np.float64), tree, 3, spec).data
    x2 = x.copy()
    x2[0] += 1.0  # node at (0,0,0)
    bumped = octree_conv(T.Tensor(x2, np.float64), tree, 3, spec).data
    changed = np.abs(bumped - base).max(axis=1) > 1e-12
    coords = tree.coords(3)
    inside = (np.abs(coords - coords[0]) <= 1).all(axis=1)
    assert changed[~inside].sum() == 0
    assert changed[inside].any()


@pytest.mark.parametrize("kernel,stride,depthwise", VARIANTS)
def test_conv_gradcheck(kernel, stride, depthwise):
    rng, tree, w0, c_out = random_tree_and_weights(7, kernel, depthwise, n=25)
    x0 = rng.normal(size=(tree.node_count(3), 3))
    target = rng.normal(size=(tree.node_count(4 - stride), c_out))

    def loss_of(xt, wt):
        spec = ConvSpec(kernel, stride, 3, c_out, wt, depthwise)
        out = octree_conv(xt, tree, 3, spec)
        return T.sum_(T.mul(out, T.Tensor(target, np.float64)))

    with T.Tape() as tape:
        xt, wt = T.Tensor(x0, np.float64), T.Tensor(w0, np.float64)
        loss = loss_of(xt, wt)
    T.backward(tape, loss)

    fd_x = finite_difference(lambda v: loss_of(T.Tensor(v), wt).item(), x0)
    assert relative_error(tape.grad(xt), fd_x) < 1e-6
    fd_w = finite_difference(lambda v: loss_of(xt, T.Tensor(v)).item(), w0)
    assert relative_error(tape.grad(wt), fd_w) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("depthwise", [False, True])
def test_blocked_taps_match_the_per_tap_expression_bit_for_bit(dtype, depthwise):
    # a full depth-5 grid: the centre tap has 32,768 rows, four row blocks at C_out 16
    tree, c = full_grid_tree(5), 16
    rng = np.random.default_rng(40)
    for kernel, stride in ((3, 1), (2, 2)):
        idx = tree.tap_table(5, kernel, stride)
        x = rng.normal(size=(tree.node_count(5), c)).astype(dtype)
        w = rng.normal(size=(kernel**3, c) if depthwise else (kernel**3, c, c)).astype(dtype)
        want = np.zeros((idx.shape[0], c), dtype)
        for (rows, cols), wt in zip(idx.pairs, w):
            want[rows] += x[cols] * wt if depthwise else x[cols] @ wt
        got = gathered_conv(T.Tensor(x), idx, T.Tensor(w), depthwise).data
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert len(T.row_blocks(len(tree.tap_table(5, 3, 1).pairs[13][0]), c)) >= 3


@pytest.mark.parametrize("x_dtype, w_dtype", [(np.float32, np.float32),
                                              (np.float64, np.float64),
                                              (np.float64, np.float32),
                                              (np.float32, np.float64)])
@pytest.mark.parametrize("depthwise", [False, True])
def test_conv_and_its_vjp_have_the_bits_of_accumulating_each_tap(monkeypatch, x_dtype,
                                                                 w_dtype, depthwise):
    """The forward, whole and per output-row ``part``, and the vjp's gx and gw
    have the bits of ``out[r] += x[c] @ w`` (``* w`` depthwise) per row block
    and ``gx[cols] += g[rows] @ w.T`` per tap, with taps several blocks long."""
    monkeypatch.setattr(T, "MLP_BLOCK_ELEMENTS", 256)  # 32 rows of 8 channels
    tree, c = full_grid_tree(3), 8
    n = tree.node_count(3)
    rng = np.random.default_rng(44)

    def accumulated(x, pairs, w, part):
        out = np.zeros((part.stop - part.start, w.shape[-1]), np.result_type(x, w))
        for (rows, cols), wt in zip(pairs, w):
            lo, hi = np.searchsorted(rows, (part.start, part.stop))
            rows, cols = rows[lo:hi] - part.start, cols[lo:hi]
            for blk in T.row_blocks(rows.shape[0], out.shape[1]):
                r, cc = rows[blk], cols[blk]
                out[r] += x[cc] * wt if depthwise else x[cc] @ wt
        return out

    for kernel, stride in ((3, 1), (2, 2)):
        idx = tree.tap_table(3, kernel, stride)
        m = idx.n_out
        x = rng.normal(size=(n, c)).astype(x_dtype)
        w = rng.normal(size=(kernel**3, c) if depthwise else (kernel**3, c, c)).astype(w_dtype)
        want = accumulated(x, idx.pairs, w, slice(0, m))
        with T.Tape() as tape:
            got = gathered_conv(T.Tensor(x), idx, T.Tensor(w), depthwise).data
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

        parts = [slice(0, m // 3), slice(m // 3, m - 5), slice(m - 5, m)]
        got = gathered_conv(T.Tensor(x), idx, T.Tensor(w), depthwise,
                            then=lambda t: t, blocks=parts).data
        assert got.tobytes() == np.concatenate(
            [accumulated(x, idx.pairs, w, p) for p in parts]).tobytes()

        g = rng.normal(size=want.shape).astype(want.dtype)
        gx, gw = tape.nodes[-1].vjp(g)
        want_gx, want_gw = np.zeros(x.shape, g.dtype), np.empty_like(w)
        for t, ((rows, cols), wt) in enumerate(zip(idx.pairs, w)):
            gt, xt = g[rows], x[cols]
            want_gw[t] = np.einsum("nc,nc->c", xt, gt) if depthwise else xt.T @ gt
            want_gx[cols] += gt * wt if depthwise else gt @ wt.T
        assert gx.dtype == want_gx.dtype and gx.tobytes() == want_gx.tobytes()
        assert gw.dtype == want_gw.dtype and gw.tobytes() == want_gw.tobytes()
    assert len(T.row_blocks(len(tree.tap_table(3, 3, 1).pairs[13][0]), c)) == 16


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("depthwise", [False, True])
def test_conv_without_tape_keeps_no_full_tap_temporary(dtype, depthwise):
    import tracemalloc

    tree, c = full_grid_tree(5), 16
    idx = tree.tap_table(5, 3, 1)
    rng = np.random.default_rng(41)
    x = T.Tensor(rng.normal(size=(tree.node_count(5), c)), dtype)
    w = T.Tensor(rng.normal(size=(27, c) if depthwise else (27, c, c)), dtype)
    tracemalloc.start()
    try:
        out = gathered_conv(x, idx, w, depthwise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_t = max(rows.shape[0] for rows, _ in idx.pairs)
    assert peak - out.data.nbytes < n_t * c * np.dtype(dtype).itemsize


def test_embedding_without_tape_keeps_one_full_size_array():
    """Untaped, each module's norm and ReLU run in place on its conv's output,
    with the taped bits: beyond the parameters and the input, the stack never
    holds two arrays of the first conv's output size."""
    import tracemalloc

    tree, c = full_grid_tree(5), 32
    rng = np.random.default_rng(43)
    params = EmbeddingParams.init(3, c, rng)
    x = T.Tensor(rng.normal(size=(tree.node_count(5), 3)).astype(np.float32))
    with T.Tape():  # the taped ops write into no input; this also builds the tap tables
        want = embedding_stack(x, tree, 5, params, training=False).data
    tracemalloc.start()
    try:
        got = embedding_stack(x, tree, 5, params, training=False).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * tree.node_count(5) * c * 4
    assert got.tobytes() == want.tobytes()


def test_embedding_structure():
    rng = np.random.default_rng(9)
    pos = rng.random((500, 3))
    tree = build_octree(QuantizedCloud(pos, 5))
    params = EmbeddingParams.init(3, 8, rng)
    x = T.Tensor(rng.normal(size=(tree.node_count(5), 3)).astype(np.float32))
    out = embedding_stack(x, tree, 5, params, training=True)
    assert out.shape == (tree.node_count(3), 8)


def test_embedding_zero_input_zero_output():
    rng = np.random.default_rng(10)
    pos = rng.random((200, 3))
    tree = build_octree(QuantizedCloud(pos, 4))
    params = EmbeddingParams.init(2, 6, rng)
    x = T.Tensor(np.zeros((tree.node_count(4), 2), dtype=np.float32))
    out = embedding_stack(x, tree, 4, params, training=True)
    assert np.allclose(out.data, 0.0, atol=1e-6)


def test_embedding_matches_composed_convs():
    rng = np.random.default_rng(11)
    pos = rng.random((150, 3))
    tree = build_octree(QuantizedCloud(pos, 4))
    params = float64(EmbeddingParams.init(3, 4, rng))
    x0 = rng.normal(size=(tree.node_count(4), 3))
    got = embedding_stack(T.Tensor(x0, np.float64), tree, 4, params, training=False)

    from octformer.tensor import batch_norm, relu
    x = T.Tensor(x0, np.float64)
    depth = 4
    for mod in params.modules:
        x = octree_conv(x, tree, depth, mod.conv)
        if mod.conv.stride == 2:
            depth -= 1
        x = relu(batch_norm(x, mod.bn, training=False))
    assert np.allclose(got.data, x.data, atol=1e-12)


def test_embedding_requires_depth3():
    rng = np.random.default_rng(12)
    pos = rng.random((20, 3))
    tree = build_octree(QuantizedCloud(pos, 2))
    params = EmbeddingParams.init(3, 4, rng)
    with pytest.raises(ConfigError):
        embedding_stack(T.Tensor(np.zeros((tree.node_count(2), 3))), tree, 2,
                        params, training=True)


def test_downsample_structure_and_widen():
    rng = np.random.default_rng(13)
    pos = rng.random((300, 3))
    tree = build_octree(QuantizedCloud(pos, 4))
    params = ConvBnParams.init(2, 2, 4, 8, rng)
    x = T.Tensor(rng.normal(size=(tree.node_count(4), 4)).astype(np.float32))
    out = downsample(x, tree, 4, params, training=True)
    assert out.shape == (tree.node_count(3), 8)


def test_downsample_single_child_propagates():
    cloud = QuantizedCloud(np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]), 3)
    tree = build_octree(cloud)
    c = 2
    conv = ConvSpec(2, 2, c, c, T.Tensor(np.ones((8, c), dtype=np.float32)),
                    depthwise=True)
    x = np.array([[1.5, -2.0], [0.5, 3.0]], dtype=np.float32)
    out = octree_conv(T.Tensor(x), tree, 3, conv).data
    assert np.allclose(out, x, atol=1e-6)  # each parent has exactly one child


def test_conv_shape_and_depth_errors():
    rng = np.random.default_rng(14)
    pos = rng.random((50, 3))
    tree = build_octree(QuantizedCloud(pos, 3))
    spec = ConvSpec.init(3, 1, 2, 2, rng)
    with pytest.raises(ShapeError):
        octree_conv(T.Tensor(np.zeros((1, 2))), tree, 3, spec)
    with pytest.raises(ValueError):
        octree_conv(T.Tensor(np.zeros((tree.node_count(3), 2))), tree, 4, spec)


def test_conv_spec_validation():
    rng = np.random.default_rng(15)
    with pytest.raises(ConfigError):
        ConvSpec.init(4, 1, 2, 2, rng)
    with pytest.raises(ConfigError):
        ConvSpec.init(3, 3, 2, 2, rng)
    with pytest.raises(ConfigError):
        ConvSpec(3, 1, 2, 3, T.Tensor(np.zeros((27, 2))), depthwise=True)
    with pytest.raises(ShapeError):
        ConvSpec(3, 1, 2, 2, T.Tensor(np.zeros((8, 2, 2))))
