import numpy as np
import pytest

from octformer import tensor as T
from octformer.baselines import (
    cubic_partition,
    cubic_window_attention,
    global_attention,
    knn_indices,
    knn_sliding_attention,
)
from octformer.octree import QuantizedCloud, build_octree
from octformer.partition import AttentionParams, make_plan, windowed_attention

from oracles import brute_force_knn, dense_masked_attention


def tree_of(n=200, depth=5, seed=0):
    rng = np.random.default_rng(seed)
    return build_octree(QuantizedCloud(rng.random((n, 3)), depth))


def params_of(c, h, seed):
    return AttentionParams.init(c, h, np.random.default_rng(seed))


def test_global_single_token():
    p = params_of(8, 2, 1)
    x = np.random.default_rng(2).normal(size=(1, 8)).astype(np.float32)
    out = global_attention(T.Tensor(x), p).data
    assert np.allclose(out, x @ p.w_v.data @ p.w_o.data, atol=1e-6)


def test_global_equals_windowed_single_window():
    p = params_of(16, 4, 3)
    x = np.random.default_rng(4).normal(size=(40, 16)).astype(np.float32)
    got = global_attention(T.Tensor(x), p).data
    plan = make_plan(40, 64, 1)
    ref = windowed_attention(T.Tensor(x), plan, p).data
    assert np.abs(got - ref).max() < 1e-5


def test_global_matches_dense_oracle():
    p = AttentionParams.init(8, 2, np.random.default_rng(5), dtype=np.float64)
    x = np.random.default_rng(6).normal(size=(30, 8))
    got = global_attention(T.Tensor(x, np.float64), p).data
    ref = dense_masked_attention(x, p.w_q.data, p.w_k.data, p.w_v.data,
                                 p.w_o.data, 2, np.zeros(30, dtype=int))
    assert np.abs(got - ref).max() < 1e-10


def test_global_guard():
    p = params_of(8, 2, 7)
    with pytest.raises(ResourceWarning):
        global_attention(T.Tensor(np.zeros((5000, 8))), p)


def test_cubic_partition_dense_grid_uniform():
    lim = 8
    g = (np.arange(lim) + 0.5) / lim
    xs, ys, zs = np.meshgrid(g, g, g, indexing="ij")
    pos = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    tree = build_octree(QuantizedCloud(pos, 3))
    part = cubic_partition(tree, 3, window_size=2)
    counts = np.array([idx.size for _, idx in part.buckets])
    assert counts.size == 64
    assert (counts == 8).all()


def test_cubic_partition_covers_each_node_once():
    tree = tree_of(300, depth=5, seed=8)
    part = cubic_partition(tree, 5, window_size=3)
    seen = np.concatenate([idx for _, idx in part.buckets])
    assert len(seen) == tree.node_count(5)
    assert len(np.unique(seen)) == tree.node_count(5)


def test_cubic_partition_matches_groupby_oracle():
    tree = tree_of(400, depth=5, seed=9)
    part = cubic_partition(tree, 5, window_size=2)
    coords = tree.coords(5)
    oracle: dict = {}
    for i, c in enumerate(coords.tolist()):
        oracle.setdefault(tuple(v // 2 for v in c), []).append(i)
    assert len(part.buckets) == len(oracle)
    for cube_id, idx in part.buckets:
        assert sorted(oracle[cube_id]) == idx.tolist()
    counts = [idx.size for _, idx in part.buckets]
    assert max(counts) >= np.mean(counts)


def test_cubic_attention_matches_dense_oracle():
    tree = tree_of(150, depth=4, seed=10)
    n = tree.node_count(4)
    p = AttentionParams.init(8, 2, np.random.default_rng(11), dtype=np.float64)
    x = np.random.default_rng(12).normal(size=(n, 8))
    part = cubic_partition(tree, 4, window_size=2)
    got = cubic_window_attention(T.Tensor(x, np.float64), part, p).data
    window_id = np.empty(n, dtype=int)
    for w, (_, idx) in enumerate(part.buckets):
        window_id[idx] = w
    ref = dense_masked_attention(x, p.w_q.data, p.w_k.data, p.w_v.data,
                                 p.w_o.data, 2, window_id)
    assert np.abs(got - ref).max() < 1e-10


def test_knn_indices_match_brute_force():
    tree = tree_of(250, depth=5, seed=13)
    coords = tree.coords(5)
    got = knn_indices(tree, 5, k=7)
    ref = brute_force_knn(coords, 7)
    assert np.array_equal(got, ref)


def test_knn_shell_path_matches_brute_force():
    # force the shell expansion path by lowering the brute-force threshold
    tree = tree_of(600, depth=5, seed=14)
    coords = tree.coords(5)
    got = knn_indices(tree, 5, k=9, brute_force_below=10)
    ref = brute_force_knn(coords, 9)
    assert np.array_equal(got, ref)


def test_knn_deterministic_under_ties():
    # a symmetric grid produces many exact distance ties
    lim = 4
    g = (np.arange(lim) + 0.5) / lim
    xs, ys, zs = np.meshgrid(g, g, g, indexing="ij")
    pos = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    tree = build_octree(QuantizedCloud(pos, 2))
    a = knn_indices(tree, 2, k=6, brute_force_below=1)
    b = knn_indices(tree, 2, k=6, brute_force_below=10_000)
    assert np.array_equal(a, b)


def test_knn_attention_k_equals_n_is_global():
    tree = tree_of(80, depth=4, seed=15)
    n = tree.node_count(4)
    p = params_of(8, 2, 16)
    x = np.random.default_rng(17).normal(size=(n, 8)).astype(np.float32)
    got = knn_sliding_attention(T.Tensor(x), tree, 4, n, p).data
    ref = global_attention(T.Tensor(x), p).data
    assert np.abs(got - ref).max() < 1e-5


def test_knn_attention_k1_is_value_projection():
    cloud = QuantizedCloud(np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]), 4)
    tree = build_octree(cloud)
    p = params_of(8, 2, 18)
    x = np.random.default_rng(19).normal(size=(2, 8)).astype(np.float32)
    got = knn_sliding_attention(T.Tensor(x), tree, 4, 1, p).data
    assert np.allclose(got, x @ p.w_v.data @ p.w_o.data, atol=1e-6)


def test_knn_attention_chunking_consistent():
    tree = tree_of(100, depth=5, seed=20)
    n = tree.node_count(5)
    p = params_of(16, 2, 21)
    x = T.Tensor(np.random.default_rng(22).normal(size=(n, 16)).astype(np.float32))
    a = knn_sliding_attention(x, tree, 5, 8, p, chunk=7).data
    b = knn_sliding_attention(x, tree, 5, 8, p, chunk=10_000).data
    assert np.abs(a - b).max() < 1e-6


def test_knn_k_too_large():
    tree = tree_of(30, depth=4, seed=23)
    with pytest.raises(ValueError):
        knn_indices(tree, 4, k=tree.node_count(4) + 1)
