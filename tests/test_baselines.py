import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octformer import baselines
from octformer import tensor as T
from octformer.baselines import (
    cubic_partition,
    cubic_window_attention,
    global_attention,
    knn_indices,
    knn_sliding_attention,
)
from octformer.errors import ConfigError
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
    with pytest.raises(ConfigError):
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
    # 600 nodes: the cube grows to radius 3 (343 cells) before the scan
    tree = tree_of(600, depth=5, seed=14)
    coords = tree.coords(5)
    got = knn_indices(tree, 5, k=9)
    ref = brute_force_knn(coords, 9)
    assert np.array_equal(got, ref)


def _block(side):
    return np.array(list(itertools.product(range(side), repeat=3))).reshape(-1, 3)


def _corners(near, far, depth):
    """Two opposite corner blocks of a depth-``depth`` grid: ``near`` cells a
    side at the origin, ``far`` cells a side at the far corner."""
    lim = 1 << depth
    cells = np.concatenate([_block(near), lim - 1 - _block(far)])
    return build_octree(QuantizedCloud((cells + 0.5) / lim, depth))


@pytest.mark.parametrize("k", [8, 9, 16])
def test_knn_shell_path_reaches_across_the_domain(k):
    # a 2x2x2 and a 3x3x3 corner of a depth-4 grid: from k = 9 on, a near
    # query's k-th nearest node lies in the far corner, which only the scan
    # reaches; the far corner's queries settle in the cube
    tree = _corners(2, 3, 4)
    assert tree.node_count(4) == 35
    assert np.array_equal(knn_indices(tree, 4, k=k), brute_force_knn(tree.coords(4), k))


def test_knn_far_corners_cost_is_bounded():
    # a 2x2x2 and a 13x13x13 corner of a depth-5 grid (2,205 nodes): a near
    # query's 9th neighbour is in the far corner, outside every cube of fewer
    # than n cells, so the scan finds it; the peak is then the row blocks'
    # (about 5.5 MiB), where a cube grown to the far corner traces 119 MiB
    tree = _corners(2, 13, 5)
    tracemalloc.start()
    try:
        got = knn_indices(tree, 5, k=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, brute_force_knn(tree.coords(5), 9))
    assert peak < 8 << 20


def test_knn_deterministic_under_ties():
    # a symmetric grid produces many exact distance ties
    lim = 4
    g = (np.arange(lim) + 0.5) / lim
    xs, ys, zs = np.meshgrid(g, g, g, indexing="ij")
    pos = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    tree = build_octree(QuantizedCloud(pos, 2))
    a = knn_indices(tree, 2, k=6)
    assert np.array_equal(a, brute_force_knn(tree.coords(2), 6))
    assert np.array_equal(a, knn_indices(tree, 2, k=6))


def _knn_cloud(kind, n, depth, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        pos = rng.random((n, 3))
    else:  # a dense blob plus a few far outliers
        pos = np.clip(rng.normal(0.25, 0.02, size=(n, 3)), 0.0, 0.5)
        far = max(1, n // 20)
        pos[:far] = rng.uniform(0.6, 0.999, size=(far, 3))
    return build_octree(QuantizedCloud(pos, depth))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["uniform", "blob"]), n=st.integers(1, 700),
       depth=st.integers(1, 6), seed=st.integers(0, 2**16), k_share=st.floats(0, 1),
       elements=st.sampled_from([1000, 5000, 1 << 17]))
def test_knn_indices_property(kind, n, depth, seed, k_share, elements):
    tree = _knn_cloud(kind, n, depth, seed)
    nodes = tree.node_count(depth)
    k = 1 + round(k_share * (nodes - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "MLP_BLOCK_ELEMENTS", elements)
        got = knn_indices(tree, depth, k)
    assert np.array_equal(got, brute_force_knn(tree.coords(depth), k))


@pytest.mark.parametrize("case,paths", [
    ("grid", {"cube"}), ("far-corners", {"scan"}), ("corners", {"cube", "scan", "mixed"}),
    ("blob", {"cube", "scan", "mixed"})], ids=["grid", "far-corners", "corners", "blob"])
def test_knn_every_k_matches_brute_force_on_each_path(monkeypatch, case, paths):
    """Every k from 1 to n, several row blocks each. A call is "cube" when
    every query settles in the cube, "scan" when every query scans all nodes,
    and "mixed" otherwise."""
    if case == "grid":  # a 6x6x6 block: up to k = 8 every query settles at radius 1
        tree = _corners(6, 0, 3)
    elif case == "far-corners":  # 16 nodes: every cube holds 27 cells or more
        tree = _corners(2, 2, 5)
    elif case == "corners":
        tree = _corners(2, 3, 4)
    else:
        tree = _knn_cloud("blob", 80, 6, 3)
    depth = tree.depth
    nodes = tree.node_count(depth)
    calls = []

    def spy(n, width, elements=None):
        calls.append((n, width))
        return T.row_blocks(n, width, elements)

    monkeypatch.setattr(T, "MLP_BLOCK_ELEMENTS", 200)
    monkeypatch.setattr(baselines, "row_blocks", spy)
    seen = set()
    for k in range(1, (8 if case == "grid" else nodes) + 1):
        calls.clear()
        got = knn_indices(tree, depth, k)
        assert np.array_equal(got, brute_force_knn(tree.coords(depth), k)), k
        cube = [c for c in calls if c[1] < nodes]
        scanned = calls[-1][0]
        assert calls[-1][1] == nodes
        seen.add("scan" if not cube else "cube" if not scanned else "mixed")
    assert seen == paths


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


def test_knn_attention_chunking_consistent(monkeypatch):
    tree = tree_of(100, depth=5, seed=20)
    n = tree.node_count(5)
    p = params_of(16, 2, 21)
    x = T.Tensor(np.random.default_rng(22).normal(size=(n, 16)).astype(np.float32))
    b = knn_sliding_attention(x, tree, 5, 8, p).data
    # k * C = 128 elements a row: blocks of 7 or 8 rows
    monkeypatch.setattr(T, "MLP_BLOCK_ELEMENTS", 7 * 128)
    a = knn_sliding_attention(x, tree, 5, 8, p).data
    assert np.abs(a - b).max() < 1e-6


def test_knn_k_too_large():
    tree = tree_of(30, depth=4, seed=23)
    with pytest.raises(ValueError):
        knn_indices(tree, 4, k=tree.node_count(4) + 1)
    with pytest.raises(ValueError):
        knn_indices(tree, 4, k=0)
