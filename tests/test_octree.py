import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octformer import morton
from octformer.errors import ConfigError, DataError
from octformer.octree import (
    QuantizedCloud,
    build_octree,
    dump_octree,
    filter_and_pad_count,
    init_leaf_features,
    kernel_offsets,
)

from oracles import groupby_cell_mean


def random_cloud(rng, n=500, depth=6, colors=False, normals=False):
    positions = rng.random((n, 3))
    kw = {}
    if colors:
        kw["colors"] = rng.random((n, 3))
    if normals:
        v = rng.normal(size=(n, 3))
        kw["normals"] = v / np.linalg.norm(v, axis=1, keepdims=True)
    return QuantizedCloud(positions, depth, **kw)


def full_grid_cloud(depth):
    lim = 1 << depth
    g = (np.arange(lim) + 0.5) / lim
    xs, ys, zs = np.meshgrid(g, g, g, indexing="ij")
    pos = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    return QuantizedCloud(pos, depth)


def test_two_corner_points_depth1():
    cloud = QuantizedCloud(np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]), 1)
    tree = build_octree(cloud)
    assert tree.keys[1].tolist() == [0, 7]


def test_single_point_prefix_consistency():
    cloud = QuantizedCloud(np.array([[0.3, 0.6, 0.8]]), 5)
    tree = build_octree(cloud)
    for level in range(1, 6):
        assert tree.node_count(level) == 1
    for level in range(2, 6):
        child = int(tree.keys[level][0])
        assert child >> 3 == int(tree.keys[level - 1][0])


def test_leaf_count_matches_distinct_cells():
    rng = np.random.default_rng(3)
    cloud = random_cloud(rng, n=10_000, depth=6)
    tree = build_octree(cloud)
    brute = {tuple(c) for c in cloud.cells().tolist()}
    assert tree.node_count(6) == len(brute)


def test_point_assignment_round_trip():
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, n=800, depth=5)
    tree = build_octree(cloud)
    point_keys = morton.encode_cells(cloud.cells(), 5)
    assert np.array_equal(tree.keys[5][tree.point_assignment], point_keys)


def test_empty_cloud_rejected():
    with pytest.raises(DataError):
        QuantizedCloud(np.zeros((0, 3)), 4)


def test_out_of_range_positions_rejected():
    with pytest.raises(DataError):
        QuantizedCloud(np.array([[0.0, 0.0, 1.0]]), 4)
    with pytest.raises(DataError):
        QuantizedCloud(np.array([[-0.01, 0.5, 0.5]]), 4)


def test_octree_invariants_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        depth = int(rng.integers(2, 7))
        cloud = random_cloud(rng, n=int(rng.integers(1, 400)), depth=depth)
        tree = build_octree(cloud)
        for level in range(1, depth + 1):
            keys = tree.keys[level]
            assert (np.diff(keys.astype(np.int64)) > 0).all()
        for level in range(2, depth + 1):
            parents = tree.keys[level] >> np.uint64(3)
            assert np.isin(parents, tree.keys[level - 1]).all()
        for level in range(1, depth):
            up = tree.keys[level + 1] >> np.uint64(3)  # children's parent keys
            lo = np.searchsorted(up, tree.keys[level], "left")
            hi = np.searchsorted(up, tree.keys[level], "right")
            assert (hi > lo).all()  # every parent has a child
            assert lo[0] == 0
            assert (lo[1:] == hi[:-1]).all()
            assert hi[-1] == tree.node_count(level + 1)


def test_build_is_order_invariant():
    rng = np.random.default_rng(6)
    pos = rng.random((300, 3))
    t1 = build_octree(QuantizedCloud(pos, 5))
    t2 = build_octree(QuantizedCloud(pos[::-1].copy(), 5))
    for level in range(1, 6):
        assert np.array_equal(t1.keys[level], t2.keys[level])


def test_leaf_features_voxel_center_point():
    depth = 3
    center = np.array([[ (2 + 0.5) / 8, (5 + 0.5) / 8, (1 + 0.5) / 8 ]])
    cloud = QuantizedCloud(center, depth, colors=np.array([[1.0, 0.0, 0.0]]))
    tree = build_octree(cloud)
    feats = init_leaf_features(tree, cloud, use_color=True, use_position=True)
    assert np.allclose(feats.data, [[0, 0, 0, 1, 0, 0]], atol=1e-12)


def test_leaf_features_symmetric_pair_cancels():
    depth = 2
    base = np.array([1.5, 1.5, 1.5]) / 4
    off = np.array([0.05, -0.03, 0.02])
    cloud = QuantizedCloud(np.stack([base + off, base - off]), depth)
    tree = build_octree(cloud)
    feats = init_leaf_features(tree, cloud, use_position=True)
    assert tree.node_count(depth) == 1
    assert np.allclose(feats.data, 0.0, atol=1e-12)


def test_leaf_features_match_groupby_oracle():
    rng = np.random.default_rng(7)
    cloud = random_cloud(rng, n=600, depth=4, colors=True, normals=True)
    tree = build_octree(cloud)
    feats = init_leaf_features(tree, cloud, use_color=True, use_normal=True,
                               use_position=True)
    scale = float(1 << 4)
    signal = np.concatenate(
        [cloud.positions * scale - cloud.cells() - 0.5, cloud.colors, cloud.normals],
        axis=1,
    )
    oracle = groupby_cell_mean(cloud.cells(), signal)
    coords = tree.coords(4)
    for i in range(tree.node_count(4)):
        key = tuple(int(c) for c in coords[i])
        assert np.allclose(feats.data[i], oracle[key], atol=1e-9)


def test_leaf_features_absent_attribute():
    rng = np.random.default_rng(8)
    cloud = random_cloud(rng, n=10, depth=3)
    tree = build_octree(cloud)
    with pytest.raises(ConfigError):
        init_leaf_features(tree, cloud, use_color=True)
    with pytest.raises(ConfigError):
        init_leaf_features(tree, cloud, use_position=False)


def test_neighbor_indices_identity_column():
    rng = np.random.default_rng(9)
    cloud = random_cloud(rng, n=100, depth=4)
    tree = build_octree(cloud)
    idx = tree.tap_table(4, kernel=3, stride=1)
    assert np.array_equal(idx[:, 13], np.arange(tree.node_count(4)))


def test_neighbor_indices_isolated_node():
    cloud = QuantizedCloud(np.array([[0.5, 0.5, 0.5]]), 4)
    tree = build_octree(cloud)
    idx = tree.tap_table(4, kernel=3, stride=1)
    assert (np.delete(idx, 13, axis=1) == -1).all()  # every tap but the center


def test_neighbor_indices_dense_grid_matches_dict():
    depth = 3
    tree = build_octree(full_grid_cloud(depth))
    offsets = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
               for dz in (-1, 0, 1)]
    idx = tree.tap_table(depth, kernel=3, stride=1)
    coords = tree.coords(depth)
    lookup = {tuple(c): i for i, c in enumerate(coords.tolist())}
    lim = 1 << depth
    for i in range(tree.node_count(depth)):
        for j, off in enumerate(offsets):
            target = tuple(coords[i] + np.array(off))
            inside = all(0 <= t < lim for t in target)
            expect = lookup[target] if inside else -1
            assert idx[i, j] == expect
    interior = np.flatnonzero(
        ((coords > 0) & (coords < lim - 1)).all(axis=1))
    assert (idx[interior] >= 0).all()


@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(2, 5),
       st.sampled_from([(3, 1), (2, 1), (3, 2), (2, 2)]))
@settings(max_examples=40, deadline=None)
def test_tap_table_properties(seed, n, depth, kernel_stride):
    kernel, stride = kernel_stride
    tree = build_octree(QuantizedCloud(np.random.default_rng(seed).random((n, 3)), depth))
    table = tree.tap_table(depth, kernel, stride)

    lookup = {tuple(c): i for i, c in enumerate(tree.coords(depth).tolist())}
    anchors = (stride * tree.coords(depth + 1 - stride)).tolist()
    span = (-1, 0, 1) if kernel == 3 else (0, 1)
    offsets = list(itertools.product(span, span, span))  # dz fastest
    expect = [[lookup.get(tuple(a + o for a, o in zip(anchor, off)), -1)
               for off in offsets] for anchor in anchors]
    assert table.dtype == np.int32
    assert np.array_equal(table, np.array(expect, dtype=np.int64).reshape(table.shape))

    assert len(table.pairs) == len(offsets)
    for t, (rows, cols) in enumerate(table.pairs):
        present = table[:, t][table[:, t] >= 0]
        assert np.unique(present).size == present.size  # backward relies on this
        assert np.array_equal(rows, np.flatnonzero(table[:, t] >= 0))
        assert np.array_equal(cols, present)

    tree.neighbors = lambda *args: pytest.fail("cached tap table was rebuilt")
    assert tree.tap_table(depth, kernel, stride) is table
    for arr in (table, *table.pairs[0]):
        with pytest.raises(ValueError):
            arr[...] = 0


@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_tap_table_k3_taps_mirror(seed, n, depth):
    # tap 26 - t has the opposite offset of tap t, so the two are inverse maps
    tree = build_octree(QuantizedCloud(np.random.default_rng(seed).random((n, 3)), depth))
    table = tree.tap_table(depth, 3, 1)
    for t in range(27):
        rows = np.flatnonzero(table[:, t] >= 0)
        assert np.array_equal(table[table[rows, t], 26 - t], rows)


@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 6),
       st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_tap_table_recurrence_matches_key_search(seed, n, depth, edge_share):
    # the parent-to-child recurrence against a key search, at every depth; a share
    # of the points is pushed onto the cube's faces, edges and corners
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3))
    edge = rng.random((n, 3)) < edge_share
    pos[edge] = np.where(rng.random(edge.sum()) < 0.5, 0.0, np.nextafter(1.0, 0.0))
    tree = build_octree(QuantizedCloud(pos, depth))
    for d in range(1, depth + 1):
        for kernel, stride in ((3, 1), (2, 1), (3, 2), (2, 2)):
            if d < stride:
                continue
            table = tree.tap_table(d, kernel, stride)
            anchors = stride * tree.coords(d + 1 - stride)
            assert np.array_equal(table, tree.neighbors(d, anchors, kernel_offsets(kernel)))
        if d >= 2:  # the k2 stride-2 table is the by-slot child table, stored once
            assert np.shares_memory(tree.tap_table(d, 2, 2), tree._children(d - 1))


def test_tap_table_rejects_bad_footprint():
    tree = build_octree(full_grid_cloud(2))
    for depth, kernel, stride in ((2, 4, 1), (2, 3, 3), (1, 2, 2), (3, 3, 1)):
        with pytest.raises(ValueError):
            tree.tap_table(depth, kernel, stride)


def test_filter_and_pad_count():
    assert filter_and_pad_count(28, 7, 1) == 28
    assert filter_and_pad_count(30, 32, 4) == 128
    assert filter_and_pad_count(0, 8, 2) == 0
    for n in range(0, 200, 7):
        for k, d in ((7, 1), (16, 2), (32, 4)):
            padded = filter_and_pad_count(n, k, d)
            assert padded % (k * d) == 0
            assert 0 <= padded - n < k * d


def test_octree_dump_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    cloud = random_cloud(rng, n=200, depth=5)
    tree = build_octree(cloud)
    path = tmp_path / "tree.octf"
    dump_octree(tree, str(path))
    raw = path.read_bytes()
    assert raw[:4] == b"OCTF"
    # header: magic, version u32, depth u32; then per depth a u64 count and its keys
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == 5
    at = 12
    for level in range(1, 6):
        count = int.from_bytes(raw[at:at + 8], "little")
        assert count == tree.node_count(level)
        keys = np.frombuffer(raw, dtype="<u8", count=count, offset=at + 8)
        assert np.array_equal(keys, tree.keys[level])
        at += 8 + 8 * count
    assert at == len(raw)
