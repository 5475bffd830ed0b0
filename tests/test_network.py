import copy
import dataclasses
import json
import os

import numpy as np
import pytest

from octformer import network
from octformer import tensor as T
from octformer.errors import ConfigError, DataError, NumericError, TrainingError
from octformer.network import (
    AdamW,
    NetworkConfig,
    OptimSettings,
    backbone_apply,
    classification_head,
    fit,
    fpn_segmentation_head,
    init_model,
    load_checkpoint,
    named_tensors,
    octformer_block,
    point_ancestor_index,
    resident,
    save_checkpoint,
    segment_logits,
    trainable_parameters,
    train_toy,
    BlockParams,
)
from octformer.octconv import conv_indices
from octformer.octree import QuantizedCloud, Taps, build_octree, init_leaf_features
from octformer.partition import AttentionParams, heads_for, make_plan, windowed_attention
from octformer.synthetic import two_spheres_dataset

from oracles import (
    backbone_forward,
    count_parameters,
    finite_difference_filtered,
    float64,
    full_grid_tree,
    gradcheck,
    grads_close,
    relative_error,
)


TINY = dict(channels=16, blocks=(1, 1, 1, 1), point_number=8, dilation=2,
            octree_depth=7, num_classes=3, features=("position",),
            fpn_channels=12, head_hidden=12)


def tiny_config(**overrides):
    kw = dict(TINY)
    kw.update(overrides)
    return NetworkConfig(**kw)


def sphere_cloud(n=400, depth=7, seed=0):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pos = np.clip(0.5 + dirs * 0.3, 0.0, np.nextafter(1.0, 0.0))
    return QuantizedCloud(pos, depth)


# -- config -------------------------------------------------------------------

def test_presets():
    base = NetworkConfig.preset("base")
    assert base.channels == 96 and base.blocks == (2, 2, 18, 2)
    small = NetworkConfig.preset("small")
    assert small.channels == 96 and small.blocks == (2, 2, 6, 2)
    large = NetworkConfig.preset("large")
    assert large.channels == 192 and large.blocks == (2, 2, 18, 2)
    with pytest.raises(ConfigError):
        NetworkConfig.preset("huge")


def test_structural_constants():
    cfg = NetworkConfig.preset("base")
    assert heads_for(cfg.channels) == 6  # 96 / 16
    assert cfg.stage_channels == (96, 192, 384, 384)
    assert [heads_for(c) for c in cfg.stage_channels] == [6, 12, 24, 24]


@pytest.mark.parametrize("c", [1, 8, 16, 33, 48, 96, 100, 384])
def test_a_block_gets_heads_for_its_width(c):
    block = BlockParams.init(c, ratio=4, dilation=1, rng=None)
    assert block.attn.heads == heads_for(c)
    assert block.attn.heads * block.attn.head_dim == c


def test_parameter_counts_match_reference_sizes():
    counts = {}
    for name, target in (("small", 18e6), ("base", 39e6), ("large", 156e6)):
        backbone = init_model(NetworkConfig.preset(name), seed=0).backbone
        counts[name] = count_parameters(backbone)
        assert abs(counts[name] - target) / target < 0.15
    assert counts["small"] < counts["base"] < counts["large"]
    assert abs(counts["base"] - 39e6) / 39e6 < 0.05


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(blocks=(1, 1, 1))
    with pytest.raises(ConfigError):
        tiny_config(num_classes=1)
    with pytest.raises(ConfigError):
        tiny_config(features=("position", "intensity"))


# -- blocks and backbone --------------------------------------------------------

def test_block_preserves_shape_and_identity_at_zero_projections():
    tree = build_octree(sphere_cloud(300, depth=5, seed=1))
    rng = np.random.default_rng(2)
    c = 16
    block = BlockParams.init(c, ratio=4, dilation=2, rng=rng)
    block.attn = dataclasses.replace(block.attn, heads=2, head_dim=c // 2)  # the same weights
    n = tree.node_count(5)
    x = rng.normal(size=(n, c)).astype(np.float32)
    out = octformer_block(T.Tensor(x), tree, 5, block, point_number=8,
                          training=False)
    assert out.shape == (n, c)

    # zero the output projections: the block must reduce to the identity
    block.attn.w_o = T.Tensor(np.zeros_like(block.attn.w_o.data))
    block.mlp.fc2.weight = T.Tensor(np.zeros_like(block.mlp.fc2.weight.data))
    block.mlp.fc2.bias = T.Tensor(np.zeros_like(block.mlp.fc2.bias.data))
    out = octformer_block(T.Tensor(x), tree, 5, block, point_number=8,
                          training=False)
    assert np.allclose(out.data, x, atol=1e-6)


def test_backbone_pyramid_structure():
    cfg = tiny_config()
    cloud = sphere_cloud(500, depth=7, seed=3)
    tree = build_octree(cloud)
    model = init_model(cfg, seed=0)
    pyramid = backbone_forward(cloud, cfg, model.backbone, training=False)
    assert pyramid.depths == [5, 4, 3, 2]
    for lvl, depth, c in zip(pyramid.levels, pyramid.depths, cfg.stage_channels):
        assert lvl.shape == (tree.node_count(depth), c)


def test_backbone_deterministic():
    cfg = tiny_config()
    cloud = sphere_cloud(300, depth=7, seed=4)
    model = init_model(cfg, seed=0)
    p1 = backbone_forward(cloud, cfg, model.backbone, training=False)
    p2 = backbone_forward(cloud, cfg, model.backbone, training=False)
    for a, b in zip(p1.levels, p2.levels):
        assert np.array_equal(a.data, b.data)


def test_backbone_requires_depth7():
    cfg = tiny_config(octree_depth=5)
    cloud = sphere_cloud(200, depth=5, seed=5)
    model = init_model(cfg, seed=0)
    with pytest.raises(ConfigError):
        backbone_forward(cloud, cfg, model.backbone)


def test_residual_identity_reduces_to_conv_path():
    # zero every attention/MLP output projection: the full backbone equals
    # the embedding + downsample path alone
    cfg = tiny_config()
    cloud = sphere_cloud(300, depth=7, seed=6)
    tree = build_octree(cloud)
    feats = init_leaf_features(tree, cloud, **cfg.feature_flags())
    model = init_model(cfg, seed=1)
    for stage in model.backbone.stages:
        for block in stage.blocks:
            block.attn.w_o = T.Tensor(np.zeros_like(block.attn.w_o.data))
            block.mlp.fc2.weight = T.Tensor(np.zeros_like(block.mlp.fc2.weight.data))
            block.mlp.fc2.bias = T.Tensor(np.zeros_like(block.mlp.fc2.bias.data))
    pyramid = backbone_apply(tree, feats, cfg, model.backbone, training=False)

    from octformer.octconv import downsample, embedding_stack
    x = embedding_stack(feats, tree, 7, model.backbone.embedding, training=False)
    depth = 5
    for i, stage in enumerate(model.backbone.stages):
        assert np.allclose(pyramid.levels[i].data, x.data, atol=1e-5)
        if stage.down is not None:
            x = downsample(x, tree, depth, stage.down, training=False)
            depth -= 1


# -- heads ----------------------------------------------------------------------

def test_fpn_head_shapes_and_nearest_upsample():
    cfg = tiny_config()
    cloud = sphere_cloud(400, depth=7, seed=7)
    tree = build_octree(cloud)
    model = init_model(cfg, seed=0)
    pyramid = backbone_forward(cloud, cfg, model.backbone, training=False)
    logits = fpn_segmentation_head(pyramid, tree, model.seg_head)
    assert logits.shape == (cloud.num_points, cfg.num_classes)

    # nearest upsample: every node receives exactly its parent's row
    coarse = T.Tensor(np.random.default_rng(8).normal(size=(tree.node_count(4), 6)))
    up = T.gather_rows(coarse, tree.parent_index[5])
    for i in range(tree.node_count(5)):
        parent = tree.parent_index[5][i]
        assert np.array_equal(up.data[i], coarse.data[parent])


def test_fpn_uniform_features_give_identical_logits_per_leaf():
    cfg = tiny_config()
    cloud = sphere_cloud(300, depth=7, seed=9)
    tree = build_octree(cloud)
    model = init_model(cfg, seed=0)
    pyramid = backbone_forward(cloud, cfg, model.backbone, training=False)
    uniform = [T.Tensor(np.ones_like(lvl.data)) for lvl in pyramid.levels]
    pyramid = dataclasses.replace(pyramid, levels=uniform)
    logits = fpn_segmentation_head(pyramid, tree, model.seg_head).data
    # all points sharing a finest-level node must share a logits row
    anchor = point_ancestor_index(tree, 5)
    for node in np.unique(anchor):
        rows = logits[anchor == node]
        assert np.array_equal(rows, np.tile(rows[0], (rows.shape[0], 1)))


def _per_point_head(pyramid, tree, head):
    """The head with its MLP run per point, after the gather to points."""
    from octformer.octconv import octree_conv

    u = T.linear(pyramid.levels[-1], head.lateral[-1])
    for i in range(len(pyramid.levels) - 2, -1, -1):
        up = T.gather_rows(u, tree.parent_index[pyramid.depths[i]])
        u = T.add(up, T.linear(pyramid.levels[i], head.lateral[i]))
    u = octree_conv(u, tree, pyramid.depths[0], head.fuse)
    feats = T.gather_rows(u, point_ancestor_index(tree, pyramid.depths[0]))
    return T.linear(T.relu(T.linear(feats, head.hidden)), head.classifier)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fpn_head_per_node_matches_per_point(dtype):
    cfg = tiny_config()
    cloud = sphere_cloud(400, depth=7, seed=11)
    tree = build_octree(cloud)
    model = init_model(cfg, seed=3)
    if dtype == np.float64:
        float64(model)
    feats = T.Tensor(init_leaf_features(tree, cloud, **cfg.feature_flags()).data, dtype)
    pyramid = backbone_apply(tree, feats, cfg, model.backbone, training=True)
    labels = np.random.default_rng(12).integers(0, cfg.num_classes, size=cloud.num_points)
    assert tree.node_count(pyramid.depths[0]) < cloud.num_points

    def run(head_fn):
        levels = [T.Tensor(lvl.data.copy()) for lvl in pyramid.levels]
        with T.Tape() as tape:
            logits = head_fn(dataclasses.replace(pyramid, levels=levels), tree,
                             model.seg_head)
            loss = T.cross_entropy(logits, labels)
        T.backward(tape, loss)
        wrt = levels + [t for _, t in trainable_parameters(model.seg_head)]
        return logits.data, [tape.grad(t) for t in wrt]

    got, got_grads = run(fpn_segmentation_head)
    want, want_grads = run(_per_point_head)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()
    if dtype == np.float64:
        for g, w in zip(got_grads, want_grads):
            assert relative_error(g, w) <= 1e-12


def test_point_ancestor_chain():
    cloud = sphere_cloud(200, depth=7, seed=10)
    tree = build_octree(cloud)
    idx = point_ancestor_index(tree, 5)
    cells = cloud.cells() >> 2  # depth-7 cell -> depth-5 cell
    from octformer import morton
    expect_keys = morton.encode_cells(cells, 5)
    assert np.array_equal(tree.keys[5][idx], expect_keys)


def test_classification_head():
    cfg = tiny_config()
    cloud = sphere_cloud(300, depth=7, seed=11)
    model = init_model(cfg, seed=0)
    pyramid = backbone_forward(cloud, cfg, model.backbone, training=False)
    logits = classification_head(pyramid, model.cls_head)
    assert logits.shape == (cfg.num_classes,)

    # permutation invariance of the mean
    top = pyramid.levels[-1]
    perm = np.random.default_rng(12).permutation(top.shape[0])
    permuted = dataclasses.replace(pyramid, levels=pyramid.levels[:-1]
                                   + [T.Tensor(top.data[perm])])
    logits2 = classification_head(permuted, model.cls_head)
    assert np.allclose(logits.data, logits2.data, atol=1e-5)

    # mean matches an accumulation loop
    acc = np.zeros(top.shape[1])
    for row in top.data:
        acc += row
    mean = acc / top.shape[0]
    expect = mean @ model.cls_head.classifier.weight.data + model.cls_head.classifier.bias.data
    assert np.allclose(logits.data, expect, atol=1e-4)

    # degenerate empty coarsest map
    from octformer.network import FeaturePyramid
    empty = FeaturePyramid([T.Tensor(np.zeros((0, cfg.stage_channels[-1])))], [2])
    with pytest.raises(NumericError):
        classification_head(empty, model.cls_head)


# -- end-to-end gradient ----------------------------------------------------------

def test_end_to_end_gradcheck_micro():
    cfg = tiny_config(channels=8, blocks=(1, 0, 0, 0), point_number=4,
                      dilation=2, num_classes=2, fpn_channels=6, head_hidden=6)
    cloud = sphere_cloud(50, depth=7, seed=13)
    tree = build_octree(cloud)
    feats = init_leaf_features(tree, cloud, **cfg.feature_flags())
    feats = T.Tensor(feats.data, np.float64)
    model = float64(init_model(cfg, seed=2))
    labels = np.random.default_rng(14).integers(0, 2, size=cloud.num_points)

    # training mode: batch norm keeps activations O(1), away from the
    # never-trained-stats regime where every ReLU sits at its kink
    def forward():
        pyramid = backbone_apply(tree, feats, cfg, model.backbone, training=True)
        logits = fpn_segmentation_head(pyramid, tree, model.seg_head)
        return T.cross_entropy(logits, labels)

    with T.Tape() as tape:
        loss = forward()
    T.backward(tape, loss)

    rng = np.random.default_rng(15)
    params = trainable_parameters(model.backbone) + trainable_parameters(model.seg_head)
    checked = valid_total = 0
    for name, p in params:
        analytic = tape.grad(p).reshape(-1)
        n_probe = min(3, p.size)
        probes = rng.choice(p.size, size=n_probe, replace=False)
        fd, valid = finite_difference_filtered(
            lambda v: _loss_with(p, v, forward), p.data, probes)
        checked += n_probe
        valid_total += int(valid.sum())
        assert grads_close(analytic[probes][valid], fd[valid]), name
    assert checked > 100
    # most probes must be away from ReLU kinks, or the check is vacuous
    assert valid_total > 0.6 * checked


def _loss_with(param, value, forward):
    original = param.data
    param.data = value
    try:
        return forward().item()
    finally:
        param.data = original


# -- receptive field ---------------------------------------------------------------

def test_far_point_outside_receptive_field_leaves_logits_unchanged():
    # query cluster first in z-order, one far point last, 40 buffer clusters
    # in distinct coarse cells between them; with K=4, D=2 the far token can
    # never reach the query within four attention hops, and every conv
    # footprint stays inside its own coarse cell.
    from octformer import morton

    depth = 7
    rng = np.random.default_rng(16)
    blob = 0.01 * rng.normal(size=(4, 3))
    clusters = []
    for code in range(41):  # depth-2 cells 0..40 in z-order
        cx = morton.decode_cells(code, 2)
        center = (cx + 0.5) / 4.0
        clusters.append(np.clip(center + blob, 0.0, np.nextafter(1.0, 0.0)))
    far = np.array([[0.97, 0.97, 0.97]])  # depth-2 cell (3,3,3), code 63
    pos_with = np.concatenate(clusters + [far])
    pos_without = np.concatenate(clusters)

    cfg = tiny_config(channels=8, point_number=4, dilation=2, num_classes=2,
                      fpn_channels=6, head_hidden=6)
    model = float64(init_model(cfg, seed=3))
    # warm the batch-norm running stats so eval activations are O(1)
    segment_logits(QuantizedCloud(pos_with, depth), model, training=True)

    def logits_of(pos):
        cloud = QuantizedCloud(pos, depth)
        return segment_logits(cloud, model, training=False).data

    with_far = logits_of(pos_with)
    without_far = logits_of(pos_without)
    n_query = 4
    assert np.abs(with_far[:n_query] - without_far[:n_query]).max() < 1e-9
    # sanity: the cloud was not globally unaffected
    assert np.abs(with_far[:-1] - without_far).max() > 1e-9


# -- precision ----------------------------------------------------------------------

@pytest.mark.parametrize("training", [False, True])
def test_float32_model_forward_stays_float32(training):
    model = init_model(tiny_config(), seed=5)
    with T.Tape() as tape:
        logits = segment_logits(sphere_cloud(300, seed=6), model, training=training)
    assert logits.dtype == np.float32
    assert tape.nodes
    assert {str(node.out.dtype) for node in tape.nodes} == {"float32"}


def test_attend_block_runs_in_float32(tmp_path, monkeypatch, capsys):
    from octformer import cli, network

    outputs = []

    def recording_block(*args, **kwargs):
        outputs.append(octformer_block(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(network, "octformer_block", recording_block)
    src = tmp_path / "pts.xyz"
    rows = np.random.default_rng(1).random((200, 6))
    src.write_text("\n".join(" ".join(f"{v:.6f}" for v in row) for row in rows) + "\n")
    assert cli.main(["attend", str(src), "--depth", "6", "--k", "8"]) == 0
    assert [out.dtype for out in outputs] == [np.float32]


def test_float32_segment_matches_float64_oracle():
    cloud = sphere_cloud(400, seed=7)
    model32 = init_model(tiny_config(), seed=8)
    segment_logits(cloud, model32, training=True)  # warm the batch-norm statistics
    model64 = float64(copy.deepcopy(model32))

    got = segment_logits(cloud, model32, training=False).data
    ref = segment_logits(cloud, model64, training=False).data
    assert got.dtype == np.float32 and ref.dtype == np.float64
    assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()


# -- checkpoint ---------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_config()
    cloud = sphere_cloud(300, depth=7, seed=17)
    model = init_model(cfg, seed=4)
    # make running stats non-trivial
    backbone_forward(cloud, cfg, model.backbone, training=True)
    before = segment_logits(cloud, model, training=False).data

    path = str(tmp_path / "model.ofck")
    save_checkpoint(path, model)
    restored = load_checkpoint(path)
    assert restored.config == cfg
    after = segment_logits(cloud, restored, training=False).data
    assert np.array_equal(before, after)

    with open(path, "rb") as f:
        assert f.read(4) == b"OFCK"


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ofck"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_checkpoint(str(path))


def test_checkpoint_truncated_or_unknown_tag_is_data_error(tmp_path):
    path = tmp_path / "model.ofck"
    save_checkpoint(str(path), init_model(tiny_config(), seed=0))
    data = path.read_bytes()
    cfg_end = 12 + int.from_bytes(data[8:12], "little")
    name_end = cfg_end + 4 + int.from_bytes(data[cfg_end:cfg_end + 4], "little")
    cuts = [5, 10, 12, cfg_end - 1, cfg_end + 2, name_end, name_end + 3,
            name_end + 9, len(data) // 2, len(data) - 1]
    for cut in cuts:
        path.write_bytes(data[:cut])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(str(path))
    bad_tag = bytearray(data)
    bad_tag[name_end] = 7
    path.write_bytes(bytes(bad_tag))
    with pytest.raises(DataError, match="dtype tag 7"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("config", [tiny_config(), NetworkConfig.preset("small")],
                         ids=["toy", "small"])
def test_load_checkpoint_reads_without_rng(tmp_path, monkeypatch, config):
    model = init_model(config, seed=6)
    path = str(tmp_path / "model.ofck")
    save_checkpoint(path, model)

    def forbidden(*args, **kwargs):
        raise AssertionError("the loader drew from an RNG")

    from octformer import octconv, partition

    for module in (T, octconv, partition):
        if hasattr(module, "trunc_normal"):
            monkeypatch.setattr(module, "trunc_normal", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    restored = load_checkpoint(path)
    saved = list(named_tensors(model))
    with resident(restored):
        loaded = list(named_tensors(restored))
        assert [n for n, _, _ in loaded] == [n for n, _, _ in saved]
        for (name, want, kind), (_, got, _) in zip(saved, loaded):
            want, got = (want.data, got.data) if kind == "param" else (want, got)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
            assert got.flags.writeable and got.flags.aligned, name


def test_load_checkpoint_stops_at_a_config_larger_than_the_file(tmp_path):
    path = tmp_path / "model.ofck"
    save_checkpoint(str(path), init_model(tiny_config(), seed=0))
    data = path.read_bytes()
    cfg_len = int.from_bytes(data[8:12], "little")
    cfg = json.loads(data[12:12 + cfg_len])
    cfg["blocks"] = [1, 1, 1, 100000]
    cfg_bytes = json.dumps(cfg).encode()
    path.write_bytes(data[:8] + len(cfg_bytes).to_bytes(4, "little") + cfg_bytes
                     + data[12 + cfg_len:])
    with pytest.raises(DataError, match="truncated checkpoint: its config needs"):
        load_checkpoint(str(path))


def _placeholders(model) -> bool:
    """Whether every parameter of ``model`` is a zero-stride placeholder."""
    return all(not any(p.data.strides) for _, p in trainable_parameters(model))


def test_segment_holds_one_module_of_a_loaded_model_at_a_time(tmp_path):
    """``segment`` with a ``small`` checkpoint (72.3 MiB of float32 weights) on
    a 2,000-point cloud peaks at under a quarter of the weights."""
    import tracemalloc

    from octformer import cli, pointcloud

    sample = two_spheres_dataset(1, 2000, depth=7, seed=0)[0]
    xyz, ckpt = str(tmp_path / "cloud.xyz"), str(tmp_path / "small.ofck")
    pointcloud.write_points(xyz, pointcloud.RawCloud(sample.cloud.positions,
                                                     sample.cloud.colors))
    config = NetworkConfig.preset("small", octree_depth=7, num_classes=2)
    save_checkpoint(ckpt, init_model(config, seed=0))
    weights = sum(p.data.nbytes for _, p in trainable_parameters(load_checkpoint(ckpt)))
    assert weights > 72 * 2**20
    tracemalloc.start()
    try:
        code = cli.main(["segment", xyz, "--ckpt", ckpt, "--out", str(tmp_path / "l.txt")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 18 * 2**20


@pytest.mark.parametrize("change", ["replaced", "truncated", "touched"])
def test_a_checkpoint_changed_after_loading_is_a_data_error(tmp_path, change):
    cloud = sphere_cloud(300, depth=7, seed=17)
    path = str(tmp_path / "model.ofck")
    save_checkpoint(path, init_model(tiny_config(), seed=4))
    model = load_checkpoint(path)
    if change == "replaced":  # the same bytes in a new file: another inode
        save_checkpoint(path + ".new", init_model(tiny_config(), seed=4))
        os.replace(path + ".new", path)
    elif change == "truncated":
        os.truncate(path, os.path.getsize(path) - 4)
    else:
        st = os.stat(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    with pytest.raises(DataError, match="changed since it was loaded"):
        segment_logits(cloud, model, training=False)


def test_saving_a_loaded_model_over_its_own_file_keeps_its_bytes(tmp_path):
    model = init_model(tiny_config(), seed=4)
    backbone_forward(sphere_cloud(300, depth=7, seed=17), model.config, model.backbone,
                     training=True)  # non-trivial running statistics
    path = tmp_path / "model.ofck"
    save_checkpoint(str(path), model)
    data = path.read_bytes()
    save_checkpoint(str(path), load_checkpoint(str(path)))
    assert path.read_bytes() == data


def test_a_failed_save_keeps_the_file_it_would_replace(tmp_path, monkeypatch):
    """The save fails after its sibling file is written, at the rename; the
    old file keeps its bytes and no other file is left beside it."""
    path = tmp_path / "model.ofck"
    save_checkpoint(str(path), init_model(tiny_config(), seed=4))
    data = path.read_bytes()

    def replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(network.os, "replace", replace)
    with pytest.raises(OSError, match="disk went away"):
        save_checkpoint(str(path), init_model(tiny_config(), seed=5))
    assert path.read_bytes() == data
    assert os.listdir(tmp_path) == ["model.ofck"]
    load_checkpoint(str(path))


def test_saving_a_dtype_without_a_tag_is_a_config_error(tmp_path):
    """A float16 parameter has no dtype tag: the save names it in one line and
    writes no file."""
    model = init_model(tiny_config(), seed=5)
    name, last = trainable_parameters(model)[-1]
    last.data = last.data.astype(np.float16)
    with pytest.raises(ConfigError) as err:
        save_checkpoint(str(tmp_path / "model.ofck"), model)
    assert str(err.value) == (f"cannot save {name}: dtype float16 is not "
                              "float32 or float64")
    assert os.listdir(tmp_path) == []


def test_a_saved_checkpoint_takes_its_mode_from_the_umask(tmp_path):
    path = tmp_path / "model.ofck"
    old = os.umask(0o022)
    try:
        save_checkpoint(str(path), init_model(tiny_config(), seed=4))
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == 0o644


def test_a_float64_checkpoint_loads_float64_placeholders(tmp_path):
    cloud = sphere_cloud(300, depth=7, seed=17)
    model = float64(init_model(tiny_config(), seed=4))
    path = str(tmp_path / "model.ofck")
    save_checkpoint(path, model)
    restored = load_checkpoint(path)
    params = trainable_parameters(restored)
    assert all(p.dtype == np.float64 and not p.data.flags.writeable for _, p in params)
    assert _placeholders(restored)
    got = segment_logits(cloud, restored, training=False).data
    assert _placeholders(restored)  # the forward dropped every module's weights
    want = segment_logits(cloud, model, training=False).data
    assert got.dtype == np.float64 and np.array_equal(got, want)


def test_a_taped_loaded_model_has_the_in_memory_gradients(tmp_path):
    """Under a tape each stored parameter is read once and stays: the vjps
    read the weights at backward time."""
    cfg = tiny_config(num_classes=2)
    cloud = sphere_cloud(300, depth=7, seed=17)
    labels = (cloud.positions[:, 0] > 0.5).astype(np.int64)
    model = init_model(cfg, seed=4)
    path = str(tmp_path / "model.ofck")
    save_checkpoint(path, model)
    restored = load_checkpoint(path)

    def gradients(m):
        with T.Tape() as tape:
            loss = T.cross_entropy(segment_logits(cloud, m, training=True), labels)
        T.backward(tape, loss)
        return [tape.grad(p) for _, p in trainable_parameters(m.backbone)
                + trainable_parameters(m.seg_head)]

    want, got = gradients(model), gradients(restored)
    assert all(p.stored is None for _, p in trainable_parameters(restored.backbone))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert any(np.any(g) for g in got)


# -- training -----------------------------------------------------------------------

def test_named_tensors_cover_params_and_buffers():
    model = init_model(tiny_config(), seed=0)
    kinds = {}
    for name, _, kind in named_tensors(model):
        kinds.setdefault(kind, 0)
        kinds[kind] += 1
        assert "config" not in name
    assert kinds["param"] > 50
    assert kinds["buffer"] > 10  # running stats


def test_train_zero_lr_keeps_parameters():
    dataset = two_spheres_dataset(2, 300, depth=7, seed=18)
    cfg = tiny_config(num_classes=2, features=("position", "color"))
    settings = OptimSettings(steps=3, lr=0.0, weight_decay=0.0, batch_size=2,
                             seed=5)
    reference = init_model(cfg, seed=5)
    result = train_toy(dataset, cfg, settings)
    for (name, p), (_, q) in zip(trainable_parameters(result.model.backbone),
                                 trainable_parameters(reference.backbone)):
        assert np.array_equal(p.data, q.data), name
    losses = [r["loss"] for r in result.records]
    assert max(losses) - min(losses) < 1e-6


def test_train_initial_loss_near_log_classes():
    dataset = two_spheres_dataset(2, 300, depth=7, seed=19)
    cfg = tiny_config(num_classes=2, features=("position", "color"))
    settings = OptimSettings(steps=1, lr=1e-3, seed=6)
    result = train_toy(dataset, cfg, settings)
    assert abs(result.initial_loss - np.log(2)) / np.log(2) < 0.05


def test_train_rejects_bad_labels():
    dataset = two_spheres_dataset(1, 100, depth=7, seed=20)
    dataset[0].labels[0] = 7
    cfg = tiny_config(num_classes=2, features=("position", "color"))
    with pytest.raises(DataError):
        train_toy(dataset, cfg, OptimSettings(steps=1))


def test_fit_stops_at_the_step_whose_loss_is_not_finite():
    """Steps 0 and 1 train; the taped logits of step 2 hold a nan, so fit
    raises before that step's backward and update."""
    lift = float64(T.LinearParams.init(1, 2, np.random.default_rng(0)))
    labels = np.array([0, 1, 0, 1])
    taped = []

    def logits_of(octree, feats, training):
        if training:
            taped.append(len(taped))
        x = feats.copy()
        if training and taped[-1] == 2:
            x[1, 0] = np.nan
        return T.linear(T.Tensor(x), lift)

    samples = [(None, np.ones((4, 1)), labels)]
    with pytest.raises(TrainingError, match="non-finite loss at step 2") as info:
        fit(lift, trainable_parameters(lift), samples, logits_of,
            OptimSettings(steps=4, lr=1e-2))
    assert info.value.step == 2
    assert taped == [0, 1, 2]


def test_adamw_decay_schedule():
    settings = OptimSettings(steps=100, lr=1.0)
    opt = AdamW([], settings)
    assert opt.lr_at(0) == 1.0
    assert opt.lr_at(59) == 1.0
    assert opt.lr_at(60) == pytest.approx(0.1)
    assert opt.lr_at(80) == pytest.approx(0.01)


def _adamw_reference_step(params, ms, vs, grads, t, lr, weight_decay):
    """AdamW as one expression per array; the in-place step must match its bits."""
    from octformer.network import ADAMW_BETAS, ADAMW_EPS

    b1, b2 = ADAMW_BETAS
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for p, m, v, g in zip(params, ms, vs, grads):
        g = g.astype(np.float64)
        m += (1 - b1) * (g - m)
        v += (1 - b2) * (g * g - v)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAMW_EPS)
        p.data = (p.data - lr * (update + weight_decay * p.data)).astype(p.dtype)


def test_adamw_step_matches_the_expression_bit_for_bit():
    rng = np.random.default_rng(12)
    shapes = [(96, 48), (48,), (3, 4, 5), (1,)]
    dtypes = [np.float32, np.float32, np.float64, np.float32]
    settings = OptimSettings(steps=8, lr=3e-3, weight_decay=0.05)
    params = [T.Tensor(rng.normal(size=s), dtype=d) for s, d in zip(shapes, dtypes)]
    ref = [T.Tensor(p.data.copy()) for p in params]
    opt = AdamW([(f"p{i}", p) for i, p in enumerate(params)], settings)
    ms = [np.zeros(s) for s in shapes]
    vs = [np.zeros(s) for s in shapes]
    for step in range(settings.steps):
        # float64 gradients as train_toy passes them, and float32 ones
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=s)
                 .astype(np.float64 if (step + i) % 2 else np.float32)
                 for i, s in enumerate(shapes)]
        kept = [g.copy() for g in grads]
        lr = opt.lr_at(step)
        opt.step(grads, lr)
        _adamw_reference_step(ref, ms, vs, grads, step + 1, lr, settings.weight_decay)
        for g, k in zip(grads, kept):
            assert g.tobytes() == k.tobytes()  # the gradients are not written
        for p, r, m, rm, v, rv in zip(params, ref, opt.m, ms, opt.v, vs):
            assert p.dtype == r.dtype
            assert p.data.tobytes() == r.data.tobytes()
            assert m.tobytes() == rm.tobytes() and v.tobytes() == rv.tobytes()


def test_adamw_step_is_bit_exact_across_row_blocks():
    """Parameters larger than one row block: a slip at a block boundary shows."""
    rng = np.random.default_rng(13)
    shapes = [(3 * 2**17 + 5,), (700, 200)]
    dtypes = [np.float32, np.float64]
    assert all(len(T.row_blocks(int(np.prod(s)), 1)) > 1 for s in shapes)
    settings = OptimSettings(steps=8, lr=3e-3, weight_decay=0.05)
    params = [T.Tensor(rng.normal(size=s), dtype=d) for s, d in zip(shapes, dtypes)]
    ref = [T.Tensor(p.data.copy()) for p in params]
    opt = AdamW([(f"p{i}", p) for i, p in enumerate(params)], settings)
    ms = [np.zeros(s) for s in shapes]
    vs = [np.zeros(s) for s in shapes]
    for step in range(settings.steps):
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=s)
                 .astype(np.float64 if (step + i) % 2 else np.float32)
                 for i, s in enumerate(shapes)]
        kept = [g.copy() for g in grads]
        lr = opt.lr_at(step)
        opt.step(grads, lr)
        _adamw_reference_step(ref, ms, vs, grads, step + 1, lr, settings.weight_decay)
        for g, k in zip(grads, kept):
            assert g.tobytes() == k.tobytes()
        for p, r, m, rm, v, rv in zip(params, ref, opt.m, ms, opt.v, vs):
            assert p.dtype == r.dtype and p.shape == r.shape
            assert p.data.tobytes() == r.data.tobytes()
            assert m.tobytes() == rm.tobytes() and v.tobytes() == rv.tobytes()


@pytest.mark.parametrize("batch_size", [1, 2])
def test_train_toy_frees_the_tape_before_each_step(monkeypatch, batch_size):
    import weakref

    from octformer import network

    tapes, steps = [], []

    class RecordingTape(T.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    step = AdamW.step

    def checked_step(self, grads, lr):
        assert len(tapes) == batch_size * (len(steps) + 1)
        assert all(tape() is None for tape in tapes)  # this step's tapes too
        steps.append(lr)
        return step(self, grads, lr)

    monkeypatch.setattr(network, "Tape", RecordingTape)
    monkeypatch.setattr(AdamW, "step", checked_step)
    dataset = two_spheres_dataset(3, 300, depth=7, seed=21)
    cfg = tiny_config(num_classes=2, features=("position", "color"))
    train_toy(dataset, cfg, OptimSettings(steps=2, lr=3e-3, batch_size=batch_size, seed=7))
    assert len(steps) == 2


def test_train_toy_batch_of_two_keeps_its_bits():
    """Losses and final parameters of a two-sample batch run, pinned by sha256:
    the gradient sum and its division keep the bits of a zero-filled float64
    accumulator divided by the batch size."""
    import hashlib

    dataset = two_spheres_dataset(3, 300, depth=7, seed=21)
    cfg = tiny_config(num_classes=2, features=("position", "color"))
    result = train_toy(dataset, cfg, OptimSettings(steps=3, lr=3e-3, weight_decay=0.05,
                                                   batch_size=2, seed=7))
    losses = [result.initial_loss, *(r["loss"] for r in result.records),
              result.final_loss]
    digest = hashlib.sha256(np.array(losses).tobytes())
    for _, t in trainable_parameters(result.model):
        digest.update(t.data.tobytes())
    assert digest.hexdigest() == (
        "27dfff80e72e0a43567305018a819a2b5f843b6eacd1469eb3adac321bc550e0")


# -- attention in chunks of whole spans -------------------------------------------

def _attention_outputs(attend, x, params, cotangent):
    """Output of ``attend(x)``, the gradients of x and the four weights, and
    the tape's node count."""
    with T.Tape() as tape:
        y = attend(x)
        loss = T.sum_(T.mul(y, cotangent))
    T.backward(tape, loss)
    grads = [tape.grad(t) for t in (x, params.w_q, params.w_k, params.w_v, params.w_o)]
    return y.data, grads, len(tape.nodes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 4])
def test_chunked_attention_matches_one_plan(monkeypatch, d, dtype):
    k, c, h = 8, 16, 2
    n = 11 * k * d - 5  # 11 spans, the last one short
    # at most three spans of d*h*k*k score elements per chunk: four equal
    # chunks of 2, 3, 3 and 3 spans, the last one short
    monkeypatch.setattr(network, "ATTN_CHUNK_ELEMENTS", 3 * d * h * k * k)
    chunks = network.attention_chunks(n, k, d, h)
    assert [(s.start, s.stop) for s in chunks] == [
        (0, 2 * k * d), (2 * k * d, 5 * k * d), (5 * k * d, 8 * k * d), (8 * k * d, n)]
    r = np.random.default_rng(30)
    params = AttentionParams.init(c, h, r, dtype=dtype)
    x = T.Tensor(r.normal(size=(n, c)), dtype)
    cotangent = T.Tensor(r.normal(size=(n, c)), dtype)

    def one_plan(t):
        return windowed_attention(t, make_plan(n, k, d), params)

    def chunked(t):
        return network.chunked_attention(t, k, d, params)

    want = one_plan(x).data
    assert chunked(x).data.tobytes() == want.tobytes()  # no tape
    got_y, got_grads, got_nodes = _attention_outputs(chunked, x, params, cotangent)
    want_y, want_grads, want_nodes = _attention_outputs(one_plan, x, params, cotangent)
    assert got_y.tobytes() == want.tobytes() == want_y.tobytes()
    # under a tape it is one plan: the same nodes, and every gradient's bits
    assert got_nodes == want_nodes
    for g, w in zip(got_grads, want_grads):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    # one chunk is the one-plan call itself: the same bits, no extra tape node
    monkeypatch.setattr(network, "ATTN_CHUNK_ELEMENTS", 1 << 20)
    assert len(network.attention_chunks(n, k, d, h)) == 1
    got_y, got_grads, got_nodes = _attention_outputs(chunked, x, params, cotangent)
    _, _, want_nodes = _attention_outputs(one_plan, x, params, cotangent)
    assert got_y.tobytes() == want.tobytes() and got_nodes == want_nodes
    for g, w in zip(got_grads, want_grads):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("d", [1, 4])
def test_chunked_attention_gradcheck(monkeypatch, d):
    k, c, h = 2, 4, 2
    n = 5 * k * d - 1
    monkeypatch.setattr(network, "ATTN_CHUNK_ELEMENTS", 2 * d * h * k * k)
    assert len(network.attention_chunks(n, k, d, h)) == 3

    def build(xs):
        params = AttentionParams(*xs[1:5], heads=h, head_dim=c // h)
        return T.sum_(T.mul(network.chunked_attention(xs[0], k, d, params), xs[5]))

    gradcheck(build, [(n, c), (c, c), (c, c), (c, c), (c, c), (n, c)])


def _untaped_peak(fn):
    """``fn()`` and its tracemalloc peak: what it allocates, not what existed
    before."""
    import tracemalloc

    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_without_tape_keeps_one_full_size_array(monkeypatch):
    """Untaped, the CPE's norm and residual run in place on its conv's output,
    and each branch's norm and residual run per row block into that array,
    with the taped bits: beyond the parameters and the input, a block never
    holds two (N, C) arrays."""
    # 16 attention chunks; the MLP runs in 32 row blocks at the default budget
    monkeypatch.setattr(network, "ATTN_CHUNK_ELEMENTS", 1 << 17)
    tree, c = full_grid_tree(5), 32
    n = tree.node_count(5)
    assert len(network.attention_chunks(n, 32, 1, 2)) == 16
    r = np.random.default_rng(33)
    block = BlockParams.init(c, 4, 1, r)
    block.cpe.kernel.data = r.normal(size=(27, c)).astype(np.float32)
    x = T.Tensor(r.normal(size=(n, c)), np.float32)
    with T.Tape():  # the taped ops write into no input; this also builds the tap tables
        want = octformer_block(x, tree, 5, block, 32, training=False).data
    got, peak = _untaped_peak(lambda: octformer_block(x, tree, 5, block, 32,
                                                      training=False).data)
    assert peak < 2 * n * c * 4
    assert got.tobytes() == want.tobytes()


def test_fpn_head_without_tape_keeps_one_full_size_array():
    """Untaped, the head's conv, hidden layer and classifier run per block of
    output rows, with the taped bits: beyond the parameters and the pyramid,
    the head never holds two (N, fpn_channels) arrays of the finest depth."""
    tree, f = full_grid_tree(5), 64  # 32,768 rows: four head blocks
    n = tree.node_count(5)
    cfg = NetworkConfig(channels=16, blocks=(1, 1, 1, 1), num_classes=2,
                        fpn_channels=f, head_hidden=f)
    head = init_model(cfg, seed=4).seg_head
    r = np.random.default_rng(34)
    pyramid = network.FeaturePyramid(
        [T.Tensor(r.normal(size=(tree.node_count(5 - i), c)), np.float32)
         for i, c in enumerate(cfg.stage_channels)], [5, 4, 3, 2])
    with T.Tape():  # this also builds the tap table
        want = fpn_segmentation_head(pyramid, tree, head).data
    assert all(lvl is not None for lvl in pyramid.levels)
    got, peak = _untaped_peak(lambda: fpn_segmentation_head(pyramid, tree, head).data)
    assert peak < 2 * n * f * 4
    assert got.tobytes() == want.tobytes()
    assert pyramid.levels == [None] * 4  # spent


def _held_arrays(obj):
    """Every ndarray reachable from ``obj`` through containers, dataclasses and
    array bases."""
    if isinstance(obj, np.ndarray):
        return [obj] + (_held_arrays(obj.base) if obj.base is not None else [])
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif dataclasses.is_dataclass(obj):
        obj = list(vars(obj).values())
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _held_arrays(item)]
    return []


def test_forward_caches_tap_pairs_and_no_tap_table(monkeypatch):
    """After an untaped forward the octree holds each conv footprint as
    ``Taps``, its per-tap pairs, and no (n_out, taps) array; ``conv_indices``
    builds the table anew from them, for every footprint."""
    trees = []

    def build_and_keep(cloud):
        trees.append(build_octree(cloud))
        return trees[-1]

    monkeypatch.setattr(network, "build_octree", build_and_keep)
    segment_logits(sphere_cloud(300, seed=7), init_model(tiny_config(), seed=6))
    (tree,) = trees

    def assert_pairs_only():
        assert tree._taps and all(type(t) is Taps for t in tree._taps.values())
        shapes = {t.shape for t in tree._taps.values()}
        assert not [a.shape for a in _held_arrays(tree) if a.shape in shapes]

    assert_pairs_only()
    for kernel, stride in ((3, 1), (2, 1), (3, 2), (2, 2)):
        taps = tree.tap_table(7, kernel, stride)
        table = conv_indices(tree, 7, kernel, stride)
        assert table.dtype == np.int32 and not table.flags.writeable
        assert np.array_equal(table, taps.table())
        assert tree.tap_table(7, kernel, stride) is taps
    assert_pairs_only()


def test_chunked_attention_without_tape_keeps_no_full_score_array():
    import tracemalloc

    # 20,000 tokens, C = 32, H = 8, K = 32: 5 chunks at the default budget, and
    # one (B, H, K, K) array of all the windows is 8 times the (N, C) output
    n, c, h, k = 20_000, 32, 8, 32
    assert len(network.attention_chunks(n, k, 1, h)) >= 4
    r = np.random.default_rng(31)
    params = AttentionParams.init(c, h, r, dtype=np.float32)
    x = T.Tensor(r.normal(size=(n, c)), np.float32)
    tracemalloc.start()
    try:
        network.chunked_attention(x, k, 1, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < make_plan(n, k, 1).b * h * k * k * 4
