"""The whole segmentation network against ``oracles.naive_segment_logits``.

Every layer has its own oracle elsewhere; this checks how they compose: the
depth each stage runs at, the dilation pattern, the block's op order, the
downsample wiring, the FPN's parent gathers and the point-to-node map. Every
parameter is drawn at random, because the CPE kernels, norms and biases
initialise to an identity or zero.
"""

import copy

import numpy as np
import pytest

from octformer import network
from octformer import tensor as T
from octformer.network import NetworkConfig, init_model, named_tensors, segment_logits
from octformer.octree import QuantizedCloud, build_octree

from oracles import float64, naive_segment_logits

TOL = 1e-10


def two_sphere_cloud(n: int, seed: int) -> QuantizedCloud:
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centres = np.where(rng.random(n)[:, None] < 0.5, 0.32, 0.68)
    pos = np.clip(centres + dirs * rng.uniform(0.12, 0.2, size=(n, 1)), 0.0,
                  np.nextafter(1.0, 0.0))
    return QuantizedCloud(pos, 7, colors=rng.random((n, 3)))


def random_model(blocks, seed: int) -> network.ModelParams:
    """A float64 model with every weight, norm and running statistic drawn."""
    config = NetworkConfig(channels=16, blocks=blocks, point_number=8, dilation=2,
                           octree_depth=7, num_classes=3, features=("position", "color"),
                           fpn_channels=12, head_hidden=12)
    model = float64(init_model(config, seed=seed))
    rng = np.random.default_rng(seed + 1)
    for name, value, kind in named_tensors(model):
        if kind == "buffer":  # running statistics
            value[...] = (rng.uniform(0.5, 2.0, value.shape) if name.endswith("var")
                          else rng.normal(0.0, 0.3, value.shape))
        elif name.endswith("gamma"):
            value.data = 1.0 + rng.normal(0.0, 0.2, value.shape)
        elif value.ndim == 1:  # biases and betas
            value.data = rng.normal(0.0, 0.2, value.shape)
        else:  # (fan_in, fan_out) and (taps, [fan_in,] fan_out) weights
            fan_in = int(np.prod(value.shape[:-1]))
            value.data = rng.normal(0.0, 1.0 / np.sqrt(fan_in), value.shape)
    return model


def assert_matches_oracle(blocks, training: bool, seed: int = 0):
    cloud = two_sphere_cloud(500, seed)
    model = random_model(blocks, seed)
    want = naive_segment_logits(cloud, copy.deepcopy(model), training)
    got = segment_logits(cloud, model, training).data
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.abs(want).max() > 0.1  # the comparison is not between near-zeros
    assert np.abs(got - want).max() <= TOL


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("blocks", [(1, 1, 1, 1), (2, 2, 2, 2)])
def test_segment_logits_match_the_naive_network(blocks, training):
    assert_matches_oracle(blocks, training)


def test_small_chunks_and_blocks_match_the_naive_network(monkeypatch):
    """Several attention chunks, MLP row blocks, conv tap blocks and head
    blocks per layer."""
    monkeypatch.setattr(network, "ATTN_CHUNK_ELEMENTS", 2 * 1 * 2 * 8 * 8)
    monkeypatch.setattr(T, "MLP_BLOCK_ELEMENTS", 64 * 16)
    monkeypatch.setattr(network, "HEAD_BLOCK_ROWS", 64)
    stage0 = build_octree(two_sphere_cloud(500, 1)).node_count(5)
    assert len(network.attention_chunks(stage0, 8, 2, 1)) > 3
    assert len(T.row_blocks(stage0, 4 * 16)) > 3
    assert len(T.row_blocks(stage0, 1, network.HEAD_BLOCK_ROWS)) > 3
    assert_matches_oracle((2, 2, 2, 2), training=False, seed=1)
