"""Mechanism experiments that isolate specific architecture components.

The positional-encoding ablation trains a pure block stack (linear lift +
transformer blocks at the leaf depth + per-node classifier) on a task whose
labels depend only on position while the input features are constant. The
conv embedding and FPN are deliberately absent: zero-padding at absent
neighbors makes any convolution a positional signal on its own, so a block
stack is the only configuration where removing the positional encoding
provably removes all positional information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (
    BlockParams,
    LabeledCloud,
    OptimSettings,
    TrainResult,
    fit,
    octformer_block,
    trainable_parameters,
)
from .octree import build_octree, init_leaf_features
from .tensor import LinearParams, Tensor, gather_rows, linear


@dataclass
class BlockStackParams:
    lift: LinearParams
    blocks: list[BlockParams]
    classifier: LinearParams


def init_block_stack(in_channels: int, channels: int, num_blocks: int,
                     num_classes: int, dilation: int, seed: int,
                     with_cpe: bool) -> BlockStackParams:
    rng = np.random.default_rng(seed)
    blocks = []
    for b in range(num_blocks):
        block = BlockParams.init(channels, ratio=2,
                                 dilation=1 if b % 2 == 0 else dilation, rng=rng)
        if not with_cpe:
            block.cpe = None
        blocks.append(block)
    return BlockStackParams(
        lift=LinearParams.init(in_channels, channels, rng),
        blocks=blocks,
        classifier=LinearParams.init(channels, num_classes, rng),
    )


def block_stack_logits(params: BlockStackParams, octree, feats: Tensor,
                       point_number: int, training: bool) -> Tensor:
    x = linear(feats, params.lift)
    for block in params.blocks:
        x = octformer_block(x, octree, octree.depth, block, point_number, training)
    node_logits = linear(x, params.classifier)
    return gather_rows(node_logits, octree.point_assignment)


def train_block_stack(sample: LabeledCloud, params: BlockStackParams,
                      point_number: int, settings: OptimSettings) -> TrainResult:
    octree = build_octree(sample.cloud)
    feats = init_leaf_features(octree, sample.cloud, use_color=True,
                               use_position=False)

    def logits_of(tree, x: Tensor, training: bool) -> Tensor:
        return block_stack_logits(params, tree, x, point_number, training)

    return fit(params, trainable_parameters(params), [(octree, feats, sample.labels)],
               logits_of, settings)


def run_cpe_ablation(points_per_octant: int = 160, depth: int = 5,
                     channels: int = 48, num_blocks: int = 6,
                     point_number: int = 16, steps: int = 240,
                     seed: int = 7) -> dict:
    """Train twin block stacks (with / without positional encoding) on the
    octant-labeling task; returns both accuracies and the chance level."""
    from .synthetic import octant_task_cloud

    sample = octant_task_cloud(points_per_octant, depth, seed)
    settings = OptimSettings(steps=steps, lr=3e-3, weight_decay=0.01,
                             batch_size=1, seed=seed)
    results = {}
    for with_cpe in (True, False):
        params = init_block_stack(
            in_channels=3, channels=channels, num_blocks=num_blocks,
            num_classes=8, dilation=4, seed=seed, with_cpe=with_cpe)
        key = "with_cpe" if with_cpe else "without_cpe"
        results[key] = train_block_stack(sample, params, point_number, settings)
    results["num_points"] = int(sample.labels.size)
    results["chance"] = 1.0 / 8.0
    return results
