import functools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from octformer import experiments
from octformer import tensor as T
from octformer.experiments import block_stack_logits, init_block_stack, train_block_stack
from octformer.network import OptimSettings
from octformer.octree import build_octree, init_leaf_features
from octformer.synthetic import octant_task_cloud


def test_block_stack_shapes_and_cpe_toggle():
    sample = octant_task_cloud(20, depth=4, seed=0)
    tree = build_octree(sample.cloud)
    feats = init_leaf_features(tree, sample.cloud, use_color=True,
                               use_position=False)
    for with_cpe in (True, False):
        params = init_block_stack(3, channels=16, num_blocks=2, heads=2,
                                  num_classes=8, dilation=2, seed=0,
                                  with_cpe=with_cpe)
        logits = block_stack_logits(params, tree, feats, point_number=8,
                                    training=False)
        assert logits.shape == (sample.labels.size, 8)


def test_without_cpe_constant_features_give_constant_logits():
    sample = octant_task_cloud(25, depth=5, seed=1)
    tree = build_octree(sample.cloud)
    feats = init_leaf_features(tree, sample.cloud, use_color=True,
                               use_position=False)
    assert np.allclose(feats.data, feats.data[0])
    params = init_block_stack(3, channels=16, num_blocks=3, heads=2,
                              num_classes=8, dilation=2, seed=2, with_cpe=False)
    logits = block_stack_logits(params, tree, feats, point_number=8,
                                training=False).data
    assert np.abs(logits - logits[0]).max() < 1e-5


def test_with_cpe_breaks_constancy():
    sample = octant_task_cloud(25, depth=5, seed=1)
    tree = build_octree(sample.cloud)
    feats = init_leaf_features(tree, sample.cloud, use_color=True,
                               use_position=False)
    params = init_block_stack(3, channels=16, num_blocks=3, heads=2,
                              num_classes=8, dilation=2, seed=2, with_cpe=True)
    # zero-initialized CPE kernels start as the identity; perturb them
    rng = np.random.default_rng(3)
    for block in params.blocks:
        block.cpe.kernel = T.Tensor(
            rng.normal(scale=0.1, size=block.cpe.kernel.shape).astype(np.float32))
    logits = block_stack_logits(params, tree, feats, point_number=8,
                                training=False).data
    assert np.abs(logits - logits[0]).max() > 1e-4


def test_train_block_stack_smoke():
    sample = octant_task_cloud(10, depth=4, seed=4)
    params = init_block_stack(3, channels=8, num_blocks=1, heads=1,
                              num_classes=8, dilation=1, seed=5, with_cpe=True)
    settings = OptimSettings(steps=2, lr=1e-3, weight_decay=0.0, seed=0)
    result = train_block_stack(sample, params, point_number=8, settings=settings)
    assert len(result.records) == 2
    assert 0.0 <= result.final_accuracy <= 1.0


@pytest.mark.parametrize("args, message", [
    (["--steps", "0"], "argument --steps: must be >= 1, got 0"),
    (["--channels", "0"], "argument --channels: must be >= 1, got 0"),
    (["--depth", "30", "--steps", "1"], "data error: octree depth must be in [1, 21]"),
])
def test_cpe_ablation_script_rejects_bad_arguments_without_a_traceback(args, message):
    """A count below 1 is argparse's usage error and an unsatisfiable set-up a
    one-line config error: both exit 2, and stderr holds no traceback."""
    src = pathlib.Path(experiments.__file__).resolve().parents[1]
    script = src.parent / "scripts" / "cpe_ablation.py"
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and message in proc.stderr


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 74.5 GiB"),
     "data error: out of memory: Unable to allocate 74.5 GiB\n"),
    (MemoryError(), "data error: out of memory\n"),
])
def test_cpe_ablation_script_reports_out_of_memory_in_one_line(monkeypatch, capsys,
                                                               error, message):
    """An ablation too large for memory is one data-error line and exit 2, as
    ``octformer`` commands give it; the stub raises before anything is allocated."""
    import importlib.util

    src = pathlib.Path(experiments.__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "cpe_ablation", src.parent / "scripts" / "cpe_ablation.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    @functools.wraps(script.run_cpe_ablation)  # main reads the defaults off its signature
    def out_of_memory(**kwargs):
        raise error

    monkeypatch.setattr(script, "run_cpe_ablation", out_of_memory)
    monkeypatch.setattr(sys, "argv", ["cpe_ablation.py", "--point-number", "100000"])
    assert script.main() == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""


@pytest.mark.parametrize("channels, heads", [(48, 3), (64, 4), (8, 1), (33, 1), (100, 5)])
def test_ablation_heads_is_the_largest_divisor_within_one_per_16_channels(channels, heads):
    assert experiments.ablation_heads(channels) == heads


def test_cpe_ablation_runs_33_channels_with_one_head(monkeypatch):
    heads = []

    def init_recording_heads(*args, **kwargs):
        heads.append(kwargs["heads"])
        return init_block_stack(*args, **kwargs)

    monkeypatch.setattr(experiments, "init_block_stack", init_recording_heads)
    res = experiments.run_cpe_ablation(points_per_octant=4, depth=3, channels=33,
                                       num_blocks=1, steps=1)
    assert heads == [1, 1]
    assert len(res["with_cpe"].records) == len(res["without_cpe"].records) == 1
