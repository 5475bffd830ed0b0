"""The traced benchmark still sees every layer the program runs.

The benchmark's tracer times layers by swapping names that octformer modules
bind (``network.apply_layer_norm``, ``octconv.batch_norm``,
``partition.batch_norm``, ``network.downsample``, ...). Code that stops
calling one of those names leaves that layer's metric at 0 and fails nothing
else, so one traced op each of a tiny segment and a tiny training workload
must show time in every layer it runs.
"""

from perfbench import tracing, workloads
from perfbench.run import run_ops

# what a segment op does not run, and what a training op does not run
SEGMENT_ABSENT = ("tensor.backward_s", "network.adamw_s", "network.eval_s")
TRAIN_ABSENT = ("network.load_checkpoint_s", "pointcloud.read_s")


class TinySegment(workloads.Segment60k):
    points, depth = 2000, 7


class TinyTrain(workloads.TrainToy):
    clouds, points, depth, steps = 2, 500, 7, 2


def traced_op_metrics(workload) -> dict[str, float]:
    """Per-layer metrics of one traced op; the tracer's names restored after."""
    workload.reference = None  # the stored references are for the full-size inputs
    workload.setup()
    tracer = tracing.Tracer()
    targets = [(owner, attr, getattr(owner, attr))
               for owner, attr, _ in tracer._targets()]
    tracer.install()
    try:
        [(elapsed, problems, _)] = run_ops(workload, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in targets)
    assert elapsed is not None and problems == []
    return tracer.op_layer_metrics(0)


def test_segment_op_times_every_forward_layer(tmp_path):
    m = traced_op_metrics(TinySegment(0, str(tmp_path)))
    layers = [f"{layer}.fwd_s" for layer in tracing.SPLIT_LAYERS]
    layers += [name for name in tracing.PLAIN_LAYERS if name not in SEGMENT_ABSENT]
    assert [name for name in layers if not m[name] > 0] == []


def test_train_op_times_every_forward_and_backward_layer(tmp_path):
    m = traced_op_metrics(TinyTrain(0, str(tmp_path)))
    layers = [f"{layer}.{phase}_s" for layer in tracing.SPLIT_LAYERS
              for phase in ("fwd", "bwd")]
    layers += [name for name in tracing.PLAIN_LAYERS if name not in TRAIN_ABSENT]
    assert [name for name in layers if not m[name] > 0] == []
