"""Checks of the benchmark itself: failure counting, the oracle and the tracer."""

import numpy as np

from octformer import network, partition
from perfbench import tracing, workloads
from perfbench.run import run_ops


class TinySweep(workloads.AttnSweep):
    sizes = (300, 700)


def tiny_sweep(tmp_path):
    w = TinySweep(0, str(tmp_path))
    w.reference = None
    w.setup()
    return w


def test_corrupted_attention_output_is_a_failed_op(tmp_path):
    w = tiny_sweep(tmp_path)
    w.reference = w.reference_record(w.op())
    [(elapsed, problems, _)] = run_ops(w, 0.0)
    assert elapsed > 0 and problems == []

    honest_op = w.op

    def corrupted_op():
        out = honest_op()
        y, gx = out[700]
        y = y.copy()
        y[5, 3] += 0.5
        out[700] = (y, gx)
        return out

    w.op = corrupted_op
    [(_, problems, _)] = run_ops(w, 0.0)
    assert len(problems) == 1 and "n=700 output" in problems[0]


def test_swapped_attention_rows_are_a_failed_op(tmp_path):
    # at 4000 tokens a tolerance scaled by the absolute sum would miss this
    class Sweep4k(workloads.AttnSweep):
        sizes = (4000,)

    w = Sweep4k(0, str(tmp_path))
    w.reference = None
    w.setup()
    out = w.op()
    w.reference = w.reference_record(out)
    y, gx = out[4000]
    swapped = y.copy()
    swapped[[10, 11]] = y[[11, 10]]
    [problem] = w.check({4000: (swapped, gx)})
    assert "n=4000 output" in problem


class TinyTrain(workloads.TrainToy):
    clouds, points, depth, steps = 2, 500, 7, 3


def test_train_check_catches_a_skipped_optimizer(tmp_path, monkeypatch):
    w = TinyTrain(0, str(tmp_path))
    w.setup()
    w.reference = w.reference_record(w.op())
    assert w.check(w.op()) == []
    monkeypatch.setattr(network.AdamW, "step", lambda self, grads, lr: None)
    [problem] = w.check(w.op())
    assert problem.startswith("losses")


def test_raising_op_is_a_failed_op(tmp_path):
    w = tiny_sweep(tmp_path)

    def broken_op():
        raise FloatingPointError("boom")

    w.op = broken_op
    [(elapsed, problems, summary)] = run_ops(w, 0.0)
    assert elapsed is None and summary == {} and "FloatingPointError" in problems[0]


def test_segment_check_catches_changed_labels(tmp_path):
    w = workloads.Segment60k(0, str(tmp_path))
    w.reference, w.first_labels = None, None
    labels = np.arange(w.points) % 2
    logits = np.stack([labels, 1 - labels], axis=1).astype(np.float32)
    out = {"exit_code": 0, "labels_text": "\n".join(map(str, labels)) + "\n",
           "logits": logits}
    assert w.check(out) == []
    w.reference = w.reference_record(out)
    assert w.check(out) == []
    labels[7] = 1 - labels[7]
    changed = dict(out, labels_text="\n".join(map(str, labels)) + "\n")
    assert w.check(changed) == ["labels differ from the first op of the run"]
    assert w.check(dict(out, logits=logits * 1.001))[0].startswith("logits checksum")
    assert w.check(dict(out, exit_code=2)) == ["segment exited with 2"]


def test_windowed_attention_matches_dense_oracle():
    assert workloads.attention_oracle_check(seed=0, n=200) == []


def test_tracer_attributes_forward_and_backward_and_restores(tmp_path):
    w = tiny_sweep(tmp_path)
    originals = (partition.softmax, network.octformer_block, network.AdamW.step)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_ops(w, 0.0, tracer)
        tracer.memory = True
        run_ops(w, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert (partition.softmax, network.octformer_block, network.AdamW.step) == originals
    m = tracer.op_layer_metrics(0)
    for layer in ("partition.qkv", "partition.scores", "partition.softmax",
                  "partition.context", "partition.proj", "partition.regroup"):
        assert m[f"{layer}.fwd_s"] > 0 and m[f"{layer}.bwd_s"] > 0, layer
    assert m["tensor.backward_s"] > 0 and m["partition.plan_s"] > 0
    assert m["octree.build_s"] == 0 and m["tensor.tape_nodes"] > 0
    assert 0.5 < m["trace.covered_share"] <= 1.0 + 1e-9
    assert m["partition.windows"] == 384 // 32 + 768 // 32  # padded to k*d=128
    assert tracer.op_layer_metrics(1)["partition.attn.peak_mb"] > 0
    assert tracer.structure_digest(0) == tracer.structure_digest(1)
    spans = tracer.op_spans(0)
    assert spans[0].name == w.root_span and spans[0].parent == -1
    assert all(s.op == 0 and s.self_s >= 0 for s in spans)
