"""Spans recorded from outside the program, for the traced benchmark run.

While installed, the tracer replaces names that octformer modules bind
(``network.octformer_block``, ``partition.depthwise_conv``,
``partition.softmax``, ...) with wrappers that record one span per call:
name, start, end, parent span and op id. Spans stay in memory and are
written out when the run ends.

Backward time is attributed per layer: every tape node is owned by the
innermost span open when it was recorded, and during ``backward`` each
node's vjp is timed and charged to its owner as a ``bwd`` span. A span's
self time is its duration minus the time its children cover; the tracer's
own bookkeeping falls between spans, so it lowers the covered share rather
than inflating any layer.

Structural counters (nodes per depth, partition plans, tap tables, conv
gathers, tape nodes) are observed from call arguments and results; they
are pure functions of the inputs and repeat exactly at a fixed seed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

from octformer import network, octconv, partition, pointcloud, tensor

MB = float(1 << 20)

# Layers whose forward and backward self times are reported separately.
SPLIT_LAYERS = (
    "octconv.cpe", "octconv.embed", "octconv.down",
    "partition.cpe", "partition.regroup", "partition.qkv", "partition.scores",
    "partition.softmax", "partition.context", "partition.proj", "partition.attn",
    "tensor.layer_norm", "tensor.batch_norm",
    "network.block", "network.mlp", "network.fpn_head",
)
# Layers with no backward: one self time each.
PLAIN_LAYERS = {
    "octree.tap_table_s": "octree.tap_table",
    "octree.build_s": "octree.build",
    "octree.leaf_features_s": "octree.leaf_features",
    "partition.plan_s": "partition.plan",
    "tensor.backward_s": "tensor.backward",
    "network.adamw_s": "network.adamw",
    "network.eval_s": "network.eval",
    "network.load_checkpoint_s": "network.load_checkpoint",
    "pointcloud.read_s": "pointcloud.read",
}
PEAK_LAYERS = ("octconv.cpe", "octconv.embed", "partition.attn")
COUNTERS = (
    ("octree.tap_table_calls", "count"),
    ("octree.tap_table_distinct", "count"),
    ("octree.tap_fill_rate", "ratio"),
    ("octree.nodes", "count"),
    ("partition.windows", "count"),
    ("partition.padding_fraction", "ratio"),
    ("tensor.tape_nodes", "count"),
    ("octconv.gather_mb_computed", "MB"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer in SPLIT_LAYERS:
        units[f"{layer}.fwd_s"] = "s"
        units[f"{layer}.bwd_s"] = "s"
    for metric in PLAIN_LAYERS:
        units[metric] = "s"
    units["op.remainder_s"] = "s"
    units["synthetic.generate_s"] = "s"
    for layer in PEAK_LAYERS:
        units[f"{layer}.peak_mb"] = "MB"
    units.update(dict(COUNTERS))
    units["trace.op_p50_s"] = "s"
    units["trace.untraced_op_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.covered_share"] = "ratio"
    return units


@dataclass(slots=True)
class Span:
    name: str
    phase: str          # "fwd", or "bwd" for a timed vjp
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    child_s: float = 0.0
    peak_bytes: int = 0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass(slots=True)
class _Frame:
    index: int
    tape: object
    first_node: int
    start_mem: int
    saved_peak: int
    outer_start: float
    max_peak: int = 0
    matmuls_4d: int = 0
    params: object = None


@dataclass
class _OpCounters:
    octrees: list = field(default_factory=list)     # nodes per depth, per octree
    plans: list = field(default_factory=list)       # [n, k, d, windows, padded]
    tap_tables: list = field(default_factory=list)  # [depth, kernel, stride, rows, taps, present]
    tap_keys: set = field(default_factory=set)
    gathers: list = field(default_factory=list)     # [layer, rows, taps, c_in, bytes]
    tape_nodes: list = field(default_factory=list)  # nodes per backward call

    def structure(self) -> dict:
        return {"octrees": self.octrees, "plans": self.plans,
                "tap_tables": self.tap_tables,
                "tap_table_distinct": len(self.tap_keys),
                "gathers_computed": self.gathers, "tape_nodes": self.tape_nodes}


def _attn_matmul(tracer, args):
    frame = tracer.innermost("partition.attn")
    if frame is None:
        return None
    a, b = args[0], args[1]
    if frame.params is not None and b is frame.params.w_o:
        return "partition.proj"
    if a.ndim == 2:
        return "partition.qkv"
    frame.matmuls_4d += 1
    return "partition.scores" if frame.matmuls_4d == 1 else "partition.context"


def _attn_mul(tracer, args):
    if tracer.innermost("partition.attn") is None:
        return None
    # the query scaling is 4-D (B, H, K, dh); the padded-row mask is 3-D
    return "partition.scores" if args[0].ndim == 4 else "partition.proj"


def _attn_add(tracer, args):
    return "partition.scores" if tracer.innermost("partition.attn") else None


_BACKWARD = object()
_OBSERVE_ONLY = object()


class Tracer:
    """Span recorder; ``install`` patches the program, ``uninstall`` restores it."""

    def __init__(self):
        self.memory = False  # trace allocations (for peaks) in the next ops
        self.spans: list[Span] = []
        self.op = -1
        self.op_first_span: list[int] = []
        self.op_counters: list[_OpCounters] = []
        self._stack: list[_Frame] = []
        self._owners: dict[int, list[int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _targets(self):
        return [
            (network, "load_checkpoint", "network.load_checkpoint"),
            (pointcloud, "read_points", "pointcloud.read"),
            (network, "build_octree", "octree.build"),
            (network, "init_leaf_features", "octree.leaf_features"),
            (octconv, "conv_indices", "octree.tap_table"),
            (octconv, "gathered_conv", _OBSERVE_ONLY),
            (network, "embedding_stack", "octconv.embed"),
            (network, "downsample", "octconv.down"),
            (network, "octformer_block", "network.block"),
            (network, "conditional_positional_encoding", "partition.cpe"),
            (partition, "depthwise_conv", "octconv.cpe"),
            (network, "make_plan", "partition.plan"),
            (partition, "make_plan", "partition.plan"),
            (network, "windowed_attention", "partition.attn"),
            (partition, "windowed_attention", "partition.attn"),
            (partition, "apply_plan", "partition.regroup"),
            (partition, "reverse_plan", "partition.regroup"),
            (partition, "matmul", _attn_matmul),
            (partition, "mul", _attn_mul),
            (partition, "add", _attn_add),
            (partition, "softmax", "partition.softmax"),
            (network, "apply_layer_norm", "tensor.layer_norm"),
            (octconv, "batch_norm", "tensor.batch_norm"),
            (partition, "batch_norm", "tensor.batch_norm"),
            (network, "mlp_forward", "network.mlp"),
            (network, "fpn_segmentation_head", "network.fpn_head"),
            (network, "_dataset_metrics", "network.eval"),
            (network.AdamW, "step", "network.adamw"),
            (network, "backward", _BACKWARD),
            (tensor, "backward", _BACKWARD),
        ]

    def install(self) -> None:
        observers = {
            "octree.build": self._observe_octree,
            "octree.tap_table": self._observe_tap_table,
            "partition.plan": self._observe_plan,
        }
        for owner, attr, name in self._targets():
            fn = getattr(owner, attr)
            if name is _BACKWARD:
                wrapper = self._wrap_backward(fn)
            elif name is _OBSERVE_ONLY:
                wrapper = self._wrap_observer(fn, self._observe_gather)
            else:
                wrapper = self._wrap(fn, name, observers.get(name))
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    # -- ops ----------------------------------------------------------------

    def begin_op(self, root: str) -> None:
        self.op = len(self.op_first_span)
        self.op_first_span.append(len(self.spans))
        self.op_counters.append(_OpCounters())
        if self.memory:
            tracemalloc.start()
        self._enter(root)

    def end_op(self) -> None:
        self._exit()
        self.op = -1
        self._owners.clear()
        if self.memory:
            tracemalloc.stop()

    def innermost(self, name: str) -> _Frame | None:
        if self._stack and self.spans[self._stack[-1].index].name == name:
            return self._stack[-1]
        return None

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str, params=None) -> None:
        outer_start = time.perf_counter()
        tape = tensor._ACTIVE[-1] if tensor._ACTIVE else None
        cur = peak = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
        parent = self._stack[-1].index if self._stack else -1
        self._stack.append(_Frame(len(self.spans), tape,
                                  len(tape.nodes) if tape is not None else 0,
                                  cur, peak, outer_start, params=params))
        self.spans.append(Span(name, "fwd", 0.0, parent=parent, op=self.op))
        self.spans[-1].start = time.perf_counter()

    def _exit(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        span = self.spans[frame.index]
        span.end = end
        peak = 0
        if self.memory:
            peak = max(tracemalloc.get_traced_memory()[1], frame.max_peak)
            span.peak_bytes = peak - frame.start_mem
        if frame.tape is not None:
            self._claim(frame.tape, frame.first_node, frame.index)
        if self._stack:
            outer = self._stack[-1]
            outer.max_peak = max(outer.max_peak, frame.saved_peak, peak)
            self.spans[outer.index].child_s += time.perf_counter() - frame.outer_start

    def _claim(self, tape, first: int, index: int) -> None:
        owners = self._owners.setdefault(id(tape), [])
        n = len(tape.nodes)
        owners.extend([-1] * (n - len(owners)))
        for i in range(first, n):
            if owners[i] < 0:
                owners[i] = index

    def _leaf(self, name: str, phase: str, start: float, end: float) -> None:
        parent = self._stack[-1]
        self.spans.append(Span(name, phase, start, end, parent.index, self.op))
        self.spans[parent.index].child_s += end - start

    def _wrap(self, fn, name, observer):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            span_name = name(tracer, args) if callable(name) else name
            if span_name is None:
                return fn(*args, **kwargs)
            params = None
            if span_name == "partition.attn":  # windowed_attention(x, plan, params)
                params = args[2] if len(args) > 2 else kwargs["params"]
            tracer._enter(span_name, params)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if observer is not None:
                tracer._observe(observer, fn, args, kwargs, result)
            return result

        return wrapper

    def _wrap_observer(self, fn, observer):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.op >= 0:
                tracer._observe(observer, fn, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, observer, fn, args, kwargs, result) -> None:
        start = time.perf_counter()
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        observer(bound, result)
        self._leaf("trace.observe", "fwd", start, time.perf_counter())

    def _wrap_backward(self, fn):
        tracer = self

        def wrapper(tape, loss):
            if tracer.op < 0:
                return fn(tape, loss)
            current = tracer._stack[-1].index
            tracer._claim(tape, 0, current)
            owners = tracer._owners.pop(id(tape))
            tracer.op_counters[-1].tape_nodes.append(len(tape.nodes))
            original = [node.vjp for node in tape.nodes]
            for node, owner in zip(tape.nodes, owners):
                node.vjp = tracer._timed_vjp(node.vjp, tracer.spans[owner].name)
            tracer._enter("tensor.backward")
            try:
                return fn(tape, loss)
            finally:
                tracer._exit()
                for node, vjp in zip(tape.nodes, original):
                    node.vjp = vjp

        return wrapper

    def _timed_vjp(self, vjp, name: str):
        def timed(g):
            start = time.perf_counter()
            grads = vjp(g)
            self._leaf(name, "bwd", start, time.perf_counter())
            return grads

        return timed

    # -- structural observers ----------------------------------------------

    def _observe_octree(self, args, tree) -> None:
        self.op_counters[-1].octrees.append(
            [tree.node_count(level) for level in range(1, tree.depth + 1)])

    def _observe_tap_table(self, args, idx) -> None:
        c = self.op_counters[-1]
        c.tap_tables.append([args["depth"], args["kernel"], args["stride"],
                             int(idx.shape[0]), int(idx.shape[1]),
                             int((idx >= 0).sum())])
        c.tap_keys.add((id(args["octree"]), args["depth"], args["kernel"],
                        args["stride"]))

    def _observe_plan(self, args, plan) -> None:
        self.op_counters[-1].plans.append(
            [plan.n, plan.k, plan.d, plan.b, plan.padded])

    def _observe_gather(self, args, out) -> None:
        idx, x = args["idx"], args["x"]
        layer = self.spans[self._stack[-1].index].name
        rows, taps = idx.shape
        c_in = x.shape[1]
        self.op_counters[-1].gathers.append(
            [layer, int(rows), int(taps), int(c_in),
             int(rows * taps * c_in * x.dtype.itemsize)])

    # -- results -------------------------------------------------------------

    def op_spans(self, op: int) -> list[Span]:
        first = self.op_first_span[op]
        last = (self.op_first_span[op + 1] if op + 1 < len(self.op_first_span)
                else len(self.spans))
        return self.spans[first:last]

    def op_layer_metrics(self, op: int) -> dict[str, float]:
        """Per-layer self times, peaks and counters of one traced op."""
        spans = self.op_spans(op)
        self_s = defaultdict(float)
        peak = defaultdict(int)
        for s in spans:
            self_s[(s.name, s.phase)] += s.self_s
            peak[s.name] = max(peak[s.name], s.peak_bytes)
        out = {}
        for layer in SPLIT_LAYERS:
            out[f"{layer}.fwd_s"] = self_s[(layer, "fwd")]
            out[f"{layer}.bwd_s"] = self_s[(layer, "bwd")]
        for metric, layer in PLAIN_LAYERS.items():
            out[metric] = self_s[(layer, "fwd")]
        root = spans[0]
        out["op.remainder_s"] = root.self_s + self_s[(root.name, "bwd")]
        for layer in PEAK_LAYERS:
            out[f"{layer}.peak_mb"] = peak[layer] / MB
        c = self.op_counters[op]
        taps = sum(t[3] * t[4] for t in c.tap_tables)
        slots = sum(p[4] for p in c.plans)
        out["octree.tap_table_calls"] = len(c.tap_tables)
        out["octree.tap_table_distinct"] = len(c.tap_keys)
        out["octree.tap_fill_rate"] = (sum(t[5] for t in c.tap_tables) / taps
                                       if taps else 0.0)
        out["octree.nodes"] = sum(sum(tree) for tree in c.octrees)
        out["partition.windows"] = sum(p[3] for p in c.plans)
        out["partition.padding_fraction"] = (sum(p[4] - p[0] for p in c.plans) / slots
                                             if slots else 0.0)
        out["tensor.tape_nodes"] = sum(c.tape_nodes)
        out["octconv.gather_mb_computed"] = sum(g[4] for g in c.gathers) / MB
        covered = sum(s.self_s for s in spans if s.name != "trace.observe")
        out["trace.covered_share"] = covered / (root.end - root.start)
        return out

    def structure_digest(self, op: int) -> str:
        text = json.dumps(self.op_counters[op].structure(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def dump(self, path: str) -> None:
        """Write every span and each op's structure as one JSON document."""
        doc = {
            "fields": ["name", "phase", "start", "end", "parent", "op",
                       "self_s", "peak_bytes"],
            "spans": [[s.name, s.phase, s.start, s.end, s.parent, s.op,
                       s.self_s, s.peak_bytes] for s in self.spans],
            "structure": [c.structure() for c in self.op_counters],
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
