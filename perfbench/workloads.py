"""The three benchmark workloads, their inputs and their output checks.

Each workload builds its inputs from the seed in ``setup`` (through the
public ``synthetic`` generators), runs one op through the program's public
functions or CLI entry point, and checks the op's output. A check returns
a list of problems; an empty list means the op succeeded.

Reference values live in ``reference.json``, keyed by workload and seed.
For a seed without a stored reference the reference check is skipped and
the remaining checks still apply.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from octformer import cli, network, partition, pointcloud, synthetic, tensor

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
REL_TOL = 1e-4          # relative tolerance on float32 checksums
LOSS_TOL = 1e-6         # absolute tolerance on train_toy's losses (runs agree to 1e-15)
ORACLE_TOL = 1e-9       # max abs error of float64 attention vs the dense oracle


def load_reference(workload: str, seed: int) -> dict | None:
    with open(REFERENCE_PATH) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def subseed(seed: int, *parts: int) -> int:
    """A deterministic 63-bit seed for one input stream of a workload."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint64)[0]
               >> np.uint64(1))


def checksums(a: np.ndarray) -> list[float]:
    """Absolute sum and a position-weighted sum, both in float64."""
    flat = np.asarray(a, dtype=np.float64).ravel()
    weights = np.cos(np.arange(flat.size, dtype=np.float64))
    return [float(np.abs(flat).sum()), float(flat @ weights)]


def compare_checksums(label: str, a: np.ndarray, want: list[float]) -> list[str]:
    """Each checksum of ``a`` within REL_TOL of its own scale.

    The absolute sum is scaled by itself; the weighted sum, whose terms
    partly cancel, by the L2 norm of ``a``, so that reordering rows shows.
    """
    got = checksums(a)
    norm = float(np.linalg.norm(np.asarray(a, dtype=np.float64)))
    scales = (abs(want[0]), norm)
    if all(abs(g - w) <= REL_TOL * s for g, w, s in zip(got, want, scales)):
        return []
    return [f"{label} checksum {got} != reference {want} (rel tol {REL_TOL})"]


class Workload:
    name = ""
    root_span = ""
    work_unit = ""
    work_per_op = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.reference = load_reference(self.name, seed)
        self.generate_s = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        pass

    def op(self):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def reference_record(self, out) -> dict:
        """The values of ``out`` that ``reference.json`` stores."""
        raise NotImplementedError

    def summary(self, out) -> dict:
        return {}


class Segment60k(Workload):
    """``octformer segment`` in-process: small preset, 60k points, depth 9."""

    name = "segment-60k"
    root_span = "cli.segment"
    work_unit = "points"
    points = 60_000
    depth = 9

    def setup(self) -> None:
        t0 = time.perf_counter()
        sample = synthetic.two_spheres_dataset(1, self.points, self.depth, self.seed)[0]
        self.generate_s = time.perf_counter() - t0
        self.xyz = os.path.join(self.workdir, "cloud.xyz")
        self.ckpt = os.path.join(self.workdir, "small.ofck")
        self.labels_path = os.path.join(self.workdir, "labels.txt")
        pointcloud.write_points(self.xyz, pointcloud.RawCloud(
            sample.cloud.positions, sample.cloud.colors))
        config = network.NetworkConfig.preset("small", octree_depth=self.depth,
                                              num_classes=2)
        network.save_checkpoint(self.ckpt, network.init_model(config, seed=self.seed))
        self.work_per_op = self.points
        self.first_labels = None

    def op(self):
        captured = []
        segment_logits = network.segment_logits

        def capture(*args, **kwargs):
            logits = segment_logits(*args, **kwargs)
            captured.append(logits.data)
            return logits

        network.segment_logits = capture
        try:
            code = cli.main(["segment", self.xyz, "--ckpt", self.ckpt,
                             "--out", self.labels_path])
        finally:
            network.segment_logits = segment_logits
        with open(self.labels_path) as f:
            text = f.read()
        return {"exit_code": code, "labels_text": text,
                "logits": captured[0] if captured else None}

    def check(self, out) -> list[str]:
        if out["exit_code"] != 0:
            return [f"segment exited with {out['exit_code']}"]
        problems = []
        try:
            labels = np.array(out["labels_text"].split(), dtype=np.int64)
        except ValueError:
            return ["labels are not integers"]
        if labels.shape != (self.points,):
            problems.append(f"{labels.size} labels for {self.points} points")
        elif labels.min() < 0 or labels.max() > 1:
            problems.append("labels outside the 2 classes")
        elif self.first_labels is None:
            self.first_labels = labels
        elif not np.array_equal(labels, self.first_labels):
            problems.append("labels differ from the first op of the run")
        logits = out["logits"]
        if logits is None or logits.shape != (self.points, 2):
            problems.append("segment produced no (points, 2) logits")
        elif not np.isfinite(logits).all():
            problems.append("non-finite logits")
        elif self.reference is not None:
            problems += compare_checksums("logits", logits, self.reference["logits"])
        return problems

    def reference_record(self, out) -> dict:
        return {"logits": checksums(out["logits"])}


def loss_curve(rec: dict) -> list[float]:
    """Initial, per-step and final loss of a training record, then the drop."""
    return [rec["initial_loss"], *rec["step_losses"], rec["final_loss"],
            rec["initial_loss"] - rec["final_loss"]]


class TrainToy(Workload):
    """One call of the public ``train_toy`` with the toy configuration."""

    name = "train-toy"
    root_span = "network.train_toy"
    work_unit = "steps"
    clouds, points, depth, steps = 5, 2000, 7, 8

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.dataset = synthetic.two_spheres_dataset(self.clouds, self.points,
                                                     self.depth, self.seed)
        self.generate_s = time.perf_counter() - t0
        self.config = network.NetworkConfig(
            channels=16, blocks=(1, 1, 1, 1), point_number=32, dilation=4,
            octree_depth=self.depth, num_classes=2, features=("position", "color"))
        self.settings = network.OptimSettings(steps=self.steps, lr=3e-3,
                                              weight_decay=0.05, batch_size=1,
                                              seed=self.seed)
        self.work_per_op = self.steps

    def op(self):
        return network.train_toy(self.dataset, self.config, self.settings)

    def check(self, result) -> list[str]:
        if len(result.records) != self.steps:
            return [f"{len(result.records)} step records for {self.steps} steps"]
        losses = loss_curve(self.reference_record(result))
        if not np.isfinite(losses).all():
            return ["non-finite training loss"]
        if self.reference is not None:
            want = loss_curve(self.reference)
            if any(abs(g - w) > LOSS_TOL for g, w in zip(losses, want)):
                return [f"losses {losses} != reference {want} (abs tol {LOSS_TOL})"]
        return []

    def reference_record(self, result) -> dict:
        return {"initial_loss": result.initial_loss,
                "step_losses": [r["loss"] for r in result.records],
                "final_loss": result.final_loss}

    def summary(self, result) -> dict:
        return {"train_loss": result.final_loss}


class AttnSweep(Workload):
    """``windowed_attention`` forward plus tape backward at four token counts.

    Each size's tokens are the cells of a ``synthetic.surface_cells`` cloud
    (exactly n cells) carrying random features, as ``octformer bench`` does.
    """

    name = "attn-sweep"
    root_span = "bench.attn_sweep"
    work_unit = "tokens"
    sizes = (10_000, 20_000, 50_000, 100_000)
    channels, heads, point_number, dilation = 96, 6, 32, 4

    def setup(self) -> None:
        self.inputs = []
        self.generate_s = 0.0
        for n in self.sizes:
            depth = synthetic.surface_depth(n)
            t0 = time.perf_counter()
            keys = synthetic.surface_cells(n, depth, subseed(self.seed, n))
            self.generate_s += time.perf_counter() - t0
            if keys.size != n:
                raise RuntimeError(f"surface_cells gave {keys.size} cells for {n}")
            rng = np.random.default_rng(subseed(self.seed, n, 1))
            x = tensor.Tensor(rng.normal(size=(n, self.channels)).astype(np.float32))
            cotangent = tensor.Tensor(
                rng.normal(size=(n, self.channels)).astype(np.float32))
            self.inputs.append((n, x, cotangent))
        self.params = partition.AttentionParams.init(
            self.channels, self.heads, np.random.default_rng(subseed(self.seed, 0)))
        self.work_per_op = sum(self.sizes)

    def _pass(self, n: int, x, cotangent):
        with tensor.Tape() as tape:
            plan = partition.make_plan(n, self.point_number, self.dilation)
            y = partition.windowed_attention(x, plan, self.params)
            loss = tensor.sum_(tensor.mul(y, cotangent))
        tensor.backward(tape, loss)
        return y.data, tape.grad(x)

    def warmup(self) -> None:
        self.op()  # the first pass at each size pays first-touch allocation

    def op(self):
        return {n: self._pass(n, x, cotangent) for n, x, cotangent in self.inputs}

    def check(self, out) -> list[str]:
        problems = []
        for n, (y, gx) in out.items():
            if y.shape != (n, self.channels) or gx.shape != (n, self.channels):
                problems.append(f"n={n}: wrong output or gradient shape")
            elif not (np.isfinite(y).all() and np.isfinite(gx).all()):
                problems.append(f"n={n}: non-finite output or gradient")
            elif self.reference is not None:
                ref = self.reference[str(n)]
                problems += compare_checksums(f"n={n} output", y, ref["y"])
                problems += compare_checksums(f"n={n} input grad", gx, ref["grad_x"])
        return problems

    def reference_record(self, out) -> dict:
        return {str(n): {"y": checksums(y), "grad_x": checksums(gx)}
                for n, (y, gx) in out.items()}


WORKLOADS = {w.name: w for w in (Segment60k, TrainToy, AttnSweep)}


def dense_window_attention(x: np.ndarray, params, k: int, d: int) -> np.ndarray:
    """Dense N x N attention in float64, masked to the paper's windows.

    Token p belongs to window (p // (k*d), p % d): windows hold k tokens,
    every d-th one within a span of k*d. Padding is never attended to.
    """
    n, c = x.shape
    h, dh = params.heads, params.head_dim
    p = np.arange(n)
    window = (p // (k * d)) * d + p % d
    same = window[:, None] == window[None, :]
    out = np.zeros((n, h * dh))
    for head in range(h):
        cols = slice(head * dh, (head + 1) * dh)
        q = x @ params.w_q.data[:, cols]
        key = x @ params.w_k.data[:, cols]
        val = x @ params.w_v.data[:, cols]
        scores = np.where(same, q @ key.T / np.sqrt(dh), -np.inf)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        out[:, cols] = weights @ val
    return out @ params.w_o.data


def attention_oracle_check(seed: int, n: int = 1000) -> list[str]:
    """Compare float64 ``windowed_attention`` with the dense masked oracle."""
    rng = np.random.default_rng(subseed(seed, n, 2))
    params = partition.AttentionParams.init(AttnSweep.channels, AttnSweep.heads, rng,
                                            dtype=np.float64)
    x = rng.normal(size=(n, AttnSweep.channels))
    k, d = AttnSweep.point_number, AttnSweep.dilation
    got = partition.windowed_attention(tensor.Tensor(x), partition.make_plan(n, k, d),
                                       params).data
    err = float(np.abs(got - dense_window_attention(x, params, k, d)).max())
    if err > ORACLE_TOL:
        return [f"windowed attention differs from the dense oracle by {err:.3e}"]
    return []
