"""Benchmark harness: wall-time scaling of the attention variants.

Synthetic surface clouds with an exact token count feed each attention
operator; each (variant, size) cell reports the median and IQR over a
configurable number of trials after warmup runs. Timing uses a monotonic
clock. The CSV layout is ``variant,n,median_s,iqr_s,trials``; everything
except the two timing columns is deterministic for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from . import morton
from .baselines import (
    GLOBAL_ATTENTION_GUARD,
    cubic_partition,
    cubic_window_attention,
    global_attention,
    knn_sliding_attention,
)
from .errors import ConfigError
from .network import chunked_attention
from .octree import build_octree
from .partition import AttentionParams
from .synthetic import cloud_from_cells, surface_cells, surface_depth
from .tensor import Tensor

VARIANTS = ("octree", "cubic", "knn", "global")


@dataclass
class BenchSettings:
    """The sweep (``sizes`` x ``variants``) and every cell's attention set-up;
    also the run config's ``bench`` section."""

    sizes: tuple[int, ...] = (10_000, 20_000, 50_000, 100_000, 200_000)
    variants: tuple[str, ...] = ("octree",)
    trials: int = 3
    warmup: int = 2
    channels: int = 96
    heads: int = 6
    point_number: int = 32
    k_neighbors: int = 32
    cubic_window: int = 6
    depth: int | None = None  # None: per-size depth keeping surfaces dense
    seed: int = 0

    def __post_init__(self):
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown bench variant {v!r}")
        if any(n < 1 for n in self.sizes):
            raise ConfigError("bench sizes must be >= 1")
        smallest = min(self.sizes, default=self.k_neighbors)
        if "knn" in self.variants and smallest < self.k_neighbors:
            raise ConfigError(f"bench k_neighbors {self.k_neighbors} exceeds size {smallest}")
        largest = max(self.sizes, default=0)
        if "global" in self.variants and largest > GLOBAL_ATTENTION_GUARD:
            raise ConfigError(f"global attention guarded at N <= "
                              f"{GLOBAL_ATTENTION_GUARD}, got {largest}")
        if self.trials < 1 or self.warmup < 0:
            raise ConfigError("trials must be >= 1 and warmup >= 0")
        for name in ("channels", "heads", "point_number", "k_neighbors", "cubic_window"):
            if getattr(self, name) < 1:
                raise ConfigError(f"bench {name} must be >= 1, got {getattr(self, name)}")
        if self.channels % self.heads != 0:
            raise ConfigError(f"bench channels {self.channels} not divisible by "
                              f"heads {self.heads}")
        if self.depth is not None and not 1 <= self.depth <= morton.MAX_DEPTH:
            raise ConfigError(f"bench depth must be in [1, {morton.MAX_DEPTH}], "
                              f"got {self.depth}")


@dataclass
class BenchRow:
    variant: str
    n: int
    median_s: float
    iqr_s: float
    trials: int


def _make_runner(variant: str, n: int, cfg: BenchSettings):
    depth = cfg.depth if cfg.depth is not None else surface_depth(n)
    rng = np.random.default_rng(cfg.seed + n)
    keys = surface_cells(n, depth, cfg.seed + n)
    octree = build_octree(cloud_from_cells(keys, depth))
    assert octree.node_count(depth) == n
    params = AttentionParams.init(cfg.channels, cfg.heads, rng)
    x = Tensor(rng.normal(size=(n, cfg.channels)).astype(np.float32))

    if variant == "octree":
        def run():
            return chunked_attention(x, cfg.point_number, 1, params)
    elif variant == "cubic":
        def run():
            part = cubic_partition(octree, depth, cfg.cubic_window)
            return cubic_window_attention(x, part, params)
    elif variant == "knn":
        def run():
            return knn_sliding_attention(x, octree, depth, cfg.k_neighbors, params)
    elif variant == "global":
        def run():
            return global_attention(x, params)
    else:
        raise ConfigError(f"unknown variant {variant!r}; have {VARIANTS}")
    return run


def bench_attention(variant: str, cfg: BenchSettings) -> list[BenchRow]:
    """Median/IQR wall time of one attention pass per size in ``cfg.sizes``."""
    rows = []
    for n in cfg.sizes:
        run = _make_runner(variant, n, cfg)
        for _ in range(cfg.warmup):
            run()
        times = []
        for _ in range(cfg.trials):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        q25, q50, q75 = np.percentile(times, [25, 50, 75])
        rows.append(BenchRow(variant, n, float(q50), float(q75 - q25), cfg.trials))
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["variant", "n", "median_s", "iqr_s", "trials"])
    for r in rows:
        writer.writerow([r.variant, r.n, f"{r.median_s:.6e}", f"{r.iqr_s:.6e}",
                         r.trials])
    return buf.getvalue()

