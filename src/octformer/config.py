"""Run configuration: one JSON document with strict validation.

Unknown keys are rejected everywhere so typos fail loudly instead of
silently using defaults.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field

from .bench import BenchSettings, VARIANTS
from .errors import ConfigError
from .network import NetworkConfig, OptimSettings, PRESETS


@dataclass
class DatasetSection:
    kind: str = "two-spheres"
    n_clouds: int = 5
    points_per_cloud: int = 2000
    depth: int = 7
    seed: int = 0

    def __post_init__(self):
        if self.kind != "two-spheres":
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.n_clouds < 1 or self.points_per_cloud < 1:
            raise ConfigError("dataset sizes must be >= 1")


@dataclass
class NetworkSection:
    preset: str | None = "base"
    channels: int | None = None
    blocks: tuple[int, int, int, int] | None = None
    point_number: int | None = None
    dilation: int | None = None
    num_classes: int | None = None
    features: tuple[str, ...] | None = None
    octree_depth: int | None = None

    def __post_init__(self):
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")

    def build(self) -> NetworkConfig:
        overrides = {
            k: v for k, v in dataclasses.asdict(self).items()
            if k != "preset" and v is not None
        }
        if "blocks" in overrides:
            overrides["blocks"] = tuple(overrides["blocks"])
        if "features" in overrides:
            overrides["features"] = tuple(overrides["features"])
        if self.preset is not None:
            return NetworkConfig.preset(self.preset, **overrides)
        return NetworkConfig(**overrides)


@dataclass
class TrainingSection:
    steps: int = 300
    lr: float = 3e-3
    weight_decay: float = 0.05
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("training.steps and batch_size must be >= 1")
        if self.lr < 0 or self.weight_decay < 0:
            raise ConfigError("training.lr and weight_decay must be >= 0")

    def build(self) -> OptimSettings:
        return OptimSettings(steps=self.steps, lr=self.lr,
                             weight_decay=self.weight_decay,
                             batch_size=self.batch_size, seed=self.seed)


@dataclass
class BenchSection:
    sizes: tuple[int, ...] = (10_000, 20_000, 50_000, 100_000, 200_000)
    variants: tuple[str, ...] = ("octree",)
    trials: int = 3
    warmup: int = 2
    channels: int = 96
    heads: int = 6
    point_number: int = 32
    k_neighbors: int = 32
    cubic_window: int = 6
    depth: int | None = None
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

    def build(self) -> BenchSettings:
        return BenchSettings(channels=self.channels, heads=self.heads,
                             point_number=self.point_number,
                             k_neighbors=self.k_neighbors,
                             cubic_window=self.cubic_window, depth=self.depth,
                             trials=self.trials, warmup=self.warmup,
                             seed=self.seed)


@dataclass
class OutputSection:
    checkpoint: str | None = None
    loss_curve: str | None = None
    bench_csv: str | None = None


@dataclass
class RunConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    network: NetworkSection = field(default_factory=NetworkSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    bench: BenchSection = field(default_factory=BenchSection)
    outputs: OutputSection = field(default_factory=OutputSection)


def _fits(value, hint) -> bool:
    """Whether a JSON value (lists already made tuples) has the type ``hint``.

    Tuple lengths are left to the section's own checks.
    """
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, a) for a in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, tuple) and all(_fits(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _from_dict(cls, data: dict, where: str):
    """Build a config dataclass, checking keys and value types recursively."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    hints = typing.get_type_hints(cls)
    spelled = {f.name: f.type for f in dataclasses.fields(cls)}  # annotation text
    unknown = set(data) - set(spelled)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if dataclasses.is_dataclass(hints[key]):
            value = _from_dict(hints[key], value, f"{where}.{key}")
        else:
            value = tuple(value) if isinstance(value, list) else value
            if not _fits(value, hints[key]):
                raise ConfigError(f"{where}.{key} must be {spelled[key]}, got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


def parse_run_config(data: dict) -> RunConfig:
    return _from_dict(RunConfig, data, "config")


def load_run_config(path: str) -> RunConfig:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return parse_run_config(data)
