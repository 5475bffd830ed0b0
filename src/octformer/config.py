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

from .bench import BenchSettings
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
        if self.preset is not None:
            return NetworkConfig.preset(self.preset, **overrides)
        return NetworkConfig(**overrides)


@dataclass
class OutputSection:
    checkpoint: str | None = None
    loss_curve: str | None = None
    bench_csv: str | None = None


@dataclass
class RunConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    network: NetworkSection = field(default_factory=NetworkSection)
    training: OptimSettings = field(default_factory=OptimSettings)
    bench: BenchSettings = field(default_factory=BenchSettings)
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
    with open(path, encoding="utf-8") as f:
        try:
            data = json.load(f)
        # ValueError: bad JSON, a byte that is not UTF-8, or an integer of over
        # 4,300 digits; RecursionError: nesting beyond the parser's limit
        except (ValueError, RecursionError) as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return parse_run_config(data)
