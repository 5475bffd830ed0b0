"""The hierarchical backbone, task heads, checkpointing, and training.

Layout: an embedding stack downsamples leaf features 4x, then four stages
of transformer blocks run at successively coarser depths with a stride-2
downsample between stages (channels double except into the last stage).
The four per-stage outputs form a feature pyramid consumed by either a
segmentation head (top-down merge + per-point classifier) or a global
average classification head.

A model that :func:`load_checkpoint` returns keeps its parameters in the
checkpoint file. The forward reads a module's parameters when it reaches the
module (the embedding, each block, each downsample, the segmentation head)
and drops them after it (:func:`resident`), so it holds one module's weights
at a time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError, TrainingError
from .octconv import ConvBnParams, ConvSpec, EmbeddingParams, downsample, embedding_stack, octree_conv
from .octree import Octree, QuantizedCloud, build_octree, init_leaf_features
from .partition import (
    AttentionParams,
    CpeParams,
    conditional_positional_encoding,
    heads_for,
    make_plan,
    windowed_attention,
)
from .tensor import (
    IGNORE_INDEX,
    LayerNormParams,
    LinearParams,
    Tape,
    Tensor,
    apply_layer_norm,
    backward,
    cross_entropy,
    fill_rows,
    gather_rows,
    gelu_mlp,
    init_weight,
    linear,
    linear_add_rows,
    linear_relu,
    mean_,
    reshape,
    residual_rows,
    row_blocks,
    taping,
)

STAGE_WIDTH_FACTORS = (1, 2, 4, 4)
MLP_RATIO = 4  # hidden width of a block's MLP per channel

PRESETS = {
    "small": dict(channels=96, blocks=(2, 2, 6, 2)),
    "base": dict(channels=96, blocks=(2, 2, 18, 2)),
    "large": dict(channels=192, blocks=(2, 2, 18, 2)),
}


@dataclass
class NetworkConfig:
    channels: int = 96
    blocks: tuple[int, int, int, int] = (2, 2, 18, 2)
    point_number: int = 32
    dilation: int = 4
    octree_depth: int = 8
    num_classes: int = 20
    features: tuple[str, ...] = ("position", "color")
    fpn_channels: int = 168
    head_hidden: int = 168

    def __post_init__(self):
        self.blocks = tuple(int(b) for b in self.blocks)
        self.features = tuple(self.features)
        if len(self.blocks) != 4 or any(b < 0 for b in self.blocks):
            raise ConfigError("blocks must be four non-negative counts")
        if self.channels < 1 or self.point_number < 1 or self.dilation < 1:
            raise ConfigError("channels, point_number, dilation must be >= 1")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.fpn_channels < 1 or self.head_hidden < 1:
            raise ConfigError("fpn_channels and head_hidden must be >= 1")
        unknown = set(self.features) - {"position", "color", "normal"}
        if unknown:
            raise ConfigError(f"unknown features {sorted(unknown)}")
        if not self.features:
            raise ConfigError("at least one input feature is required")

    @classmethod
    def preset(cls, name: str, **overrides) -> "NetworkConfig":
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
        kw = dict(PRESETS[name])
        kw.update(overrides)
        return cls(**kw)

    @property
    def stage_channels(self) -> tuple[int, ...]:
        return tuple(self.channels * f for f in STAGE_WIDTH_FACTORS)

    @property
    def in_channels(self) -> int:
        return 3 * len(self.features)

    def feature_flags(self) -> dict[str, bool]:
        return {
            "use_position": "position" in self.features,
            "use_color": "color" in self.features,
            "use_normal": "normal" in self.features,
        }


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class MlpParams:
    fc1: LinearParams
    fc2: LinearParams

    @classmethod
    def init(cls, channels: int, ratio: int, rng) -> "MlpParams":
        hidden = channels * ratio
        return cls(LinearParams.init(channels, hidden, rng),
                   LinearParams.init(hidden, channels, rng))


@dataclass
class BlockParams:
    cpe: CpeParams | None  # None: no positional encoding (ablation)
    ln1: LayerNormParams
    attn: AttentionParams
    ln2: LayerNormParams
    mlp: MlpParams
    dilation: int

    @classmethod
    def init(cls, channels: int, ratio: int, dilation: int, rng) -> "BlockParams":
        return cls(
            cpe=CpeParams.init(channels),
            ln1=LayerNormParams.init(channels),
            attn=AttentionParams.init(channels, heads_for(channels), rng),
            ln2=LayerNormParams.init(channels),
            mlp=MlpParams.init(channels, ratio, rng),
            dilation=dilation,
        )


@dataclass
class StageParams:
    blocks: list[BlockParams]
    down: ConvBnParams | None  # kernel 2, stride 2


@dataclass
class BackboneParams:
    embedding: EmbeddingParams
    stages: list[StageParams]


@dataclass
class SegHeadParams:
    lateral: list[LinearParams]
    fuse: ConvSpec
    hidden: LinearParams
    classifier: LinearParams


@dataclass
class ClsHeadParams:
    classifier: LinearParams


@dataclass
class ModelParams:
    config: NetworkConfig
    backbone: BackboneParams
    seg_head: SegHeadParams
    cls_head: ClsHeadParams


def _module_params(config: NetworkConfig, rng):
    """Every module's parameters, in init order (which is RNG draw order and
    checkpoint order): embedding, per stage its blocks then its downsample,
    then the heads. With ``rng`` None each weight is a placeholder."""
    widths = config.stage_channels
    yield EmbeddingParams.init(config.in_channels, config.channels, rng)
    for i, c in enumerate(widths):
        for b in range(config.blocks[i]):
            yield BlockParams.init(c, MLP_RATIO, 1 if b % 2 == 0 else config.dilation, rng)
        if i < 3:
            yield ConvBnParams.init(2, 2, c, widths[i + 1], rng)
    f = config.fpn_channels
    for c in widths:
        yield LinearParams.init(c, f, rng)
    yield ConvSpec.init(3, 1, f, f, rng)
    yield LinearParams.init(f, config.head_hidden, rng)
    yield LinearParams.init(config.head_hidden, config.num_classes, rng)
    yield LinearParams.init(widths[-1], config.num_classes, rng)


def _assemble_model(config: NetworkConfig, modules) -> ModelParams:
    modules = iter(modules)
    embedding = next(modules)
    stages = [StageParams([next(modules) for _ in range(n)],
                          next(modules) if i < 3 else None)
              for i, n in enumerate(config.blocks)]
    seg = SegHeadParams([next(modules) for _ in config.stage_channels],
                        next(modules), next(modules), next(modules))
    return ModelParams(config, BackboneParams(embedding, stages), seg,
                       ClsHeadParams(next(modules)))


def init_model(config: NetworkConfig, seed: int = 0) -> ModelParams:
    """A freshly drawn model; its parameters are ``DEFAULT_DTYPE``."""
    return _assemble_model(config, _module_params(config, np.random.default_rng(seed)))


def named_tensors(obj, prefix: str = ""):
    """Walk a parameter tree; yields (name, value, kind) with kind
    'param' for Tensors and 'buffer' for raw arrays (running stats)."""
    if isinstance(obj, Tensor):
        yield prefix, obj, "param"
    elif isinstance(obj, np.ndarray):
        yield prefix, obj, "buffer"
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            if f.name == "config":
                continue
            yield from named_tensors(getattr(obj, f.name), f"{prefix}.{f.name}"
                                     if prefix else f.name)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from named_tensors(item, f"{prefix}.{i}")
    # ints, floats, None: not tensors


def trainable_parameters(obj) -> list[tuple[str, Tensor]]:
    return [(n, t) for n, t, kind in named_tensors(obj) if kind == "param"]


# ---------------------------------------------------------------------------
# forward passes


@dataclass
class FeaturePyramid:
    levels: list[Tensor]  # finest (S/4) to coarsest (S/32)
    depths: list[int]


def mlp_forward(x: Tensor, mlp: MlpParams) -> Tensor:
    return gelu_mlp(x, mlp.fc1, mlp.fc2)


# Most (B, H, K, K) score elements of one attention chunk: 4 MB at float32.
# Smaller chunks make the Q/K/V and output GEMMs short (at 2^17 a dilated
# stage-2 chunk of the small preset is one span: 128 rows of 384 channels),
# which costs time; larger ones raise the peak and gain no speed.
ATTN_CHUNK_ELEMENTS = 1 << 20


def attention_chunks(n: int, k: int, d: int, heads: int) -> list[slice]:
    """Contiguous token ranges of whole spans (k*d tokens, d windows) that
    cover n tokens, in :func:`row_blocks` of spans of d*heads*k*k score
    elements. Every window lies in one chunk, so attending each chunk on its
    own gives the bits of one plan; only the last chunk holds padding."""
    span = k * d
    return [slice(min(n, s.start * span), min(n, s.stop * span))
            for s in row_blocks(-(-n // span), d * heads * k * k, ATTN_CHUNK_ELEMENTS)]


def chunked_attention(x: Tensor, k: int, d: int, params: AttentionParams) -> Tensor:
    """:func:`windowed_attention` with the bits of one plan over all of x, which
    is what runs under a tape or with one chunk. Untaped, each of the
    :func:`attention_chunks` gets its own plan and the outputs fill one array,
    so no score array is larger than a chunk's; every window lies in one chunk.
    """
    n = x.shape[0]
    chunks = attention_chunks(n, k, d, params.heads)
    if taping() or len(chunks) == 1:
        return windowed_attention(x, make_plan(n, k, d), params)
    return Tensor(fill_rows(n, chunks, lambda blk: windowed_attention(
        Tensor(x.data[blk]), make_plan(blk.stop - blk.start, k, d), params).data))


def octformer_block(x: Tensor, octree: Octree, depth: int, block: BlockParams,
                    point_number: int, training: bool) -> Tensor:
    """CPE (skipped when ``block.cpe`` is None), then pre-norm chunked
    attention and pre-norm MLP with residuals.

    Layer norm is per row, so untaped each branch runs, norm included, over
    row blocks (the attention chunks, then the MLP's row blocks), and its
    residual sum goes into the block's own array: the CPE's output, or one
    new array when there is no CPE.
    """
    n = octree.node_count(depth)
    if x.shape[0] != n:
        raise ShapeError(f"x has {x.shape[0]} rows, depth {depth} has {n} nodes")
    if block.cpe is not None:
        x = conditional_positional_encoding(x, octree, depth, block.cpe, training)
    k, d, attn, mlp = point_number, block.dilation, block.attn, block.mlp
    x = residual_rows(lambda rows: chunked_attention(apply_layer_norm(rows, block.ln1),
                                                     k, d, attn),
                      x, attention_chunks(n, k, d, attn.heads),
                      overwrite_x=block.cpe is not None)
    return residual_rows(lambda rows: mlp_forward(apply_layer_norm(rows, block.ln2), mlp),
                         x, row_blocks(n, mlp.fc1.weight.shape[1]), overwrite_x=True)


def backbone_apply(octree: Octree, feats: Tensor, config: NetworkConfig,
                   backbone: BackboneParams, training: bool) -> FeaturePyramid:
    """Run embedding + stages given prebuilt octree and leaf features; the
    embedding takes the leaves at the octree depth two depths up."""
    if octree.depth < 7:
        raise ConfigError(f"backbone needs octree depth >= 7, got {octree.depth}")
    if feats.shape[0] != octree.node_count(octree.depth):
        raise ShapeError("leaf feature rows must match leaf node count")

    with resident(backbone.embedding):
        x = embedding_stack(feats, octree, octree.depth, backbone.embedding, training)
    depth = octree.depth - 2
    levels, depths = [], []
    for i, stage in enumerate(backbone.stages):
        for block in stage.blocks:
            with resident(block):
                x = octformer_block(x, octree, depth, block, config.point_number, training)
        levels.append(x)
        depths.append(depth)
        if stage.down is not None:
            with resident(stage.down):
                x = downsample(x, octree, depth, stage.down, training)
            depth -= 1
    return FeaturePyramid(levels, depths)


def point_ancestor_index(octree: Octree, target_depth: int) -> np.ndarray:
    """For each input point, the index of its ancestor node at target_depth."""
    idx = octree.point_assignment
    for level in range(octree.depth, target_depth, -1):
        idx = octree.parent_index[level][idx]
    return idx


# Most output rows per block of the FPN head's fuse conv, hidden layer and
# classifier without a tape. Equal blocks of more than 2^12 rows keep the
# classifier's BLAS kernel: for a (rows, 168) x (168, 2) GEMM, OpenBLAS picks
# another one (other bits) below about 3,000 rows.
HEAD_BLOCK_ROWS = 1 << 13


def fpn_segmentation_head(pyramid: FeaturePyramid, octree: Octree,
                          head: SegHeadParams) -> Tensor:
    """Top-down merge of the pyramid, k3 conv, then an MLP per finest node,
    whose logits every point inside that node takes.

    Untaped, the head spends the pyramid: each level is set to None in
    ``pyramid.levels`` once merged, so that it can die. The conv, the hidden
    layer and the classifier then run per block of ``HEAD_BLOCK_ROWS`` output
    rows, so that only the merged features are full size.
    """
    if len(pyramid.levels) != len(head.lateral):
        raise ShapeError("pyramid and head level counts differ")
    for lvl, d in zip(pyramid.levels, pyramid.depths):
        if lvl.shape[0] != octree.node_count(d):
            raise ShapeError("pyramid level does not match the octree")

    # u is rebound at each op, so untaped the op's input dies as soon as it
    # returns: each level's lateral takes its parent's rows into its own output
    levels, spent = pyramid.levels, not taping()
    u = linear(levels[-1], head.lateral[-1])
    for i in range(len(levels) - 2, -1, -1):
        if spent:
            levels[i + 1] = None
        parents = octree.parent_index[pyramid.depths[i]]  # parent -> children copy
        u = linear_add_rows(levels[i], head.lateral[i], u, parents)
    if spent:
        levels[0] = None

    def classify(rows: Tensor) -> Tensor:
        return linear(linear_relu(rows, head.hidden), head.classifier)

    n = octree.node_count(pyramid.depths[0])
    logits = octree_conv(u, octree, pyramid.depths[0], head.fuse, then=classify,
                         blocks=row_blocks(n, 1, HEAD_BLOCK_ROWS))
    return gather_rows(logits, point_ancestor_index(octree, pyramid.depths[0]))


def classification_head(pyramid: FeaturePyramid, head: ClsHeadParams) -> Tensor:
    """Global average of the coarsest map, then a linear classifier."""
    top = pyramid.levels[-1]
    if top.shape[0] == 0:
        raise NumericError("classification head needs a non-empty coarsest map")
    pooled = reshape(mean_(top, axis=0), (1, top.shape[1]))
    return reshape(linear(pooled, head.classifier), (head.classifier.weight.shape[1],))


def segment_logits(cloud: QuantizedCloud, model: ModelParams,
                   training: bool = False) -> Tensor:
    """Per-point logits, computed at the dtype of the model's parameters."""
    octree = build_octree(cloud)
    feats = init_leaf_features(octree, cloud, **model.config.feature_flags())
    feats = feats.astype(model.backbone.embedding.modules[0].conv.weights.dtype)
    pyramid = backbone_apply(octree, feats, model.config, model.backbone, training)
    with resident(model.seg_head):
        return fpn_segmentation_head(pyramid, octree, model.seg_head)


# ---------------------------------------------------------------------------
# checkpoint format

CKPT_MAGIC = b"OFCK"
CKPT_VERSION = 2
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.float32, 1: np.float64}


@dataclass(frozen=True)
class _Stored:
    """Where a loaded parameter's values lie: the checkpoint file at ``path``
    as it was when loaded (``identity``, see :func:`_identity`) and the byte
    offset of the values."""

    path: str
    identity: tuple[int, int, int]
    offset: int


def _identity(f) -> tuple[int, int, int]:
    """Inode, size and mtime of the open file ``f``."""
    st = os.fstat(f.fileno())
    return st.st_ino, st.st_size, st.st_mtime_ns


def _read_stored(t: Tensor) -> np.ndarray:
    """The values of the stored tensor ``t``, read into a fresh, aligned,
    writeable array of its placeholder's shape and dtype. A file changed since
    it was loaded, a short read or a non-finite value is a DataError."""
    path, offset = t.stored.path, t.stored.offset
    with open(path, "rb") as f:
        if _identity(f) != t.stored.identity:
            raise DataError(f"{path}: checkpoint changed since it was loaded")
        # aligned, unlike a view into one file buffer: numpy's matmul skips
        # BLAS for unaligned arrays
        arr = np.empty(t.shape, t.dtype.newbyteorder("<"))
        f.seek(offset)
        if f.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise DataError(f"{path}: truncated checkpoint")
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: non-finite value at byte {offset}")
    return arr.astype(t.dtype, copy=False)


@contextlib.contextmanager
def resident(params):
    """Hold the parameters of the tree ``params`` that a checkpoint file
    stores (see :func:`load_checkpoint`) in memory for the ``with`` body.

    Without a tape each goes back to its placeholder on exit, so a forward
    that wraps each module holds one module's weights at a time. Under a tape
    a stored parameter is read once and stays in memory for good, its record
    forgotten: the vjps read its values at backward time, and no later read
    overwrites what an optimizer writes. A tree with nothing stored (an
    :func:`init_model` model) is left as it is.
    """
    stored = [t for _, t, kind in named_tensors(params)
              if kind == "param" and t.stored is not None]
    placeholders = [t.data for t in stored]
    for t, arr in zip(stored, [_read_stored(t) for t in stored]):
        t.data = arr
    if taping():
        for t in stored:
            t.stored = None
        stored = []
    try:
        yield
    finally:
        for t, placeholder in zip(stored, placeholders):
            t.data = placeholder


def save_checkpoint(path: str, model: ModelParams) -> None:
    """Write ``model`` as an OFCK file. The file is written beside ``path``
    and renamed over it once whole, so a failed save leaves ``path`` as it
    was. A loaded model is read in whole before the write starts, so it can be
    saved over its own file; its next read then finds that file changed, which
    is a DataError."""
    cfg = dataclasses.asdict(model.config)
    cfg_bytes = json.dumps(cfg, sort_keys=True).encode()
    for name, value, _ in named_tensors(model):
        if value.dtype not in _DTYPE_TAGS:
            raise ConfigError(f"cannot save {name}: dtype {value.dtype} is not "
                              "float32 or float64")
    tmp = f"{path}.{os.getpid()}.tmp"
    with resident(model):
        f = open(tmp, "xb")  # not tempfile's: the mode follows the umask
        try:
            with f:
                f.write(CKPT_MAGIC)
                f.write(struct.pack("<I", CKPT_VERSION))
                f.write(struct.pack("<I", len(cfg_bytes)))
                f.write(cfg_bytes)
                for name, value, kind in named_tensors(model):
                    arr = value.data if kind == "param" else value
                    name_b = name.encode()
                    f.write(struct.pack("<I", len(name_b)))
                    f.write(name_b)
                    f.write(struct.pack("<B", _DTYPE_TAGS[np.dtype(arr.dtype)]))
                    f.write(struct.pack("<I", arr.ndim))
                    f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                    f.write(np.ascontiguousarray(arr, arr.dtype.newbyteorder("<")).data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def load_checkpoint(path: str) -> ModelParams:
    """Read an OFCK file. Checks, in order: magic, version, config JSON; the
    config's records against the file length (a lower bound on their bytes,
    summed module by module, so a config that wants more than the file holds
    stops early); then each record's length, dtype tag, name, shape and
    finite values, and that no record is missing. Nothing is drawn from an
    RNG. The config JSON gets the run config's key and value type checks.

    Each record's values are read once, to be checked, through one scratch
    buffer. Batch-norm statistics are filled in; each parameter keeps only
    where its values lie, with a read-only zero-stride placeholder of the
    record's shape and dtype as its data, until :func:`resident` reads it."""
    from .config import _from_dict  # config imports this module

    with open(path, "rb") as f:
        identity = _identity(f)
        size = identity[1]

        def read(n: int, fmt: str | None = None):
            """Exactly ``n`` bytes, unpacked with ``fmt`` if given. ``n`` comes
            from a length field, so it is checked against the bytes left
            before anything of that size is allocated."""
            if n > size - f.tell():
                raise DataError(f"{path}: truncated checkpoint")
            raw = f.read(n)
            if len(raw) != n:
                raise DataError(f"{path}: truncated checkpoint")
            return struct.unpack(fmt, raw) if fmt else raw

        if f.read(4) != CKPT_MAGIC:
            raise DataError("bad checkpoint magic")
        (version,) = read(4, "<I")
        if version != CKPT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        cfg_bytes = read(*read(4, "<I"))  # length-prefixed JSON
        try:
            config = _from_dict(NetworkConfig, json.loads(cfg_bytes.decode()), "config")
        except (ValueError, RecursionError) as e:
            raise DataError(f"{path}: bad checkpoint config ({e})") from None
        modules, need = [], f.tell()
        for module in _module_params(config, rng=None):
            # a lower bound per record: length, tag and ndim fields (9 bytes),
            # the dims and float32 data; the name is not counted
            need += sum(9 + 8 * v.ndim + 4 * v.size for _, v, _ in named_tensors(module))
            if need > size:
                raise DataError(f"{path}: truncated checkpoint: its config needs "
                                f"more than the file's {size} bytes")
            modules.append(module)
        model = _assemble_model(config, modules)
        expected = {name: (value, kind) for name, value, kind in named_tensors(model)}
        seen, scratch = set(), np.empty(0, np.uint8)
        where = os.path.abspath(path)  # a later read may run in another cwd
        while f.tell() < size:
            name = read(*read(4, "<I")).decode(errors="replace")  # length-prefixed
            tag, ndim = read(5, "<BI")
            if tag not in _TAG_DTYPES:
                raise DataError(f"{path}: unknown dtype tag {tag} for {name!r}")
            shape = read(8 * ndim, f"<{ndim}Q")
            if name not in expected:
                raise DataError(f"unexpected checkpoint record {name!r}")
            value, kind = expected[name]
            if value.shape != shape:
                raise DataError(f"shape mismatch for {name!r}")
            dtype = np.dtype(_TAG_DTYPES[tag])
            offset, nbytes = f.tell(), math.prod(shape) * dtype.itemsize
            if nbytes > scratch.nbytes:
                scratch = np.empty(nbytes, np.uint8)
            if f.readinto(scratch[:nbytes]) != nbytes:
                raise DataError(f"{path}: truncated checkpoint")
            arr = scratch[:nbytes].view(dtype.newbyteorder("<")).reshape(shape)
            if not np.isfinite(arr).all():
                raise DataError(f"{path}: non-finite value in record {name!r}")
            if kind == "param":
                value.data = init_weight(shape, None, dtype).data
                value.stored = _Stored(where, identity, offset)
            else:
                value[...] = arr
            seen.add(name)
    missing = set(expected) - seen
    if missing:
        raise DataError(f"checkpoint missing records: {sorted(missing)[:3]}...")
    return model


# ---------------------------------------------------------------------------
# toy training


@dataclass
class LabeledCloud:
    cloud: QuantizedCloud
    labels: np.ndarray  # (P,) int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (self.cloud.num_points,):
            raise DataError("labels must be one per point")


ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8
LR_DECAY_MILESTONES = (0.6, 0.8)  # fractions of the steps; lr x 0.1 at each


@dataclass
class OptimSettings:
    """Toy-training settings; also the run config's ``training`` section."""

    steps: int = 300
    lr: float = 3e-3
    weight_decay: float = 0.05
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("training.steps and batch_size must be >= 1")
        if not (0 <= self.lr < math.inf and 0 <= self.weight_decay < math.inf):
            raise ConfigError("training.lr and weight_decay must be finite and >= 0")


class AdamW:
    """Decoupled weight decay Adam over a list of named parameters."""

    def __init__(self, params: list[tuple[str, Tensor]], settings: OptimSettings):
        self.params = params
        self.s = settings
        self.m = [np.zeros(t.shape, dtype=np.float64) for _, t in params]
        self.v = [np.zeros(t.shape, dtype=np.float64) for _, t in params]
        self.t = 0

    def lr_at(self, step: int) -> float:
        lr = self.s.lr
        for frac in LR_DECAY_MILESTONES:
            if step >= frac * self.s.steps:
                lr *= 0.1
        return lr

    def step(self, grads: list[np.ndarray], lr: float) -> None:
        """Update the moments in place and write each parameter back.

        The bits are those of ``m += (1 - b1) * (g - m)``,
        ``v += (1 - b2) * (g * g - v)`` and
        ``p - lr * ((m / bc1) / (sqrt(v / bc2) + eps) + wd * p)``, with
        ``wd * p`` in the parameter's dtype. Every parameter is updated over the
        :func:`row_blocks` of its flattened arrays; the update is elementwise,
        so the bits are those of one whole-array pass. A float64 copy of the
        gradient block and one scratch block hold every temporary, and no
        gradient is written.
        """
        self.t += 1
        b1, b2 = ADAMW_BETAS
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for (_, p), m_all, v_all, g_all in zip(self.params, self.m, self.v, grads):
            old, g_all = p.data.reshape(-1), g_all.reshape(-1)
            m_all, v_all = m_all.reshape(-1), v_all.reshape(-1)
            new = np.empty(p.size, p.dtype)
            for blk in row_blocks(p.size, 1):
                m, v = m_all[blk], v_all[blk]
                g = g_all[blk].astype(np.float64)
                tmp = np.subtract(g, m)
                tmp *= 1 - b1
                m += tmp
                np.multiply(g, g, out=tmp)
                tmp -= v
                tmp *= 1 - b2
                v += tmp
                np.divide(v, bc2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += ADAMW_EPS
                update = np.divide(m, bc1, out=g)
                update /= tmp
                update += self.s.weight_decay * old[blk]
                update *= lr
                new[blk] = np.subtract(old[blk], update, out=update)
            p.data = new.reshape(p.shape)


@dataclass
class TrainResult:
    model: object  # what was trained: a ModelParams, or any parameter tree
    records: list[dict]
    initial_loss: float
    initial_accuracy: float
    final_loss: float
    final_accuracy: float


def _hits(logits: Tensor, labels: np.ndarray) -> tuple[int, int]:
    """``(correct, count)``: the labelled rows whose argmax is their label, and
    the labelled rows."""
    valid = labels != IGNORE_INDEX
    pred = logits.data.argmax(axis=1)
    return int((pred[valid] == labels[valid]).sum()), int(valid.sum())


def _dataset_metrics(logits_of, samples):
    """Eval-mode loss and accuracy over every labelled point of ``samples``."""
    total_loss, total_correct, total_count = 0.0, 0, 0
    for octree, feats, labels in samples:
        logits = logits_of(octree, feats, False)
        loss = cross_entropy(logits, labels)
        correct, count = _hits(logits, labels)
        total_correct += correct
        total_count += count
        total_loss += loss.item() * count
    return total_loss / total_count, total_correct / total_count


def fit(model, params: list[tuple[str, Tensor]], samples, logits_of,
        settings: OptimSettings) -> TrainResult:
    """Train ``params``, the named tensors of ``model``, with AdamW.

    ``samples`` are ``(octree, feats, labels)`` triples and
    ``logits_of(octree, feats, training)`` gives a sample's per-point logits.
    One optimizer step consumes ``batch_size`` samples (cycled in order) with
    gradient accumulation. The eval-mode loss and accuracy are taken before
    the first step and after the last. Deterministic for a fixed thread count.
    """
    opt = AdamW(params, settings)
    initial_loss, initial_acc = _dataset_metrics(logits_of, samples)

    records = []
    cursor = 0
    for step in range(settings.steps):
        grads = None
        batch_loss, batch_correct, batch_count = 0.0, 0, 0
        for _ in range(settings.batch_size):
            octree, feats, labels = samples[cursor % len(samples)]
            cursor += 1
            with Tape() as tape:
                logits = logits_of(octree, feats, True)
                loss = cross_entropy(logits, labels)
            if not np.isfinite(loss.item()):
                raise TrainingError(f"non-finite loss at step {step}", step=step)
            backward(tape, loss)
            if grads is None:
                # a batch of one steps on the tape's own arrays, which AdamW never writes
                grads = [tape.grad(p) for _, p in params]
                if settings.batch_size > 1:
                    grads = [g.astype(np.float64) for g in grads]
            else:
                for g, (_, p) in zip(grads, params):
                    g += tape.grad(p)
            correct, count = _hits(logits, labels)
            batch_correct += correct
            batch_count += count
            batch_loss += loss.item()
            # the tape's nodes hold every activation: free them before the step
            del tape, logits, loss
        if settings.batch_size > 1:
            for g in grads:
                g /= settings.batch_size
        lr = opt.lr_at(step)
        opt.step(grads, lr)
        records.append({
            "step": step,
            "lr": lr,
            "loss": batch_loss / settings.batch_size,
            "accuracy": batch_correct / batch_count,
        })

    final_loss, final_acc = _dataset_metrics(logits_of, samples)
    return TrainResult(model, records, initial_loss, initial_acc,
                       final_loss, final_acc)


def train_toy(dataset: list[LabeledCloud], config: NetworkConfig,
              settings: OptimSettings) -> TrainResult:
    """Overfit a segmentation model on a small fixed dataset with :func:`fit`;
    octrees and leaf features are built once."""
    if not dataset:
        raise DataError("empty training dataset")
    for sample in dataset:
        if sample.labels.max() >= config.num_classes:
            raise DataError("label out of range for num_classes")

    prepared = []
    for sample in dataset:
        octree = build_octree(sample.cloud)
        feats = init_leaf_features(octree, sample.cloud, **config.feature_flags())
        prepared.append((octree, feats, sample.labels))

    model = init_model(config, seed=settings.seed)

    def logits_of(tree: Octree, x, training: bool) -> Tensor:
        pyramid = backbone_apply(tree, x, config, model.backbone, training)
        return fpn_segmentation_head(pyramid, tree, model.seg_head)

    params = trainable_parameters(model.backbone) + trainable_parameters(model.seg_head)
    return fit(model, params, prepared, logits_of, settings)
