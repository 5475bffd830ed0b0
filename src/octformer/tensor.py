"""Dense tensors with an optional reverse-mode tape.

All arithmetic is numpy-backed. While a :class:`Tape` is active (used as a
context manager), every operation appends a vjp closure; :func:`backward`
replays the tape once in reverse execution order, which is a valid reverse
topological order. With no active tape the operations are plain numpy with
zero bookkeeping, which is what inference and benchmarking use.

Default precision is 32-bit; gradient checks construct 64-bit tensors.
Activations take their inputs' dtype (numpy's promotion of the operands),
and a scalar never promotes: a Python or numpy scalar second operand of
``add`` or ``mul`` takes the dtype of the first. Ops write only into
arrays they allocated themselves, so an in-place step (``linear``'s bias add,
the epilogues of :func:`linear_relu` and :func:`linear_add_rows`, the passes of
``gelu``, ``softmax`` and the norms) computes the same bits as the expression
it replaces. The exception is float32 ``gelu``, whose erf is a rational
approximation rather than scipy's (see :func:`_gaussian_cdf`); float64
``gelu`` has scipy's bits (see :func:`_erf64`).

An op writes into an input only when its caller opts in and no tape records.
With ``overwrite_x`` (``overwrite_b`` for :func:`add`) the caller hands over an
input that it owns and never reads again, such as a conv output, and untaped
the op writes its result into that input's buffer (:func:`batch_norm`,
:func:`relu`, :func:`add`, :func:`residual_rows`). Each in-place step is the
IEEE operation of the expression it replaces, on the same operands, so the
bits are the same. Under a tape the flag does nothing, because the vjps read
those inputs.

Layer norm and batch norm are one op, :func:`_normalize`, that differ only in
where their statistics come from: the last axis, the batch axis, or a batch
norm's running statistics in eval. Their epsilon (``NORM_EPS``) and the batch
norm momentum (``BN_MOMENTUM``) are constants.

Row-blocked ops (:func:`gelu_mlp` and :func:`linear_add_rows` here,
``octconv.gathered_conv``) split their rows with one rule, :func:`row_blocks`:
equal blocks of at most about ``MLP_BLOCK_ELEMENTS`` (2^17) elements, so that
no full-size temporary exists and the bits match the unblocked expression.
A layer runs over row blocks only without a tape; a tape records it whole.
Untaped, :func:`fill_rows` writes each block's output rows into one result
(the network's attention chunks, sized by the same rule with their own
budget, and the head's conv blocks), and :func:`residual_rows` adds each
block's output to the block's input rows instead. :func:`gather_rows` and
:func:`scatter_rows_add` take the octree's int32 indices as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError

DEFAULT_DTYPE = np.float32  # what a non-float array becomes; a ``dtype=`` overrides
INIT_STD = 0.02  # std of every initial weight draw
NORM_EPS = 1e-5  # added to the variance in every layer and batch norm
BN_MOMENTUM = 0.1  # weight of a training batch's statistics in the running ones
IGNORE_INDEX = -1  # label that the loss (and the network's accuracy) skips


class Tensor:
    """Row-major float array with shape metadata; the unit of computation.

    ``stored`` is None, except on a parameter whose values a checkpoint file
    holds: ``data`` is then a placeholder of the right shape and dtype, and
    ``stored`` says where the values are (see ``network.resident``).
    """

    __slots__ = ("data", "stored")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.stored = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@dataclass
class Node:
    out: Tensor
    parents: tuple[Tensor, ...]
    vjp: Callable[[np.ndarray], tuple]


class Tape:
    """Append-only operation record plus per-tensor gradient accumulators.

    After :func:`backward` the accumulators hold the gradients of leaves only:
    tensors that no recorded op produced, such as parameters and inputs.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.gradients: dict[int, np.ndarray] = {}

    def __enter__(self) -> "Tape":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.pop()
        return False

    def grad(self, t: Tensor) -> np.ndarray:
        """Accumulated gradient of the leaf ``t``; zeros when not on a loss path.

        An op output's gradient is dropped once its vjp has read it, so for a
        tensor that a recorded op produced this is zeros as well."""
        g = self.gradients.get(id(t))
        if g is None:
            return np.zeros(t.shape, dtype=t.dtype)
        return g

    def reset(self) -> None:
        self.gradients = {}


_ACTIVE: list[Tape] = []


def taping() -> bool:
    """Whether a :class:`Tape` is recording."""
    return bool(_ACTIVE)


def _record(out: Tensor, parents: tuple[Tensor, ...], vjp) -> None:
    if _ACTIVE:
        _ACTIVE[-1].nodes.append(Node(out, parents, vjp))


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate tape gradients for every leaf on a path to ``loss``.

    Each op output's gradient is dropped as soon as its node's vjp has read it,
    so intermediate gradients die as the replay passes them and only leaf
    gradients remain. The nodes stay: a second call gives the same gradients.
    """
    if loss.shape != ():
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    tape.reset()
    tape.gradients[id(loss)] = np.ones((), dtype=loss.dtype)
    for node in reversed(tape.nodes):
        g = tape.gradients.pop(id(node.out), None)
        if g is None:
            continue
        for parent, gp in zip(node.parents, node.vjp(g)):
            if gp is None:
                continue
            acc = tape.gradients.get(id(parent))
            tape.gradients[id(parent)] = gp if acc is None else acc + gp


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / structural ops


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; a scalar ``b`` takes a's dtype."""
    a = as_tensor(a)
    return a, Tensor(b, a.dtype) if np.isscalar(b) else as_tensor(b)


def add(a, b, overwrite_b: bool = False) -> Tensor:
    """``a + b``; untaped with ``overwrite_b``, written into b's buffer when
    a and b have one shape and dtype (the add commutes)."""
    a, b = _operands(a, b)
    if overwrite_b and not _ACTIVE and a.shape == b.shape and a.dtype == b.dtype:
        return Tensor(np.add(a.data, b.data, out=b.data))
    out = Tensor(a.data + b.data)
    _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))
    return out


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = Tensor(a.data * b.data)

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    _record(out, (a, b), vjp)
    return out


def reshape(t: Tensor, shape) -> Tensor:
    t = as_tensor(t)
    out = Tensor(t.data.reshape(shape))
    _record(out, (t,), lambda g: (g.reshape(t.shape),))
    return out


def transpose(t: Tensor, axes) -> Tensor:
    t = as_tensor(t)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.transpose(t.data, axes))
    _record(out, (t,), lambda g: (np.transpose(g, inv),))
    return out


def sum_(t: Tensor, axis=None) -> Tensor:
    t = as_tensor(t)
    out = Tensor(t.data.sum(axis=axis))

    def vjp(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, t.shape).astype(t.dtype),)

    _record(out, (t,), vjp)
    return out


def mean_(t: Tensor, axis=None) -> Tensor:
    t = as_tensor(t)
    count = t.size if axis is None else t.shape[axis]
    s = sum_(t, axis=axis)
    return mul(s, 1.0 / count)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} vs {b.shape}")
    try:
        out_data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ShapeError(f"matmul batch dims differ: {a.shape} vs {b.shape}") from e
    out = Tensor(out_data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    _record(out, (a, b), vjp)
    return out


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather with an absent sentinel: idx == -1 selects a zero row.
    ``idx`` is used in its own integer dtype (the octree's int32), not copied."""
    x = as_tensor(x)
    idx = _row_index(idx, x.shape[0])
    out = Tensor(_gathered(x.data, idx))
    _record(out, (x,), lambda g: (_scatter_rows(g, idx, x.shape),))
    return out


def _row_index(idx: np.ndarray, n: int) -> np.ndarray:
    """``idx`` as an array of rows of an n-row array, -1 for an absent row."""
    idx = np.asarray(idx)
    if idx.size and idx.max() >= n:
        raise IndexError(f"gather index {int(idx.max())} >= {n}")
    if idx.size and idx.min() < -1:
        raise IndexError("gather indices must be >= -1")
    return idx


def _gathered(data: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``data[idx]`` as a new array, a zero row where ``idx`` is -1."""
    out = data[np.clip(idx, 0, None)]
    out[idx < 0] = 0.0
    return out


def _scatter_rows(g: np.ndarray, idx: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The vjp of :func:`_gathered`: g's rows added into zeros at ``idx``."""
    present = idx >= 0
    gx = np.zeros(shape, dtype=g.dtype)
    np.add.at(gx, idx[present], g[present])
    return gx


def scatter_rows_add(y: Tensor, idx: np.ndarray, num_rows: int) -> Tensor:
    """Adjoint of :func:`gather_rows`: add row i of y into slot idx[i]."""
    y = as_tensor(y)
    idx = np.asarray(idx)
    if idx.size and idx.max() >= num_rows:
        raise IndexError(f"scatter index {int(idx.max())} >= {num_rows}")
    return from_op(_scatter_rows(y.data, idx, (num_rows,) + y.shape[1:]), (y,),
                   lambda g: (_gathered(g, idx),))


def from_op(out_data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an externally computed forward pass as a differentiable op."""
    out = Tensor(out_data)
    _record(out, parents, vjp)
    return out


# ---------------------------------------------------------------------------
# nonlinearities and normalizations


def relu(x: Tensor, overwrite_x: bool = False) -> Tensor:
    """``max(x, 0)``; untaped with ``overwrite_x``, in x's buffer."""
    x = as_tensor(x)
    if overwrite_x and not _ACTIVE:
        return Tensor(np.maximum(x.data, 0.0, out=x.data))
    out = Tensor(np.maximum(x.data, 0.0))
    _record(out, (x,), lambda g: ((g * (x.data > 0)).astype(x.dtype),))
    return out


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# float32 erf(u) = u P(u^2) / Q(u^2) on u clipped to [-4, 4], the rational of
# Eigen's generic_fast_erf_float; highest power first. P is stored halved, so
# that u P / Q is (erf u) / 2, which is exact in binary floating point.
_ERF32_HALF_P = tuple(0.5 * c for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02))
_ERF32_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
            -7.37332916720468e-03, -1.42647390514189e-02)


# float64 erf, Cephes' ndtr.c (what scipy.special.erf runs); highest power first,
# with a leading 1 where Cephes evaluates a monic polynomial (p1evl).
# |u| <= 1: erf(u) = u T(u^2) / U(u^2).
_ERF64_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
            7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF64_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
            4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
# 1 < |u| < 8: erfc(|u|) = exp(-u^2) P(|u|) / Q(|u|), and erf = sign(u) (1 - erfc).
_ERFC64_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
             4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
             9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC64_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
             3.54937778887819891062e2, 9.75708501743205489753e2, 1.82390916687909736289e3,
             2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(z: np.ndarray, coeffs, out: np.ndarray | None = None) -> np.ndarray:
    acc = np.multiply(z, coeffs[0], out=out)
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= z
        acc += c
    return acc


def _erf64(u: np.ndarray) -> np.ndarray:
    """scipy's float64 ``erf(u)``, bit for bit, written into ``u``: a port of
    Cephes' erf, u T(u^2) / U(u^2) for |u| <= 1 and 1 - erfc(|u|) with its
    sign beyond (:func:`_erf64_tail`). One scratch array holds |u| and then
    each polynomial: a fresh one per step would cost more than the step."""
    scratch = np.abs(u, out=np.empty_like(u))
    tail = scratch > 1.0  # nan is not: the rational keeps it
    erf_tail = _erf64_tail(u[tail])
    u[tail] = 0.0  # keeps the rational finite until the tail's erf replaces it
    u2 = u * u
    u *= _horner(u2, _ERF64_T, out=scratch)
    u /= _horner(u2, _ERF64_U, out=scratch)
    u[tail] = erf_tail
    return u


def _erf64_tail(v: np.ndarray) -> np.ndarray:
    """Cephes' erf for |v| > 1, sign(v) (1 - exp(-v^2) P(|v|) / Q(|v|)).

    Cephes takes another erfc rational from 8 on and an erfc of 0 once
    exp(-v^2) underflows, but erfc(6) < 2^-54, so erf is already +-1 there:
    clamping |v| at 8 keeps P/Q and gives +-1 for every larger |v|, inf
    included. Cephes' exp is the C library's, whose bits numpy's SIMD float64
    exp does not always give; numpy's complex exp calls the C library's, and
    at a zero imaginary part its real part is that exp.
    """
    if v.size == 0:  # the usual case: gelu inputs rarely reach |x| > sqrt 2
        return v
    a = np.minimum(np.abs(v), 8.0)
    erfc = np.exp((-a * a).astype(np.complex128)).real
    erfc *= _horner(a, _ERFC64_P)
    erfc /= _horner(a, _ERFC64_Q)
    return np.copysign(np.subtract(1.0, erfc, out=erfc), v, out=erfc)


def _gaussian_cdf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Phi(x) = (1 + erf(x / sqrt 2)) / 2, the gelu kernel, written to ``out``.

    Float64 evaluates :func:`_erf64`. Float32 evaluates the clamped rational
    above; gelu then lies within 2.7e-7 * max(1, |x|) of the float64 gelu.
    """
    u = np.multiply(x, _INV_SQRT2, out=np.empty_like(x) if out is None else out)
    if u.dtype != np.float32:
        _erf64(u)
        u += 1.0
        u *= 0.5
        return u
    np.clip(u, -4.0, 4.0, out=u)
    u2 = u * u
    half_erf = _horner(u2, _ERF32_HALF_P)
    half_erf *= u
    half_erf /= _horner(u2, _ERF32_Q)
    return np.add(half_erf, 0.5, out=u)


def _gelu_grad(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return (g * (cdf + x * pdf)).astype(x.dtype)


def gelu(x: Tensor) -> Tensor:
    """Gaussian-CDF gelu (erf form, not the tanh approximation)."""
    x = as_tensor(x)
    cdf = _gaussian_cdf(x.data)
    out = Tensor(x.data * cdf)
    _record(out, (x,), lambda g: (_gelu_grad(g, x.data, cdf),))
    return out


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    x = as_tensor(x)
    y = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (((g - dot) * y).astype(x.dtype),)

    _record(out, (x,), vjp)
    return out


def _moments(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and (biased) variance over ``axis``, both keeping that axis."""
    mu = x.mean(axis=axis, keepdims=True)
    return mu, x.var(axis=axis, keepdims=True, mean=mu)


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, mu: np.ndarray,
               var: np.ndarray, axis: int | None, overwrite_x: bool = False) -> Tensor:
    """``(x - mu) / sqrt(var + NORM_EPS) * gamma + beta`` as one taped op.

    ``axis`` is the axis that ``mu`` and ``var`` were taken over, so the vjp
    runs through them; None marks them as constants (batch norm in eval).
    Untaped, y is written into xhat's buffer, and with ``overwrite_x`` xhat is
    x's buffer, so the op allocates no full-size array.
    """
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    taped = bool(_ACTIVE)
    in_x = overwrite_x and not taped and np.result_type(x.data, mu) == x.dtype
    xhat = np.subtract(x.data, mu, out=x.data if in_x else None)
    xhat *= inv
    if taped or np.result_type(xhat, gamma.data) != xhat.dtype:
        y = xhat * gamma.data
    else:
        y = np.multiply(xhat, gamma.data, out=xhat)
    y += beta.data
    out = Tensor(y)

    def vjp(g):
        dxhat = g * gamma.data
        if axis is None:
            dx = (dxhat * inv).astype(x.dtype)
        else:
            m1 = dxhat.mean(axis=axis, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=axis, keepdims=True)
            dx = (inv * (dxhat - m1 - xhat * m2)).astype(x.dtype)
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    _record(out, (x, gamma, beta), vjp)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x = as_tensor(x)
    mu, var = _moments(x.data, -1)
    return _normalize(x, as_tensor(gamma), as_tensor(beta), mu, var, -1)


@dataclass
class BatchNormState:
    """Affine parameters plus running statistics for one batch-norm layer."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def create(cls, channels: int) -> "BatchNormState":
        return cls(
            gamma=Tensor(np.ones(channels, dtype=DEFAULT_DTYPE)),
            beta=Tensor(np.zeros(channels, dtype=DEFAULT_DTYPE)),
            running_mean=np.zeros(channels, dtype=np.float64),
            running_var=np.ones(channels, dtype=np.float64),
        )


def batch_norm(x: Tensor, state: BatchNormState, training: bool,
               overwrite_x: bool = False) -> Tensor:
    """Normalize (N, C) over the spatial dimension; eval uses stored stats.
    Untaped with ``overwrite_x``, the result is written into x's buffer."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"batch_norm expects (N, C), got {x.shape}")
    if not training:
        return _normalize(x, state.gamma, state.beta,
                          state.running_mean.astype(x.dtype),
                          state.running_var.astype(x.dtype), None, overwrite_x)
    if x.shape[0] < 2:
        raise NumericError("batch_norm training needs at least 2 rows")
    mu, var = _moments(x.data, 0)
    m = BN_MOMENTUM
    state.running_mean = (1 - m) * state.running_mean + m * mu[0].astype(np.float64)
    state.running_var = (1 - m) * state.running_var + m * var[0].astype(np.float64)
    return _normalize(x, state.gamma, state.beta, mu, var, 0, overwrite_x)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax over the rows not labelled ``IGNORE_INDEX``."""
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (N, L), got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (logits.shape[0],):
        raise ShapeError("labels must be one index per logits row")
    valid = labels != IGNORE_INDEX
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise NumericError("cross_entropy: every row is ignored")
    if labels[valid].min() < 0 or labels[valid].max() >= logits.shape[1]:
        raise IndexError("label out of range")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    picked = z[np.arange(z.shape[0]), np.clip(labels, 0, None)]
    losses = np.where(valid, lse - picked, 0.0)
    out = Tensor(np.asarray(losses.sum() / n_valid, dtype=logits.dtype))

    def vjp(g):
        p = np.exp(z - zmax)
        p /= p.sum(axis=1, keepdims=True)
        rows = np.arange(z.shape[0])
        p[rows[valid], labels[valid]] -= 1.0
        p[~valid] = 0.0
        return ((g * p / n_valid).astype(logits.dtype),)

    _record(out, (logits,), vjp)
    return out


def assert_finite(x: Tensor, context: str) -> None:
    if not np.isfinite(x.data).all():
        raise NumericError(f"non-finite values in {context}")


# ---------------------------------------------------------------------------
# parameter containers shared across the network modules


def trunc_normal(shape, std: float, rng: np.random.Generator, dtype=None) -> Tensor:
    """Normal(0, std) clipped at 2 std; the usual transformer weight init."""
    dt = dtype or DEFAULT_DTYPE
    v = rng.normal(0.0, std, size=shape)
    return Tensor(np.clip(v, -2.0 * std, 2.0 * std, out=v).astype(dt))


def init_weight(shape, rng: np.random.Generator | None, dtype=None) -> Tensor:
    """A :func:`trunc_normal` draw at ``INIT_STD``; with ``rng`` None, a read-only
    zero-stride placeholder of that shape and dtype (no RNG, no memory) for
    values that a checkpoint file holds."""
    if rng is None:
        return Tensor(np.broadcast_to(np.zeros((), dtype or DEFAULT_DTYPE), shape))
    return trunc_normal(shape, INIT_STD, rng, dtype)


@dataclass
class LinearParams:
    weight: Tensor  # (in, out)
    bias: Tensor  # (out,)

    @classmethod
    def init(cls, fan_in: int, fan_out: int,
             rng: np.random.Generator | None) -> "LinearParams":
        return cls(init_weight((fan_in, fan_out), rng),
                   Tensor(np.zeros(fan_out, dtype=DEFAULT_DTYPE)))


def _affine(x: Tensor, p: LinearParams):
    """(N, in) @ (in, out) plus the bias, added in place: the output, its
    parents and its vjp."""
    x, w = as_tensor(x), p.weight
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear wants (N, {w.shape[0]}) input, got {x.shape}")
    out = np.matmul(x.data, w.data)
    out += p.bias.data
    return out, (x, w, p.bias), lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0))


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """(N, in) @ (in, out) plus the bias, added in place, as one taped op."""
    return from_op(*_affine(x, p))


# Most elements of one row block of :func:`gelu_mlp`'s hidden activations and of
# a conv tap's products: the block's working set, about four float32 arrays of
# that size, stays in a 2 MB L2 cache.
MLP_BLOCK_ELEMENTS = 1 << 17


def row_blocks(n: int, width: int, elements: int | None = None) -> list[slice]:
    """Equal row blocks of an (n, width) array, about ``elements`` (by default
    ``MLP_BLOCK_ELEMENTS``) each.

    Equal, so that no block is much shorter than the rest: BLAS may pick
    another kernel (and summation order) for a few rows than for many. There
    are at most n blocks, so none is empty: a row wider than the budget is a
    block of its own. Zero rows are one empty block.
    """
    blocks = max(1, min(n, -(-n * width // (elements or MLP_BLOCK_ELEMENTS))))
    return [slice(n * i // blocks, n * (i + 1) // blocks) for i in range(blocks)]


def fill_rows(n: int, blocks: list[slice], rows_of) -> np.ndarray:
    """An n-row array whose rows ``blk`` are ``rows_of(blk)`` (an array), for
    each of ``blocks`` (contiguous, covering every row); untaped use only.

    It is allocated at the first block's width and dtype, and each block's
    rows are copied in as they return, so they die before the next block
    runs. One block is returned as it is.
    """
    if len(blocks) == 1:
        return rows_of(blocks[0])
    out = None
    for blk in blocks:
        y = rows_of(blk)
        if out is None:
            out = np.empty((n,) + y.shape[1:], y.dtype)
        out[blk] = y
        del y
    return out


def residual_rows(fn, x: Tensor, blocks: list[slice], overwrite_x: bool = False) -> Tensor:
    """``add(x, fn(x))`` for an ``fn`` that keeps x's shape and dtype and whose
    output rows ``blk`` are ``fn`` of x's rows ``blk`` alone, bit for bit, for
    each of ``blocks`` (contiguous, covering every row).

    Taped, it is that expression. Untaped, ``fn`` runs on each block's rows and
    x's rows are added to its output in the result as it returns, so only
    block-sized temporaries exist beyond the result. With ``overwrite_x`` the
    result is x's own buffer: each block's rows are read before they are
    written, so no full-size array exists beyond x.
    """
    x = as_tensor(x)
    if _ACTIVE:
        return add(x, fn(x))
    out = x.data if overwrite_x else np.empty_like(x.data)
    for blk in blocks:
        np.add(x.data[blk], fn(Tensor(x.data[blk])).data, out=out[blk])
    return Tensor(out)


def gelu_mlp(x: Tensor, fc1: LinearParams, fc2: LinearParams) -> Tensor:
    """``linear(gelu(linear(x, fc1)), fc2)`` as one taped op, with their bits.

    Runs over the :func:`row_blocks` of the hidden activations, each block's
    output written straight into the result. The full (N, hidden)
    pre-activation and its gelu cdf exist only while a tape records, for the
    vjp, which evaluates the expressions of the ``linear``, ``gelu`` and
    ``linear`` vjps.
    """
    x = as_tensor(x)
    w1, b1, w2, b2 = fc1.weight, fc1.bias, fc2.weight, fc2.bias
    if x.ndim != 2 or x.shape[1] != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise ShapeError(f"mlp wants (N, {w1.shape[0]}) input and fc2 rows "
                         f"{w1.shape[1]}, got {x.shape} and {w2.shape}")
    n, hidden = x.shape[0], w1.shape[1]
    h_dtype = np.result_type(x.data, w1.data)
    out = np.empty((n, w2.shape[1]), np.result_type(h_dtype, w2.data))
    taped = bool(_ACTIVE)
    if taped:
        h_all = np.empty((n, hidden), h_dtype)
        cdf_all = np.empty_like(h_all)
    for blk in row_blocks(n, hidden):
        h = np.matmul(x.data[blk], w1.data, out=h_all[blk] if taped else None)
        h += b1.data
        cdf = _gaussian_cdf(h, cdf_all[blk] if taped else None)
        a = np.multiply(h, cdf, out=None if taped else cdf)
        np.matmul(a, w2.data, out=out[blk])
        out[blk] += b2.data
    if not taped:
        return Tensor(out)

    def vjp(g):
        a = h_all * cdf_all
        ga = g @ w2.data.T
        gh = _gelu_grad(ga, h_all, cdf_all)
        return gh @ w1.data.T, x.data.T @ gh, gh.sum(axis=0), a.T @ g, g.sum(axis=0)

    return from_op(out, (x, w1, b1, w2, b2), vjp)


def linear_relu(x: Tensor, p: LinearParams) -> Tensor:
    """``relu(linear(x, p))`` as one taped op, with its bits: the ReLU runs in
    place on the linear's output, and the vjp's mask ``out > 0`` is the
    pre-activation's."""
    out, parents, vjp = _affine(x, p)
    np.maximum(out, 0.0, out=out)
    return from_op(out, parents, lambda g: vjp((g * (out > 0)).astype(out.dtype)))


def linear_add_rows(x: Tensor, p: LinearParams, y: Tensor, idx: np.ndarray) -> Tensor:
    """``add(gather_rows(y, idx), linear(x, p))`` as one taped op, with its bits.

    The add commutes, so the rows ``y[idx]`` are added into the linear's own
    output in place, over its :func:`row_blocks`: no full-size gather exists.
    ``y`` must have the output's width and dtype.
    """
    out, parents, vjp = _affine(x, p)
    y = as_tensor(y)
    idx = _row_index(idx, y.shape[0])
    if idx.shape != out.shape[:1] or y.shape[1:] != out.shape[1:] or y.dtype != out.dtype:
        raise ShapeError(f"cannot add rows of {y.shape} {y.dtype} at "
                         f"{idx.shape} indices to {out.shape} {out.dtype}")
    for blk in row_blocks(*out.shape):
        out[blk] += _gathered(y.data, idx[blk])
    return from_op(out, parents + (y,),
                   lambda g: vjp(g) + (_scatter_rows(g, idx, y.shape),))


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor

    @classmethod
    def init(cls, channels: int) -> "LayerNormParams":
        return cls(Tensor(np.ones(channels, dtype=DEFAULT_DTYPE)),
                   Tensor(np.zeros(channels, dtype=DEFAULT_DTYPE)))


def apply_layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    return layer_norm(x, p.gamma, p.beta)
