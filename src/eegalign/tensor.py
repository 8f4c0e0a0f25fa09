"""Dense float64 tensors with a per-forward reverse-mode autodiff tape.

Every value flowing through the pipeline is a Tensor wrapping a C-order
float64 ndarray. An operation records its input tensors and a
vector-Jacobian closure on its output; nothing persists between forward
passes. backward() walks the recorded graph once in reverse topological
order and deposits gradients additively, so running it twice on the same
graph without clearing grads exactly doubles every gradient.

The tape does only the work asked for. An output is recorded only when
some input requires a gradient, and the binary ops (add, sub, mul, div,
matmul) compute a parent's contribution only when that parent requires
a gradient, so the frozen trunk's weights cost no backward arithmetic.
Under ``no_grad()`` nothing is recorded at all, for forward passes whose
results are only read.

The per-instance dynamic filter is one op, ``dynamic_conv``: its forward
pass sums the k*k shifted views of one zero-padded image, so no window
matrix is built, and its VJP is closed-form and gated per parent in the
same way. ``unfold`` remains for ordinary strided convolutions.

numpy supplies storage and BLAS arithmetic only; every gradient rule
lives here.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import ContractError, DimensionError, DomainError, FormatError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

NORM_GUARD = 1e-12
KL_CLAMP = 1e-12


class Tensor:
    """A dense float64 array plus an optional gradient record.

    Tensors are treated as immutable within a forward pass. ``grad`` is
    ``None`` until backward() reaches the tensor and is accumulated
    additively afterwards.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        Gradients are accumulated into ``.grad`` of every tensor on the
        path that has ``requires_grad`` set; tensors off the path are
        left untouched.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        flows: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            flow = flows.pop(id(node), None)
            if flow is None:
                continue
            if node.requires_grad:
                node.grad = flow.copy() if node.grad is None else node.grad + flow
            if node._vjp is None:
                continue
            for parent, contrib in zip(node._parents, node._vjp(flow)):
                if contrib is None or not parent.requires_grad:
                    continue
                key = id(parent)
                held = flows.get(key)
                flows[key] = contrib if held is None else held + contrib

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def transpose(self, axes=None) -> "Tensor":
        return transpose(self, axes)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_recording = True


@contextlib.contextmanager
def no_grad():
    """Run a block without recording: its outputs have no parents or VJP.

    For forward passes whose results are only read (evaluation,
    validation, detached targets). Nests, and restores the previous
    state on exit, also when the block raises.
    """
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as e:
        raise DimensionError(f"cannot broadcast shapes {a.shape} and {b.shape}") from e

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError as e:
        raise DimensionError(f"cannot broadcast shapes {a.shape} and {b.shape}") from e

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _make(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as e:
        raise DimensionError(f"cannot broadcast shapes {a.shape} and {b.shape}") from e

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(data, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data / b.data
    except ValueError as e:
        raise DimensionError(f"cannot broadcast shapes {a.shape} and {b.shape}") from e

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return _make(data, (a, b), vjp)


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    p = float(exponent)
    data = a.data ** p

    def vjp(g):
        return (g * p * a.data ** (p - 1.0),)

    return _make(data, (a,), vjp)


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def vjp(g):
        return (g * data,)

    return _make(data, (a,), vjp)


def log(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return _make(data, (a,), vjp)


def clamp_min(a, floor: float) -> Tensor:
    """Elementwise max(a, floor); gradient passes only where a > floor."""
    a = as_tensor(a)
    data = np.maximum(a.data, floor)

    def vjp(g):
        return (g * (a.data > floor),)

    return _make(data, (a,), vjp)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    z = a.data
    pos = z >= 0
    # split so neither branch exponentiates a large positive argument
    safe_pos = np.where(pos, z, 0.0)
    safe_neg = np.where(pos, 0.0, z)
    ez = np.exp(safe_neg)
    data = np.where(pos, 1.0 / (1.0 + np.exp(-safe_pos)), ez / (1.0 + ez))

    def vjp(g):
        return (g * data * (1.0 - data),)

    return _make(data, (a,), vjp)


def gelu(a) -> Tensor:
    """Exact Gaussian error linear unit, 0.5 * x * (1 + erf(x / sqrt(2)))."""
    a = as_tensor(a)
    e = _erf(a.data / _SQRT2)
    data = 0.5 * a.data * (1.0 + e)

    def vjp(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        return (g * (0.5 * (1.0 + e) + a.data * pdf),)

    return _make(data, (a,), vjp)


# -- structural ops ------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}") from e

    def vjp(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape) if a.requires_grad else None
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape) if b.requires_grad else None
        return ga, gb

    return _make(data, (a, b), vjp)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        if a.ndim < 2:
            raise DimensionError("transpose needs rank >= 2")
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    axes = tuple(int(x) for x in axes)
    inverse = tuple(int(x) for x in np.argsort(axes))
    data = np.transpose(a.data, axes)

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _make(data, (a,), vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return _make(data, (a,), vjp)


def _has_array_index(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return any(isinstance(p, (np.ndarray, list)) for p in parts)


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    data = np.array(a.data[key])
    advanced = _has_array_index(key)

    def vjp(g):
        gx = np.zeros_like(a.data)
        if advanced:
            np.add.at(gx, key, g)
        else:
            gx[key] += g
        return (gx,)

    return _make(data, (a,), vjp)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = tuple(as_tensor(t) for t in tensors)
    if not ts:
        raise DimensionError("concat needs at least one tensor")
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as e:
        raise DimensionError(f"concat shape mismatch: {[t.shape for t in ts]}") from e
    offsets = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(data, ts, vjp)


def _expand_to(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """The VJP of a sum over ``axis``: ``g`` copied back out to ``shape``."""
    if axis is None and not keepdims:
        return np.full(shape, g)
    gg = g if keepdims else np.expand_dims(g, axis)
    return np.broadcast_to(gg, shape).copy()


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    return _make(data, (a,), lambda g: (_expand_to(g, a.shape, axis, keepdims),))


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / data.size if data.size else 1.0
    return _make(data, (a,), lambda g: (_expand_to(g / count, a.shape, axis, keepdims),))


# -- composite numeric ops ----------------------------------------------


def softmax_rows(x, temperature=1.0, axis: int = -1) -> Tensor:
    """Temperature-scaled softmax along ``axis``.

    The row maximum is subtracted before exponentiation; the shift is a
    constant so values and gradients are unchanged by it. ``temperature``
    may be a float or a positive scalar Tensor (gradient flows through
    a Tensor temperature).
    """
    x = as_tensor(x)
    if isinstance(temperature, Tensor):
        if temperature.size != 1:
            raise DomainError(f"temperature must be scalar, got shape {temperature.shape}")
        if temperature.item() <= 0.0:
            raise DomainError(f"temperature must be positive, got {temperature.item()}")
        z = x / temperature
    else:
        t = float(temperature)
        if t <= 0.0:
            raise DomainError(f"temperature must be positive, got {t}")
        z = x / t if t != 1.0 else x
    shift = Tensor(np.max(z.data, axis=axis, keepdims=True))
    e = exp(z - shift)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_rows(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    z = x - shift
    return z - log(exp(z).sum(axis=axis, keepdims=True))


def l2_normalize(x) -> Tensor:
    """Scale the rows (last axis) to unit Euclidean norm.

    The squared norm is padded by 1e-12 inside the square root, so zero
    rows map to zero instead of dividing by zero.
    """
    x = as_tensor(x)
    return x / ((x * x).sum(axis=-1, keepdims=True) + NORM_GUARD) ** 0.5


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine."""
    x = as_tensor(x)
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps) ** 0.5 * gain + bias


def kl_div_rows(p, q, clamp: float = KL_CLAMP) -> Tensor:
    """KL(p || q) summed along the last axis, averaged over rows.

    Both arguments are clamped at ``clamp`` before the log. A zero entry
    in ``p`` contributes exactly zero (0 * log 0 convention) because the
    multiplication happens outside the clamp.
    """
    p, q = as_tensor(p), as_tensor(q)
    if p.shape != q.shape:
        raise DimensionError(f"KL needs matching shapes, got {p.shape} and {q.shape}")
    lp = log(clamp_min(p, clamp))
    lq = log(clamp_min(q, clamp))
    per_row = (p * (lp - lq)).sum(axis=-1)
    return per_row.mean()


def attention(q, k, v) -> Tensor:
    """Scaled dot-product attention: softmax(q k^T / sqrt(d)) v.

    Operates on the last two axes; any leading axes are batch.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    d = q.shape[-1]
    if k.shape[-1] != d:
        raise DimensionError(f"query dim {d} != key dim {k.shape[-1]}")
    scores = matmul(q, transpose(k)) * (1.0 / math.sqrt(d))
    return matmul(softmax_rows(scores, axis=-1), v)


def unfold(x, kh: int, kw: int, stride: int = 1, padding: int | tuple[int, int] = 0) -> Tensor:
    """im2col: (B, C, H, W) -> (B, L, C*kh*kw) sliding windows.

    Window order is row-major over output positions; within a window the
    layout is channel-major then kernel row then kernel column. Padding
    is zero-filled.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise DimensionError(f"unfold expects (B, C, H, W), got {x.shape}")
    bsz, ch, h, w = x.shape
    ph, pw = (padding, padding) if isinstance(padding, int) else (int(padding[0]), int(padding[1]))
    hp, wp = h + 2 * ph, w + 2 * pw
    if kh > hp or kw > wp or kh < 1 or kw < 1:
        raise DimensionError(f"kernel {kh}x{kw} does not fit padded input {hp}x{wp}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1

    if ph == 0 and pw == 0 and stride == kh == kw and h % kh == 0 and w % kw == 0:
        # non-overlapping exact tiling is a pure reindexing
        data = (
            x.data.reshape(bsz, ch, oh, kh, ow, kw)
            .transpose(0, 2, 4, 1, 3, 5)
            .reshape(bsz, oh * ow, ch * kh * kw)
        )

        def vjp_tiled(g):
            gx = (
                g.reshape(bsz, oh, ow, ch, kh, kw)
                .transpose(0, 3, 1, 4, 2, 5)
                .reshape(bsz, ch, h, w)
            )
            return (gx,)

        return _make(data, (x,), vjp_tiled)

    padded = np.zeros((bsz, ch, hp, wp))
    padded[:, :, ph:ph + h, pw:pw + w] = x.data
    cols = np.empty((bsz, ch, kh, kw, oh, ow))
    for u in range(kh):
        for v in range(kw):
            cols[:, :, u, v] = padded[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride]
    data = cols.transpose(0, 4, 5, 1, 2, 3).reshape(bsz, oh * ow, ch * kh * kw)

    def vjp(g):
        gcols = g.reshape(bsz, oh, ow, ch, kh, kw).transpose(0, 3, 4, 5, 1, 2)
        gpad = np.zeros((bsz, ch, hp, wp))
        for u in range(kh):
            for v in range(kw):
                gpad[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride] += gcols[:, :, u, v]
        return (gpad[:, :, ph:ph + h, pw:pw + w],)

    return _make(data, (x,), vjp)


def _pad(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    bsz, ch, h, w = a.shape
    padded = np.zeros((bsz, ch, h + 2 * ph, w + 2 * pw))
    padded[:, :, ph:ph + h, pw:pw + w] = a
    return padded


def _tap_sum(padded: np.ndarray, k: np.ndarray, h: int, w: int) -> np.ndarray:
    """Sum over taps (u, v) of k[:, :, u, v] times the (u, v)-shifted h x w view."""
    out = np.zeros(padded.shape[:2] + (h, w))
    for u in range(k.shape[2]):
        for v in range(k.shape[3]):
            out += np.einsum("bchw,bc->bchw", padded[:, :, u:u + h, v:v + w], k[:, :, u, v])
    return out


def dynamic_conv(x, k) -> Tensor:
    """Per-(sample, channel) zero-padded same-size correlation.

    ``x`` is (B, C, H, W) and ``k`` is (B, C, kh, kw) with odd kh, kw:
    out[b, c, i, j] = sum_{u,v} k[b, c, u, v] * x[b, c, i + u - kh//2,
    j + v - kw//2], with x zero outside the image. The forward pass adds
    the kh*kw shifted views of one padded image; no window matrix is
    built. The kernel gradient is one reduction per tap, and the image
    gradient is the same correlation of the padded output gradient with
    the flipped kernel, each computed only when its parent needs it.
    """
    x, k = as_tensor(x), as_tensor(k)
    if x.ndim != 4 or k.ndim != 4 or k.shape[:2] != x.shape[:2]:
        raise DimensionError(
            f"dynamic_conv needs x (B, C, H, W) and k (B, C, kh, kw), got {x.shape} and {k.shape}"
        )
    h, w = x.shape[2], x.shape[3]
    kh, kw = k.shape[2], k.shape[3]
    if kh % 2 == 0 or kw % 2 == 0:
        raise DimensionError(f"dynamic_conv needs odd-sized kernels, got {kh}x{kw}")
    ph, pw = kh // 2, kw // 2
    padded = _pad(x.data, ph, pw)
    data = _tap_sum(padded, k.data, h, w)

    def vjp(g):
        gx = _tap_sum(_pad(g, ph, pw), k.data[:, :, ::-1, ::-1], h, w) if x.requires_grad else None
        gk = None
        if k.requires_grad:
            gk = np.empty(k.shape)
            for u in range(kh):
                for v in range(kw):
                    gk[:, :, u, v] = np.einsum("bchw,bchw->bc", g, padded[:, :, u:u + h, v:v + w])
        return gx, gk

    return _make(data, (x, k), vjp)


# -- parameters ----------------------------------------------------------


class Parameter:
    """A named, optionally frozen tensor with an optimizer group tag.

    ``group`` is "A" or "B"; the trainer runs one optimizer per group.
    Frozen parameters never require grad and are excluded from updates.
    """

    __slots__ = ("name", "value", "frozen", "group")

    def __init__(self, name: str, value: Tensor, frozen: bool = False, group: str = "A"):
        if group not in ("A", "B"):
            raise DomainError(f"parameter group must be 'A' or 'B', got {group!r}")
        self.name = name
        self.value = value
        self.frozen = bool(frozen)
        self.group = group
        self.value.requires_grad = not self.frozen

    def __repr__(self) -> str:
        state = "frozen" if self.frozen else f"group {self.group}"
        return f"Parameter({self.name!r}, shape={self.value.shape}, {state})"


# -- finite-difference gradient checking ----------------------------------


@dataclass
class GradCheckResult:
    name: str
    max_rel_err: float
    checked: int
    passed: bool


@dataclass
class GradCheckReport:
    tol: float
    results: list[GradCheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def max_rel_err(self) -> float:
        return max((r.max_rel_err for r in self.results), default=0.0)

    def summary(self) -> str:
        lines = []
        for r in self.results:
            flag = "ok" if r.passed else "FAIL"
            lines.append(f"{flag:4s} {r.name:<28s} max_rel_err={r.max_rel_err:.3e} ({r.checked} entries)")
        return "\n".join(lines)


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Parameter],
    step: float = 1e-5,
    tol: float = 1e-4,
    max_entries: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare backward() gradients of ``f`` against central differences.

    ``f`` must rebuild its forward graph from the current parameter
    values on every call and return a scalar. The relative error of each
    checked entry is |analytic - numeric| / max(|analytic|, |numeric|, 1).
    ``max_entries`` caps the entries probed per parameter (seeded choice
    via ``rng``); by default every entry is probed.
    """
    for p in params:
        p.value.grad = None
    loss = f()
    loss.backward()
    analytic = {}
    for p in params:
        g = p.value.grad
        analytic[p.name] = np.zeros_like(p.value.data) if g is None else g.copy()
        p.value.grad = None

    report = GradCheckReport(tol=tol)
    for p in params:
        flat = p.value.data.reshape(-1)
        ana = analytic[p.name].reshape(-1)
        n = flat.size
        if max_entries is not None and n > max_entries:
            gen = rng if rng is not None else np.random.default_rng(0)
            indices = gen.choice(n, size=max_entries, replace=False)
        else:
            indices = np.arange(n)
        worst = 0.0
        for i in indices:
            saved = flat[i]
            flat[i] = saved + step
            plus = f().item()
            flat[i] = saved - step
            minus = f().item()
            flat[i] = saved
            numeric = (plus - minus) / (2.0 * step)
            denom = max(abs(ana[i]), abs(numeric), 1.0)
            worst = max(worst, abs(ana[i] - numeric) / denom)
        report.results.append(
            GradCheckResult(name=p.name, max_rel_err=worst, checked=len(indices), passed=worst < tol)
        )
    return report


# -- serialization ---------------------------------------------------------


def write_atomically(writers: dict) -> None:
    """Write a set of files so that no reader sees a partial one.

    ``writers`` maps each target path to a function that fills a binary
    file handle. Each fills a temp file beside its target; only when all
    are complete are they moved into place with os.replace, in the order
    given, so callers list their manifest last. If a writer raises, the
    temp files are removed and every target is left as it was.
    """
    staged = []
    try:
        for path, write in writers.items():
            staged.append(f"{os.fspath(path)}.tmp")
            with open(staged[-1], "wb") as fh:
                write(fh)
    except BaseException:
        for tmp in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise
    for path, tmp in zip(writers, staged):
        os.replace(tmp, path)


def read_json_object(path) -> dict:
    """Parse a UTF-8 JSON file whose top level is an object.

    FormatError, naming the file, when it is not UTF-8, not JSON or not
    an object. A missing file raises FileNotFoundError for the caller.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise FormatError(f"{path} is not valid UTF-8 JSON: {e}") from e
    if not isinstance(obj, dict):
        raise FormatError(f"{path} holds a JSON {type(obj).__name__}, not an object")
    return obj


_MAX_RANK = 32


def write_tensor(fh, array: np.ndarray) -> None:
    """Write one tensor: little-endian u32 rank, u32 dims, f64 payload."""
    arr = np.asarray(array, dtype="<f8")
    shape = arr.shape  # kept before ascontiguousarray, which promotes 0-d to 1-d
    fh.write(np.asarray([len(shape)], dtype="<u4").tobytes())
    if shape:
        fh.write(np.asarray(shape, dtype="<u4").tobytes())
    fh.write(np.ascontiguousarray(arr).tobytes())


def read_tensor(fh) -> np.ndarray:
    """Read one tensor written by write_tensor.

    FormatError on truncation, and before any allocation when the header
    claims more payload than the rest of the file holds.
    """

    def need(count: int, what: str) -> bytes:
        at = fh.tell()
        buf = fh.read(count)
        if len(buf) != count:
            raise FormatError(f"truncated tensor file while reading {what}", offset=at + len(buf))
        return buf

    start = fh.tell()
    rank = int(np.frombuffer(need(4, "rank"), dtype="<u4")[0])
    if rank > _MAX_RANK:
        raise FormatError(f"implausible tensor rank {rank}", offset=start)
    shape = tuple(int(d) for d in np.frombuffer(need(4 * rank, "shape"), dtype="<u4"))
    count = 1
    for d in shape:
        count *= d
    here = fh.tell()
    left = fh.seek(0, os.SEEK_END) - here
    fh.seek(here)
    if 8 * count > left:
        raise FormatError(f"tensor header {shape} claims {8 * count} payload bytes, "
                          f"only {left} left in the file", offset=start)
    try:
        out = np.empty(shape, dtype="<f8")
    except ValueError as e:  # a zero dimension beside dimensions numpy cannot index
        raise FormatError(f"implausible tensor shape {shape}", offset=start) from e
    got = fh.readinto(out.reshape(-1).view(np.uint8))  # straight into the array, no copy
    if got != 8 * count:
        raise FormatError("truncated tensor file while reading payload", offset=here + got)
    return out
