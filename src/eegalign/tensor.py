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
results are only read. A binary elementwise op hands its forward and
gradient rules to ``_binary``; a single-input op hands its to ``_unary``.

Composites on the hot path are fused: each records one node whose VJP
is closed-form and gated per parent in the same way.

* ``linear``: x @ w + b by the same two numpy operations (matmul, then
  add) as the composite it replaces, so values and gradients are bitwise
  the composite's;
* ``layer_norm``: normalization and affine, with the standard
  layer-norm input gradient; both are ``kernels.c``'s when it loaded,
  ``x`` (and for the gradient ``g``) is C-contiguous and gain and bias
  have ``x``'s last shape, each row summed in numpy's pairwise order,
  so their bits are the numpy lines';
* ``attention``: multi-head softmax(q k^T / sqrt(d)) v with the
  softmax-Jacobian VJP; the heads are split from and merged back into
  the last axis inside the node;
* ``softmax_rows`` and ``log_softmax_rows``, which refuse a missing or
  empty axis. The softmax of ``attention`` and ``softmax_rows`` takes
  the row max and pairwise row sum of a C-contiguous last axis in
  ``kernels.c`` when it loaded, with numpy's exp between, and numpy's bits;
* ``dynamic_conv``, the per-instance dynamic filter: its forward pass
  sums the k*k shifted views of the zero-padded image, so no window
  matrix is built; ``kernels.c`` does that sum when it loaded, reading
  the image through its strides with no padded copy of the batch, with
  numpy's bits;
* ``unfold``, im2col for ordinary strided convolutions: its window
  buffer and its VJP's sum of taps are ``kernels.c``'s ``im2col`` and
  ``col2im`` when it loaded, which read the input through its strides
  with no padded copy, and give numpy's bits in numpy's layout;
* ``gelu``, whose forward, and VJP after numpy's in-place exp, are
  ``kernels.c``'s when it loaded and x (and g) are dense in one axis
  order, with scipy's ``erf`` ported there: the numpy code's bits.

backward() stores gradients on leaves only; intermediate results are
never given a ``.grad``.

numpy supplies storage and BLAS arithmetic only; every gradient rule
lives here. This module is the tape alone: files are ``bundle``'s, and
the finite-difference checker is ``gradchecks.grad_check``.
"""
from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _erf

from .errors import ContractError, DimensionError, DomainError
from .kernels import compiled

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_TINY = np.finfo(np.float64).tiny  # the smallest normal float

NORM_GUARD = 1e-12
LN_EPS = 1e-5
KL_CLAMP = 1e-12


class Tensor:
    """A dense float64 array plus an optional gradient record.

    Tensors are treated as immutable within a forward pass. ``grad`` is
    ``None`` until backward() reaches the tensor as a leaf and is
    accumulated additively afterwards; an op's output never gets one. A
    model part's leaves are ``Parameter``s, Tensors that carry a name.
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

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        Gradients are accumulated into ``.grad`` of the leaves only: the
        tensors on the path that have ``requires_grad`` set and were not
        produced by a recorded op (parameters and inputs). Intermediate
        results keep ``.grad`` at None, and tensors off the path are left
        untouched.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[Tensor] = set()  # Tensor hashes by identity
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for parent in node._parents:
                if parent not in seen:
                    stack.append((parent, False))
        flows: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        for node in reversed(topo):
            flow = flows.pop(node, None)
            if flow is None:
                continue
            if node._vjp is None:
                if node.requires_grad:
                    node.grad = flow.copy() if node.grad is None else node.grad + flow
                continue
            for parent, contrib in zip(node._parents, node._vjp(flow)):
                if contrib is None or not parent.requires_grad:
                    continue
                held = flows.get(parent)
                flows[parent] = contrib if held is None else held + contrib

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
_FLOAT64 = np.dtype(np.float64)


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
    """An op's output, recorded on the tape when some parent requires a gradient."""
    out = object.__new__(Tensor)
    out.data = data if type(data) is np.ndarray and data.dtype is _FLOAT64 else np.asarray(data, dtype=np.float64)
    out.grad, out.requires_grad, out._parents, out._vjp = None, False, (), None
    if _recording:
        for p in parents:
            if p.requires_grad:
                out.requires_grad, out._parents, out._vjp = True, parents, vjp
                break
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


def _binary(a, b, forward, grad_a, grad_b) -> Tensor:
    """One broadcasting elementwise op: the shared body of add, sub, mul and div.

    ``grad_a(g, a, b)`` and ``grad_b`` map the output gradient and both
    parents' arrays to one parent's gradient, which is then summed back to
    that parent's shape; a parent that needs no gradient gets None.
    """
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = forward(a.data, b.data)
    except ValueError as e:
        raise DimensionError(f"cannot broadcast shapes {a.shape} and {b.shape}") from e

    def vjp(g):
        return (_unbroadcast(grad_a(g, a.data, b.data), a.shape) if a.requires_grad else None,
                _unbroadcast(grad_b(g, a.data, b.data), b.shape) if b.requires_grad else None)

    return _make(data, (a, b), vjp)


# the gradient rules (g, x, y) -> grad that need no call argument, built once rather than on every call
_keep, _negate = (lambda g, x, y: g), (lambda g, x, y: -g)
_times_y, _times_x = (lambda g, x, y: g * y), (lambda g, x, y: g * x)
_over_y, _over_x = (lambda g, x, y: g / y), (lambda g, x, y: g / x)
_sigmoid_grad, _reshape_back = (lambda g, x, y: g * y * (1.0 - y)), (lambda g, x, y: g.reshape(x.shape))


def _neg_x_over_y_sq(g, x, y):
    """-g * x / (y * y), and (-g * x / y) / y where y * y is subnormal or 0, so that a tiny y has a sound gradient."""
    y_sq = y * y
    tiny = y_sq < _TINY
    return -g * x / np.where(tiny, y, y_sq) / np.where(tiny, y, 1.0)


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, _keep, _keep)


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, _keep, _negate)


def mul(a, b) -> Tensor:
    return _binary(a, b, np.multiply, _times_y, _times_x)


def div(a, b) -> Tensor:
    return _binary(a, b, np.divide, _over_y, _neg_x_over_y_sq)


def _unary(a, forward, grad) -> Tensor:
    """One single-input op, ``_binary``'s twin and the shared body of power, exp, log, clamp_min, sigmoid,
    reshape, transpose, softmax_rows and sum: ``data = forward(x)`` of the input's array ``x``, and
    ``grad(g, x, data)`` maps the output gradient to the input's."""
    a = as_tensor(a)
    data = forward(a.data)
    return _make(data, (a,), lambda g: (grad(g, a.data, data),))


def power(a, exponent: float) -> Tensor:
    p = float(exponent)
    return _unary(a, lambda x: x ** p, lambda g, x, y: g * p * x ** (p - 1.0))


def exp(a) -> Tensor:
    return _unary(a, np.exp, _times_y)


def log(a) -> Tensor:
    return _unary(a, np.log, _over_x)


def clamp_min(a, floor: float) -> Tensor:
    """Elementwise max(a, floor); gradient passes only where a > floor."""
    return _unary(a, lambda x: np.maximum(x, floor), lambda g, x, y: g * (x > floor))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    pos = z >= 0
    # split so neither branch exponentiates a large positive argument
    safe_pos = np.where(pos, z, 0.0)
    safe_neg = np.where(pos, 0.0, z)
    ez = np.exp(safe_neg)
    return np.where(pos, 1.0 / (1.0 + np.exp(-safe_pos)), ez / (1.0 + ez))


def sigmoid(a) -> Tensor:
    return _unary(a, _sigmoid, _sigmoid_grad)


def _gelu_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """erf(x / sqrt(2)) and (0.5 * x) * (1 + that erf), entry by entry.

    The compiled ``gelu`` does it over the flat buffer when the kernels loaded and ``x`` is float64 and dense in
    some axis order, as a transposed view of a C-order array is; otherwise numpy and scipy do. The kernel carries
    scipy's own erf, and its outputs take ``x``'s strides as numpy's do, so both give the same bits and layout.
    """
    lib = compiled()
    if lib is not None and x.dtype == _FLOAT64:
        e, out = np.empty_like(x), np.empty_like(x)
        if e.strides == x.strides:
            lib.gelu(x.ctypes.data, e.ctypes.data, out.ctypes.data, x.size)
            return e, out
    e = _erf(x / _SQRT2)
    return e, 0.5 * x * (1.0 + e)


def gelu(a) -> Tensor:
    """Exact Gaussian error linear unit, 0.5 * x * (1 + erf(x / sqrt(2)))."""
    a = as_tensor(a)
    e, data = _gelu_parts(a.data)

    def vjp(g):
        x, lib = a.data, compiled()
        if lib is not None and x.ndim and g.dtype == _FLOAT64 and g.strides == x.strides == e.strides:
            w = np.multiply(-0.5, x)
            np.exp(np.multiply(w, x, out=w), out=w)
            lib.gelu_grad(g.ctypes.data, x.ctypes.data, e.ctypes.data, w.ctypes.data, x.size, _INV_SQRT_2PI)
            return (w,)
        return (g * (0.5 * (1.0 + e) + x * (np.exp(-0.5 * x * x) * _INV_SQRT_2PI)),)

    return _make(data, (a,), vjp)


# -- structural ops ------------------------------------------------------


def _matmul_grads(g, a: Tensor, b: Tensor) -> tuple:
    """matmul's VJP: g b^T for a and a^T g for b, each only when that parent needs it."""
    return (_unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape) if a.requires_grad else None,
            _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape) if b.requires_grad else None)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}") from e
    return _make(data, (a, b), lambda g: _matmul_grads(g, a, b))


def linear(x, w, b) -> Tensor:
    """x @ w + b as one node: np.add(np.matmul(x, w), b), the two numpy operations
    of ``matmul(x, w) + b`` with the sum written into the product, so a b that
    widens the product is refused; matmul's VJP for x and w and add's for b."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim < 2 or w.ndim < 2:
        raise DimensionError(f"linear needs rank >= 2 operands, got {x.shape} and {w.shape}")
    try:
        product = np.matmul(x.data, w.data)
        inner = product.shape
        data = np.add(product, b.data, out=product)
    except ValueError as e:
        raise DimensionError(f"linear shape mismatch: {x.shape} x {w.shape} + {b.shape}") from e

    def vjp(g):  # add's rule sums g to the product's shape for matmul's, and to b's
        return _matmul_grads(_unbroadcast(g, inner), x, w) + (_unbroadcast(g, b.shape) if b.requires_grad else None,)

    return _make(data, (x, w, b), vjp)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        if a.ndim < 2:
            raise DimensionError("transpose needs rank >= 2")
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    given, n = tuple(axes), a.ndim
    axes = tuple(int(x) + n if int(x) < 0 else int(x) for x in given)
    if sorted(axes) != list(range(n)):
        raise DimensionError(f"transpose axes {given} are not a permutation of {n} axes")
    inverse = tuple(axes.index(i) for i in range(n))
    return _unary(a, lambda x: x.transpose(axes), lambda g, x, y: g.transpose(inverse))


def reshape(a, shape) -> Tensor:
    return _unary(a, lambda x: x.reshape(shape), _reshape_back)


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
    """The VJP of a sum over ``axis``: ``g`` broadcast back out to ``shape``, a read-only view."""
    return np.broadcast_to(g if keepdims or axis is None else np.expand_dims(g, axis), shape)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    return _unary(a, lambda x: x.sum(axis=axis, keepdims=keepdims),
                  lambda g, x, y: _expand_to(g, x.shape, axis, keepdims))


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    total = a.data.sum(axis=axis, keepdims=keepdims)
    count = a.data.size / total.size if total.size else 1.0
    data = total / count  # what np.mean does
    return _make(data, (a,), lambda g: (_expand_to(g / count, a.shape, axis, keepdims),))


# -- composite numeric ops ----------------------------------------------


def _require_rows(z: np.ndarray, axis: int) -> None:
    """Refuse a softmax over an ``axis`` that ``z`` does not have, or whose rows are empty."""
    if not -z.ndim <= axis < z.ndim:
        raise DimensionError(f"softmax axis {axis} is not an axis of shape {z.shape}")
    if not z.shape[axis]:
        raise DimensionError(f"softmax rows along axis {axis} of shape {z.shape} are empty")


def _softmax(z: np.ndarray, axis: int) -> np.ndarray:
    """exp(z - max) / sum along ``axis``; for a C-contiguous float64 ``z`` and the last axis, the compiled max and
    pairwise sum, exact or in numpy's own order, around numpy's exp, so both paths give the same bits."""
    _require_rows(z, axis)
    lib, d = compiled(), z.shape[axis]
    if lib is not None and axis % z.ndim == z.ndim - 1 and z.dtype == _FLOAT64 and z.flags.c_contiguous:
        e = np.empty_like(z)
        lib.row_shift(z.ctypes.data, e.ctypes.data, z.size // d, d)
        np.exp(e, out=e)
        lib.row_divide(e.ctypes.data, z.size // d, d)
        return e
    e = z - np.max(z, axis=axis, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=e)


def softmax_rows(x, axis: int = -1) -> Tensor:
    """Softmax along ``axis``; one node.

    The row maximum is subtracted before exponentiation; the shift is a
    constant so values and gradients are unchanged by it. The VJP is the
    softmax Jacobian, p * (g - sum(g * p)).
    """
    return _unary(x, lambda z: _softmax(z, axis), lambda g, z, p: p * (g - (g * p).sum(axis=axis, keepdims=True)))


def log_softmax_rows(x, axis: int = -1) -> Tensor:
    """log(softmax(x)) along ``axis``, shifted by the row maximum; one node."""
    x = as_tensor(x)
    _require_rows(x.data, axis)
    z = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=axis, keepdims=True)
    data = z - np.log(s)

    def vjp(g):
        return (g - e / s * g.sum(axis=axis, keepdims=True),)

    return _make(data, (x,), vjp)


def l2_normalize(x) -> Tensor:
    """Scale the rows (last axis) to unit Euclidean norm.

    The squared norm is padded by 1e-12 inside the square root, so zero
    rows map to zero instead of dividing by zero.
    """
    x = as_tensor(x)
    return x / ((x * x).sum(axis=-1, keepdims=True) + NORM_GUARD) ** 0.5


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine.

    One node. With xhat = (x - mean) / std and gh = g * gain, the input gradient is the closed form
    (gh - mean(gh) - xhat * mean(gh * xhat)) / std over the last axis (Ba et al., arXiv 1607.06450); the gain and
    bias gradients are g * xhat and g summed to their shapes. Each is computed only when its parent needs it.
    The compiled ``layer_norm`` takes the forward of a C-contiguous x with (d,) gain and bias (``fused``), and
    then ``layer_norm_grad`` the input gradient of a C-contiguous g, each with these lines' bits.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    lib = compiled()
    fused = lib is not None and x.ndim and x.data.size and gain.shape == bias.shape == x.shape[-1:] and all(
        a.flags.c_contiguous for a in (x.data, gain.data, bias.data))
    if fused:
        xhat, std, data = np.empty_like(x.data), np.empty(x.shape[:-1] + (1,)), np.empty_like(x.data)
        lib.layer_norm(x.data.ctypes.data, gain.data.ctypes.data, bias.data.ctypes.data, xhat.ctypes.data,
                       std.ctypes.data, data.ctypes.data, x.data.size // x.shape[-1], x.shape[-1], LN_EPS)
    else:
        try:  # numpy's AxisError, a ValueError, for a 0-d x; a ValueError for an affine that does not broadcast
            centered = x.data - x.data.mean(axis=-1, keepdims=True)
            std = ((centered * centered).mean(axis=-1, keepdims=True) + LN_EPS) ** 0.5
            xhat = centered / std
            data = xhat * gain.data
            data += bias.data
        except ValueError as e:
            raise DimensionError(f"layer norm cannot take x {x.shape}, gain {gain.shape} and bias {bias.shape}") from e

    def vjp(g):
        gx = None
        if x.requires_grad and fused and g.dtype == _FLOAT64 and g.flags.c_contiguous:
            gx = np.empty_like(g)
            lib.layer_norm_grad(g.ctypes.data, gain.data.ctypes.data, xhat.ctypes.data, std.ctypes.data,
                                gx.ctypes.data, g.size // x.shape[-1], x.shape[-1])
        elif x.requires_grad:
            gh = g * gain.data
            gx = (gh - gh.mean(axis=-1, keepdims=True)
                  - xhat * (gh * xhat).mean(axis=-1, keepdims=True)) / std
        return (gx,
                _unbroadcast(g * xhat, gain.shape) if gain.requires_grad else None,
                _unbroadcast(g, bias.shape) if bias.requires_grad else None)

    return _make(data, (x, gain, bias), vjp)


def kl_div_rows(p, q) -> Tensor:
    """KL(p || q) summed along the last axis, averaged over rows.

    Both arguments are clamped at ``KL_CLAMP`` before the log. A zero entry
    in ``p`` contributes exactly zero (0 * log 0 convention) because the
    multiplication happens outside the clamp.
    """
    p, q = as_tensor(p), as_tensor(q)
    if p.shape != q.shape:
        raise DimensionError(f"KL needs matching shapes, got {p.shape} and {q.shape}")
    lp = log(clamp_min(p, KL_CLAMP))
    lq = log(clamp_min(q, KL_CLAMP))
    per_row = (p * (lp - lq)).sum(axis=-1)
    return per_row.mean()


def attention(q, k, v, heads: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention over (..., N, d) rows.

    The last axis of q, k and v is split into ``heads`` equal slices; each
    head computes softmax(q k^T / sqrt(d / heads)) v, and the head outputs
    are concatenated back along the last axis. Any leading axes are batch.
    One node: the split and merge are numpy reshapes inside it, the value
    gradient is p^T g, and the score gradient is the softmax Jacobian
    applied to g v^T, scaled and multiplied out to q and k; each parent's
    gradient is computed only when that parent needs one.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise DimensionError(f"attention needs rank >= 2 operands, got {q.shape}, {k.shape} and {v.shape}")
    d, dv = q.shape[-1], v.shape[-1]
    if k.shape[-1] != d:
        raise DimensionError(f"query dim {d} != key dim {k.shape[-1]}")
    if heads < 1 or d % heads or dv % heads:
        raise DimensionError(f"{heads} heads do not divide query dim {d} and value dim {dv}")
    if not k.shape[-2]:
        raise DimensionError(f"attention needs at least one key, got k {k.shape}")

    def split(a):  # (..., N, h*e) -> (..., h, N, e)
        return a.reshape(a.shape[:-1] + (heads, a.shape[-1] // heads)).swapaxes(-2, -3)

    def merge(a):  # (..., h, N, e) -> (..., N, h*e)
        return a.swapaxes(-2, -3).reshape(a.shape[:-3] + (a.shape[-2], a.shape[-3] * a.shape[-1]))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / math.sqrt(d // heads)
    try:
        scores = np.matmul(qh, kh.swapaxes(-1, -2))
        p = _softmax(np.multiply(scores, scale, out=scores), -1)
        data = merge(np.matmul(p, vh))
    except ValueError as e:
        raise DimensionError(f"attention shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}") from e

    def vjp(g):
        gh = split(g)
        gv = _unbroadcast(merge(np.matmul(p.swapaxes(-1, -2), gh)), v.shape) if v.requires_grad else None
        gp = np.matmul(gh, vh.swapaxes(-1, -2))
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
        gq = _unbroadcast(merge(np.matmul(gs, kh)), q.shape) if q.requires_grad else None
        gk = _unbroadcast(merge(np.matmul(gs.swapaxes(-1, -2), qh)), k.shape) if k.requires_grad else None
        return gq, gk, gv

    return _make(data, (q, k, v), vjp)


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
    if stride < 1 or ph < 0 or pw < 0:
        raise DomainError(f"stride must be >= 1 and padding >= 0, got stride {stride} and padding {padding}")
    hp, wp = h + 2 * ph, w + 2 * pw
    if kh > hp or kw > wp or kh < 1 or kw < 1:
        raise DimensionError(f"kernel {kh}x{kw} does not fit padded input {hp}x{wp}")
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

    # the compiled im2col and col2im, when the kernels loaded, move and add the same entries in the same order
    lib = compiled()
    cols = np.empty((bsz, ch, kh, kw, oh, ow))
    if lib is not None:
        strides = (s // x.data.itemsize for s in x.data.strides)
        lib.im2col(x.data.ctypes.data, *strides, cols.ctypes.data, *x.shape, kh, kw, oh, ow, stride, ph, pw)
    else:
        padded = _pad(x.data, ph, pw)
        for u in range(kh):
            for v in range(kw):
                cols[:, :, u, v] = padded[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride]
    data = cols.transpose(0, 4, 5, 1, 2, 3).reshape(bsz, oh * ow, ch * kh * kw)

    def vjp(g):
        gcols = g.reshape(bsz, oh, ow, ch, kh, kw).transpose(0, 3, 4, 5, 1, 2)
        gpad = np.zeros((bsz, ch, hp, wp))
        if lib is not None:
            strides = (s // gcols.itemsize for s in gcols.strides)
            lib.col2im(gcols.ctypes.data, *strides, gpad.ctypes.data, *gpad.shape, *gcols.shape[2:], stride)
        else:
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


def _tap_sum(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Sum over taps (u, v) of k[:, :, u, v] times ``x`` shifted by (u - kh // 2, v - kw // 2), zero outside it.

    The compiled ``tap_sum`` does it when the kernels loaded, reading ``x`` and ``k`` through their strides;
    otherwise numpy does, on a zero-padded copy of the whole batch. Both add each tap's product into zeros in
    (u, v) order, multiplying the zeros outside the image too, so they give the same bits.
    """
    if not (x.dtype == k.dtype == _FLOAT64 and x.ndim == k.ndim == 4 and x.shape[:2] == k.shape[:2]):
        raise ContractError(f"tap sum needs float64 (B, C, h, w) images and (B, C, kh, kw) kernels, got "
                            f"{x.dtype} {x.shape} and {k.dtype} {k.shape}")
    (h, w), (kh, kw) = x.shape[2:], k.shape[2:]
    lib = compiled()
    if lib is not None:
        out, plane = np.empty(x.shape), np.zeros((h + kh - 1, w + kw - 1))
        xs, ks = ([s // a.itemsize for s in a.strides] for a in (x, k))
        lib.tap_sum(x.ctypes.data, *xs, k.ctypes.data, *ks, plane.ctypes.data, out.ctypes.data, *x.shape, kh, kw)
        return out
    padded, out = _pad(x, kh // 2, kw // 2), np.zeros(x.shape)
    for u in range(kh):
        for v in range(kw):
            out += np.einsum("bchw,bc->bchw", padded[:, :, u:u + h, v:v + w], k[:, :, u, v])
    return out


def dynamic_conv(x, k) -> Tensor:
    """Per-(sample, channel) zero-padded same-size correlation.

    ``x`` is (B, C, H, W) and ``k`` is (B, C, kh, kw) with odd kh, kw:
    out[b, c, i, j] = sum_{u,v} k[b, c, u, v] * x[b, c, i + u - kh//2,
    j + v - kw//2], with x zero outside the image. The forward pass adds
    the kh*kw shifted views of the padded image (``_tap_sum``); no window
    matrix is built. The kernel gradient is one reduction per tap over a
    padded copy of x made in the VJP, and the image gradient is the same
    tap sum of the output gradient with the flipped kernel, each computed
    only when its parent needs it.
    """
    x, k = as_tensor(x), as_tensor(k)
    if x.ndim != 4 or k.ndim != 4 or k.shape[:2] != x.shape[:2]:
        raise DimensionError(f"dynamic_conv needs x (B, C, H, W) and k (B, C, kh, kw), got {x.shape} and {k.shape}")
    (h, w), (kh, kw) = x.shape[2:], k.shape[2:]
    if kh % 2 == 0 or kw % 2 == 0:
        raise DimensionError(f"dynamic_conv needs odd-sized kernels, got {kh}x{kw}")
    data = _tap_sum(x.data, k.data)

    def vjp(g):
        gx = _tap_sum(g, k.data[:, :, ::-1, ::-1]) if x.requires_grad else None
        gk = None
        if k.requires_grad:
            padded, gk = _pad(x.data, kh // 2, kw // 2), np.empty(k.shape)
            for u in range(kh):
                for v in range(kw):
                    gk[:, :, u, v] = np.einsum("bchw,bchw->bc", g, padded[:, :, u:u + h, v:v + w])
        return gx, gk

    return _make(data, (x, k), vjp)


# -- parameters ----------------------------------------------------------


class Parameter(Tensor):
    """A named leaf Tensor, optionally frozen, with an optimizer group tag.

    ``group`` is "A" or "B"; the trainer runs one optimizer per group.
    A frozen parameter never requires grad and is excluded from updates;
    ``frozen`` is a flag of its own, since a caller may clear ``requires_grad``.
    """

    __slots__ = ("name", "frozen", "group")

    def __init__(self, name: str, data, frozen: bool = False, group: str = "A"):
        if group not in ("A", "B"):
            raise DomainError(f"parameter group must be 'A' or 'B', got {group!r}")
        super().__init__(data, requires_grad=not frozen)
        self.name, self.frozen, self.group = name, bool(frozen), group

    def __repr__(self) -> str:
        state = "frozen" if self.frozen else f"group {self.group}"
        return f"Parameter({self.name!r}, shape={self.shape}, {state})"


# where a parameter's value comes from: the seeded generator, or a checkpoint's lookup (name, shape) -> array
Init = np.random.Generator | Callable[[str, tuple[int, ...]], np.ndarray]


def param(init: Init, name: str, shape: tuple[int, ...], frozen: bool = False, group: str = "A",
          over: float = 1.0, times: float = 1.0, fill: float | np.ndarray | None = None) -> Parameter:
    """The one maker of a model part's parameters, each a ``Parameter`` over the array drawn or looked up. A
    checkpoint's lookup ``init`` gives ``init(name, shape)``; the seeded generator gives ``fill`` broadcast to
    ``shape`` or else ``normal(shape) / over * times``, where the default 1.0 is exact, so each part keeps the
    arithmetic it states."""
    if not isinstance(init, np.random.Generator):
        value = init(name, shape)
    elif fill is None:
        value = init.normal(size=shape) / over * times
    else:
        value = np.full(shape, fill, dtype=np.float64)
    return Parameter(name, value, frozen, group)


class Module:
    """A model part whose parameters are its attributes, each declared once."""

    def parameters(self) -> list[Parameter]:
        """The ``Parameter`` attributes in the order they were assigned.

        Attributes that are Modules, or lists of Modules, are expanded in
        place. This order is the checkpoint layout: the model's parameter
        list joins its parts' lists and a checkpoint stores the values in
        that order, so reordering a part's assignments changes the file.
        """
        out = []
        for value in vars(self).values():
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, Module):
                    out += item.parameters()
                elif isinstance(item, Parameter):
                    out.append(item)
        return out
