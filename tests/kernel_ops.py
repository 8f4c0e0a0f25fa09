"""``KERNEL_OPS``: the contract of each op that a compiled kernel of ``kernels.c`` backs, declared once.

A kernel must give the bits, shapes and strides of the numpy code it stands in for, so that the kernels change
speed only. The generic tests of ``test_tensor.py`` run every row on both kernel paths, and those of
``test_kernels.py`` at each instruction set and under numpy's AVX2 dispatch. A new kernel is one more row.
"""
from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.special

from eegalign import backbone, dynfilter, fusion, kernels, tensor
from eegalign.config import default_config
from eegalign.data import generate_synthetic, make_batch, zero_shot_split
from eegalign.model import AlignmentModel
from eegalign.tensor import Parameter, Tensor
from eegalign.trainer import Adam, train_step

# why a row compares only the NaN-ness of some outputs
OPERAND_ORDER = ("which of two NaN operands a product or a sum keeps is the order in which the machine code passes "
                 "them, which neither numpy's loops nor a C compiler fixes")
ROW_SHIFT_FOUND = ("the row_shift FOUND: np.max returns the canonical NaN when its vector loop meets a NaN and the "
                   "NaN itself when its scalar tail does, so a -NaN there gives a row of NaNs of another sign")
PAIRWISE_FOUND = ("the pairwise FOUND: over more than 128 entries holding NaNs and infinities of both signs, the "
                  "halves' sums can be a NaN of the data and the -NaN of inf + -inf, and which their sum keeps is "
                  "the compiler's operand order")


class Case(NamedTuple):
    """Named inputs of an op: a layout, a sweep over a kernel's branches or a set of special values."""

    inputs: list
    takes: tuple | None = None  # the kernels the spy must see; None for all of the row's
    nan_only: tuple = ()  # the outputs whose NaNs are compared by NaN-ness only


@dataclass(frozen=True)
class KernelOp:
    """One kernel-backed op. Each of ``special_rows`` runs alone, and all of them in a batch with room for them."""

    kernels: tuple[str, ...]  # the kernels its calls take
    run: Callable[..., list]  # (*inputs) -> its value and VJPs, on the path in use
    build: Callable[..., list]  # (rng, draw, scale) -> its inputs at one of ``draws`` and ``scales``
    draws: list  # shapes, or the op's own geometry
    cases: Callable[[], dict[str, Case]]  # its layouts, sweeps over the kernels' branches and special input sets
    model: list  # (owner, name) of the functions whose calls in a training step take the kernels of
    model_calls: list  # (owner, forward kernels, VJP kernels or None where no VJP ran) for each call
    scales: tuple = (1.0,)
    special_rows: dict = field(default_factory=dict)  # name -> (width -> a row)
    special_inputs: tuple = (0,)  # the inputs they go into, the second's from one plain row after the first's
    special_entries: Callable | None = None  # (rng, inputs) -> None: writes special values among drawn ones
    reference: Callable | None = None  # (*inputs) -> what the numpy path gives for the first outputs, written out
    nan_reason: str | None = None  # why some cases compare the NaN-ness of some outputs only


# -- comparing the two paths ----------------------------------------------------


@contextlib.contextmanager
def numpy_path():
    """The kernels unloaded inside the block, as when they did not build; what was loaded is back after it."""
    loaded = kernels._loaded[:]
    kernels._loaded[:] = [None]
    try:
        yield
    finally:
        kernels._loaded[:] = loaded


def assert_same(got: list, want: list, nan_only=()) -> None:
    """Each of ``got`` has the shape, strides and bits of ``want``'s; one whose index is in ``nan_only`` has NaN
    where it has, and its numbers' bits."""
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        if a is None or b is None:
            assert a is b, i
            continue
        assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides), i
        if i in nan_only:
            number = ~np.isnan(b)
            assert np.array_equal(np.isnan(a), ~number) and a[number].tobytes() == b[number].tobytes(), i
        else:
            assert a.tobytes() == b.tobytes(), i


def assert_keeps_numpys_bits(op: KernelOp, inputs: list, nan_only=()) -> list:
    """Asserts that ``op``'s outputs on the path in use are the numpy path's, and those its reference's, and returns
    the numpy path's. The warnings of NaNs, overflow and empty rows are not shown."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = op.run(*inputs)
        with numpy_path():
            want = op.run(*inputs)
        written_out = [] if op.reference is None else op.reference(*inputs)
    assert_same(got, want, nan_only)
    assert_same(want[:len(written_out)], written_out, nan_only)
    return want


def with_specials(op: KernelOp, inputs: list, rng: np.random.Generator) -> list:
    """``inputs`` with ``op``'s special rows in the first rows of the inputs that take them and have room for them,
    and its special entries among the drawn ones."""
    n = len(op.special_rows)
    for j, i in enumerate(op.special_inputs if n else ()):
        rows = inputs[i].reshape(-1, inputs[i].shape[-1])
        if len(rows) >= (j + 1) * n + j:
            rows[j * (n + 1):j * (n + 1) + n] = [row(rows.shape[1]) for row in op.special_rows.values()]
    if op.special_entries is not None:
        op.special_entries(rng, inputs)
    return inputs


def claims(table: dict[str, tuple[str, ...]], names) -> list[str]:
    """What is wrong with how ``table``'s rows claim the kernels ``names``: a kernel no row or two rows claim, and
    a claimed name that is no kernel."""
    claimed = {name for row in table.values() for name in row}
    rows = {name: [row for row, kernels in table.items() if name in kernels] for name in claimed | set(names)}
    return [f"{name} is claimed by {rows[name]}" + ("" if name in names else ", and is no kernel")
            for name in sorted(rows) if len(rows[name]) != 1 or name not in names]


# -- shared values ---------------------------------------------------------------


def _rand(rng, *shape):
    return rng.normal(size=shape)


def _with_specials(a, specials, start):
    """``a`` with ``specials`` written over every 5th entry from ``start`` on, in turn."""
    flat = a.reshape(-1)
    at = np.arange(start, flat.size, 5)
    flat[at] = np.resize(specials, at.size)


# every row length at which a SIMD loop's tail or numpy's pairwise sum changes its shape: fewer than 8 entries, 8 and
# a tail, one block of 128 and the split halves above it; and the trunk's 16 and 21 tokens
WIDTHS = [1, 7, 8, 9, 16, 21, 64, 100, 128, 129, 300]
# signed zeros, subnormals, overflow and non-finite values (rarer, so that most sums stay numbers), whose bits
# a reordered or flushed sum would change
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -1e-310, 1e-300, 1e200, 1.5, -2.25, np.inf, -np.inf, np.nan]
SPECIAL_ODDS = np.array([12] * 8 + [1] * 3) / 99


def _special_draws(rng, *arrays):
    """Each of ``arrays`` overwritten by draws of ``SPECIAL_VALUES``."""
    for a in arrays:
        a[...] = rng.choice(SPECIAL_VALUES, size=a.shape, p=SPECIAL_ODDS)


def train_one_step() -> None:
    """One training step of a small model with every part of the default config: the model's own calls."""
    cfg = default_config()
    cfg.encoder.dim = cfg.backbone.dim = 16
    cfg.backbone.layers, cfg.backbone.heads, cfg.backbone.patch, cfg.backbone.prompts = 2, 2, 8, 2
    model = AlignmentModel(cfg, channels=4, timesteps=12, image_size=16)
    data = generate_synthetic(seed=0, n_classes=5, per_class=6, channels=4, timesteps=12, height=16, noise=0.2)
    train = zero_shot_split(data, n_test_classes=1, n_val_samples=6, seed=0)["train"]
    train_step(model, make_batch(train, np.arange(8)), Adam(model.group("A"), 0.002), Adam(model.group("B"), 0.02))


# -- gelu -----------------------------------------------------------------------


def _gelu_run(x, g):
    return [*tensor._gelu_parts(x), *tensor.gelu(Tensor(x, requires_grad=True))._vjp(g)]


def _gelu_reference(x, g):
    """erf(x / sqrt(2)), (0.5 * x) * (1 + that erf), and the VJP's closed form g * (0.5 * (1 + e) + x * pdf(x))."""
    e = scipy.special.erf(x / math.sqrt(2.0))
    out = 0.5 * x
    out *= 1.0 + e
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    return [e, out, g * (0.5 * (1.0 + e) + x * pdf)]


def _gelu_build(rng, shape, scale):
    return [scale * _rand(rng, *shape), _rand(rng, *shape)]


MAXLOG = 7.09782712893383996732e2  # Cephes' erfc is 0 once x * x passes it
# |x / sqrt(2)| near 1 (where Cephes' erf turns to 1 - erfc), 8 (where erfc changes coefficients) and
# sqrt(MAXLOG) (where erfc underflows), with both signs: each and its 40 nearest floats on each side
GELU_EDGES = np.array([sign * v for t in (1.0, 8.0, math.sqrt(MAXLOG))
                       for v in (np.float64(t * math.sqrt(2.0)).view(np.int64) + np.arange(-40, 41)).view(np.float64)
                       for sign in (1.0, -1.0)])
GELU_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-300, np.inf, -np.inf, 1e308, -1e308])
# |x| from 37.5 up, where exp(-0.5 * x * x) turns subnormal (about 37.6) and then 0 (about 38.6)
GELU_VJP_X_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 37.5, -38.0, 38.5, -38.6, 39.0, -40.0, 1e3])
GELU_VJP_G_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324])


def _gelu_special_entries(rng, inputs):
    # the specials of x and of g sit at different entries, each of them in a SIMD body and in its tail
    _with_specials(inputs[0], GELU_VJP_X_SPECIALS, 0)
    _with_specials(inputs[1], GELU_VJP_G_SPECIALS, 2)


def _gelu_cases():
    rng = np.random.default_rng(59)
    base, g = 3.0 * _rand(rng, 6, 40), _rand(rng, 6, 40)
    edges = np.sqrt(2.0) * np.array([1.0, 8.0])
    blocks = np.concatenate([np.linspace(-15.0, 15.0, 1486), edges, -edges, np.nextafter(edges, 0.0),
                             np.nextafter(edges, np.inf), [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan]])
    tails = np.concatenate([np.linspace(-40.0, 40.0, 1488), np.sqrt(2.0) * np.array([1.0, -1.0, 8.0, -8.0]),
                            [37.5, -38.6, 1e3, 0.0, -0.0, 5e-324, np.inf, -np.inf]]).reshape(3, 500)
    tails_g = _rand(rng, 3, 500)
    tails_g[0, 7], tails_g[1, 100], tails_g[1, 333], tails_g[2, 4] = np.nan, np.inf, -np.inf, -0.0
    branches = np.concatenate([GELU_EDGES, GELU_SPECIALS, np.linspace(-60.0, 60.0, 2001)])
    branches = np.append(np.insert(branches, np.arange(0, 40 * 37, 37), np.nan), np.nan)
    sweep = np.concatenate([np.linspace(-60.0, 60.0, 240_001), np.sqrt(2.0) * np.array([1.0, -1.0, 8.0, -8.0]),
                            [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan]])
    return {
        # the kernels run on dense buffers in any axis order, gelu_grad only where x, g and the forward's e share
        # their strides; a transposed x with a g of its own layout qualifies
        "transposed": Case([base.T, g.T]),
        "transposed, g in C order": Case([base.T, np.ascontiguousarray(g.T)], ("gelu",)),
        "sliced": Case([base[:, ::2], g[:, ::2]], ()),
        "sliced from 1 by 3": Case([base[:, 1::3], _rand(rng, 6, 13)], ()),
        "sliced by 3, transposed": Case([base[:, ::3].T, _rand(rng, 14, 6)], ()),
        "broadcast": Case([np.broadcast_to(base[0], (6, 40)), g], ()),
        "float32 g": Case([base, g.astype(np.float32)], ("gelu",)),
        # both sides of |t| = 1 and 8, the special values and a NaN, over several 512-entry blocks, transposed
        "512-entry blocks": Case([blocks.reshape(3, 500).T, _rand(rng, 3, 500).T]),
        # the VJP where exp(-x * x / 2) turns subnormal and then 0, with the special values in x and, at other
        # entries, in g
        "exp's tails": Case([tails.T, tails_g.T]),
        # np.nan is the quiet NaN erf returns, so a product of it and x's NaN has the same bits whichever it keeps;
        # it sits at every position of an 8-entry SIMD block and last, in a loop's tail
        "erf's branch points": Case([branches, _rand(rng, *branches.shape)]),
        "240,001 steps": Case([sweep, _rand(rng, *sweep.shape)]),
        # a 0-d x runs numpy's VJP: -0.5 * x of it is a numpy scalar, which cannot take the exp in place
        "0-d": Case([_rand(rng), _rand(rng)], ("gelu",)),
        **{f"empty {shape}": Case([_rand(rng, *shape), _rand(rng, *shape)]) for shape in [(0,), (3, 0, 4)]},
        # which NaN a product of two keeps is its operand order in the machine code: numpy's own loops give x's NaN
        # in their body and erf's in their tail, and at x = +-inf the VJP makes inf * 0, a NaN of its own, which
        # g's NaN meets; erf's bits are compared
        "a negative NaN": Case([np.where(np.arange(19) % 3 == 0, -np.nan, np.linspace(-3.0, 3.0, 19)),
                                _rand(rng, 19)], nan_only=(1, 2)),
        "a NaN of g on a NaN of the VJP": Case([np.where(np.arange(40) % 4 == 0, np.inf, np.linspace(-3.0, 3.0, 40)),
                                                np.where(np.arange(40) % 2 == 0, np.nan, 1.5)], nan_only=(2,)),
    }


# -- layer_norm -------------------------------------------------------------------


def layer_norm_composite(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps) ** 0.5 * gain + bias


def _layer_norm_run(x, gain, bias, g, live=(True, True, True)):
    # the VJP reads xhat and std; for a one-row input the gain gradient is g * xhat itself, so even the sign of a
    # zero in xhat shows
    out = tensor.layer_norm(*[Tensor(a, requires_grad=r) for a, r in zip((x, gain, bias), live)])
    return [out.data, *out._vjp(g)]


def _layer_norm_build(rng, shape, scale):
    # offsets and magnitudes that make each sum's order show in its bits
    x = 10.0 ** rng.integers(-3, 4, size=shape) * _rand(rng, *shape) + 7.0 * _rand(rng)
    return [x, 1.0 + 0.3 * _rand(rng, shape[-1]), 0.2 * _rand(rng, shape[-1]), _rand(rng, *shape)]


LN_SPECIAL_ROWS = {
    "-0.0": lambda d: np.full(d, -0.0),  # np.add.reduce starts from +0.0, so the mean is +0.0 and x - mean -0.0
    "constant": lambda d: np.full(d, 0.1),
    "nan": lambda d: np.where(np.arange(d) == d // 2, np.nan, np.linspace(-1.0, 1.0, d)),
    "inf": lambda d: np.where(np.arange(d) == 0, np.inf, np.linspace(-1.0, 1.0, d)),
    "-inf and inf": lambda d: np.where(np.arange(d) == d - 1, -np.inf, np.where(np.arange(d) == 0, np.inf, 1.0)),
}


def _layer_norm_cases():
    rng = np.random.default_rng(57)
    x, g = 3.0 * _rand(rng, 6, 9, 12) + 1.0, _rand(rng, 6, 9, 12)
    gain, bias = 1.0 + 0.3 * _rand(rng, 12), 0.2 * _rand(rng, 12)
    cases = {
        # a transposed x meets a g of another layout, C order; a g that is not in C order lets the forward run the
        # kernel, but its VJP runs numpy, whose row means then take another order; a frozen x takes the affine
        # gradients only, by numpy
        "transposed": Case([x.transpose(1, 0, 2), gain, bias, _rand(rng, 9, 6, 12)], ()),
        "sliced": Case([x[:, ::2], gain, bias, _rand(rng, 6, 5, 12)], ()),
        "gain (1, d)": Case([x, gain[None], bias, g], ()),
        "gain broadcast": Case([x, np.broadcast_to(1.5, gain.shape), bias, g], ()),
        "bias sliced": Case([x, gain, _rand(rng, 24)[::2], g], ()),
        "g transposed": Case([x, gain, bias, np.ascontiguousarray(g.transpose(1, 0, 2)).transpose(1, 0, 2)],
                             ("layer_norm",)),
        **{f"x frozen, live {live}": Case([x, gain, bias, g, (False, *live)], ("layer_norm",))
           for live in [(True, True), (True, False), (False, True)]},
        **{f"empty {shape}": Case([np.ones(shape), np.ones(shape[-1]), np.zeros(shape[-1]), np.ones(shape)], ())
           for shape in [(0, 6), (2, 0)]},
    }
    # widths around each of the pairwise sum's shapes, with a -0.0, a NaN and an infinite row in x, and in other
    # rows a -0.0, a NaN and an infinite entry in the VJP's g
    for d in (3, 9, 64, 129, 300):
        wide = 10.0 ** rng.integers(-3, 4, size=(4, 5, d)) * _rand(rng, 4, 5, d) + 7.0
        wide[0, 0], wide[0, 1, d // 2], wide[0, 2, 0] = -0.0, np.nan, np.inf
        wide_g = _rand(rng, 4, 5, d)
        wide_g[1, 0], wide_g[1, 1, d // 2], wide_g[1, 2, -1] = -0.0, np.nan, -np.inf
        cases[f"special entries, width {d}"] = Case([wide, 1.0 + _rand(rng, d), _rand(rng, d), wide_g])
    # NaNs at every 17th entry, inf at every 23rd and -inf at every 29th of (15, 130) rows, in x and then in g
    pattern = _rand(rng, 15, 130)
    flat = pattern.reshape(-1)
    flat[::29], flat[::23], flat[::17] = -np.inf, np.inf, np.nan
    gain, bias, normal = 1.0 + 0.3 * _rand(rng, 130), 0.2 * _rand(rng, 130), _rand(rng, 15, 130)
    cases["NaNs and infinities over 128 entries of x"] = Case([pattern, gain, bias, normal], nan_only=(0, 1, 2, 3))
    cases["NaNs and infinities over 128 entries of g"] = Case([normal, gain, bias, pattern], nan_only=(0, 1, 2, 3))
    return cases


# -- softmax ------------------------------------------------------------------------


def _softmax_run(z, g, axis=-1):
    out = tensor.softmax_rows(Tensor(z, requires_grad=True), axis)
    return [tensor._softmax(z, axis), out.data, *out._vjp(g)]


def _softmax_build(rng, shape, scale):
    # magnitudes from 0.1 to 1e3 and one of 1e300, so that exp underflows
    z = 10.0 ** rng.uniform(-1.0, 3.0, size=shape[:-1] + (1,)) * _rand(rng, *shape)
    z.reshape(-1, shape[-1])[-1, -1] *= 1e300
    return [z, _rand(rng, *shape)]


SOFTMAX_SPECIAL_ROWS = {
    "nan": lambda d: np.where(np.arange(d) == d // 2, np.nan, np.linspace(-1.0, 1.0, d)),
    # a max that passed over the NaN would be inf, and inf - inf gives a NaN of another sign
    "nan then inf": lambda d: np.where(np.arange(d) == d // 2, np.nan, np.where(np.arange(d) == d - 1, np.inf, 1.0)),
    "inf": lambda d: np.where(np.arange(d) == 0, np.inf, np.linspace(-1.0, 1.0, d)),
    "all -inf": lambda d: np.full(d, -np.inf),
    "-0.0": lambda d: np.full(d, -0.0),
    "constant": lambda d: np.full(d, 0.1),
}


def _softmax_cases():
    rng = np.random.default_rng(58)
    z = 5.0 * _rand(rng, 6, 9)
    cases = {  # the kernels take C-order rows along the last axis only
        "transposed": Case([z.T, _rand(rng, 9, 6)], ()),
        "sliced": Case([z[:, ::2], _rand(rng, 6, 5)], ()),
        "axis 0": Case([z, _rand(rng, 6, 9), 0], ()),
        "axis 1 of 3": Case([z.reshape(2, 3, 9), _rand(rng, 2, 3, 9), 1], ()),
    }
    # row lengths around each of the pairwise sum's shapes, at magnitudes from 0.1 to 800, with a NaN row, a row
    # with a NaN before a +inf, an infinite row, a row of -inf, a row of -0.0 and a constant row
    for d in (1, 7, 9, 21, 129, 300):
        z = 10.0 ** rng.uniform(-1.0, 2.9, size=(4, 3, 1)) * _rand(rng, 4, 3, d)
        i = np.arange(d)
        z[0, 0], z[0, 1, d // 2], z[0, 2, 0] = -0.0, np.nan, np.inf
        z[1, 0], z[1, 1], z[1, 2] = -np.inf, 0.25, np.where(i == d // 2, np.nan, np.where(i == d - 1, np.inf, 1.0))
        cases[f"special rows, width {d}"] = Case([z, _rand(rng, 4, 3, d)])
    # a row of ones whose last entry is -nan
    for d in WIDTHS:
        cases[f"a -NaN last, width {d}"] = Case([np.where(np.arange(d) == d - 1, -np.nan, np.ones(d))[None],
                                                 _rand(rng, 1, d)], nan_only=(0, 1, 2))
    return cases


# -- dynamic_conv ---------------------------------------------------------------------


def _dynamic_conv_run(x, k, g):
    out = tensor.dynamic_conv(Tensor(x, requires_grad=True), Tensor(k, requires_grad=True))
    return [out.data, *out._vjp(g)]


def _padded(x, k):
    """``x`` zero-padded by half of ``k``'s odd sides, as the tap sum reads it."""
    return np.pad(x, ((0, 0), (0, 0), (k.shape[2] // 2,) * 2, (k.shape[3] // 2,) * 2))


def _whole_batch_tap_sum(x, k):
    """The tap sum written out: each tap's product with the padded batch added into zeros in (u, v) order."""
    (h, w), padded = x.shape[2:], _padded(x, k)
    out = np.zeros(x.shape)
    for u in range(k.shape[2]):
        for v in range(k.shape[3]):
            out += np.einsum("bchw,bc->bchw", padded[:, :, u:u + h, v:v + w], k[:, :, u, v])
    return out


def _dynamic_conv_reference(x, k, g):
    """The image and its gradient as tap sums over the padded batch, the second with the flipped kernels that the
    VJP passes as a view with negative strides, and the kernel gradient as one reduction per tap."""
    (h, w), (kh, kw) = x.shape[2:], k.shape[2:]
    padded = _padded(x, k)
    gk = np.stack([np.einsum("bchw,bchw->bc", g, padded[:, :, u:u + h, v:v + w]) for u in range(kh)
                   for v in range(kw)], axis=-1).reshape(k.shape)
    return [_whole_batch_tap_sum(x, k), _whole_batch_tap_sum(g, k[:, :, ::-1, ::-1]), gk]


def _dynamic_conv_build(rng, draw, scale):
    bsz, ch, h, w, kh, kw = draw
    return [_rand(rng, bsz, ch, h, w), _rand(rng, bsz, ch, kh, kw), _rand(rng, bsz, ch, h, w)]


def _dynamic_conv_cases():
    rng = np.random.default_rng(55)
    # the kernel reads any image and any kernels through their strides
    g = _rand(rng, 3, 2, 11, 7).transpose(0, 1, 3, 2)
    layouts = {"transposed": _rand(rng, 3, 2, 11, 7).transpose(0, 1, 3, 2),
               "negative strides": _rand(rng, 3, 2, 7, 11)[:, ::-1, ::-1, ::-1],
               "sliced": _rand(rng, 3, 4, 14, 11)[:, ::2, ::2]}
    cases = {name: Case([x, _rand(rng, 3, 2, 5, 3), g]) for name, x in layouts.items()}
    # and with an infinite and a NaN tap, whose products with the zeros outside the image are NaN, as in numpy's
    # padded copy
    for name, (inputs, _, _) in list(cases.items()):
        k = inputs[1].copy()
        k[0, 1, 0, 2], k[2, 0, 4, 0] = np.inf, np.nan
        cases[f"an infinite and a NaN tap, {name}"] = Case([inputs[0], k, g], nan_only=(0, 1, 2))
    # a transposed image with subnormals and signed zeros, and flipped kernels with an infinite tap
    image = np.where(rng.random((3, 4, 37, 5)) < 0.1, rng.choice([5e-324, -1e-310, -0.0], (3, 4, 37, 5)),
                     _rand(rng, 3, 4, 37, 5)).transpose(0, 1, 3, 2)
    k = _rand(rng, 3, 4, 5, 5)
    k[1, 2, 0, 4] = np.inf
    cases["subnormals and flipped kernels"] = Case([image, k[:, :, ::-1, ::-1], _rand(rng, 3, 4, 5, 37)])
    # signed zeros, subnormals, overflow and non-finite values in x and k
    x, k, g = _rand(rng, 4, 3, 6, 6), _rand(rng, 4, 3, 3, 3), _rand(rng, 4, 3, 6, 6)
    _special_draws(rng, x, k)
    cases["special values"] = Case([x, k, g], nan_only=(0, 1, 2))
    return cases


# -- unfold ---------------------------------------------------------------------------


def _unfold_run(x, geometry, *gs):
    kh, kw, stride, padding = geometry
    out = tensor.unfold(Tensor(x, requires_grad=True), kh, kw, stride=stride, padding=padding)
    return [out.data, *(grad for g in gs for grad in out._vjp(g))]


def _unfold_shapes(x, geometry):
    """(ph, pw), (oh, ow) and the shape of the window matrix."""
    kh, kw, stride, padding = geometry
    (bsz, ch, h, w), (ph, pw) = x.shape, (padding, padding) if isinstance(padding, int) else padding
    oh, ow = (h + 2 * ph - kh) // stride + 1, (w + 2 * pw - kw) // stride + 1
    return (ph, pw), (oh, ow), (bsz, oh * ow, ch * kh * kw)


def _unfold_reference(x, geometry, *gs):
    """The windows by a loop, in the numpy path's buffer layout, and the VJP of each g as the sum of tap slices,
    bit for bit and stride for stride, since later BLAS calls see both as operands."""
    kh, kw, stride, _ = geometry
    (ph, pw), (oh, ow), shape = _unfold_shapes(x, geometry)
    bsz, ch, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = np.empty((bsz, ch, kh, kw, oh, ow)).transpose(0, 4, 5, 1, 2, 3).reshape(shape)
    windows[...] = np.stack([np.stack([padded[b, :, i * stride:i * stride + kh, j * stride:j * stride + kw].reshape(-1)
                                       for i in range(oh) for j in range(ow)]) for b in range(bsz)])
    grads = []
    for g in gs:
        gcols = g.reshape(bsz, oh, ow, ch, kh, kw).transpose(0, 3, 4, 5, 1, 2)
        gpad = np.zeros(padded.shape)
        for u in range(kh):
            for v in range(kw):
                gpad[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride] += gcols[:, :, u, v]
        grads.append(gpad[:, :, ph:ph + h, pw:pw + w])
    return [windows, *grads]


# x for unfold's general path: C-order, dense but transposed, read backwards, and a slice that is not dense
UNFOLD_LAYOUTS = {
    "c-order": lambda rng: _rand(rng, 2, 3, 7, 8),
    "transposed": lambda rng: _rand(rng, 8, 2, 7, 3).transpose(1, 3, 2, 0),
    "negative-strides": lambda rng: _rand(rng, 2, 3, 7, 8)[::-1, :, ::-1],
    "sliced": lambda rng: _rand(rng, 3, 4, 9, 17)[:2, 1:, 1:8, ::2],
}


def _unfold_build(rng, draw, scale):
    # a C-order and a transposed g
    layout, *geometry = draw
    x = UNFOLD_LAYOUTS[layout](rng)
    shape = _unfold_shapes(x, geometry)[2]
    return [x, tuple(geometry), _rand(rng, *shape), _rand(rng, *shape[::-1]).T]


def _unfold_cases():
    rng = np.random.default_rng(54)
    # the kernels read any x through its strides
    cases = {name: Case(_unfold_build(rng, (name, 3, 3, 1, 1), 1.0)) for name in UNFOLD_LAYOUTS}
    # subnormals and signed zeros among the draws, on a transposed image: im2col's windows and col2im's sum
    image = np.where(rng.random((5, 37, 3, 4)) < 0.1, rng.choice([5e-324, -1e-310, -0.0], (5, 37, 3, 4)),
                     _rand(rng, 5, 37, 3, 4)).transpose(2, 3, 0, 1)
    cases["subnormals"] = Case([image, (3, 3, 2, (1, 2)), _rand(rng, 3, 3 * 20, 4 * 9)])  # 3 x 20 windows of 36
    return cases


# -- adam -----------------------------------------------------------------------------


def _adam_run(values, grads):
    params = [Parameter(f"p{i}", value.copy()) for i, value in enumerate(values)]
    opt = Adam(params, lr=0.003)
    for step in grads:
        for p, g in zip(params, step):
            p.grad = g
        opt.step()
    return [*(p.data for p in params), *opt.m, *opt.v]


def _adam_build(rng, shapes, scale):
    # five steps, the second parameter without a gradient on the third
    values = [np.array(1e-4 * _rand(rng, *shape)) for shape in shapes]
    return [values, [[None if (i, t) == (1, 2) else _rand(rng, *shape) for i, shape in enumerate(shapes)]
                     for t in range(5)]]


ADAM_SPECIALS = [0.0, -0.0, 5e-324, -1e-310, 1e200, -1e200, np.inf, -np.inf, np.nan]


def _adam_special_entries(rng, inputs):
    # in the values, and in each step's gradients at entries that move from step to step
    values, grads = inputs
    for a in values:
        _with_specials(a, ADAM_SPECIALS, 0)
    for t, step in enumerate(grads):
        for g in step:
            if g is not None:
                _with_specials(g, ADAM_SPECIALS, (t + 1) % 5)


KERNEL_OPS = {
    "gelu": KernelOp(
        kernels=("gelu", "gelu_grad"), run=_gelu_run, reference=_gelu_reference, build=_gelu_build,
        draws=[lead + (d,) for lead in [(), (4, 5)] for d in WIDTHS] + [(3, 7, 1001)],
        scales=(0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 12.0, 40.0), special_entries=_gelu_special_entries,
        cases=_gelu_cases, nan_reason=OPERAND_ORDER,
        # the trunk's MLP GELUs, the fusion gate's and the filter generator's fc GELU take both kernels; its two
        # conv GELUs get a g of other strides than x: a strided view of unfold's padded sum, and a broadcast
        model=[(backbone, "gelu"), (fusion, "gelu"), (dynfilter, "gelu")],
        model_calls=[("backbone", ["gelu"], ["gelu_grad"])] * 2 + [("fusion", ["gelu"], ["gelu_grad"])]
        + [("dynfilter", ["gelu"], [])] * 2 + [("dynfilter", ["gelu"], ["gelu_grad"])]),
    "layer_norm": KernelOp(
        kernels=("layer_norm", "layer_norm_grad"), run=_layer_norm_run, build=_layer_norm_build,
        reference=lambda x, gain, bias, *_: [layer_norm_composite(Tensor(x), Tensor(gain), Tensor(bias)).data],
        draws=[lead + (d,) for lead in [(), (1,), (32, 21), (32, 1), (2, 6)] for d in WIDTHS],
        special_rows=LN_SPECIAL_ROWS, special_inputs=(0, 3), cases=_layer_norm_cases, nan_reason=PAIRWISE_FOUND,
        # ln1 and ln2 of each of the two blocks: the last block's ln2 takes the CLS row alone
        model=[(backbone, "layer_norm")], model_calls=[("backbone", ["layer_norm"], ["layer_norm_grad"])] * 4),
    "softmax": KernelOp(
        kernels=("row_shift", "row_divide"), run=_softmax_run, build=_softmax_build,
        draws=[lead + (d,) for lead in [(), (1,), (4, 5)] for d in WIDTHS], special_rows=SOFTMAX_SPECIAL_ROWS,
        cases=_softmax_cases, nan_reason=ROW_SHIFT_FOUND,
        # the fusion's cross-attention and the trunk's two blocks
        model=[(backbone, "attention"), (fusion, "attention")],
        model_calls=[("fusion", ["row_shift", "row_divide"], [])]
        + [("backbone", ["row_shift", "row_divide"], [])] * 2),
    "dynamic_conv": KernelOp(
        kernels=("tap_sum",), run=_dynamic_conv_run, reference=_dynamic_conv_reference, build=_dynamic_conv_build,
        # batch sizes from 1 to 32 at 16 and 32 pixel sides, and kernels of 1 to 5 taps a side
        draws=[(bsz, 3, side, side, 5, 5) for side in (16, 32) for bsz in (1, 9, 10, 11, 23, 32)]
        + [(1, 3, 8, 8, 5, 5), (2, 3, 6, 7, 1, 1), (2, 2, 7, 9, 3, 5), (3, 1, 6, 4, 5, 1)],
        cases=_dynamic_conv_cases, nan_reason=OPERAND_ORDER,
        # the images need no gradient, so the VJP takes the kernels' gradient only, by einsum
        model=[(dynfilter, "dynamic_conv")], model_calls=[("dynfilter", ["tap_sum"], [])]),
    "unfold": KernelOp(
        kernels=("im2col", "col2im"), run=_unfold_run, reference=_unfold_reference, build=_unfold_build,
        draws=[(layout, kh, kw, stride, padding) for layout in sorted(UNFOLD_LAYOUTS) for stride in (1, 2, 3)
               for padding in (0, 1, 2, (2, 1)) for kh, kw in ((3, 3), (2, 4))],
        special_entries=lambda rng, inputs: _special_draws(rng, inputs[0], *inputs[2:]), cases=_unfold_cases,
        # the generator's two stride-2 convs, the first on images that need no gradient; the trunk's patch
        # embeddings of the original and the filtered images tile them exactly
        model=[(dynfilter, "unfold"), (backbone, "unfold")],
        model_calls=[("dynfilter", ["im2col"], None), ("dynfilter", ["im2col"], ["col2im"]), ("backbone", [], None),
                     ("backbone", [], [])]),
    "adam": KernelOp(
        kernels=("adam",), run=_adam_run, build=_adam_build, draws=[((6, 5), (5,), ()), ((7, 13), (129,), ())],
        special_entries=_adam_special_entries,
        cases=lambda: {"the first draw's": Case(_adam_build(np.random.default_rng(56), [(6, 5), (5,), ()], 1.0))},
        # one step of each of the two parameter groups
        model=[(Adam, "step")], model_calls=[("Adam", ["adam"], None)] * 2),
}
