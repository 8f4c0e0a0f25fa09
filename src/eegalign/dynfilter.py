"""Instance-conditioned dynamic filtering of input images.

A small convolutional generator looks at each image and emits one
kernel per color channel; the kernels are then applied to that same
image as a zero-padded, size-preserving, channel-wise convolution. The
generator head starts out biased toward the delta kernel, so filtering
is close to the identity at initialization and the rest of the pipeline
sees familiar images early in training.
"""
from __future__ import annotations

import numpy as np

from .tensor import Init, Module, Parameter, Tensor, dynamic_conv, gelu, linear, param, transpose, unfold

STEM_CHANNELS = (8, 16)
HIDDEN = 64
MIN_INPUT = 7  # receptive field of the two stride-2 3x3 stem convolutions


def _conv2d(x: Tensor, weight: Parameter, bias: Parameter, stride: int, padding: int) -> Tensor:
    """Standard convolution via unfold + linear; weight is (out, in, kh, kw)."""
    c_out, c_in, kh, kw = weight.value.shape
    bsz, _, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    cols = unfold(x, kh, kw, stride=stride, padding=padding)              # (B, L, Cin*kh*kw)
    flat_w = weight.value.reshape((c_out, c_in * kh * kw)).transpose()    # (Cin*kh*kw, Cout)
    out = linear(cols, flat_w, bias.value)                                # (B, L, Cout)
    return transpose(out, (0, 2, 1)).reshape((bsz, c_out, oh, ow))


class FilterGenerator(Module):
    """Conv stem, global average pool, MLP head emitting 3 kernels of odd size fh x fw."""

    def __init__(self, fh: int, fw: int, init: Init):
        self.fh = fh
        self.fw = fw
        c1, c2 = STEM_CHANNELS
        out_dim = 3 * fh * fw
        self.conv1_w = param(init, "filter.conv1.weight", (c1, 3, 3, 3), group="B", times=1.0 / np.sqrt(3 * 9))
        self.conv1_b = param(init, "filter.conv1.bias", (c1,), group="B", fill=0.0)
        self.conv2_w = param(init, "filter.conv2.weight", (c2, c1, 3, 3), group="B", times=1.0 / np.sqrt(c1 * 9))
        self.conv2_b = param(init, "filter.conv2.bias", (c2,), group="B", fill=0.0)
        self.fc1_w = param(init, "filter.fc1.weight", (c2, HIDDEN), group="B", times=1.0 / np.sqrt(c2))
        self.fc1_b = param(init, "filter.fc1.bias", (HIDDEN,), group="B", fill=0.0)
        # small head weights plus a center-spike bias keep the initial kernels near-delta
        self.fc2_w = param(init, "filter.fc2.weight", (HIDDEN, out_dim), group="B", times=0.01 / np.sqrt(HIDDEN))
        self.fc2_b = param(init, "filter.fc2.bias", (out_dim,), group="B",
                           fill=delta_kernels(1, 3, fh, fw).data.reshape(-1))

    def generate(self, images: Tensor) -> Tensor:
        """(B, 3, H, W) -> per-instance kernels (B, 3, fh, fw); H and W at least ``MIN_INPUT``."""
        h = gelu(_conv2d(images, self.conv1_w, self.conv1_b, stride=2, padding=1))
        h = gelu(_conv2d(h, self.conv2_w, self.conv2_b, stride=2, padding=1))
        pooled = h.mean(axis=(2, 3))                                     # (B, C2)
        hid = gelu(linear(pooled, self.fc1_w.value, self.fc1_b.value))
        flat = linear(hid, self.fc2_w.value, self.fc2_b.value)           # (B, 3*fh*fw)
        return flat.reshape((images.shape[0], 3, self.fh, self.fw))


def apply_dynamic_filter(images: Tensor, kernels: Tensor) -> Tensor:
    """Convolve each image with its own per-channel kernel.

    Zero padding keeps the spatial size; each output channel sees only
    the matching input channel. Linear in the image for fixed kernels
    and linear in the kernels for a fixed image. One ``dynamic_conv``
    tape node: a sum of shifted views of the padded image, with a
    closed-form VJP that skips the image side when it needs no gradient.
    """
    return dynamic_conv(images, kernels)


def delta_kernels(bsz: int, ch: int, fh: int, fw: int) -> Tensor:
    """Identity kernels: convolution with these returns the input exactly."""
    k = np.zeros((bsz, ch, fh, fw))
    k[:, :, fh // 2, fw // 2] = 1.0
    return Tensor(k)
