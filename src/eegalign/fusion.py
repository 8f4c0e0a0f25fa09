"""Token fusion between the original and the filtered image streams.

The default strategy attends from original-image patch tokens (queries)
to filtered-image tokens (keys/values) with ``heads`` heads in one fused
``attention`` node, feeds the attended summary through a small gate
network, and blends the two streams per token with the resulting
sigmoid gate. The fallback strategy skips tokens entirely and mixes the
two images pixelwise with one learnable scalar.
"""
from __future__ import annotations

import math

from .tensor import Init, Module, Tensor, attention, gelu, linear, matmul, param, sigmoid


class CrossAttentionFusion(Module):
    """Gated cross-attention blending of two aligned token sequences."""

    def __init__(self, dim: int, init: Init, heads: int = 1, gate_bias_init: float = -2.0):
        self.heads = heads
        scale = 1.0 / math.sqrt(dim)
        self.wq = param(init, "fusion.wq", (dim, dim), group="B", times=scale)
        self.wk = param(init, "fusion.wk", (dim, dim), group="B", times=scale)
        self.wv = param(init, "fusion.wv", (dim, dim), group="B", times=scale)
        half = max(dim // 2, 1)
        self.gate_w1 = param(init, "fusion.gate.w1", (dim, half), group="B", times=scale)
        self.gate_b1 = param(init, "fusion.gate.b1", (half,), group="B", fill=0.0)
        self.gate_w2 = param(init, "fusion.gate.w2", (half, 1), group="B", over=math.sqrt(half))
        self.gate_b2 = param(init, "fusion.gate.b2", (1,), group="B", fill=gate_bias_init)

    def gate(self, x_orig: Tensor, x_filt: Tensor) -> Tensor:
        """Per-token blend weight in (0, 1), shape (B, N, 1)."""
        q = matmul(x_orig, self.wq.value)
        k = matmul(x_filt, self.wk.value)
        v = matmul(x_filt, self.wv.value)
        z = attention(q, k, v, self.heads)
        hidden = gelu(linear(z, self.gate_w1.value, self.gate_b1.value))
        return sigmoid(linear(hidden, self.gate_w2.value, self.gate_b2.value))

    def fuse(self, x_orig: Tensor, x_filt: Tensor) -> Tensor:
        alpha = self.gate(x_orig, x_filt)
        return alpha * x_filt + (1.0 - alpha) * x_orig


class BilinearMix(Module):
    """Single learnable mixing scalar, kept in (0, 1) via a sigmoid; mix_init lies inside (0, 1)."""

    def __init__(self, init: Init, mix_init: float = 0.5):
        self.mix_logit = param(init, "fusion.mix_logit", (), group="B", fill=math.log(mix_init / (1.0 - mix_init)))

    def coefficient(self) -> Tensor:
        return sigmoid(self.mix_logit.value)

    def mix(self, image: Tensor, filtered: Tensor) -> Tensor:
        """Pixelwise blend lam * filtered + (1 - lam) * image with lam the coefficient."""
        lam = self.coefficient()
        return lam * filtered + (1.0 - lam) * image
