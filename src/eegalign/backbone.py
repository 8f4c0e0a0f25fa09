"""Frozen vision transformer trunk with trainable prompt tokens.

The trunk is seeded-random and never updated: patch embedding, CLS
token, positional table and every transformer block stay fixed for the
life of a run. The only trainable pieces on this side are the prompt
tokens spliced in between CLS and the patch tokens (each prompt slot
owns its frozen positional row) and the output projection into the
shared embedding space. Positional embeddings are added after the
sequence [CLS; prompts; patches] is assembled.

The image embedding is read from the CLS position alone, so the last
block computes only that row: every token still supplies keys and
values, but the query, attention, output projection and MLP run for one
row instead of 1 + prompts + patches. Earlier blocks run every row,
because the next block attends to all of them.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor import (
    Init,
    Module,
    Parameter,
    Tensor,
    attention,
    concat,
    gelu,
    l2_normalize,
    layer_norm,
    linear,
    matmul,
    param,
    unfold,
)


class Block(Module):
    """One frozen pre-norm transformer block; draws wq, wk, wv, wo, mlp.w1 and mlp.w2 when ``init`` is a generator."""

    def __init__(self, pre: str, dim: int, hidden: int, init: Init):
        self.ln1_g = param(init, f"{pre}.ln1.gain", (dim,), frozen=True, group="B", fill=1.0)
        self.ln1_b = param(init, f"{pre}.ln1.bias", (dim,), frozen=True, group="B", fill=0.0)
        self.wq = param(init, f"{pre}.attn.wq", (dim, dim), frozen=True, group="B", over=math.sqrt(dim))
        self.bq = param(init, f"{pre}.attn.bq", (dim,), frozen=True, group="B", fill=0.0)
        self.wk = param(init, f"{pre}.attn.wk", (dim, dim), frozen=True, group="B", over=math.sqrt(dim))
        self.bk = param(init, f"{pre}.attn.bk", (dim,), frozen=True, group="B", fill=0.0)
        self.wv = param(init, f"{pre}.attn.wv", (dim, dim), frozen=True, group="B", over=math.sqrt(dim))
        self.bv = param(init, f"{pre}.attn.bv", (dim,), frozen=True, group="B", fill=0.0)
        self.wo = param(init, f"{pre}.attn.wo", (dim, dim), frozen=True, group="B", over=math.sqrt(dim))
        self.bo = param(init, f"{pre}.attn.bo", (dim,), frozen=True, group="B", fill=0.0)
        self.ln2_g = param(init, f"{pre}.ln2.gain", (dim,), frozen=True, group="B", fill=1.0)
        self.ln2_b = param(init, f"{pre}.ln2.bias", (dim,), frozen=True, group="B", fill=0.0)
        self.mlp_w1 = param(init, f"{pre}.mlp.w1", (dim, hidden), frozen=True, group="B", over=math.sqrt(dim))
        self.mlp_b1 = param(init, f"{pre}.mlp.b1", (hidden,), frozen=True, group="B", fill=0.0)
        self.mlp_w2 = param(init, f"{pre}.mlp.w2", (hidden, dim), frozen=True, group="B", over=math.sqrt(hidden))
        self.mlp_b2 = param(init, f"{pre}.mlp.b2", (dim,), frozen=True, group="B", fill=0.0)


class VisionBackbone(Module):
    """Patch embedding, prompt slots and L pre-norm transformer blocks; patch divides image_size."""

    def __init__(
        self,
        image_size: int,
        patch: int,
        dim: int,
        layers: int,
        heads: int,
        prompt_count: int,
        init: Init,
        mlp_ratio: int = 4,
    ):
        self.patch = patch
        self.dim = dim
        self.heads = heads
        self.prompt_count = prompt_count
        self.n_patches = (image_size // patch) ** 2
        self.sequence_length = 1 + prompt_count + self.n_patches

        patch_fan = 3 * patch * patch
        self.patch_w = param(init, "backbone.patch.weight", (patch_fan, dim), frozen=True, group="B",
                             over=math.sqrt(patch_fan))
        self.patch_b = param(init, "backbone.patch.bias", (dim,), frozen=True, group="B", times=0.02)
        self.cls = param(init, "backbone.cls", (dim,), frozen=True, group="B", times=0.02)
        self.pos = param(init, "backbone.pos", (self.sequence_length, dim), frozen=True, group="B", times=0.02)
        self.blocks = [Block(f"backbone.block{i}", dim, mlp_ratio * dim, init) for i in range(layers)]

    # -- pieces ----------------------------------------------------------

    def patch_embed(self, images: Tensor) -> Tensor:
        """(B, 3, H, W) -> (B, N, dim); both image streams share this map."""
        cols = unfold(images, self.patch, self.patch, stride=self.patch, padding=0)
        return linear(cols, self.patch_w.value, self.patch_b.value)

    def insert_prompts(self, prompts: Tensor, x_fused: Tensor) -> Tensor:
        """Assemble [CLS; prompts; patches] then add positional rows.

        The [CLS; prompts] prefix is built once and broadcast over the
        batch by adding zeros, so its gradient sums over the batch.
        """
        prefix = concat([self.cls.value.reshape((1, self.dim)), prompts], axis=0)
        batched = prefix + Tensor(np.zeros((x_fused.shape[0], 1 + self.prompt_count, self.dim)))
        return concat([batched, x_fused], axis=1) + self.pos.value

    def _mha(self, x: Tensor, blk: Block, queries: int | None = None) -> Tensor:
        """Self-attention output for the first ``queries`` rows (all by default).

        Keys and values always come from every row of ``x``; the fused
        ``attention`` op splits them into ``heads`` and merges them back.
        """
        x_q = x if queries is None else x[:, :queries, :]
        q = linear(x_q, blk.wq.value, blk.bq.value)
        k = linear(x, blk.wk.value, blk.bk.value)
        v = linear(x, blk.wv.value, blk.bv.value)
        return linear(attention(q, k, v, self.heads), blk.wo.value, blk.bo.value)

    def vit_forward(self, seq: Tensor) -> Tensor:
        """Run the frozen blocks and return the CLS-position output, (B, dim).

        The last block computes the CLS row alone: its keys and values
        still come from every token, but the query, attention row, output
        projection, residual, second layer norm and MLP run for row 0
        only, because no other row of the last block's output is read.
        """
        x = seq
        last = len(self.blocks) - 1
        for i, blk in enumerate(self.blocks):
            attended = layer_norm(x, blk.ln1_g.value, blk.ln1_b.value)
            if i == last:
                x = x[:, :1, :] + self._mha(attended, blk, queries=1)
            else:
                x = x + self._mha(attended, blk)
            # not linear: x + h @ w2 + b2 adds the bias after the residual
            hidden = gelu(linear(layer_norm(x, blk.ln2_g.value, blk.ln2_b.value), blk.mlp_w1.value, blk.mlp_b1.value))
            x = x + matmul(hidden, blk.mlp_w2.value) + blk.mlp_b2.value
        return x[:, 0, :]


def make_prompts(count: int, dim: int, init: Init) -> Parameter:
    """Trainable prompt tokens, one row per slot."""
    return param(init, "prompts", (count, dim), group="B", times=0.02)


class ProjectionHead(Module):
    """Linear map from trunk width to the shared embedding space."""

    def __init__(self, in_dim: int, out_dim: int, init: Init):
        self.weight = param(init, "projection.weight", (in_dim, out_dim), over=math.sqrt(in_dim))
        self.bias = param(init, "projection.bias", (out_dim,), fill=0.0)

    def project(self, z: Tensor) -> Tensor:
        return l2_normalize(linear(z, self.weight.value, self.bias.value))
