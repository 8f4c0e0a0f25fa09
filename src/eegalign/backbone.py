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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import (
    Parameter,
    Tensor,
    attention,
    concat,
    gelu,
    l2_normalize,
    layer_norm,
    matmul,
    transpose,
    unfold,
)


@dataclass
class Block:
    ln1_g: Parameter
    ln1_b: Parameter
    wq: Parameter
    bq: Parameter
    wk: Parameter
    bk: Parameter
    wv: Parameter
    bv: Parameter
    wo: Parameter
    bo: Parameter
    ln2_g: Parameter
    ln2_b: Parameter
    mlp_w1: Parameter
    mlp_b1: Parameter
    mlp_w2: Parameter
    mlp_b2: Parameter

    def params(self) -> list[Parameter]:
        return [
            self.ln1_g, self.ln1_b, self.wq, self.bq, self.wk, self.bk, self.wv, self.bv,
            self.wo, self.bo, self.ln2_g, self.ln2_b,
            self.mlp_w1, self.mlp_b1, self.mlp_w2, self.mlp_b2,
        ]


class VisionBackbone:
    """Patch embedding, prompt slots and L pre-norm transformer blocks."""

    def __init__(
        self,
        image_size: int,
        patch: int,
        dim: int,
        layers: int,
        heads: int,
        prompt_count: int,
        mlp_ratio: int = 4,
        rng: np.random.Generator | None = None,
    ):
        if image_size % patch != 0:
            raise ConfigError(f"image size {image_size} is not divisible by patch size {patch}")
        if heads < 1 or dim % heads != 0:
            raise ConfigError(f"heads must divide the token dim, got {heads} for dim {dim}")
        if prompt_count < 0:
            raise ConfigError(f"prompt count must be >= 0, got {prompt_count}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.image_size = image_size
        self.patch = patch
        self.dim = dim
        self.heads = heads
        self.prompt_count = prompt_count
        self.n_patches = (image_size // patch) ** 2
        self.sequence_length = 1 + prompt_count + self.n_patches

        def frozen(name, array):
            return Parameter(name, Tensor(array), frozen=True, group="B")

        patch_fan = 3 * patch * patch
        self.patch_w = frozen("backbone.patch.weight", rng.normal(size=(patch_fan, dim)) / math.sqrt(patch_fan))
        self.patch_b = frozen("backbone.patch.bias", 0.02 * rng.normal(size=dim))
        self.cls = frozen("backbone.cls", 0.02 * rng.normal(size=dim))
        self.pos = frozen("backbone.pos", 0.02 * rng.normal(size=(self.sequence_length, dim)))

        self.blocks: list[Block] = []
        hidden = mlp_ratio * dim
        for i in range(layers):
            pre = f"backbone.block{i}"
            self.blocks.append(Block(
                ln1_g=frozen(f"{pre}.ln1.gain", np.ones(dim)),
                ln1_b=frozen(f"{pre}.ln1.bias", np.zeros(dim)),
                wq=frozen(f"{pre}.attn.wq", rng.normal(size=(dim, dim)) / math.sqrt(dim)),
                bq=frozen(f"{pre}.attn.bq", np.zeros(dim)),
                wk=frozen(f"{pre}.attn.wk", rng.normal(size=(dim, dim)) / math.sqrt(dim)),
                bk=frozen(f"{pre}.attn.bk", np.zeros(dim)),
                wv=frozen(f"{pre}.attn.wv", rng.normal(size=(dim, dim)) / math.sqrt(dim)),
                bv=frozen(f"{pre}.attn.bv", np.zeros(dim)),
                wo=frozen(f"{pre}.attn.wo", rng.normal(size=(dim, dim)) / math.sqrt(dim)),
                bo=frozen(f"{pre}.attn.bo", np.zeros(dim)),
                ln2_g=frozen(f"{pre}.ln2.gain", np.ones(dim)),
                ln2_b=frozen(f"{pre}.ln2.bias", np.zeros(dim)),
                mlp_w1=frozen(f"{pre}.mlp.w1", rng.normal(size=(dim, hidden)) / math.sqrt(dim)),
                mlp_b1=frozen(f"{pre}.mlp.b1", np.zeros(hidden)),
                mlp_w2=frozen(f"{pre}.mlp.w2", rng.normal(size=(hidden, dim)) / math.sqrt(hidden)),
                mlp_b2=frozen(f"{pre}.mlp.b2", np.zeros(dim)),
            ))

    # -- pieces ----------------------------------------------------------

    def patch_embed(self, images: Tensor) -> Tensor:
        """(B, 3, H, W) -> (B, N, dim); both image streams share this map."""
        if images.ndim != 4 or images.shape[1] != 3:
            raise DimensionError(f"expected images (B, 3, H, W), got {images.shape}")
        if images.shape[2] != self.image_size or images.shape[3] != self.image_size:
            raise DimensionError(
                f"expected {self.image_size}x{self.image_size} images, got "
                f"{images.shape[2]}x{images.shape[3]}"
            )
        cols = unfold(images, self.patch, self.patch, stride=self.patch, padding=0)
        return matmul(cols, self.patch_w.value) + self.patch_b.value

    def insert_prompts(self, prompts: Tensor, x_fused: Tensor) -> Tensor:
        """Assemble [CLS; prompts; patches] then add positional rows."""
        if x_fused.ndim != 3 or x_fused.shape[1] != self.n_patches or x_fused.shape[2] != self.dim:
            raise DimensionError(
                f"expected fused tokens (B, {self.n_patches}, {self.dim}), got {x_fused.shape}"
            )
        if prompts.ndim != 2 or prompts.shape != (self.prompt_count, self.dim):
            raise DimensionError(
                f"expected prompts ({self.prompt_count}, {self.dim}), got {prompts.shape}"
            )
        b = x_fused.shape[0]
        zeros_cls = Tensor(np.zeros((b, 1, self.dim)))
        pieces = [self.cls.value.reshape((1, 1, self.dim)) + zeros_cls]
        if self.prompt_count:
            zeros_p = Tensor(np.zeros((b, self.prompt_count, self.dim)))
            pieces.append(prompts.reshape((1, self.prompt_count, self.dim)) + zeros_p)
        pieces.append(x_fused)
        seq = concat(pieces, axis=1)
        return seq + self.pos.value

    def _mha(self, x: Tensor, blk: Block, queries: int | None = None) -> Tensor:
        """Self-attention output for the first ``queries`` rows (all by default).

        Keys and values always come from every row of ``x``.
        """
        x_q = x if queries is None else x[:, :queries, :]
        b, m, d = x_q.shape
        h = self.heads
        dh = d // h

        def heads_of(t):
            return transpose(t.reshape((b, t.shape[1], h, dh)), (0, 2, 1, 3))

        q = heads_of(matmul(x_q, blk.wq.value) + blk.bq.value)
        k = heads_of(matmul(x, blk.wk.value) + blk.bk.value)
        v = heads_of(matmul(x, blk.wv.value) + blk.bv.value)
        z = transpose(attention(q, k, v), (0, 2, 1, 3)).reshape((b, m, d))
        return matmul(z, blk.wo.value) + blk.bo.value

    def vit_forward(self, seq: Tensor) -> Tensor:
        """Run the frozen blocks and return the CLS-position output, (B, dim).

        The last block computes the CLS row alone: its keys and values
        still come from every token, but the query, attention row, output
        projection, residual, second layer norm and MLP run for row 0
        only, because no other row of the last block's output is read.
        """
        if seq.ndim != 3 or seq.shape[1] != self.sequence_length or seq.shape[2] != self.dim:
            raise DimensionError(
                f"expected sequence (B, {self.sequence_length}, {self.dim}), got {seq.shape}"
            )
        x = seq
        last = len(self.blocks) - 1
        for i, blk in enumerate(self.blocks):
            attended = layer_norm(x, blk.ln1_g.value, blk.ln1_b.value)
            if i == last:
                x = x[:, :1, :] + self._mha(attended, blk, queries=1)
            else:
                x = x + self._mha(attended, blk)
            x = x + matmul(
                gelu(matmul(layer_norm(x, blk.ln2_g.value, blk.ln2_b.value), blk.mlp_w1.value) + blk.mlp_b1.value),
                blk.mlp_w2.value,
            ) + blk.mlp_b2.value
        return x[:, 0, :]

    def params(self) -> list[Parameter]:
        out = [self.patch_w, self.patch_b, self.cls, self.pos]
        for blk in self.blocks:
            out.extend(blk.params())
        return out


def make_prompts(count: int, dim: int, rng: np.random.Generator) -> Parameter:
    """Trainable prompt tokens, one row per slot."""
    return Parameter("prompts", Tensor(0.02 * rng.normal(size=(count, dim))), group="B")


class ProjectionHead:
    """Linear map from trunk width to the shared embedding space."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.weight = Parameter(
            "projection.weight", Tensor(rng.normal(size=(in_dim, out_dim)) / math.sqrt(in_dim)), group="A"
        )
        self.bias = Parameter("projection.bias", Tensor(np.zeros(out_dim)), group="A")

    def project(self, z: Tensor) -> Tensor:
        return l2_normalize(matmul(z, self.weight.value) + self.bias.value)

    def params(self) -> list[Parameter]:
        return [self.weight, self.bias]
