"""The full two-stream alignment model.

EEG side: elementwise perturbation, then a linear encoder into the
shared space. Image side: a per-instance filter generator produces
channel-wise kernels; the original and the filtered image both go
through one frozen patch embedding; the two token streams are fused
(gated cross-attention by default, a pixel-space blend as the
ablation); prompt tokens are inserted; the frozen transformer runs; the
CLS output is projected into the shared space. One learnable log
temperature serves every softmax in the objective.

Each input is checked once, where it enters: the config by
``config.validate_config`` and, for the rules that need the image size,
when the model is built; batch shapes in ``encode_eeg``,
``encode_images`` and ``forward``; sample values in
``data.load_split``. The parts and the loss trust them.
"""
from __future__ import annotations

import math

import numpy as np

from .backbone import ProjectionHead, VisionBackbone, make_prompts
from .config import RunConfig, validate_config
from .data import PairedBatch
from .dynfilter import MIN_INPUT, FilterGenerator, apply_dynamic_filter
from .eeg import LinearEncoder, Perturbation
from .errors import ConfigError, DimensionError
from .fusion import BilinearMix, CrossAttentionFusion
from .losses import total_loss
from .tensor import Init, Module, Parameter, Tensor, exp, param


class AlignmentModel(Module):
    """Everything trainable plus the frozen trunk, in one object.

    ``params()`` is the checkpoint layout: the trainable parts in the
    order they are built, ``log_tau``, then the frozen trunk, which is
    built third but assigned last. Every part takes its values from
    ``init``: the generator seeded by ``cfg.trainer.seed`` unless one is
    given, or a checkpoint's lookup, which draws nothing.
    """

    def __init__(self, cfg: RunConfig, channels: int, timesteps: int, image_size: int, init: Init | None = None):
        validate_config(cfg)
        if image_size % cfg.backbone.patch:
            raise ConfigError(f"image size {image_size} is not divisible by patch size {cfg.backbone.patch}")
        if image_size < MIN_INPUT:
            raise ConfigError(f"image size {image_size} is below the filter generator's minimum {MIN_INPUT}")
        if init is None:
            init = np.random.default_rng(cfg.trainer.seed)
        self.cfg = cfg
        self.channels = channels
        self.timesteps = timesteps
        self.image_size = image_size

        self.perturb = Perturbation(channels, timesteps, init)
        self.encoder = LinearEncoder(channels, timesteps, cfg.encoder.dim, init)
        self.filter_gen = FilterGenerator(cfg.filter.height, cfg.filter.width, init)
        backbone = VisionBackbone(
            image_size=image_size,
            patch=cfg.backbone.patch,
            dim=cfg.backbone.dim,
            layers=cfg.backbone.layers,
            heads=cfg.backbone.heads,
            prompt_count=cfg.backbone.prompts,
            mlp_ratio=cfg.backbone.mlp_ratio,
            init=init,
        )
        if cfg.fusion.strategy == "catf":
            self.fusion = CrossAttentionFusion(
                dim=cfg.backbone.dim, heads=cfg.fusion.heads,
                gate_bias_init=cfg.fusion.gate_bias_init, init=init,
            )
        else:
            self.fusion = BilinearMix(init, mix_init=cfg.fusion.mix_init)
        self.prompts = make_prompts(cfg.backbone.prompts, cfg.backbone.dim, init)
        self.projection = ProjectionHead(cfg.backbone.dim, cfg.encoder.dim, init)
        self.log_tau = param(init, "loss.log_tau", (), fill=math.log(cfg.loss.tau_init))
        self.backbone = backbone

    # -- forward -----------------------------------------------------------

    def encode_eeg(self, eeg: Tensor) -> Tensor:
        """(B, channels, timesteps) trials -> (B, encoder.dim) unit rows."""
        _require_shape("EEG", eeg, (self.channels, self.timesteps))
        return self.encoder.encode(self.perturb.apply(eeg))

    def encode_images(self, images: Tensor) -> Tensor:
        """(B, 3, image_size, image_size) images -> (B, encoder.dim) unit rows."""
        _require_shape("images", images, (3, self.image_size, self.image_size))
        kernels = self.filter_gen.generate(images)
        filtered = apply_dynamic_filter(images, kernels)
        if isinstance(self.fusion, CrossAttentionFusion):
            x_orig = self.backbone.patch_embed(images)
            x_filt = self.backbone.patch_embed(filtered)
            fused = self.fusion.fuse(x_orig, x_filt)
        else:
            fused = self.backbone.patch_embed(self.fusion.mix(images, filtered))
        seq = self.backbone.insert_prompts(self.prompts.value, fused)
        return self.projection.project(self.backbone.vit_forward(seq))

    def forward(self, batch: PairedBatch) -> tuple[Tensor, Tensor]:
        if batch.eeg.shape[0] != batch.images.shape[0]:
            raise DimensionError(f"batch size mismatch: eeg {batch.eeg.shape[0]}, images {batch.images.shape[0]}")
        return self.encode_eeg(batch.eeg), self.encode_images(batch.images)

    def tau(self) -> Tensor:
        return exp(self.log_tau.value)

    def batch_loss(self, batch: PairedBatch):
        z_e, z_i = self.forward(batch)
        return total_loss(z_e, z_i, self.cfg.loss, self.tau())

    # -- parameter registry --------------------------------------------------

    parameters = Module.params

    def trainable_parameters(self) -> list[Parameter]:
        return [p for p in self.params() if not p.frozen]

    def group(self, name: str) -> list[Parameter]:
        return [p for p in self.trainable_parameters() if p.group == name]


def _require_shape(what: str, x: Tensor, sample: tuple[int, ...]) -> None:
    if x.shape[1:] != sample:
        expected = ", ".join(map(str, sample))
        raise DimensionError(f"{what} of shape {x.shape} does not match the expected (B, {expected})")
