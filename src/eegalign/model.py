"""The full two-stream alignment model.

EEG side: elementwise perturbation, then a linear encoder into the
shared space. Image side: a per-instance filter generator produces
channel-wise kernels; the original and the filtered image both go
through one frozen patch embedding; the two token streams are fused
(gated cross-attention by default, a pixel-space blend as the
ablation); prompt tokens are inserted; the frozen transformer runs; the
CLS output is projected into the shared space. One learnable log
temperature serves every softmax in the objective.

Each input is checked once, where it enters: the config when the model
is built, batch shapes in ``encode_eeg``, ``encode_images`` and
``forward``, sample values in ``data.load_split``. The parts trust them.
"""
from __future__ import annotations

import math

import numpy as np

from .backbone import ProjectionHead, VisionBackbone, make_prompts
from .config import RunConfig, validate_config
from .data import PairedBatch
from .dynfilter import FilterGenerator, apply_dynamic_filter
from .eeg import LinearEncoder, Perturbation
from .errors import DimensionError
from .fusion import BilinearMix, CrossAttentionFusion
from .losses import LossWeights, total_loss
from .tensor import Parameter, Tensor, exp


class AlignmentModel:
    """Everything trainable plus the frozen trunk, in one object."""

    def __init__(self, cfg: RunConfig, channels: int, timesteps: int, image_size: int,
                 rng: np.random.Generator | None = None):
        validate_config(cfg)
        if rng is None:
            rng = np.random.default_rng(cfg.trainer.seed)
        self.cfg = cfg
        self.channels = channels
        self.timesteps = timesteps
        self.image_size = image_size

        self.perturb = Perturbation(channels, timesteps)
        self.encoder = LinearEncoder(channels, timesteps, cfg.encoder.dim, rng)
        self.filter_gen = FilterGenerator(cfg.filter.height, cfg.filter.width, rng)
        self.backbone = VisionBackbone(
            image_size=image_size,
            patch=cfg.backbone.patch,
            dim=cfg.backbone.dim,
            layers=cfg.backbone.layers,
            heads=cfg.backbone.heads,
            prompt_count=cfg.backbone.prompts,
            mlp_ratio=cfg.backbone.mlp_ratio,
            rng=rng,
        )
        if cfg.fusion.strategy == "catf":
            self.fusion = CrossAttentionFusion(
                dim=cfg.backbone.dim, heads=cfg.fusion.heads,
                gate_bias_init=cfg.fusion.gate_bias_init, rng=rng,
            )
        else:
            self.fusion = BilinearMix(mix_init=cfg.fusion.mix_init)
        self.prompts = make_prompts(cfg.backbone.prompts, cfg.backbone.dim, rng)
        self.projection = ProjectionHead(cfg.backbone.dim, cfg.encoder.dim, rng)
        self.log_tau = Parameter("loss.log_tau", Tensor(math.log(cfg.loss.tau_init)), group="A")

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

    def loss_weights(self) -> LossWeights:
        c = self.cfg.loss
        return LossWeights(mu=c.mu, alpha=c.alpha, lam=c.lam, beta=c.beta,
                           tau=self.tau(), detach_targets=c.detach_targets)

    def batch_loss(self, batch: PairedBatch):
        z_e, z_i = self.forward(batch)
        return total_loss(z_e, z_i, self.loss_weights())

    # -- parameter registry --------------------------------------------------

    def parameters(self) -> list[Parameter]:
        """Every parameter: the trainable parts first, the frozen trunk last.

        This is the checkpoint layout. It differs from the order in which
        ``__init__`` builds the parts and draws from the RNG, so it is
        spelled out here rather than read off the attributes.
        """
        return (self.perturb.params() + self.encoder.params() + self.filter_gen.params() + self.fusion.params()
                + [self.prompts] + self.projection.params() + [self.log_tau] + self.backbone.params())

    def trainable_parameters(self) -> list[Parameter]:
        return [p for p in self.parameters() if not p.frozen]

    def group(self, name: str) -> list[Parameter]:
        return [p for p in self.trainable_parameters() if p.group == name]


def _require_shape(what: str, x: Tensor, sample: tuple[int, ...]) -> None:
    if x.shape[1:] != sample:
        raise DimensionError(f"expected {what} of shape (B, {', '.join(map(str, sample))}), got {x.shape}")
