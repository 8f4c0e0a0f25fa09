"""Run configuration: a strict, typed tree, built from outside values in one place.

The on-disk form is JSON with one object per section; a config file, a
checkpoint's tree and `train`'s options all reach `config_from_dict`,
which lays the tree over the defaults. Unknown sections or keys are
rejected with the full dotted path, and the whole tree is typed by its
annotations in one `bundle.check_fields` call, the check the dataset and
checkpoint manifests go through. The resolved tree is embedded into
every checkpoint so a run can always be reproduced from its artifacts.
"""
from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field

from .bundle import check_fields, read_json_object
from .errors import ConfigError, FormatError

# attribute name -> public config key, where the key is not a valid identifier
_PUBLIC_KEYS = {"lam": "lambda"}
# geometry leaves that must be >= 1
_POSITIVE_SIZES = (
    ("encoder", "dim"), ("filter", "height"), ("filter", "width"), ("fusion", "heads"),
    ("backbone", "dim"), ("backbone", "layers"), ("backbone", "heads"),
    ("backbone", "patch"), ("backbone", "mlp_ratio"),
)


@dataclass
class DataConfig:
    path: str | None = None
    channel_mask: list[int] | None = None
    time_window: list[int] | None = None


@dataclass
class EncoderConfig:
    dim: int = 128


@dataclass
class FilterConfig:
    height: int = 5
    width: int = 5


@dataclass
class FusionConfig:
    strategy: str = "catf"
    heads: int = 1
    gate_bias_init: float = -2.0
    mix_init: float = 0.5


@dataclass
class BackboneConfig:
    dim: int = 64
    layers: int = 2
    heads: int = 4
    patch: int = 8
    prompts: int = 4
    mlp_ratio: int = 4


@dataclass
class LossConfig:
    mu: float = 0.6
    alpha: float = 0.3
    lam: float = 0.1
    beta: float = 0.3
    tau_init: float = 1.0 / 14.0
    detach_targets: bool = True


@dataclass
class TrainerConfig:
    epochs: int = 40
    batch_size: int = 32
    lr_a: float = 0.002
    lr_b: float = 0.02
    seed: int = 0
    clip_norm: float | None = None


@dataclass
class EvalConfig:
    ks: list[int] = field(default_factory=lambda: [1, 3, 5])


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def default_config() -> RunConfig:
    return RunConfig()


_SECTIONS = typing.get_type_hints(RunConfig)
# (section, public key) -> the attribute it sets and the attribute's annotation
_LEAVES = {
    (section, _PUBLIC_KEYS.get(attr, attr)): (attr, hint)
    for section, section_type in _SECTIONS.items()
    for attr, hint in typing.get_type_hints(section_type).items()
}
# the whole tree's schema for `check_fields`: each section's public keys and their annotations
_SCHEMA = {section: {key: hint for (s, key), (_, hint) in _LEAVES.items() if s == section} for section in _SECTIONS}


def config_from_dict(tree: dict) -> RunConfig:
    """Build a RunConfig from a nested dict laid over the defaults, checked as one tree, then validated."""
    if not isinstance(tree, dict):
        raise ConfigError(f"config root must be an object, got {type(tree).__name__}")
    merged = config_to_dict(RunConfig())
    for section_name, body in tree.items():
        if section_name not in _SECTIONS:
            raise ConfigError(f"unknown config section {section_name!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"{section_name}: expected an object, got {body!r}")
        merged[section_name].update(body)
    # configs and checkpoints written while this key existed name the one encoder
    if merged["encoder"].pop("kind", "linear") != "linear":
        raise ConfigError(f"encoder.kind must be 'linear', got {tree['encoder']['kind']!r}")
    try:
        fields = check_fields(merged, _SCHEMA)
    except FormatError as e:
        raise ConfigError(str(e)) from e
    cfg = RunConfig()
    for (section, key), (attr, _) in _LEAVES.items():
        setattr(getattr(cfg, section), attr, fields[section][key])
    validate_config(cfg)
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    """Nested plain-dict form with the public key spelling; each leaf but data.path is one of `train`'s options."""
    return {section: {key: getattr(getattr(cfg, section), _LEAVES[section, key][0]) for key in keys}
            for section, keys in _SCHEMA.items()}


def load_config(path) -> RunConfig:
    """Read a config file; ConfigError naming it when it is not a UTF-8 JSON object."""
    try:
        tree = read_json_object(path)
    except FormatError as e:
        raise ConfigError(f"config file {e}") from e
    return config_from_dict(tree)


def validate_config(cfg: RunConfig) -> None:
    """Every rule on a config value but the two on the image size, which ``AlignmentModel`` checks."""
    for (section, key), (attr, _) in _LEAVES.items():
        value = getattr(getattr(cfg, section), attr)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{section}.{key}: expected a finite number, got {value!r}")
    if cfg.trainer.batch_size < 2:
        raise ConfigError(f"trainer.batch_size must be >= 2, got {cfg.trainer.batch_size}")
    if cfg.trainer.epochs < 0:
        raise ConfigError(f"trainer.epochs must be >= 0, got {cfg.trainer.epochs}")
    if cfg.trainer.seed < 0:
        raise ConfigError(f"trainer.seed must be >= 0, got {cfg.trainer.seed}")
    for section, attr in _POSITIVE_SIZES:
        value = getattr(getattr(cfg, section), attr)
        if value < 1:
            raise ConfigError(f"{section}.{attr} must be >= 1, got {value}")
    if cfg.filter.height % 2 == 0 or cfg.filter.width % 2 == 0:
        raise ConfigError(f"filter.height and filter.width must be odd, got {cfg.filter.height}x{cfg.filter.width}")
    if cfg.backbone.prompts < 0:
        raise ConfigError(f"backbone.prompts must be >= 0, got {cfg.backbone.prompts}")
    for section in ("backbone", "fusion"):
        heads = getattr(cfg, section).heads
        if cfg.backbone.dim % heads:
            raise ConfigError(f"{section}.heads must divide backbone.dim {cfg.backbone.dim}, got {heads}")
    if cfg.trainer.lr_a <= 0 or cfg.trainer.lr_b <= 0:
        raise ConfigError(
            f"learning rates must be positive, got lr_a={cfg.trainer.lr_a} lr_b={cfg.trainer.lr_b}"
        )
    if cfg.trainer.clip_norm is not None and cfg.trainer.clip_norm <= 0:
        raise ConfigError(f"trainer.clip_norm must be positive, got {cfg.trainer.clip_norm}")
    if cfg.fusion.strategy not in ("catf", "bilinear"):
        raise ConfigError(f"fusion.strategy must be 'catf' or 'bilinear', got {cfg.fusion.strategy!r}")
    if cfg.fusion.strategy == "bilinear" and not 0.0 < cfg.fusion.mix_init < 1.0:
        raise ConfigError(f"fusion.mix_init must lie strictly inside (0, 1) for bilinear, got {cfg.fusion.mix_init}")
    if cfg.loss.mu < 0 or cfg.loss.alpha < 0 or cfg.loss.lam < 0:
        raise ConfigError("loss weights mu, alpha, lambda must be >= 0")
    if not 0.0 <= cfg.loss.beta <= 1.0:
        raise ConfigError(f"loss.beta must lie in [0, 1], got {cfg.loss.beta}")
    if cfg.loss.tau_init <= 0:
        raise ConfigError(f"loss.tau_init must be positive, got {cfg.loss.tau_init}")
    if not cfg.eval.ks or any(k < 1 for k in cfg.eval.ks):
        raise ConfigError(f"eval.ks must be positive integers, got {cfg.eval.ks}")
    mask = cfg.data.channel_mask
    if mask is not None and (not mask or min(mask) < 0):
        raise ConfigError(f"data.channel_mask must list channel indices >= 0, got {mask}")
    window = cfg.data.time_window
    if window is not None and (len(window) != 2 or window[0] < 0 or window[0] >= window[1]):
        raise ConfigError(f"data.time_window must be [start, stop) with start < stop, got {window}")
