"""Training loop: dual optimizers, checkpoint selection, evaluation.

Two independent Adam optimizers update the two parameter groups at
their own learning rates; the frozen trunk is touched by neither. Every
epoch ends with a validation pass, and the returned checkpoint is the
parameter snapshot with the lowest validation loss seen so far,
including the initial state as the epoch-0 candidate. The whole
trajectory is a pure function of (seed, config, dataset).
"""
from __future__ import annotations

import hashlib
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bundle import check_fields, read_manifest, read_tensors, save_bundle
from .config import RunConfig, config_from_dict, config_to_dict
from .data import SplitArrays, make_batch
from .errors import ConfigError, ContractError, DomainError, FormatError
from .kernels import compiled
from .metrics import RetrievalReport, build_report
from .model import AlignmentModel
from .tensor import Parameter, l2_normalize, no_grad

CHECKPOINT_PARAMS = "params.bin"
CHECKPOINT_FORMAT = 1
# the checkpoint manifest's keys and their types
CHECKPOINT_FIELDS = {
    "format_version": int,
    "config": dict,
    "geometry": {"channels": int, "timesteps": int, "image_size": int},
    "epoch": int,
    "val_loss": float,
    "train_class_ids": list[int],
    "parameters": list[str],
}
# Adam's moment decay rates and denominator guard (Kingma & Ba, arXiv 1412.6980)
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class Adam:
    """Adaptive-moment optimizer with the standard decay constants.

    Building one copies its parameters' values into one flat buffer and
    rebinds each ``p.data`` to a view of its slice; ``m[i]`` and
    ``v[i]`` are views of flat moments. A parameter without a gradient
    this step keeps its old value. The learning rate may be zero, which
    makes step() a no-op on values.
    """

    def __init__(self, params: list[Parameter], lr: float):
        for p in params:
            if p.frozen:
                raise ContractError(f"frozen parameter {p.name} handed to an optimizer")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        ends = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self._spans = list(zip(ends[:-1], ends[1:]))
        self._flat = [np.zeros(ends[-1]) for _ in range(4)]  # value, gradient, m, v
        values, self._grads, self.m, self.v = ([flat[lo:hi].reshape(p.shape) for p, (lo, hi)
                                                in zip(self.params, self._spans)] for flat in self._flat)
        for p, value in zip(self.params, values):
            value[...] = p.data
            p.data = value

    def zero_grads(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Update every parameter that has a gradient, in place.

        Computes m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        value -= lr m_hat / (sqrt(v_hat) + eps) with the bias-corrected
        moments, over each run of consecutive parameters with a gradient.
        When the kernels loaded, the compiled ``adam`` does it, faster;
        otherwise the numpy lines below do. Both take the same operations
        in the same order for every entry, so they give the same bits.
        """
        self.t += 1
        b1, b2 = ADAM_BETAS
        m_scale, v_scale = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        runs: list[list[int]] = []
        for p, (lo, hi), g in zip(self.params, self._spans, self._grads):
            if p.grad is not None:
                np.copyto(g, p.grad)
                if not runs or runs[-1][1] < lo:
                    runs.append([lo, hi])
                runs[-1][1] = hi
        lib = compiled()
        for lo, hi in runs:
            value, g, m, v = (flat[lo:hi] for flat in self._flat)
            if lib is not None:
                lib.adam(*(a.ctypes.data for a in (value, g, m, v)), hi - lo, b1, 1.0 - b1, b2, 1.0 - b2,
                         m_scale, v_scale, self.lr, ADAM_EPS)
                continue
            m *= b1
            m += g * (1.0 - b1)
            v *= b2
            v += g * (1.0 - b2) * g
            value -= m / m_scale * self.lr / (np.sqrt(v / v_scale) + ADAM_EPS)


def clip_gradients(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def parameter_digest(params: list[Parameter]) -> str:
    """SHA-256 over names, shapes, and raw little-endian payloads."""
    h = hashlib.sha256()
    for p in params:
        h.update(p.name.encode())
        h.update(repr(p.shape).encode())
        h.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass
class Checkpoint:
    """Complete state needed to rebuild and rerun the model."""

    config: RunConfig
    channels: int
    timesteps: int
    image_size: int
    epoch: int
    val_loss: float
    train_class_ids: list[int]
    values: dict[str, np.ndarray]

    def build_model(self) -> AlignmentModel:
        """The model built from copies of the stored values, drawing nothing; a name or shape it lacks is refused."""
        unread = dict(self.values)

        def stored(name: str, shape: tuple[int, ...]) -> np.ndarray:
            if name not in unread:
                raise FormatError(f"checkpoint is missing parameter {name}")
            value = unread.pop(name)
            if value.shape != shape:
                raise FormatError(f"checkpoint parameter {name} has shape {value.shape}, model expects {shape}")
            return value.copy()

        model = AlignmentModel(self.config, self.channels, self.timesteps, self.image_size, init=stored)
        if unread:
            raise FormatError(f"checkpoint parameter {min(unread)} is not in the model")
        return model


def snapshot_values(model: AlignmentModel) -> dict[str, np.ndarray]:
    return {p.name: p.data.copy() for p in model.parameters()}


def train_step(model: AlignmentModel, batch, opt_a: Adam, opt_b: Adam,
               clip_norm: float | None = None) -> dict[str, float]:
    """One optimization step; raises on a non-finite loss component."""
    opt_a.zero_grads()
    opt_b.zero_grads()
    total, parts = model.batch_loss(batch)
    for name in ("l_clip", "l_soft", "l_rel", "l_total"):
        if not np.isfinite(parts[name]):
            raise ContractError(f"non-finite loss component {name} = {parts[name]}")
    total.backward()
    if clip_norm is not None:
        clip_gradients(model.trainable_parameters(), clip_norm)
    opt_a.step()
    opt_b.step()
    return parts


def _batch_slices(n: int, batch_size: int) -> list[slice]:
    """Consecutive slices of ``range(n)``, the last one dropped if it holds fewer than two samples.

    The objective needs at least one negative per anchor.
    """
    return [slice(start, start + batch_size) for start in range(0, n, batch_size) if n - start >= 2]


def _batch_indices(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """``_batch_slices`` of a shuffled index range."""
    order = rng.permutation(n)
    return [order[rows] for rows in _batch_slices(n, batch_size)]


def validation_loss(model: AlignmentModel, val: SplitArrays, batch_size: int) -> float:
    """Mean loss over consecutive, unshuffled validation batches, each a view of the split.

    Nothing is recorded on the tape: the losses are only read.
    """
    batches = _batch_slices(len(val.ids), batch_size)
    if not batches:
        raise ConfigError("validation split has fewer than 2 samples")
    losses = []
    with no_grad():
        for rows in batches:
            total, _ = model.batch_loss(make_batch(val, rows))
            losses.append(total.item())
    return float(np.mean(losses))


def fit(model: AlignmentModel, train: SplitArrays, val: SplitArrays,
        progress=None) -> tuple[Checkpoint, list[dict]]:
    """Run the configured number of epochs, keep the best-validation state.

    Returns the checkpoint (epoch 0 = untrained counts as a candidate)
    plus the per-epoch history, each row also passed to ``progress`` if given.
    """
    tcfg = model.cfg.trainer
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([tcfg.seed, 7]))
    opt_a = Adam(model.group("A"), lr=tcfg.lr_a)
    opt_b = Adam(model.group("B"), lr=tcfg.lr_b)

    best_val = validation_loss(model, val, tcfg.batch_size)
    best_epoch = 0
    best_values = snapshot_values(model)
    history: list[dict] = [{"epoch": 0, "val_loss": best_val}]
    if progress:
        progress(history[0])

    for epoch in range(1, tcfg.epochs + 1):
        sums = {"l_clip": 0.0, "l_soft": 0.0, "l_rel": 0.0, "l_total": 0.0}
        batches = _batch_indices(len(train.ids), tcfg.batch_size, shuffle_rng)
        if not batches:
            raise ConfigError("training split has fewer than 2 samples")
        for idx in batches:
            parts = train_step(model, make_batch(train, idx), opt_a, opt_b, tcfg.clip_norm)
            for key in sums:
                sums[key] += parts[key]
        record = {"epoch": epoch}
        record.update({key: sums[key] / len(batches) for key in sums})
        record["val_loss"] = validation_loss(model, val, tcfg.batch_size)
        history.append(record)
        if progress:
            progress(record)
        if record["val_loss"] < best_val:
            best_val = record["val_loss"]
            best_epoch = epoch
            best_values = snapshot_values(model)

    ckpt = Checkpoint(
        config=model.cfg,
        channels=model.channels,
        timesteps=model.timesteps,
        image_size=model.image_size,
        epoch=best_epoch,
        val_loss=best_val,
        train_class_ids=sorted(int(c) for c in set(train.class_ids) | set(val.class_ids)),
        values=best_values,
    )
    return ckpt, history


# -- persistence -------------------------------------------------------------


def save_checkpoint(ckpt: Checkpoint, directory) -> None:
    """Write params.bin, the values in ``ckpt.values`` order, then manifest.json."""
    manifest = {
        "format_version": CHECKPOINT_FORMAT,
        "config": config_to_dict(ckpt.config),
        "geometry": {
            "channels": ckpt.channels,
            "timesteps": ckpt.timesteps,
            "image_size": ckpt.image_size,
        },
        "epoch": ckpt.epoch,
        "val_loss": ckpt.val_loss,
        "train_class_ids": ckpt.train_class_ids,
        "parameters": list(ckpt.values),
    }
    save_bundle(directory, {CHECKPOINT_PARAMS: ckpt.values.values()}, manifest)


def _checkpoint_from_json(obj: dict) -> tuple[Checkpoint, list[str]]:
    """A checkpoint without its values, and the parameter names params.bin holds in order."""
    fields = check_fields(obj, CHECKPOINT_FIELDS)
    if fields["format_version"] != CHECKPOINT_FORMAT:
        raise FormatError(f"unsupported checkpoint format {fields['format_version']}")
    for key, value in fields["geometry"].items():
        if value < 1:
            raise FormatError(f"checkpoint geometry.{key} must be >= 1, got {value}")
    repeated = [name for name, count in Counter(fields["parameters"]).items() if count > 1]
    if repeated:
        raise FormatError(f"checkpoint lists parameter {repeated[0]} more than once")
    try:
        config = config_from_dict(fields["config"])
    except ConfigError as e:
        raise FormatError(str(e)) from e
    ckpt = Checkpoint(config=config, **fields["geometry"], epoch=fields["epoch"],
                      val_loss=fields["val_loss"], train_class_ids=fields["train_class_ids"], values={})
    return ckpt, fields["parameters"]


def load_checkpoint(directory) -> Checkpoint:
    """Read a checkpoint; a malformed manifest or a non-finite value is a FormatError naming the file."""
    ckpt, names = read_manifest(directory, _checkpoint_from_json)
    path = os.path.join(directory, CHECKPOINT_PARAMS)
    ckpt.values = dict(zip(names, read_tensors(path, len(names))))
    for name, value in ckpt.values.items():
        if not np.isfinite(value).all():
            raise FormatError(f"checkpoint parameter {name} in {path} holds a non-finite value")
    return ckpt


# -- evaluation --------------------------------------------------------------


def embed_split(model: AlignmentModel, split: SplitArrays, batch_size: int = 32):
    """Embed every pair as unit rows, in index order, without shuffling or taping; the loss normalizes alike.

    A row with a non-finite squared norm is a DomainError: normalised, it would read as zeros or rank its pair first.
    """
    z_e, z_i = [], []
    n = len(split.ids)
    for start in range(0, n, batch_size):
        batch = make_batch(split, slice(start, min(start + batch_size, n)))
        with no_grad():
            for what, raw, unit in (("EEG", model.encode_eeg(batch.eeg), z_e),
                                    ("image", model.encode_images(batch.images), z_i)):
                with np.errstate(over="ignore"):
                    bad = np.flatnonzero(~np.isfinite((raw.data * raw.data).sum(axis=-1)))
                if bad.size:
                    raise DomainError(f"the {what} embedding of split row {start + bad[0]} has a non-finite "
                                      "squared norm")
                unit.append(l2_normalize(raw).data)
    return np.concatenate(z_e, axis=0), np.concatenate(z_i, axis=0)


def evaluate_zero_shot(model: AlignmentModel, test: SplitArrays, ks,
                       train_class_ids=None, batch_size: int = 32) -> tuple[RetrievalReport, np.ndarray]:
    """Retrieval metrics on classes never seen during training, and the (query, candidate) similarity.

    The model refuses a split of another geometry at its first batch, before the class overlap is checked.
    """
    z_e, z_i = embed_split(model, test, batch_size)
    if train_class_ids is not None:
        overlap = set(int(c) for c in test.class_ids) & set(int(c) for c in train_class_ids)
        if overlap:
            raise ContractError(f"test classes overlap training classes: {sorted(overlap)[:5]}")
    sim = z_e @ z_i.T
    return build_report(sim, ks), sim
