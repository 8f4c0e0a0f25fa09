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
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, config_from_dict, config_to_dict
from .data import SplitArrays, make_batch
from .errors import ConfigError, ContractError, FormatError
from .metrics import RetrievalReport, build_report
from .model import AlignmentModel
from .tensor import Parameter, no_grad, read_json_object, read_tensor, write_atomically, write_tensor

CHECKPOINT_MANIFEST = "manifest.json"
CHECKPOINT_PARAMS = "params.bin"
CHECKPOINT_FORMAT = 1


class Adam:
    """Adaptive-moment optimizer with the standard decay constants.

    A parameter without a gradient this step keeps its old value. The
    learning rate may be zero, which makes step() a no-op on values.
    """

    def __init__(self, params: list[Parameter], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr < 0:
            raise ConfigError(f"learning rate must be >= 0, got {lr}")
        for p in params:
            if p.frozen:
                raise ContractError(f"frozen parameter {p.name} handed to an optimizer")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.value.data) for p in params]
        self.v = [np.zeros_like(p.value.data) for p in params]
        size = max((p.value.data.size for p in params), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def zero_grads(self) -> None:
        for p in self.params:
            p.value.grad = None

    def step(self) -> None:
        """Update every parameter that has a gradient, in place.

        Computes m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        value -= lr m_hat / (sqrt(v_hat) + eps) with the bias-corrected
        moments, one numpy operation at a time in that order, writing into
        m, v, the value and two scratch buffers instead of fresh arrays.
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m_scale, v_scale = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.value.grad
            if g is None:
                continue
            work, denom = (buf[:g.size].reshape(g.shape) for buf in self._scratch)
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=work)
            np.add(m, work, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=work)
            np.multiply(work, g, out=work)
            np.add(v, work, out=v)
            np.divide(m, m_scale, out=work)
            np.multiply(work, self.lr, out=work)
            np.divide(v, v_scale, out=denom)
            np.sqrt(denom, out=denom)
            np.add(denom, self.eps, out=denom)
            np.divide(work, denom, out=work)
            np.subtract(p.value.data, work, out=p.value.data)


def clip_gradients(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.value.grad is not None:
            total += float((p.value.grad ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.value.grad is not None:
                p.value.grad *= scale
    return norm


def parameter_digest(params: list[Parameter]) -> str:
    """SHA-256 over names, shapes, and raw little-endian payloads."""
    h = hashlib.sha256()
    for p in params:
        h.update(p.name.encode())
        h.update(repr(p.value.shape).encode())
        h.update(np.ascontiguousarray(p.value.data, dtype="<f8").tobytes())
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
        model = AlignmentModel(self.config, self.channels, self.timesteps, self.image_size,
                               rng=np.random.default_rng(self.config.trainer.seed))
        restore_values(model, self.values)
        return model


def snapshot_values(model: AlignmentModel) -> dict[str, np.ndarray]:
    return {p.name: p.value.data.copy() for p in model.parameters()}


def restore_values(model: AlignmentModel, values: dict[str, np.ndarray]) -> None:
    for p in model.parameters():
        if p.name not in values:
            raise FormatError(f"checkpoint is missing parameter {p.name}")
        stored = values[p.name]
        if stored.shape != p.value.shape:
            raise FormatError(
                f"checkpoint parameter {p.name} has shape {stored.shape}, model expects {p.value.shape}"
            )
        p.value.data[...] = stored


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


def _batch_indices(n: int, batch_size: int, rng: np.random.Generator | None) -> list[np.ndarray]:
    """Consecutive slices of a (possibly shuffled) index range.

    Tail slices with fewer than two samples are dropped: the objective
    needs at least one negative per anchor.
    """
    order = np.arange(n) if rng is None else rng.permutation(n)
    out = []
    for start in range(0, n, batch_size):
        chunk = order[start:start + batch_size]
        if len(chunk) >= 2:
            out.append(chunk)
    return out


def validation_loss(model: AlignmentModel, val: SplitArrays, batch_size: int) -> float:
    """Mean loss over deterministic, unshuffled validation batches.

    Nothing is recorded on the tape: the losses are only read.
    """
    batches = _batch_indices(len(val.ids), batch_size, rng=None)
    if not batches:
        raise ConfigError("validation split has fewer than 2 samples")
    losses = []
    with no_grad():
        for idx in batches:
            total, _ = model.batch_loss(make_batch(val, idx))
            losses.append(total.item())
    return float(np.mean(losses))


def fit(model: AlignmentModel, train: SplitArrays, val: SplitArrays,
        log_path=None, progress=None) -> tuple[Checkpoint, list[dict]]:
    """Run the configured number of epochs, keep the best-validation state.

    Returns the checkpoint (epoch 0 = untrained counts as a candidate)
    plus the per-epoch history that also lands in the JSONL log.
    """
    tcfg = model.cfg.trainer
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([tcfg.seed, 7]))
    opt_a = Adam(model.group("A"), lr=tcfg.lr_a)
    opt_b = Adam(model.group("B"), lr=tcfg.lr_b)

    best_val = validation_loss(model, val, tcfg.batch_size)
    best_epoch = 0
    best_values = snapshot_values(model)
    history: list[dict] = [{"epoch": 0, "val_loss": best_val}]

    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        if log_fh:
            print(json.dumps(history[0]), file=log_fh)
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
            if log_fh:
                print(json.dumps(record), file=log_fh)
            if progress:
                progress(record)
            if record["val_loss"] < best_val:
                best_val = record["val_loss"]
                best_epoch = epoch
                best_values = snapshot_values(model)
    finally:
        if log_fh:
            log_fh.close()

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
    os.makedirs(directory, exist_ok=True)
    names = list(ckpt.values)
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
        "parameters": names,
    }

    def write_params(fh):
        for name in names:
            write_tensor(fh, ckpt.values[name])

    text = json.dumps(manifest, indent=2) + "\n"
    write_atomically({
        os.path.join(directory, CHECKPOINT_PARAMS): write_params,
        os.path.join(directory, CHECKPOINT_MANIFEST): lambda fh: fh.write(text.encode()),
    })


def load_checkpoint(directory) -> Checkpoint:
    """Read a checkpoint; a malformed manifest is a FormatError naming the file."""
    manifest_path = os.path.join(directory, CHECKPOINT_MANIFEST)
    try:
        manifest = read_json_object(manifest_path)
    except FileNotFoundError:
        raise FormatError(f"no checkpoint manifest at {manifest_path}") from None
    if manifest.get("format_version") != CHECKPOINT_FORMAT:
        raise FormatError(f"unsupported checkpoint format {manifest.get('format_version')!r}")
    for key in ("config", "geometry", "epoch", "val_loss", "train_class_ids", "parameters"):
        if key not in manifest:
            raise FormatError(f"checkpoint manifest is missing {key!r}")
    config = config_from_dict(manifest["config"])
    names = manifest["parameters"]
    try:
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise TypeError(f"parameters must be a list of names, got {names!r}")
        geo = manifest["geometry"]
        ckpt = Checkpoint(
            config=config,
            channels=int(geo["channels"]),
            timesteps=int(geo["timesteps"]),
            image_size=int(geo["image_size"]),
            epoch=int(manifest["epoch"]),
            val_loss=float(manifest["val_loss"]),
            train_class_ids=[int(c) for c in manifest["train_class_ids"]],
            values={},
        )
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed checkpoint manifest {manifest_path}: {e!r}") from e
    params_path = os.path.join(directory, CHECKPOINT_PARAMS)
    try:
        fh = open(params_path, "rb")
    except FileNotFoundError:
        raise FormatError(f"no checkpoint parameter file at {params_path}") from None
    with fh:
        for name in names:
            ckpt.values[name] = read_tensor(fh)
        trailing = fh.read(1)
        if trailing:
            raise FormatError("checkpoint parameter file has trailing bytes")
    return ckpt


# -- evaluation --------------------------------------------------------------


def embed_split(model: AlignmentModel, split: SplitArrays, batch_size: int = 32):
    """Embed every pair, in index order, without shuffling or taping."""
    z_e, z_i = [], []
    n = len(split.ids)
    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        batch = make_batch(split, idx)
        with no_grad():
            z_e.append(model.encode_eeg(batch.eeg).data)
            z_i.append(model.encode_images(batch.images).data)
    return np.concatenate(z_e, axis=0), np.concatenate(z_i, axis=0)


def evaluate_zero_shot(model: AlignmentModel, test: SplitArrays, ks,
                       train_class_ids=None, batch_size: int = 32) -> RetrievalReport:
    """Retrieval metrics on classes never seen during training."""
    if train_class_ids is not None:
        overlap = set(int(c) for c in test.class_ids) & set(int(c) for c in train_class_ids)
        if overlap:
            raise ContractError(f"test classes overlap training classes: {sorted(overlap)[:5]}")
    z_e, z_i = embed_split(model, test, batch_size)
    sim = z_e @ z_i.T
    report = build_report(sim, ks)
    report.extras["n_queries"] = int(sim.shape[0])
    return report
