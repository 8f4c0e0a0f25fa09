"""Synthetic paired EEG-image data: generation, splitting, persistence.

Each class owns a latent code. Images are deterministic procedural
renderings of the code (a soft-edged disk whose position, radius and
color the code controls, over a smooth color-gradient background) plus
pixel noise clipped to [0, 1]. EEG trials are a fixed random linear
projection of the same code into channels x time plus additive noise.
At noise 0 the two modalities are exact functions of a shared latent,
and raising noise only degrades their mutual information.
"""
from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, FormatError
from .tensor import Tensor, read_json_object, read_tensor, write_atomically, write_tensor

LATENT_DIM = 8
MANIFEST_NAME = "manifest.json"


@dataclass
class SplitArrays:
    """One split held in memory as plain ndarrays."""

    eeg: np.ndarray        # (B, C, T) float64
    images: np.ndarray     # (B, 3, H, W) float64 in [0, 1]
    ids: np.ndarray        # (B,) int64, unique across the dataset
    class_ids: np.ndarray  # (B,) int64

    def __len__(self) -> int:
        return self.eeg.shape[0]

    def take(self, indices) -> "SplitArrays":
        idx = np.asarray(indices)
        return SplitArrays(self.eeg[idx], self.images[idx], self.ids[idx], self.class_ids[idx])


@dataclass
class PairedBatch:
    """A batch of aligned EEG trials and images ready for the model."""

    eeg: Tensor
    images: Tensor
    ids: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        b = self.eeg.shape[0]
        if self.images.shape[0] != b or len(self.ids) != b or len(self.class_ids) != b:
            raise DimensionError(
                f"batch size mismatch: eeg {self.eeg.shape[0]}, images {self.images.shape[0]}, "
                f"ids {len(self.ids)}, class_ids {len(self.class_ids)}"
            )
        if self.eeg.ndim != 3:
            raise DimensionError(f"eeg must be (B, C, T), got {self.eeg.shape}")
        if self.images.ndim != 4 or self.images.shape[1] != 3:
            raise DimensionError(f"images must be (B, 3, H, W), got {self.images.shape}")
        lo, hi = float(self.images.data.min(initial=0.0)), float(self.images.data.max(initial=1.0))
        # NaN fails both comparisons, so a non-finite image is rejected too
        if not (lo >= 0.0 and hi <= 1.0):
            raise DomainError(f"image values must lie in [0, 1], got range [{lo}, {hi}]")
        if not np.isfinite(self.eeg.data).all():
            raise DomainError("eeg values must be finite")

    def __len__(self) -> int:
        return self.eeg.shape[0]


@dataclass
class DatasetManifest:
    """Index of a saved dataset: split files plus shared geometry."""

    splits: dict[str, str]
    channels: int
    timesteps: int
    height: int
    width: int
    n_classes: int
    seed: int | None = None
    root: str = field(default="", compare=False)

    def to_json(self) -> dict:
        return {
            "splits": dict(self.splits),
            "channels": self.channels,
            "timesteps": self.timesteps,
            "height": self.height,
            "width": self.width,
            "n_classes": self.n_classes,
            "seed": self.seed,
        }

    @staticmethod
    def from_json(obj: dict, root: str = "") -> "DatasetManifest":
        # "repetitions" is accepted only as the false that older writers stored
        known = {"splits", "channels", "timesteps", "height", "width", "n_classes", "seed", "repetitions"}
        unknown = set(obj) - known
        if unknown:
            raise FormatError(f"unknown manifest keys: {sorted(unknown)}")
        if obj.get("repetitions", False) is not False:
            raise FormatError(f"manifest repetitions must be false, got {obj['repetitions']!r}")
        missing = known - {"seed", "repetitions"} - set(obj)
        if missing:
            raise FormatError(f"manifest missing keys: {sorted(missing)}")
        try:
            splits = dict(obj["splits"])
            if not all(isinstance(f, str) for f in splits.values()):
                raise TypeError(f"split file names must be strings, got {splits!r}")
            return DatasetManifest(
                splits=splits,
                channels=int(obj["channels"]),
                timesteps=int(obj["timesteps"]),
                height=int(obj["height"]),
                width=int(obj["width"]),
                n_classes=int(obj["n_classes"]),
                seed=None if obj.get("seed") is None else int(obj.get("seed")),
                root=root,
            )
        except (TypeError, ValueError) as e:
            raise FormatError(f"manifest value has the wrong type: {e}") from e


def _render_image(code: np.ndarray, height: int) -> np.ndarray:
    """Deterministic (3, H, H) rendering of one latent code.

    Background: per-channel sigmoid ramps whose slope and level come from
    the code. Foreground: a soft-edged disk; position, radius and color
    are code-driven.
    """
    h = height
    ys, xs = np.meshgrid(np.linspace(-1.0, 1.0, h), np.linspace(-1.0, 1.0, h), indexing="ij")
    z = code

    def squash(v):
        return 1.0 / (1.0 + np.exp(-v))

    img = np.empty((3, h, h))
    for c in range(3):
        img[c] = squash(0.8 * z[c] + 0.7 * z[(c + 3) % LATENT_DIM] * xs + 0.7 * z[(c + 5) % LATENT_DIM] * ys)
    cx = 0.6 * np.tanh(z[3])
    cy = 0.6 * np.tanh(z[4])
    radius = 0.18 + 0.35 * squash(z[5])
    dist = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2)
    mask = squash((radius - dist) / 0.08)
    fg = squash(np.array([z[6], z[7], 0.5 * (z[6] - z[7])]))
    for c in range(3):
        img[c] = (1.0 - mask) * img[c] + mask * fg[c]
    return img


def generate_synthetic(
    seed: int,
    n_classes: int,
    per_class: int,
    channels: int = 17,
    timesteps: int = 250,
    height: int = 32,
    noise: float = 0.1,
    patch: int = 8,
) -> SplitArrays:
    """Build a paired dataset of ``n_classes * per_class`` samples.

    ``patch`` is the patch size the visual backbone will tile the image
    with; a height it does not divide is rejected up front.
    """
    if n_classes < 1 or per_class < 1:
        raise ConfigError(f"need at least one class and one sample per class, got {n_classes}/{per_class}")
    if channels < 1 or timesteps < 1 or height < 1:
        raise ConfigError(f"dimensions must be positive, got C={channels} T={timesteps} H={height}")
    if height % patch != 0:
        raise ConfigError(f"image height {height} is not divisible by patch size {patch}")
    if noise < 0:
        raise DomainError(f"noise level must be >= 0, got {noise}")

    rng = np.random.default_rng(seed)
    codes = rng.normal(size=(n_classes, LATENT_DIM))
    mix = rng.normal(size=(LATENT_DIM, channels * timesteps)) / np.sqrt(LATENT_DIM)

    total = n_classes * per_class
    eeg = np.empty((total, channels, timesteps))
    images = np.empty((total, 3, height, height))
    class_ids = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    ids = np.arange(total, dtype=np.int64)

    for k in range(n_classes):
        signal = (codes[k] @ mix).reshape(channels, timesteps)
        base_img = _render_image(codes[k], height)
        for j in range(per_class):
            i = k * per_class + j
            eeg[i] = signal + noise * rng.normal(size=(channels, timesteps))
            images[i] = np.clip(base_img + noise * rng.normal(size=(3, height, height)), 0.0, 1.0)
    return SplitArrays(eeg=eeg, images=images, ids=ids, class_ids=class_ids)


def split_indices(
    class_ids: np.ndarray, n_test_classes: int, n_val_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition sample indices for zero-shot evaluation.

    Entire classes are held out; the test set keeps exactly one sample
    per held-out class. Validation samples are drawn uniformly at random
    from what remains, and the rest is training data.
    """
    class_ids = np.asarray(class_ids)
    classes = np.unique(class_ids)
    if not 0 < n_test_classes < len(classes):
        raise ConfigError(f"cannot hold out {n_test_classes} of {len(classes)} classes")
    rng = np.random.default_rng(seed)
    test_classes = rng.choice(classes, size=n_test_classes, replace=False)
    test_set = set(int(c) for c in test_classes)

    test_idx = []
    for c in sorted(test_set):
        members = np.flatnonzero(class_ids == c)
        test_idx.append(int(rng.choice(members)))
    test_idx = np.asarray(sorted(test_idx), dtype=np.int64)

    remaining = np.flatnonzero(~np.isin(class_ids, test_classes))
    if n_val_samples < 0 or n_val_samples >= len(remaining):
        raise ConfigError(f"cannot hold out {n_val_samples} validation samples from {len(remaining)}")
    perm = rng.permutation(len(remaining))
    val_idx = np.sort(remaining[perm[:n_val_samples]])
    train_idx = np.sort(remaining[perm[n_val_samples:]])
    return train_idx, val_idx, test_idx


def zero_shot_split(
    data: SplitArrays, n_test_classes: int, n_val_samples: int, seed: int
) -> dict[str, SplitArrays]:
    train_idx, val_idx, test_idx = split_indices(data.class_ids, n_test_classes, n_val_samples, seed)
    return {
        "train": data.take(train_idx),
        "val": data.take(val_idx),
        "test": data.take(test_idx),
    }


# -- persistence -----------------------------------------------------------


def save_dataset(manifest: DatasetManifest, splits: dict[str, SplitArrays], out_dir: str) -> None:
    """Write one binary tensor file per split, then manifest.json.

    All files are staged and moved into place together, manifest last,
    so a failure or a kill never leaves a manifest over a partial split.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name in splits:
        if name not in manifest.splits:
            raise ConfigError(f"split {name!r} missing from manifest")
    writers = {os.path.join(out_dir, manifest.splits[name]): functools.partial(_write_split, split)
               for name, split in splits.items()}
    text = json.dumps(manifest.to_json(), indent=2) + "\n"
    writers[os.path.join(out_dir, MANIFEST_NAME)] = lambda fh: fh.write(text.encode())
    write_atomically(writers)


def _write_split(split: SplitArrays, fh) -> None:
    write_tensor(fh, split.eeg)
    write_tensor(fh, split.images)
    write_tensor(fh, split.ids.astype(np.float64))
    write_tensor(fh, split.class_ids.astype(np.float64))


def load_dataset(path: str) -> DatasetManifest:
    """Read and validate a manifest; split payloads load via load_split.

    A malformed manifest is a FormatError naming the file.
    """
    manifest_path = os.path.join(path, MANIFEST_NAME) if os.path.isdir(path) else path
    root = os.path.dirname(manifest_path)
    try:
        obj = read_json_object(manifest_path)
    except FileNotFoundError:
        raise FormatError(f"no dataset manifest at {manifest_path}") from None
    try:
        return DatasetManifest.from_json(obj, root=root)
    except FormatError as e:
        raise FormatError(f"dataset manifest {manifest_path}: {e}") from e


def load_split(manifest: DatasetManifest, name: str) -> SplitArrays:
    """Load one split, checking shapes against the manifest geometry.

    Non-finite EEG or image values are a FormatError naming the split
    and the first bad sample, and so are ids that are not integers.
    """
    if name not in manifest.splits:
        raise ConfigError(f"manifest has no split named {name!r}; has {sorted(manifest.splits)}")
    path = os.path.join(manifest.root, manifest.splits[name])
    with open(path, "rb") as fh:
        eeg = read_tensor(fh)
        images = read_tensor(fh)
        ids = read_tensor(fh)
        class_ids = read_tensor(fh)
        trailing = fh.read(1)
    if trailing:
        raise FormatError(f"trailing bytes after split payload in {path}")

    if eeg.ndim != 3 or eeg.shape[1:] != (manifest.channels, manifest.timesteps):
        raise FormatError(
            f"EEG shape {eeg.shape} does not match manifest "
            f"(C={manifest.channels}, T={manifest.timesteps})"
        )
    if images.shape != (eeg.shape[0], 3, manifest.height, manifest.width):
        raise FormatError(f"image shape {images.shape} does not match manifest")
    if ids.shape != (eeg.shape[0],) or class_ids.shape != (eeg.shape[0],):
        raise FormatError(f"id arrays do not match sample count {eeg.shape[0]}")
    for what, values in (("EEG", eeg), ("images", images)):
        if not np.isfinite(values).all():
            first = int(np.flatnonzero(~np.isfinite(values).reshape(len(values), -1).all(axis=1))[0])
            raise FormatError(f"split {name!r} has non-finite {what} at sample {first} in {path}")
    for what, values in (("ids", ids), ("class ids", class_ids)):
        # NaN fails both tests; beyond 2**53 a float no longer holds every integer
        if not ((values == np.round(values)) & (np.abs(values) < 2.0 ** 53)).all():
            raise FormatError(f"split {name!r} has {what} that are not integers in {path}")
    return SplitArrays(
        eeg=eeg,
        images=images,
        ids=ids.astype(np.int64),
        class_ids=class_ids.astype(np.int64),
    )


def apply_masks(
    split: SplitArrays,
    channel_mask: list[int] | None = None,
    time_window: list[int] | None = None,
) -> SplitArrays:
    """Channel / temporal ablations: keep listed channels, crop a window."""
    eeg = split.eeg
    if channel_mask is not None:
        mask = np.asarray(channel_mask, dtype=np.int64)
        if mask.size == 0 or mask.min() < 0 or mask.max() >= eeg.shape[1]:
            raise ConfigError(f"channel mask {channel_mask} invalid for {eeg.shape[1]} channels")
        eeg = eeg[:, mask, :]
    if time_window is not None:
        if len(time_window) != 2:
            raise ConfigError(f"time window must be [start, stop), got {time_window}")
        t0, t1 = int(time_window[0]), int(time_window[1])
        if not 0 <= t0 < t1 <= eeg.shape[2]:
            raise ConfigError(f"time window {time_window} invalid for {eeg.shape[2]} steps")
        eeg = eeg[:, :, t0:t1]
    return SplitArrays(eeg=eeg, images=split.images, ids=split.ids, class_ids=split.class_ids)


def make_batch(split: SplitArrays, indices) -> PairedBatch:
    idx = np.asarray(indices)
    return PairedBatch(
        eeg=Tensor(split.eeg[idx]),
        images=Tensor(split.images[idx]),
        ids=split.ids[idx],
        class_ids=split.class_ids[idx],
    )
