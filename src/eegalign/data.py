"""Synthetic paired EEG-image data: generation, splitting, persistence.

Each class owns a latent code. Images are deterministic procedural
renderings of the code (a soft-edged disk whose position, radius and
color the code controls, over a smooth color-gradient background) plus
pixel noise clipped to [0, 1]. EEG trials are a fixed random linear
projection of the same code into channels x time plus additive noise.
At noise 0 the two modalities are exact functions of a shared latent,
and raising noise only degrades their mutual information. Generation
fills rows in blocks that span classes and renders a chunk of classes
per pass, so its working memory stays near NOISE_BLOCK_BYTES.
A split's values are checked once, by ``load_split``; batch shapes are
checked by the model, against the geometry it was built for.
"""
from __future__ import annotations

import math
import os
import typing
from dataclasses import asdict, dataclass, field

import numpy as np

from .bundle import check_fields, read_manifest, read_tensors, save_bundle
from .errors import ConfigError, DomainError, FormatError
from .tensor import Tensor

LATENT_DIM = 8
# generate_synthetic refuses a dataset whose arrays would pass this size;
# splitting holds about one more copy at once, saving none
MAX_DATASET_BYTES = 2 * 2**30
# generate_synthetic draws its noise into one reused buffer of about this
# many bytes (at least one sample's worth) whose rows span classes, and
# renders classes in chunks of 1/32 of it (at least one class)
NOISE_BLOCK_BYTES = 2**20


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
    """A batch of aligned EEG trials and images; ``load_split`` checked its values, the model checks its shapes."""

    eeg: Tensor
    images: Tensor

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
        return {name: value for name, value in asdict(self).items() if name != "root"}

    @staticmethod
    def from_json(obj: dict, root: str = "") -> "DatasetManifest":
        """The manifest ``obj`` describes; each field's type is its annotation here."""
        fields = {name: hint for name, hint in typing.get_type_hints(DatasetManifest).items() if name != "root"}
        obj = {"seed": None, **obj}
        # "repetitions" is accepted only as the false that older writers stored
        repetitions = obj.pop("repetitions", False)
        if repetitions is not False:
            raise FormatError(f"manifest repetitions must be false, got {repetitions!r}")
        return DatasetManifest(**check_fields(obj, fields), root=root)


def _render_images(codes: np.ndarray, height: int) -> np.ndarray:
    """Deterministic (N, 3, H, H) renderings of N latent codes, in one broadcast pass.

    Background: per-channel sigmoid ramps whose slope and level come from
    the code. Foreground: a soft-edged disk; position, radius and color
    are code-driven. Each pixel goes through the same operations in the
    same order for any N, so a code renders the same bits in any chunk.
    """
    xs = np.linspace(-1.0, 1.0, height)  # varies along columns; ys along rows
    ys = xs[:, None]
    z = codes[:, :, None, None]

    def squash(v):
        return 1.0 / (1.0 + np.exp(-v))

    img = squash(0.8 * z[:, 0:3] + 0.7 * z[:, 3:6] * xs + 0.7 * z[:, 5:8] * ys)
    cx = 0.6 * np.tanh(z[:, 3:4])
    cy = 0.6 * np.tanh(z[:, 4:5])
    radius = 0.18 + 0.35 * squash(z[:, 5:6])
    dist = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2)
    mask = squash((radius - dist) / 0.08)
    fg = squash(np.concatenate([z[:, 6:8], 0.5 * (z[:, 6:7] - z[:, 7:8])], axis=1))
    return (1.0 - mask) * img + mask * fg


def dataset_bytes(n_classes: int, per_class: int, channels: int, timesteps: int, height: int) -> int:
    """Bytes of the arrays generate_synthetic allocates, from its arguments alone."""
    total = n_classes * per_class
    per_sample = channels * timesteps + 3 * height * height + 2  # float64 EEG, image, two int64 ids
    return 8 * (total * per_sample + (n_classes + channels * timesteps) * LATENT_DIM)


def generate_synthetic(
    seed: int,
    n_classes: int,
    per_class: int,
    channels: int = 17,
    timesteps: int = 250,
    height: int = 32,
    noise: float = 0.1,
) -> SplitArrays:
    """Build a paired dataset of ``n_classes * per_class`` samples.

    A dataset whose arrays would pass MAX_DATASET_BYTES is a ConfigError,
    raised before anything is allocated. So are a negative seed
    (ConfigError) and a noise level that is not a finite number >= 0
    (DomainError). Any height is accepted; the backbone that tiles the
    images refuses one its patch size does not divide.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not (math.isfinite(noise) and noise >= 0):
        raise DomainError(f"noise level must be a finite number >= 0, got {noise}")
    if n_classes < 1 or per_class < 1:
        raise ConfigError(f"need at least one class and one sample per class, got {n_classes}/{per_class}")
    if channels < 1 or timesteps < 1 or height < 1:
        raise ConfigError(f"dimensions must be positive, got C={channels} T={timesteps} H={height}")
    size = dataset_bytes(n_classes, per_class, channels, timesteps, height)
    if size > MAX_DATASET_BYTES:
        raise ConfigError(f"{n_classes} classes x {per_class} samples of {channels}x{timesteps} EEG and "
                          f"{height}x{height} images need {size} bytes, over the "
                          f"{MAX_DATASET_BYTES}-byte cap")

    rng = np.random.default_rng(seed)
    codes = rng.normal(size=(n_classes, LATENT_DIM))
    mix = rng.normal(size=(LATENT_DIM, channels * timesteps)) / np.sqrt(LATENT_DIM)

    total = n_classes * per_class
    eeg = np.empty((total, channels, timesteps))
    images = np.empty((total, 3, height, height))
    class_ids = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    ids = np.arange(total, dtype=np.int64)

    # One noise row per sample: its EEG noise, then its image noise. Filling
    # rows in order consumes the stream exactly as one draw per sample and
    # modality did, so a seed gives the same dataset bit for bit. A block
    # spans class boundaries; each class's signal and rendering are made
    # once, when its first row comes up, and added to its rows in place.
    flat_eeg, flat_images = eeg.reshape(total, -1), images.reshape(total, -1)
    eeg_size, image_size = flat_eeg.shape[1], flat_images.shape[1]
    width = eeg_size + image_size
    block = np.empty((max(1, min(total, NOISE_BLOCK_BYTES // (8 * width))), width))
    # classes rendered per pass: their images fill at most 1/32 of the block, the pass's temporaries ~6x that
    chunk = max(1, NOISE_BLOCK_BYTES // (256 * image_size))
    for s in range(0, total, len(block)):
        rows = block[:min(len(block), total - s)]
        rng.standard_normal(out=rows)
        rows *= noise
        e = s + len(rows)
        for k in range(s // per_class, (e - 1) // per_class + 1):
            a, b = max(s, k * per_class), min(e, (k + 1) * per_class)
            if a == k * per_class:
                signal = codes[k] @ mix
                if k % chunk == 0:
                    rendered = _render_images(codes[k:k + chunk], height).reshape(-1, image_size)
            np.add(signal, rows[a - s:b - s, :eeg_size], out=flat_eeg[a:b])
            np.add(rendered[k % chunk], rows[a - s:b - s, eeg_size:], out=flat_images[a:b])
        np.clip(flat_images[s:e], 0.0, 1.0, out=flat_images[s:e])
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
    """Write one payload file per split (EEG, images, ids, class ids), then manifest.json.

    All files are staged and moved into place together, manifest last,
    so a failure or a kill never leaves a manifest over a partial split.
    """
    for name in splits:
        if name not in manifest.splits:
            raise ConfigError(f"split {name!r} missing from manifest")
    payloads = {manifest.splits[name]: (split.eeg, split.images, split.ids, split.class_ids)
                for name, split in splits.items()}
    save_bundle(out_dir, payloads, manifest.to_json())


def load_dataset(path: str) -> DatasetManifest:
    """Read and validate a dataset directory's manifest; split payloads load via load_split.

    A malformed manifest is a FormatError naming the file.
    """
    return read_manifest(path, lambda obj: DatasetManifest.from_json(obj, root=path))


def load_split(manifest: DatasetManifest, name: str) -> SplitArrays:
    """Load one split, checking shapes against the manifest geometry.

    Non-finite EEG, images outside [0, 1] (NaN included) and ids that
    are not integers are a FormatError naming the split, the first bad
    sample and the file. Batches of the split are not checked again.
    """
    if name not in manifest.splits:
        raise ConfigError(f"manifest has no split named {name!r}; has {sorted(manifest.splits)}")
    path = os.path.join(manifest.root, manifest.splits[name])
    eeg, images, ids, class_ids = read_tensors(path, 4)

    if eeg.ndim != 3 or eeg.shape[1:] != (manifest.channels, manifest.timesteps):
        raise FormatError(
            f"EEG shape {eeg.shape} does not match manifest "
            f"(C={manifest.channels}, T={manifest.timesteps})"
        )
    if images.shape != (eeg.shape[0], 3, manifest.height, manifest.width):
        raise FormatError(f"image shape {images.shape} does not match manifest")
    if ids.shape != (eeg.shape[0],) or class_ids.shape != (eeg.shape[0],):
        raise FormatError(f"id arrays do not match sample count {eeg.shape[0]}")
    if not np.isfinite(eeg).all():
        first = int(np.flatnonzero(~np.isfinite(eeg).reshape(len(eeg), -1).all(axis=1))[0])
        raise FormatError(f"split {name!r} has non-finite EEG at sample {first} in {path}")
    # NaN fails both comparisons, so this one test also refuses non-finite images
    if not (images.min(initial=0.0) >= 0.0 and images.max(initial=1.0) <= 1.0):
        first = int(np.flatnonzero(~((images >= 0.0) & (images <= 1.0)).reshape(len(images), -1).all(axis=1))[0])
        what = "images outside [0, 1]" if np.isfinite(images[first]).all() else "non-finite images"
        raise FormatError(f"split {name!r} has {what} at sample {first} in {path}")
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
    """Keep the listed channels and crop the window; ``validate_config`` checked both, this checks their fit."""
    eeg = split.eeg
    if channel_mask is not None:
        # checked as Python ints: numpy cannot hold one beyond int64
        if max(channel_mask) >= eeg.shape[1]:
            raise ConfigError(f"channel mask {channel_mask} invalid for {eeg.shape[1]} channels")
        eeg = eeg[:, np.asarray(channel_mask, dtype=np.int64), :]
    if time_window is not None:
        if time_window[1] > eeg.shape[2]:
            raise ConfigError(f"time window {time_window} invalid for {eeg.shape[2]} steps")
        eeg = eeg[:, :, time_window[0]:time_window[1]]
    return SplitArrays(eeg=eeg, images=split.images, ids=split.ids, class_ids=split.class_ids)


def make_batch(split: SplitArrays, indices) -> PairedBatch:
    """The pairs at ``indices``: an index array copies them, a slice gives views of the split."""
    return PairedBatch(eeg=Tensor(split.eeg[indices]), images=Tensor(split.images[indices]))
