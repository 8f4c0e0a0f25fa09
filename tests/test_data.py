import hashlib
import os
import re
import tracemalloc

import numpy as np
import pytest

import eegalign.bundle as bundle_module
import eegalign.data as data_module
from eegalign.bundle import read_tensor, write_tensor
from eegalign.data import (
    LATENT_DIM,
    NOISE_BLOCK_BYTES,
    DatasetManifest,
    apply_masks,
    dataset_bytes,
    generate_synthetic,
    load_dataset,
    load_split,
    make_batch,
    save_dataset,
    split_indices,
    zero_shot_split,
)
from eegalign.errors import ConfigError, DomainError, FormatError


def _lsq_train_accuracy(eeg, class_ids):
    """Least-squares one-hot regression, evaluated on its own training set."""
    x = eeg.reshape(len(eeg), -1)
    x = np.concatenate([x, np.ones((len(x), 1))], axis=1)
    n_classes = int(class_ids.max()) + 1
    y = np.eye(n_classes)[class_ids]
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    pred = (x @ w).argmax(axis=1)
    return float((pred == class_ids).mean())


def _render_one(code, height):
    """One class's (3, H, H) rendering, pixel plane by pixel plane.

    An independent copy of the per-class renderer generate_synthetic
    once called, kept here so that the reference below does not call
    the code under test.
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


def _per_sample_generate(seed, n_classes, per_class, channels, timesteps, height, noise):
    """generate_synthetic's arrays with one rendering per class and one noise draw per sample and modality.

    The reference for the blocked draw and the chunked rendering: every
    EEG and image value must match it bit for bit.
    """
    rng = np.random.default_rng(seed)
    codes = rng.normal(size=(n_classes, LATENT_DIM))
    mix = rng.normal(size=(LATENT_DIM, channels * timesteps)) / np.sqrt(LATENT_DIM)
    eeg = np.empty((n_classes * per_class, channels, timesteps))
    images = np.empty((n_classes * per_class, 3, height, height))
    for k in range(n_classes):
        signal = (codes[k] @ mix).reshape(channels, timesteps)
        base_img = _render_one(codes[k], height)
        for j in range(per_class):
            i = k * per_class + j
            eeg[i] = signal + noise * rng.normal(size=(channels, timesteps))
            images[i] = np.clip(base_img + noise * rng.normal(size=(3, height, height)), 0.0, 1.0)
    return eeg, images


def _working_bytes(*args):
    """Peak bytes generate_synthetic(0, *args) allocates beyond its dataset's arrays."""
    tracemalloc.start()
    try:
        generate_synthetic(0, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - dataset_bytes(*args)


def _samples_per_block(channels, timesteps, height):
    return max(1, NOISE_BLOCK_BYTES // (8 * (channels * timesteps + 3 * height * height)))


class TestGenerate:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    # the last column, the backbone patch of each geometry, is not an argument
    # of generate_synthetic; it stays so that the case ids stay stable
    @pytest.mark.parametrize("n_classes,per_class,channels,timesteps,height,noise,_patch", [
        (3, 40, 17, 250, 32, 0.1, 8),  # quick-start shape; each class spans three noise blocks
        (5, 6, 8, 50, 16, 0.1, 8),     # desk shape
        (3, 4, 4, 6, 16, 0.0, 8),
        (4, 3, 1, 1, 8, 0.3, 8),
        (60, 2, 4, 6, 8, 0.1, 8),      # every class in one noise block, over three rendering chunks
        (50, 1, 4, 6, 8, 0.2, 8),      # one sample per class, over three rendering chunks
        (40, 1, 17, 250, 32, 0.1, 8),  # one sample per class, 17 classes per noise block
        (7, 5, 17, 250, 32, 0.1, 8),   # 17-row blocks: classes 3 and 6 straddle a block boundary
    ])
    def test_blocked_noise_matches_per_sample_draws(self, seed, n_classes, per_class, channels, timesteps,
                                                    height, noise, _patch):
        data = generate_synthetic(seed, n_classes, per_class, channels, timesteps, height, noise)
        eeg, images = _per_sample_generate(seed, n_classes, per_class, channels, timesteps, height, noise)
        assert data.eeg.tobytes() == eeg.tobytes()
        assert data.images.tobytes() == images.tobytes()

    def test_quick_start_case_spans_three_blocks(self):
        assert 40 > 2 * _samples_per_block(17, 250, 32)

    def test_noise_buffer_stays_near_the_cap(self):
        args = (2, 300, 17, 250, 32)
        assert args[1] > _samples_per_block(*args[2:])  # a whole-class block would pass the cap
        # the noise block, plus a class's signal, its rendering and numpy's ufunc buffers
        assert _working_bytes(*args) < NOISE_BLOCK_BYTES + 2**18

    @pytest.mark.parametrize("n_classes,per_class", [(60, 2), (50, 1)])
    def test_each_class_is_rendered_once_in_chunks(self, monkeypatch, n_classes, per_class):
        assert n_classes * per_class <= _samples_per_block(4, 6, 8)  # so one noise block holds every class
        chunks = []
        render = data_module._render_images

        def counting(codes, height):
            chunks.append(len(codes))
            return render(codes, height)

        monkeypatch.setattr(data_module, "_render_images", counting)
        generate_synthetic(0, n_classes, per_class, 4, 6, 8, 0.1)
        assert sum(chunks) == n_classes and len(chunks) > 1

    def test_rendering_chunks_stay_near_the_cap(self):
        # one class per row, so each noise block renders many classes
        assert _working_bytes(400, 1, 17, 250, 32) < NOISE_BLOCK_BYTES + 2**18

    # SHA-256 of the eeg and images bytes, recorded from the generator that
    # rendered and drew noise one class at a time; a dataset's bytes may not move
    @pytest.mark.parametrize("args,eeg_digest,images_digest", [
        ((0, 160, 8, 8, 50, 16, 0.2),
         "e4ce9825db8c82551eb492605125c7c8be78142a37aa950e67e6f1c072088a1e",
         "4d7c9754d7019c2ef1963cd0d0e455517afec52c69d0abe1ea98770d1cb45df8"),
        ((0, 50, 20, 17, 250, 32, 0.1),
         "007494e2d566d773090b0867d5ae92aee8b7d6f5abdce6fdff1257bc32abd9c1",
         "55043473ac4124d2a493b34c0ded6d837f293b70a63c35f26789223852af1a3e"),
        ((3, 400, 1, 17, 250, 32, 0.1),
         "b421b600b39680fdaca7872fdd375edd45def351e207b56e8bb0defee3aa7c91",
         "a3bdbe46b78a188b868c119bf9fa56ffac9fb433b19bef636253a447a442ae59"),
    ], ids=["desk", "quick-start", "one-per-class"])
    def test_bytes_match_the_recorded_digests(self, args, eeg_digest, images_digest):
        data = generate_synthetic(*args)
        assert hashlib.sha256(data.eeg.tobytes()).hexdigest() == eeg_digest
        assert hashlib.sha256(data.images.tobytes()).hexdigest() == images_digest

    def test_two_classes_have_distinct_centroids(self):
        data = generate_synthetic(seed=0, n_classes=2, per_class=5, channels=4, timesteps=8, height=16)
        c0 = data.eeg[data.class_ids == 0].mean(axis=0)
        c1 = data.eeg[data.class_ids == 1].mean(axis=0)
        assert np.linalg.norm(c0 - c1) > 0.1
        i0 = data.images[data.class_ids == 0].mean(axis=0)
        i1 = data.images[data.class_ids == 1].mean(axis=0)
        assert np.abs(i0 - i1).max() > 0.01

    def test_same_seed_bitwise_identical(self):
        a = generate_synthetic(seed=7, n_classes=3, per_class=4, channels=4, timesteps=6, height=16)
        b = generate_synthetic(seed=7, n_classes=3, per_class=4, channels=4, timesteps=6, height=16)
        assert a.eeg.tobytes() == b.eeg.tobytes()
        assert a.images.tobytes() == b.images.tobytes()
        assert a.ids.tobytes() == b.ids.tobytes()

    def test_different_seed_differs(self):
        a = generate_synthetic(seed=7, n_classes=3, per_class=4, channels=4, timesteps=6, height=16)
        b = generate_synthetic(seed=8, n_classes=3, per_class=4, channels=4, timesteps=6, height=16)
        assert a.eeg.tobytes() != b.eeg.tobytes()

    def test_noise_free_eeg_linearly_separable(self):
        data = generate_synthetic(seed=1, n_classes=10, per_class=6, channels=6, timesteps=20, height=16, noise=0.0)
        assert _lsq_train_accuracy(data.eeg, data.class_ids) == 1.0

    def test_images_in_unit_range(self):
        data = generate_synthetic(seed=2, n_classes=4, per_class=3, channels=3, timesteps=5, height=16, noise=0.8)
        assert data.images.min() >= 0.0
        assert data.images.max() <= 1.0

    def test_noise_degrades_pairing(self):
        """Within-class EEG scatter grows monotonically with the noise level."""
        spreads = []
        for noise in (0.0, 0.5, 2.0):
            data = generate_synthetic(seed=3, n_classes=5, per_class=8, channels=4, timesteps=10, height=16, noise=noise)
            per_class = []
            for c in range(5):
                grp = data.eeg[data.class_ids == c].reshape(8, -1)
                per_class.append(np.linalg.norm(grp - grp[0], axis=1).mean())
            spreads.append(np.mean(per_class))
        assert spreads[0] == 0.0  # noise-free samples of a class are exact copies
        assert spreads[0] < spreads[1] < spreads[2]

    def test_negative_noise_rejected(self):
        with pytest.raises(DomainError):
            generate_synthetic(seed=0, n_classes=2, per_class=2, channels=3, timesteps=5, height=16, noise=-0.1)

    @pytest.mark.parametrize("kwargs,error,message", [
        ({"noise": float("nan")}, DomainError, "noise"),
        ({"noise": float("inf")}, DomainError, "noise"),
        ({"seed": -1}, ConfigError, "seed"),
    ])
    def test_bad_noise_or_seed_rejected_before_allocation(self, monkeypatch, kwargs, error, message):
        def refuse(*args, **kw):
            raise AssertionError("allocated before validating")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np, "empty", refuse)
        args = {"seed": 0, "n_classes": 2, "per_class": 2, "channels": 3, "timesteps": 5, "height": 16, **kwargs}
        with pytest.raises(error, match=message):
            generate_synthetic(**args)

    def test_size_estimate_counts_what_is_allocated(self):
        data = generate_synthetic(seed=0, n_classes=3, per_class=2, channels=4, timesteps=6, height=16)
        held = data.eeg.nbytes + data.images.nbytes + data.ids.nbytes + data.class_ids.nbytes
        latent = 8 * LATENT_DIM * (3 + 4 * 6)  # class codes and the EEG mixing matrix
        assert dataset_bytes(3, 2, 4, 6, 16) == held + latent

    def test_cap_is_inclusive(self, monkeypatch):
        size = dataset_bytes(3, 2, 4, 6, 16)
        monkeypatch.setattr(data_module, "MAX_DATASET_BYTES", size)
        generate_synthetic(seed=0, n_classes=3, per_class=2, channels=4, timesteps=6, height=16)
        monkeypatch.setattr(data_module, "MAX_DATASET_BYTES", size - 1)
        with pytest.raises(ConfigError, match="cap"):
            generate_synthetic(seed=0, n_classes=3, per_class=2, channels=4, timesteps=6, height=16)

    @pytest.mark.parametrize("n_classes,per_class,channels,timesteps,height", [
        (100_000_000_000, 1000, 17, 250, 32), (2, 1, 1, 10**9, 16), (2, 1, 1, 1, 2**15),
    ])
    def test_oversized_dataset_rejected_before_allocation(self, n_classes, per_class, channels, timesteps, height):
        assert dataset_bytes(n_classes, per_class, channels, timesteps, height) > data_module.MAX_DATASET_BYTES
        with pytest.raises(ConfigError, match="cap"):
            generate_synthetic(seed=0, n_classes=n_classes, per_class=per_class, channels=channels,
                               timesteps=timesteps, height=height)

    def test_default_geometry(self):
        data = generate_synthetic(seed=0, n_classes=2, per_class=1)
        assert data.eeg.shape == (2, 17, 250)
        assert data.images.shape == (2, 3, 32, 32)


class TestSplit:
    def test_counts_and_disjointness(self):
        data = generate_synthetic(seed=4, n_classes=12, per_class=5, channels=3, timesteps=6, height=16)
        splits = zero_shot_split(data, n_test_classes=3, n_val_samples=7, seed=0)
        assert len(splits["test"]) == 3
        assert len(np.unique(splits["test"].class_ids)) == 3
        assert len(splits["val"]) == 7
        assert len(splits["train"]) == 12 * 5 - 3 * 5 - 7
        train_classes = set(splits["train"].class_ids.tolist()) | set(splits["val"].class_ids.tolist())
        test_classes = set(splits["test"].class_ids.tolist())
        assert train_classes.isdisjoint(test_classes)

    def test_ids_partition_samples(self):
        data = generate_synthetic(seed=5, n_classes=6, per_class=4, channels=3, timesteps=6, height=16)
        splits = zero_shot_split(data, n_test_classes=2, n_val_samples=4, seed=1)
        seen = np.concatenate([splits[k].ids for k in ("train", "val", "test")])
        assert len(seen) == len(set(seen.tolist()))
        # test classes keep exactly one sample each; their remaining samples are dropped
        assert len(seen) == 6 * 4 - 2 * 4 + 2

    def test_large_scale_counts(self):
        # 1654 classes x 10 samples, 200 held-out classes, 740 validation samples
        class_ids = np.repeat(np.arange(1654), 10)
        train_idx, val_idx, test_idx = split_indices(class_ids, n_test_classes=200, n_val_samples=740, seed=0)
        assert len(test_idx) == 200
        assert len(val_idx) == 740
        assert len(train_idx) == (1654 - 200) * 10 - 740
        assert len(np.unique(class_ids[test_idx])) == 200

    def test_deterministic(self):
        class_ids = np.repeat(np.arange(20), 3)
        a = split_indices(class_ids, 4, 6, seed=9)
        b = split_indices(class_ids, 4, 6, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_too_many_test_classes(self):
        with pytest.raises(ConfigError):
            split_indices(np.repeat(np.arange(5), 2), n_test_classes=5, n_val_samples=1, seed=0)

    def test_too_many_val_samples(self):
        with pytest.raises(ConfigError):
            split_indices(np.repeat(np.arange(5), 2), n_test_classes=1, n_val_samples=8, seed=0)


class TestPersistence:
    def _manifest(self, data, tmp):
        return DatasetManifest(
            splits={"train": "train.bin", "val": "val.bin", "test": "test.bin"},
            channels=data.eeg.shape[1],
            timesteps=data.eeg.shape[2],
            height=data.images.shape[2],
            width=data.images.shape[3],
            n_classes=int(data.class_ids.max()) + 1,
            seed=4,
        )

    def test_round_trip_bitwise(self, tmp_path):
        data = generate_synthetic(seed=4, n_classes=6, per_class=4, channels=5, timesteps=7, height=16)
        splits = zero_shot_split(data, n_test_classes=2, n_val_samples=4, seed=0)
        manifest = self._manifest(data, tmp_path)
        save_dataset(manifest, splits, str(tmp_path))
        back = load_dataset(str(tmp_path))
        assert back.channels == 5 and back.timesteps == 7
        for name in ("train", "val", "test"):
            loaded = load_split(back, name)
            assert loaded.eeg.tobytes() == splits[name].eeg.tobytes()
            assert loaded.images.tobytes() == splits[name].images.tobytes()
            np.testing.assert_array_equal(loaded.ids, splits[name].ids)
            np.testing.assert_array_equal(loaded.class_ids, splits[name].class_ids)

    def test_files_match_the_recorded_digests(self, tmp_path):
        # pins the on-disk format: the manifest's text and each split's records
        data = generate_synthetic(seed=4, n_classes=4, per_class=3, channels=3, timesteps=5, height=16)
        save_dataset(self._manifest(data, tmp_path), zero_shot_split(data, 1, 2, seed=0), str(tmp_path))
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in sorted(os.listdir(tmp_path))}
        assert digests == {
            "manifest.json": "2af37716cc44fedf075f6c8b67aede5014acaa51be2262958abecb15a0a11c70",
            "test.bin": "0bade9020362936eea3c84fec479ccc9905e86241afcf3c8469c603b94b04890",
            "train.bin": "f313a3534854722cacba1c9a55ba1cd56fcc347436193a6ae4e968bb37699d9b",
            "val.bin": "eb38c9785d78eb071d146361a492f4cf2b009cca628bb55221d907917e94e160",
        }

    def test_truncated_file_reports_offset(self, tmp_path):
        data = generate_synthetic(seed=4, n_classes=4, per_class=3, channels=3, timesteps=5, height=16)
        splits = zero_shot_split(data, n_test_classes=1, n_val_samples=2, seed=0)
        manifest = self._manifest(data, tmp_path)
        save_dataset(manifest, splits, str(tmp_path))
        path = tmp_path / "train.bin"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        back = load_dataset(str(tmp_path))
        with pytest.raises(FormatError) as exc:
            load_split(back, "train")
        assert exc.value.offset is not None

    def test_shape_mismatch_rejected(self, tmp_path):
        data = generate_synthetic(seed=4, n_classes=4, per_class=3, channels=3, timesteps=5, height=16)
        splits = zero_shot_split(data, n_test_classes=1, n_val_samples=2, seed=0)
        manifest = self._manifest(data, tmp_path)
        manifest.channels = 9  # lie about geometry
        save_dataset(manifest, splits, str(tmp_path))
        back = load_dataset(str(tmp_path))
        with pytest.raises(FormatError):
            load_split(back, "train")

    def test_unknown_manifest_key_rejected(self):
        with pytest.raises(FormatError):
            DatasetManifest.from_json({"splits": {}, "channels": 1, "timesteps": 1, "height": 1,
                                       "width": 1, "n_classes": 1, "wat": 3})

    def test_manifest_from_before_repetitions_went_still_loads(self):
        manifest = DatasetManifest.from_json({"splits": {}, "channels": 1, "timesteps": 1, "height": 1,
                                              "width": 1, "n_classes": 1, "seed": 0, "repetitions": False})
        assert "repetitions" not in manifest.to_json()

    def test_repetition_axis_rejected(self):
        with pytest.raises(FormatError, match="repetitions"):
            DatasetManifest.from_json({"splits": {}, "channels": 1, "timesteps": 1, "height": 1,
                                       "width": 1, "n_classes": 1, "repetitions": True})

    @pytest.mark.parametrize("field,sample,bad", [("eeg", 2, np.nan), ("images", 0, np.inf),
                                                   ("eeg", 5, -np.inf)])
    def test_non_finite_values_rejected(self, tmp_path, field, sample, bad):
        data = generate_synthetic(seed=4, n_classes=4, per_class=3, channels=3, timesteps=5, height=16)
        splits = zero_shot_split(data, n_test_classes=1, n_val_samples=2, seed=0)
        getattr(splits["train"], field)[sample, 1, 2] = bad
        save_dataset(self._manifest(data, tmp_path), splits, str(tmp_path))
        back = load_dataset(str(tmp_path))
        what = "EEG" if field == "eeg" else "images"
        with pytest.raises(FormatError, match=f"split 'train' has non-finite {what} at sample {sample} "):
            load_split(back, "train")
        assert len(load_split(back, "val").ids) == 2

    @pytest.mark.parametrize("sample,bad,what", [(1, 1.5, "images outside [0, 1]"), (0, -0.1, "images outside [0, 1]"),
                                                  (4, np.nan, "non-finite images")], ids=["above", "below", "nan"])
    def test_out_of_range_images_rejected(self, tmp_path, sample, bad, what):
        data = generate_synthetic(seed=4, n_classes=4, per_class=3, channels=3, timesteps=5, height=16)
        splits = zero_shot_split(data, n_test_classes=1, n_val_samples=2, seed=0)
        splits["train"].images[sample, 2, 0, 1] = bad
        manifest = self._manifest(data, tmp_path)
        save_dataset(manifest, splits, str(tmp_path))
        message = f"split 'train' has {what} at sample {sample} in {tmp_path / manifest.splits['train']}"
        with pytest.raises(FormatError, match=re.escape(message) + "$"):
            load_split(load_dataset(str(tmp_path)), "train")

    @pytest.mark.parametrize("field,bad", [("ids", np.nan), ("ids", 2.5), ("class_ids", np.inf),
                                           ("class_ids", 2.0 ** 60)])
    def test_non_integer_ids_rejected(self, tmp_path, field, bad):
        data = generate_synthetic(seed=4, n_classes=4, per_class=3, channels=3, timesteps=5, height=16)
        splits = zero_shot_split(data, n_test_classes=1, n_val_samples=2, seed=0)
        manifest = self._manifest(data, tmp_path)
        save_dataset(manifest, splits, str(tmp_path))
        path = tmp_path / manifest.splits["train"]
        with open(path, "rb") as fh:
            arrays = [read_tensor(fh) for _ in range(4)]  # eeg, images, ids, class_ids
        arrays[2 if field == "ids" else 3][1] = bad
        with open(path, "wb") as fh:
            for array in arrays:
                write_tensor(fh, array)
        what = "ids" if field == "ids" else "class ids"
        with pytest.raises(FormatError, match=f"split 'train' has {what} that are not integers"):
            load_split(load_dataset(str(tmp_path)), "train")

    def test_failed_write_leaves_no_manifest(self, tmp_path, fail_write_tensor):
        data = generate_synthetic(seed=4, n_classes=4, per_class=3, channels=3, timesteps=5, height=16)
        splits = zero_shot_split(data, n_test_classes=1, n_val_samples=2, seed=0)
        fail_write_tensor(bundle_module, 5)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(self._manifest(data, tmp_path), splits, str(tmp_path / "out"))
        assert os.listdir(tmp_path / "out") == []

    def test_failed_overwrite_keeps_the_old_dataset(self, tmp_path, fail_write_tensor):
        old = generate_synthetic(seed=4, n_classes=4, per_class=3, channels=3, timesteps=5, height=16)
        old_splits = zero_shot_split(old, n_test_classes=1, n_val_samples=2, seed=0)
        save_dataset(self._manifest(old, tmp_path), old_splits, str(tmp_path))
        new = generate_synthetic(seed=5, n_classes=4, per_class=3, channels=3, timesteps=6, height=16)
        fail_write_tensor(bundle_module, 9)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(self._manifest(new, tmp_path), zero_shot_split(new, 1, 2, seed=0), str(tmp_path))
        back = load_dataset(str(tmp_path))
        assert back.timesteps == 5
        for name in ("train", "val", "test"):
            assert load_split(back, name).eeg.tobytes() == old_splits[name].eeg.tobytes()
        assert sorted(os.listdir(tmp_path)) == ["manifest.json", "test.bin", "train.bin", "val.bin"]

    def test_missing_split_name(self, tmp_path):
        data = generate_synthetic(seed=4, n_classes=4, per_class=3, channels=3, timesteps=5, height=16)
        splits = zero_shot_split(data, n_test_classes=1, n_val_samples=2, seed=0)
        manifest = self._manifest(data, tmp_path)
        save_dataset(manifest, splits, str(tmp_path))
        back = load_dataset(str(tmp_path))
        with pytest.raises(ConfigError):
            load_split(back, "extra")


class TestBatchesAndMasks:
    def test_make_batch(self):
        data = generate_synthetic(seed=4, n_classes=3, per_class=2, channels=3, timesteps=5, height=16)
        batch = make_batch(data, [0, 3, 5])
        assert len(batch) == 3
        assert batch.eeg.data.tobytes() == data.eeg[[0, 3, 5]].tobytes()

    @pytest.mark.parametrize("a,b", [(0, 6), (1, 4), (5, 6), (2, 2)])
    def test_slice_batch_is_a_view_equal_to_the_index_batch(self, a, b):
        data = generate_synthetic(seed=4, n_classes=3, per_class=2, channels=3, timesteps=5, height=16)
        view, copy = make_batch(data, slice(a, b)), make_batch(data, np.arange(a, b))
        for got, want, source in ((view.eeg, copy.eeg, data.eeg), (view.images, copy.images, data.images)):
            assert got.shape == want.shape and got.data.tobytes() == want.data.tobytes()
            assert got.data.base is source and want.data.base is not source

    def test_channel_mask_and_window(self):
        data = generate_synthetic(seed=4, n_classes=3, per_class=2, channels=6, timesteps=10, height=16)
        out = apply_masks(data, channel_mask=[0, 2, 5], time_window=[2, 7])
        assert out.eeg.shape == (6, 3, 5)
        np.testing.assert_array_equal(out.eeg, data.eeg[:, [0, 2, 5], 2:7])

    def test_bad_mask_rejected(self):
        data = generate_synthetic(seed=4, n_classes=3, per_class=2, channels=6, timesteps=10, height=16)
        with pytest.raises(ConfigError):
            apply_masks(data, channel_mask=[0, 9])
        with pytest.raises(ConfigError, match="channel mask"):
            apply_masks(data, channel_mask=[0, 10**20])  # beyond int64
        with pytest.raises(ConfigError):
            apply_masks(data, time_window=[5, 50])
