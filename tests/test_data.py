import os

import numpy as np
import pytest

import eegalign.data as data_module
from eegalign.data import (
    DatasetManifest,
    PairedBatch,
    apply_masks,
    generate_synthetic,
    load_dataset,
    load_split,
    make_batch,
    save_dataset,
    split_indices,
    zero_shot_split,
)
from eegalign.errors import ConfigError, DimensionError, DomainError, FormatError
from eegalign.tensor import Tensor, read_tensor, write_tensor


def _lsq_train_accuracy(eeg, class_ids):
    """Least-squares one-hot regression, evaluated on its own training set."""
    x = eeg.reshape(len(eeg), -1)
    x = np.concatenate([x, np.ones((len(x), 1))], axis=1)
    n_classes = int(class_ids.max()) + 1
    y = np.eye(n_classes)[class_ids]
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    pred = (x @ w).argmax(axis=1)
    return float((pred == class_ids).mean())


class TestGenerate:
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

    def test_height_must_match_patch(self):
        with pytest.raises(ConfigError):
            generate_synthetic(seed=0, n_classes=2, per_class=2, channels=3, timesteps=5, height=30, patch=8)

    def test_negative_noise_rejected(self):
        with pytest.raises(DomainError):
            generate_synthetic(seed=0, n_classes=2, per_class=2, channels=3, timesteps=5, height=16, noise=-0.1)

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
        fail_write_tensor(data_module, 5)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(self._manifest(data, tmp_path), splits, str(tmp_path / "out"))
        assert os.listdir(tmp_path / "out") == []

    def test_failed_overwrite_keeps_the_old_dataset(self, tmp_path, fail_write_tensor):
        old = generate_synthetic(seed=4, n_classes=4, per_class=3, channels=3, timesteps=5, height=16)
        old_splits = zero_shot_split(old, n_test_classes=1, n_val_samples=2, seed=0)
        save_dataset(self._manifest(old, tmp_path), old_splits, str(tmp_path))
        new = generate_synthetic(seed=5, n_classes=4, per_class=3, channels=3, timesteps=6, height=16)
        fail_write_tensor(data_module, 9)
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
    def test_batch_validates_pixel_range(self):
        with pytest.raises(DomainError):
            PairedBatch(
                eeg=Tensor(np.zeros((2, 3, 4))),
                images=Tensor(np.full((2, 3, 8, 8), 1.5)),
                ids=np.arange(2),
                class_ids=np.zeros(2, dtype=np.int64),
            )

    def test_batch_rejects_nan_images(self):
        images = np.full((2, 3, 8, 8), 0.5)
        images[1, 2, 3, 4] = np.nan
        with pytest.raises(DomainError, match="image values"):
            PairedBatch(
                eeg=Tensor(np.zeros((2, 3, 4))),
                images=Tensor(images),
                ids=np.arange(2),
                class_ids=np.zeros(2, dtype=np.int64),
            )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_batch_rejects_non_finite_eeg(self, bad):
        eeg = np.zeros((2, 3, 4))
        eeg[0, 1, 2] = bad
        with pytest.raises(DomainError, match="eeg values must be finite"):
            PairedBatch(
                eeg=Tensor(eeg),
                images=Tensor(np.full((2, 3, 8, 8), 0.5)),
                ids=np.arange(2),
                class_ids=np.zeros(2, dtype=np.int64),
            )

    def test_batch_validates_alignment(self):
        with pytest.raises(DimensionError):
            PairedBatch(
                eeg=Tensor(np.zeros((2, 3, 4))),
                images=Tensor(np.zeros((3, 3, 8, 8))),
                ids=np.arange(2),
                class_ids=np.zeros(2, dtype=np.int64),
            )

    def test_make_batch(self):
        data = generate_synthetic(seed=4, n_classes=3, per_class=2, channels=3, timesteps=5, height=16)
        batch = make_batch(data, [0, 3, 5])
        assert len(batch) == 3
        np.testing.assert_array_equal(batch.class_ids, data.class_ids[[0, 3, 5]])

    def test_channel_mask_and_window(self):
        data = generate_synthetic(seed=4, n_classes=3, per_class=2, channels=6, timesteps=10, height=16)
        out = apply_masks(data, channel_mask=[0, 2, 5], time_window=[2, 7])
        assert out.eeg.shape == (6, 3, 5)
        np.testing.assert_array_equal(out.eeg, data.eeg[:, [0, 2, 5], 2:7])

    def test_bad_mask_rejected(self):
        data = generate_synthetic(seed=4, n_classes=3, per_class=2, channels=6, timesteps=10, height=16)
        with pytest.raises(ConfigError):
            apply_masks(data, channel_mask=[0, 9])
        with pytest.raises(ConfigError):
            apply_masks(data, time_window=[5, 50])
