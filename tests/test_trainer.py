"""Optimizer, training loop, checkpointing, zero-shot evaluation."""
import hashlib
import json
import math
import os

import numpy as np
import pytest

from eegalign.config import config_to_dict, default_config
from eegalign.data import generate_synthetic, make_batch, zero_shot_split
from eegalign.errors import ConfigError, ContractError, FormatError
from eegalign.metrics import retrieval_ranks
from eegalign.model import AlignmentModel
from eegalign.tensor import Parameter, l2_normalize
from eegalign.trainer import (
    Adam,
    Checkpoint,
    _batch_indices,
    _batch_slices,
    clip_gradients,
    embed_split,
    evaluate_zero_shot,
    fit,
    load_checkpoint,
    parameter_digest,
    save_checkpoint,
    snapshot_values,
    train_step,
    validation_loss,
)
import eegalign.bundle as bundle_module
import eegalign.tensor as tensor_module
import eegalign.trainer as trainer_module


def tiny_config(epochs=1, seed=0, batch_size=8):
    cfg = default_config()
    cfg.encoder.dim = 16
    cfg.backbone.dim = 16
    cfg.backbone.layers = 1
    cfg.backbone.heads = 2
    cfg.backbone.patch = 8
    cfg.backbone.prompts = 2
    cfg.trainer.epochs = epochs
    cfg.trainer.seed = seed
    cfg.trainer.batch_size = batch_size
    return cfg


def tiny_model(epochs=1, seed=0, batch_size=8):
    cfg = tiny_config(epochs=epochs, seed=seed, batch_size=batch_size)
    return AlignmentModel(cfg, channels=4, timesteps=12, image_size=16)


def tiny_splits(seed=0, noise=0.2):
    data = generate_synthetic(seed=seed, n_classes=5, per_class=6, channels=4,
                              timesteps=12, height=16, noise=noise)
    return zero_shot_split(data, n_test_classes=1, n_val_samples=6, seed=seed)


def snapshot_checkpoint(cfg, values):
    """An untrained checkpoint of ``tiny_model``'s geometry holding ``values``."""
    return Checkpoint(config=cfg, channels=4, timesteps=12, image_size=16, epoch=0,
                      val_loss=math.nan, train_class_ids=[], values=values)


def scalar_param(value, name="w"):
    return Parameter(name, value)


class TestAdam:
    def test_no_gradient_means_no_change(self):
        p = scalar_param([1.0, 2.0])
        opt = Adam([p], lr=0.1)
        before = p.data.copy()
        opt.step()
        assert np.array_equal(p.data, before)

    def test_step_moves_against_gradient_sign(self):
        p = scalar_param(0.5)
        opt = Adam([p], lr=0.1)
        p.grad = np.asarray(3.0)
        opt.step()
        assert p.data < 0.5
        q = scalar_param(0.5)
        opt = Adam([q], lr=0.1)
        q.grad = np.asarray(-3.0)
        opt.step()
        assert q.data > 0.5

    def test_first_step_matches_bias_corrected_formula(self):
        p = scalar_param(1.0)
        opt = Adam([p], lr=0.01)
        g = 2.5
        p.grad = np.asarray(g)
        opt.step()
        expected = 1.0 - 0.01 * g / (np.sqrt(g * g) + 1e-8)
        assert p.data == pytest.approx(expected, abs=1e-15)

    def test_matches_the_out_of_place_formula_bitwise(self, kernel_path):
        rng = np.random.default_rng(40)
        shapes = [(6, 5), (5,), (), (3, 2, 2)]
        # values far below the step size, so a last-bit change in the step survives the subtraction
        params = [Parameter(f"p{i}", 1e-4 * rng.normal(size=s)) for i, s in enumerate(shapes)]
        values = [p.data.copy() for p in params]
        m = [np.zeros_like(x) for x in values]
        v = [np.zeros_like(x) for x in values]
        opt = Adam(params, lr=0.003)
        for t in range(1, 6):
            for i, p in enumerate(params):
                # parameter 1 has no gradient on step 3
                p.grad = None if (i, t) == (1, 3) else rng.normal(size=shapes[i])
            before = [(p.data.copy(), opt.m[i].copy(), opt.v[i].copy()) for i, p in enumerate(params)]
            opt.step()
            for i, p in enumerate(params):
                g = p.grad
                if g is None:
                    assert all(np.array_equal(a, b) for a, b in zip(before[i], (p.data, opt.m[i], opt.v[i])))
                    continue
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * g * g
                m_hat = m[i] / (1.0 - 0.9 ** t)
                v_hat = v[i] / (1.0 - 0.999 ** t)
                values[i] -= 0.003 * m_hat / (np.sqrt(v_hat) + 1e-8)
            for i, p in enumerate(params):
                assert np.array_equal(p.data, values[i]), (t, i)
                assert np.array_equal(opt.m[i], m[i]) and np.array_equal(opt.v[i], v[i]), (t, i)

    def test_zero_learning_rate_is_inert(self, kernel_path):
        p = scalar_param([4.0, -1.0])
        opt = Adam([p], lr=0.0)
        p.grad = np.asarray([1.0, 2.0])
        opt.step()
        assert np.array_equal(p.data, np.asarray([4.0, -1.0]))

    def test_frozen_parameter_rejected(self):
        frozen = Parameter("backbone.w", np.zeros(2), frozen=True)
        with pytest.raises(ContractError, match="frozen"):
            Adam([frozen], lr=0.1)

    def test_zero_grads_clears(self):
        p = scalar_param(1.0)
        p.grad = np.asarray(5.0)
        Adam([p], lr=0.1).zero_grads()
        assert p.grad is None


class PerParameterAdam:
    """Adam's update one parameter at a time, over whole arrays, without any shared buffer."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = list(params), lr, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def zero_grads(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        m_scale, v_scale = 1.0 - 0.9 ** self.t, 1.0 - 0.999 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            work, denom = np.empty(g.shape), np.empty(g.shape)
            np.multiply(m, 0.9, out=m)
            np.multiply(g, 1.0 - 0.9, out=work)
            np.add(m, work, out=m)
            np.multiply(v, 0.999, out=v)
            np.multiply(g, 1.0 - 0.999, out=work)
            np.multiply(work, g, out=work)
            np.add(v, work, out=v)
            np.divide(m, m_scale, out=work)
            np.multiply(work, self.lr, out=work)
            np.divide(v, v_scale, out=denom)
            np.sqrt(denom, out=denom)
            np.add(denom, 1e-8, out=denom)
            np.divide(work, denom, out=work)
            np.subtract(p.data, work, out=p.data)


def group_buffer(params):
    """The one array every value of an optimizer group is a view of."""
    bases = {id(p.data.base): p.data.base for p in params}
    assert len(bases) == 1
    (base,) = bases.values()
    assert base is not None and base.ndim == 1 and base.size == sum(p.data.size for p in params)
    return base


class TestFlatAdam:
    def test_values_are_views_of_one_buffer_per_group(self):
        model = tiny_model()
        opt_a, opt_b = Adam(model.group("A"), 0.002), Adam(model.group("B"), 0.02)
        buffers = {g: group_buffer(model.group(g)) for g in "AB"}
        assert not np.shares_memory(buffers["A"], buffers["B"])
        before = snapshot_values(model)
        train_step(model, make_batch(tiny_splits()["train"], np.arange(8)), opt_a, opt_b)
        for g, buffer in buffers.items():
            assert group_buffer(model.group(g)) is buffer
            assert np.array_equal(buffer, np.concatenate([p.data.ravel() for p in model.group(g)]))
        assert all(not np.array_equal(p.data, before[p.name]) for p in model.trainable_parameters())

    def test_snapshot_and_restore_round_trip_through_the_views(self):
        model = tiny_model()
        opt_a, opt_b = Adam(model.group("A"), 0.002), Adam(model.group("B"), 0.02)
        buffer = group_buffer(model.group("B"))
        saved = snapshot_values(model)
        assert not any(np.shares_memory(saved[p.name], buffer) for p in model.group("B"))
        train_step(model, make_batch(tiny_splits()["train"], np.arange(8)), opt_a, opt_b)
        restored = snapshot_checkpoint(model.cfg, saved).build_model()
        assert all(np.array_equal(p.data, saved[p.name]) for p in restored.parameters())
        assert parameter_digest(restored.parameters()) == parameter_digest(tiny_model().parameters())

    def test_a_second_optimizer_keeps_every_value(self):
        model = tiny_model()
        batch = make_batch(tiny_splits()["train"], np.arange(8))
        train_step(model, batch, Adam(model.group("A"), 0.002), Adam(model.group("B"), 0.02))
        before = parameter_digest(model.parameters())
        first = group_buffer(model.group("A"))
        Adam(model.group("A"), 0.002), Adam(model.group("B"), 0.02)
        assert parameter_digest(model.parameters()) == before
        assert group_buffer(model.group("A")) is not first

    def test_runs_around_a_dropped_parameter_match_the_per_parameter_update_bitwise(self, kernel_path):
        train = tiny_splits()["train"]
        models = [tiny_model(seed=3) for _ in range(2)]
        optimizers = []
        for model, kind in zip(models, (Adam, PerParameterAdam)):
            # a parameter in the middle of group B gets no gradient, so its neighbours form two runs
            model.group("B")[5].requires_grad = False
            optimizers.append((kind(model.group("A"), 0.002), kind(model.group("B"), 0.02)))
        rng = np.random.default_rng(5)
        for _ in range(5):
            batch = make_batch(train, rng.choice(len(train.ids), size=8, replace=False))
            for model, (opt_a, opt_b) in zip(models, optimizers):
                train_step(model, batch, opt_a, opt_b)
        assert parameter_digest(models[0].parameters()) == parameter_digest(models[1].parameters())
        for flat, plain in zip(optimizers[0], optimizers[1]):
            for i in range(len(flat.params)):
                assert np.array_equal(flat.m[i], plain.m[i]) and np.array_equal(flat.v[i], plain.v[i])
        dropped = optimizers[0][1]
        assert not dropped.m[5].any() and not dropped.v[5].any()
        assert np.array_equal(models[0].group("B")[5].data, tiny_model(seed=3).group("B")[5].data)


    @pytest.mark.parametrize("lr", [0.003, 0.0])
    def test_a_long_run_matches_the_per_parameter_update_bitwise(self, lr, kernel_path):
        rng = np.random.default_rng(6)
        sizes = [65541, 3, 32767]
        pairs = [[Parameter(f"p{i}", 1e-4 * rng.normal(size=n)) for i, n in enumerate(sizes)] for _ in "ab"]
        for p, q in zip(*pairs):
            q.data = p.data.copy()
        start = [p.data.copy() for p in pairs[0]]
        flat, plain = Adam(pairs[0], lr), PerParameterAdam(pairs[1], lr)
        for _ in range(3):
            for p, q in zip(*pairs):
                # gradients across the exponent range, so some squares and moments are subnormal
                p.grad = rng.normal(size=p.shape) * 10.0 ** rng.uniform(-170, 20, size=p.shape)
                q.grad = p.grad.copy()
            flat.step()
            plain.step()
        for i, (p, q) in enumerate(zip(*pairs)):
            assert p.data.tobytes() == q.data.tobytes()
            assert flat.m[i].tobytes() == plain.m[i].tobytes() and flat.v[i].tobytes() == plain.v[i].tobytes()
        assert lr or all(np.array_equal(p.data, value) for p, value in zip(pairs[0], start))


class TestClipGradients:
    def test_large_norm_scaled_down(self):
        p = scalar_param([3.0, 4.0])
        p.grad = np.asarray([3.0, 4.0])
        returned = clip_gradients([p], max_norm=1.0)
        assert returned == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, abs=1e-12)

    def test_small_norm_untouched(self):
        p = scalar_param([0.3, 0.4])
        p.grad = np.asarray([0.3, 0.4])
        clip_gradients([p], max_norm=1.0)
        assert np.array_equal(p.grad, np.asarray([0.3, 0.4]))


class TestParameterDigest:
    def test_stable_for_identical_values(self):
        a = tiny_model(seed=1)
        b = tiny_model(seed=1)
        assert parameter_digest(a.parameters()) == parameter_digest(b.parameters())

    def test_changes_when_a_value_changes(self):
        model = tiny_model(seed=1)
        before = parameter_digest(model.parameters())
        model.prompts.data[0, 0] += 1e-9
        assert parameter_digest(model.parameters()) != before


class TestTrainStep:
    def test_zero_learning_rates_leave_parameters_unchanged(self):
        model = tiny_model()
        batch = make_batch(tiny_splits()["train"], np.arange(8))
        before = parameter_digest(model.parameters())
        opt_a = Adam(model.group("A"), lr=0.0)
        opt_b = Adam(model.group("B"), lr=0.0)
        parts = train_step(model, batch, opt_a, opt_b)
        assert np.isfinite(parts["l_total"])
        assert parameter_digest(model.parameters()) == before

    def test_frozen_digest_survives_a_real_step(self):
        model = tiny_model()
        batch = make_batch(tiny_splits()["train"], np.arange(8))
        frozen = [p for p in model.parameters() if p.frozen]
        frozen_before = parameter_digest(frozen)
        train_step(model, batch, Adam(model.group("A"), 0.002), Adam(model.group("B"), 0.02))
        assert parameter_digest(frozen) == frozen_before

    def test_every_trainable_changes_within_twenty_steps(self):
        model = tiny_model()
        train = tiny_splits()["train"]
        before = snapshot_values(model)
        opt_a = Adam(model.group("A"), 0.002)
        opt_b = Adam(model.group("B"), 0.02)
        rng = np.random.default_rng(0)
        for _ in range(20):
            idx = rng.choice(len(train.ids), size=8, replace=False)
            train_step(model, make_batch(train, idx), opt_a, opt_b)
        for p in model.trainable_parameters():
            assert not np.array_equal(p.data, before[p.name]), p.name
        for p in model.parameters():
            if p.frozen:
                assert np.array_equal(p.data, before[p.name]), p.name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_component_name(self):
        model = tiny_model()
        model.perturb.gain.data[:] = np.inf
        batch = make_batch(tiny_splits()["train"], np.arange(8))
        with pytest.raises(ContractError, match="l_"):
            train_step(model, batch, Adam(model.group("A"), 0.002), Adam(model.group("B"), 0.02))

    def test_descent_on_noise_free_two_class_set(self):
        # 50 steps on a fixed noise-free batch must beat the initial loss
        data = generate_synthetic(seed=4, n_classes=2, per_class=8, channels=4,
                                  timesteps=12, height=16, noise=0.0)
        model = tiny_model(seed=4, batch_size=16)
        batch = make_batch(data, np.arange(16))
        opt_a = Adam(model.group("A"), 0.002)
        opt_b = Adam(model.group("B"), 0.02)
        first = train_step(model, batch, opt_a, opt_b)["l_total"]
        for _ in range(49):
            last = train_step(model, batch, opt_a, opt_b)["l_total"]
        assert last < first

    def test_clip_norm_flag_changes_the_update(self):
        splits = tiny_splits()
        batch = make_batch(splits["train"], np.arange(8))
        digests = []
        for clip in (None, 1e-3):
            model = tiny_model(seed=9)
            train_step(model, batch, Adam(model.group("A"), 0.002),
                       Adam(model.group("B"), 0.02), clip_norm=clip)
            digests.append(parameter_digest(model.parameters()))
        assert digests[0] != digests[1]


class TestBatchIndices:
    def test_tail_of_one_dropped(self):
        assert _batch_slices(9, 4) == [slice(0, 4), slice(4, 8)]

    def test_exact_multiple_keeps_all(self):
        assert _batch_slices(8, 4) == [slice(0, 4), slice(4, 8)]

    def test_small_tail_of_two_kept(self):
        assert [len(range(10)[rows]) for rows in _batch_slices(10, 4)] == [4, 4, 2]

    def test_shuffled_tail_of_one_dropped(self):
        batches = _batch_indices(9, 4, rng=np.random.default_rng(0))
        assert [len(b) for b in batches] == [4, 4]

    def test_shuffle_covers_every_index(self):
        batches = _batch_indices(12, 5, rng=np.random.default_rng(0))
        seen = np.sort(np.concatenate(batches))
        assert np.array_equal(seen, np.arange(12))


class TestValidationLoss:
    def test_deterministic(self):
        model = tiny_model()
        val = tiny_splits()["val"]
        assert validation_loss(model, val, 8) == validation_loss(model, val, 8)

    def test_too_small_split_rejected(self):
        model = tiny_model()
        val = tiny_splits()["val"].take([0])
        with pytest.raises(ConfigError, match="fewer than 2"):
            validation_loss(model, val, 8)

    def test_matches_a_taped_forward_bitwise(self):
        model = tiny_model()
        val = tiny_splits()["val"]
        taped = []
        for rows in _batch_slices(len(val.ids), 4):
            total, _ = model.batch_loss(make_batch(val, rows))
            assert total.requires_grad
            taped.append(total.item())
        assert validation_loss(model, val, 4) == float(np.mean(taped))

    def test_batches_are_views_of_the_split(self, monkeypatch):
        val = tiny_splits()["val"]
        batches = []

        def spy(split, rows):
            batches.append(make_batch(split, rows))
            return batches[-1]

        monkeypatch.setattr(trainer_module, "make_batch", spy)
        validation_loss(tiny_model(), val, 4)
        assert sum(b.eeg.shape[0] for b in batches) >= len(val.ids) - 1
        assert all(np.shares_memory(b.eeg.data, val.eeg) and np.shares_memory(b.images.data, val.images)
                   for b in batches)

    def test_records_no_tape(self, monkeypatch):
        model = tiny_model()
        losses = []
        original = model.batch_loss

        def spy(batch):
            total, parts = original(batch)
            losses.append(total)
            return total, parts

        monkeypatch.setattr(model, "batch_loss", spy)
        validation_loss(model, tiny_splits()["val"], 4)
        assert losses and all(t._vjp is None and not t._parents for t in losses)


class TestVJPGatingOnTheModel:
    def test_unfrozen_trunk_leaves_trainable_gradients_bitwise(self):
        batch = make_batch(tiny_splits()["train"], np.arange(8))

        def gradients(unfreeze):
            model = tiny_model()
            frozen = [p for p in model.parameters() if p.frozen]
            if unfreeze:
                for p in frozen:
                    p.requires_grad = True
            total, _ = model.batch_loss(batch)
            total.backward()
            frozen_grads = [p.grad for p in frozen]
            return {p.name: p.grad for p in model.trainable_parameters()}, frozen_grads

        gated, untouched = gradients(unfreeze=False)
        full, computed = gradients(unfreeze=True)
        assert all(g is None for g in untouched)
        assert all(g is not None for g in computed)
        assert gated.keys() == full.keys()
        for name, grad in gated.items():
            assert grad is not None, name
            assert grad.tobytes() == full[name].tobytes(), name


class TestFit:
    def test_zero_epochs_returns_initial_state(self):
        splits = tiny_splits()
        model = tiny_model(epochs=0, seed=2)
        fresh_digest = parameter_digest(tiny_model(epochs=0, seed=2).parameters())
        ckpt, history = fit(model, splits["train"], splits["val"])
        assert ckpt.epoch == 0
        assert len(history) == 1
        restored = ckpt.build_model()
        assert parameter_digest(restored.parameters()) == fresh_digest

    def test_monotone_val_curve_selects_final_epoch(self, monkeypatch):
        splits = tiny_splits()
        losses = iter([4.0, 3.0, 2.0, 1.0])
        monkeypatch.setattr(trainer_module, "validation_loss",
                            lambda model, val, batch_size: next(losses))
        model = tiny_model(epochs=3)
        ckpt, history = fit(model, splits["train"], splits["val"])
        assert ckpt.epoch == 3
        assert ckpt.val_loss == 1.0
        assert [h["val_loss"] for h in history] == [4.0, 3.0, 2.0, 1.0]

    def test_same_seed_same_checkpoint_hash(self):
        splits = tiny_splits()
        digests = []
        for _ in range(2):
            model = tiny_model(epochs=2, seed=5)
            ckpt, _ = fit(model, splits["train"], splits["val"])
            digests.append(parameter_digest(ckpt.build_model().parameters()))
        assert digests[0] == digests[1]

    def test_history_rows_carry_loss_breakdown(self):
        splits = tiny_splits()
        rows = []
        model = tiny_model(epochs=2)
        _, history = fit(model, splits["train"], splits["val"], progress=rows.append)
        assert rows == history
        assert set(rows[0]) == {"epoch", "val_loss"}
        for row in rows[1:]:
            assert set(row) == {"epoch", "l_clip", "l_soft", "l_rel", "l_total", "val_loss"}

    def test_best_checkpoint_beats_or_ties_every_epoch(self):
        splits = tiny_splits()
        model = tiny_model(epochs=3)
        ckpt, history = fit(model, splits["train"], splits["val"])
        assert ckpt.val_loss == min(h["val_loss"] for h in history)

    def test_checkpoint_records_training_classes(self):
        splits = tiny_splits()
        model = tiny_model(epochs=0)
        ckpt, _ = fit(model, splits["train"], splits["val"])
        seen = set(splits["train"].class_ids) | set(splits["val"].class_ids)
        assert ckpt.train_class_ids == sorted(int(c) for c in seen)


class TestCheckpointIO:
    def make_checkpoint(self):
        splits = tiny_splits()
        model = tiny_model(epochs=1, seed=3)
        ckpt, _ = fit(model, splits["train"], splits["val"])
        return ckpt, splits

    def test_round_trip_preserves_values(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        save_checkpoint(ckpt, tmp_path / "run")
        again = load_checkpoint(tmp_path / "run")
        assert again.epoch == ckpt.epoch
        assert again.val_loss == ckpt.val_loss
        assert again.train_class_ids == ckpt.train_class_ids
        assert config_to_dict(again.config) == config_to_dict(ckpt.config)
        assert set(again.values) == set(ckpt.values)
        for name in ckpt.values:
            assert np.array_equal(again.values[name], ckpt.values[name]), name

    def test_checkpoint_without_loss_or_classes_round_trips_bitwise(self, tmp_path):
        # what the retrieve benchmark saves: an untrained model, val_loss NaN, no training classes
        model = tiny_model()
        ckpt = Checkpoint(config=model.cfg, channels=4, timesteps=12, image_size=16, epoch=0,
                          val_loss=math.nan, train_class_ids=[], values=snapshot_values(model))
        save_checkpoint(ckpt, tmp_path / "run")
        again = load_checkpoint(tmp_path / "run")
        assert math.isnan(again.val_loss) and again.train_class_ids == [] and again.epoch == 0
        assert config_to_dict(again.config) == config_to_dict(ckpt.config)
        assert list(again.values) == list(ckpt.values)
        for name, value in ckpt.values.items():
            assert again.values[name].shape == value.shape
            assert again.values[name].tobytes() == value.tobytes(), name

    def test_files_match_the_recorded_digests(self, tmp_path):
        # pins the on-disk format: the manifest's text and the params.bin records
        values = {"prompts": np.arange(6.0).reshape(2, 3) / 7, "tau": np.asarray(-0.5), "empty": np.zeros((0, 4))}
        save_checkpoint(Checkpoint(config=tiny_config(), channels=4, timesteps=12, image_size=16, epoch=0,
                                   val_loss=math.nan, train_class_ids=[], values=values), tmp_path)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in sorted(os.listdir(tmp_path))}
        assert digests == {
            "manifest.json": "f891fbbf3a627ce97b948838ac3d53637a90cf0e7c2574a9014401b6a319289f",
            "params.bin": "29674bc4239c9b00f705cac24cc9ce8213ad73c15a9d90da6468c95a38c39a40",
        }

    def test_reload_reproduces_validation_loss(self, tmp_path):
        ckpt, splits = self.make_checkpoint()
        save_checkpoint(ckpt, tmp_path / "run")
        restored = load_checkpoint(tmp_path / "run").build_model()
        reloaded = validation_loss(restored, splits["val"], 8)
        assert abs(reloaded - ckpt.val_loss) < 1e-9

    def test_config_naming_the_encoder_kind_still_loads(self, tmp_path):
        # checkpoints written while encoder.kind was a field hold "kind": "linear"
        ckpt, splits = self.make_checkpoint()
        save_checkpoint(ckpt, tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["encoder"]["kind"] = "linear"
        path.write_text(json.dumps(manifest))
        restored = load_checkpoint(tmp_path / "run").build_model()
        assert abs(validation_loss(restored, splits["val"], 8) - ckpt.val_loss) < 1e-9
        assert evaluate_zero_shot(restored, splits["test"], ks=[1])[0].top_k[1] >= 0.0

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError, match="manifest"):
            load_checkpoint(tmp_path / "nowhere")

    def test_failed_write_leaves_no_manifest(self, tmp_path, fail_write_tensor):
        ckpt, _ = self.make_checkpoint()
        fail_write_tensor(bundle_module, 3)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(ckpt, tmp_path / "run")
        assert os.listdir(tmp_path / "run") == []

    def test_failed_overwrite_keeps_the_old_checkpoint(self, tmp_path, fail_write_tensor):
        ckpt, _ = self.make_checkpoint()
        save_checkpoint(ckpt, tmp_path / "run")
        old = parameter_digest(load_checkpoint(tmp_path / "run").build_model().parameters())
        old_loss = ckpt.val_loss
        ckpt.values = {name: v + 1.0 for name, v in ckpt.values.items()}
        ckpt.val_loss += 1.0
        fail_write_tensor(bundle_module, 3)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(ckpt, tmp_path / "run")
        again = load_checkpoint(tmp_path / "run")
        assert parameter_digest(again.build_model().parameters()) == old
        assert again.val_loss == old_loss
        assert sorted(os.listdir(tmp_path / "run")) == ["manifest.json", "params.bin"]

    def test_bad_format_version(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        save_checkpoint(ckpt, tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="format"):
            load_checkpoint(tmp_path / "run")

    def test_missing_params_file(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        save_checkpoint(ckpt, tmp_path / "run")
        os.remove(tmp_path / "run" / "params.bin")
        with pytest.raises(FormatError) as exc:
            load_checkpoint(tmp_path / "run")
        assert str(tmp_path / "run" / "params.bin") in str(exc.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        save_checkpoint(ckpt, tmp_path / "run")
        with open(tmp_path / "run" / "params.bin", "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(tmp_path / "run")

    def test_shape_mismatch_on_restore(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        ckpt.values["prompts"] = np.zeros((1, 1))
        with pytest.raises(FormatError, match="shape"):
            ckpt.build_model()

    def test_missing_parameter_refused(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        del ckpt.values["projection.bias"]
        save_checkpoint(ckpt, tmp_path / "run")
        again = load_checkpoint(tmp_path / "run")
        with pytest.raises(FormatError, match=r"^checkpoint is missing parameter projection\.bias$"):
            again.build_model()

    @pytest.mark.parametrize("key,value", [("channels", -3), ("timesteps", -8), ("image_size", 0)])
    def test_geometry_below_one_refused(self, tmp_path, key, value):
        save_checkpoint(snapshot_checkpoint(tiny_config(), snapshot_values(tiny_model())), tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["geometry"][key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=rf"checkpoint geometry\.{key} must be >= 1, got {value}$") as exc:
            load_checkpoint(tmp_path / "run")
        assert str(path) in str(exc.value)

    def test_geometry_that_disagrees_with_the_values_refused_before_any_parameter(self, monkeypatch):
        ckpt = snapshot_checkpoint(tiny_config(), snapshot_values(tiny_model()))
        ckpt.channels += 1
        made = []
        monkeypatch.setattr(tensor_module.Parameter, "__init__", lambda self, name, *rest: made.append(name))
        with pytest.raises(FormatError, match=r"^checkpoint parameter perturb\.gain has shape \(4, 12\), "
                                              r"model expects \(5, 12\)$"):
            ckpt.build_model()
        assert made == []

    def test_parameter_the_model_lacks_refused(self, tmp_path):
        ckpt, _ = self.make_checkpoint()
        ckpt.values["ghost.weight"] = np.zeros(3)
        save_checkpoint(ckpt, tmp_path / "run")
        again = load_checkpoint(tmp_path / "run")
        with pytest.raises(FormatError, match=r"parameter ghost\.weight is not in the model"):
            again.build_model()

    def test_parameter_listed_twice_refused(self, tmp_path):
        # a second tensor under one name must not silently replace the first
        ckpt, _ = self.make_checkpoint()
        save_checkpoint(ckpt, tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["parameters"].append("perturb.gain")
        path.write_text(json.dumps(manifest))
        with open(tmp_path / "run" / "params.bin", "ab") as fh:
            bundle_module.write_tensor(fh, ckpt.values["perturb.gain"] + 1.0)
        with pytest.raises(FormatError, match=r"lists parameter perturb\.gain more than once") as exc:
            load_checkpoint(tmp_path / "run")
        assert str(path) in str(exc.value)


class TestBuildModel:
    """A checkpoint's model is built in one pass from its values: no generator, no second write."""

    def test_builds_while_no_generator_can_be_made(self, monkeypatch):
        model = tiny_model(seed=4)
        ckpt = snapshot_checkpoint(model.cfg, snapshot_values(model))

        def refuse(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert parameter_digest(ckpt.build_model().parameters()) == parameter_digest(model.parameters())

    @pytest.mark.parametrize("strategy", ["catf", "bilinear"])
    def test_values_are_bitwise_copies_of_the_checkpoint(self, strategy):
        cfg = tiny_config(seed=5)
        cfg.fusion.strategy = strategy
        rng = np.random.default_rng(6)
        values = {name: rng.normal(size=value.shape)
                  for name, value in snapshot_values(AlignmentModel(cfg, 4, 12, 16)).items()}
        ckpt = snapshot_checkpoint(cfg, values)
        params = ckpt.build_model().parameters()
        assert [p.name for p in params] == list(values)
        for p in params:
            assert p.data.tobytes() == values[p.name].tobytes(), p.name
            assert not any(np.shares_memory(p.data, stored) for stored in ckpt.values.values()), p.name


class TestEvaluateZeroShot:
    def test_class_overlap_rejected(self):
        splits = tiny_splits()
        model = tiny_model()
        train_classes = [int(c) for c in set(splits["train"].class_ids)]
        with pytest.raises(ContractError, match="overlap"):
            evaluate_zero_shot(model, splits["train"], ks=[1], train_class_ids=train_classes)

    def test_exhaustive_k_is_perfect(self):
        data = generate_synthetic(seed=7, n_classes=10, per_class=1, channels=4,
                                  timesteps=12, height=16, noise=0.1)
        model = tiny_model()
        report, sim = evaluate_zero_shot(model, data, ks=[10])
        assert report.top_k[10] == 1.0
        assert len(report.ranks) == 10 and sim.shape == (10, 10)
        assert np.array_equal(report.ranks, retrieval_ranks(sim))

    def test_untrained_accuracy_near_chance(self):
        # mean over 12 fresh models on 10 queries should hover near 1/10
        data = generate_synthetic(seed=8, n_classes=10, per_class=1, channels=4,
                                  timesteps=12, height=16, noise=0.1)
        accs = []
        for seed in range(12):
            model = tiny_model(seed=seed)
            accs.append(evaluate_zero_shot(model, data, ks=[1])[0].top_k[1])
        assert 0.0 <= np.mean(accs) <= 0.3

    def test_embed_split_matches_forward(self):
        splits = tiny_splits()
        model = tiny_model()
        z_e, z_i = embed_split(model, splits["val"], batch_size=4)
        batch = make_batch(splits["val"], np.arange(len(splits["val"].ids)))
        ze_ref, zi_ref = model.forward(batch)
        assert np.allclose(z_e, l2_normalize(ze_ref).data, atol=1e-12)
        assert np.allclose(z_i, l2_normalize(zi_ref).data, atol=1e-12)
        assert np.allclose(np.linalg.norm(z_e, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(z_i, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("batch_size", [4, 5, 6, 32])
    def test_embed_split_calls_make_batch_once_per_batch(self, monkeypatch, batch_size):
        # the benchmark's retrieve workload times each batch as the span between these calls
        split = tiny_splits()["val"]
        calls = []

        def counting(*args):
            calls.append(args)
            return make_batch(*args)

        monkeypatch.setattr(trainer_module, "make_batch", counting)
        embed_split(tiny_model(), split, batch_size=batch_size)
        assert len(calls) == math.ceil(len(split.ids) / batch_size)

    def test_embed_split_matches_a_taped_forward_bitwise(self, monkeypatch):
        split = tiny_splits()["val"]
        model = tiny_model()
        taped_e, taped_i = [], []
        for start in range(0, len(split.ids), 4):
            batch = make_batch(split, np.arange(start, min(start + 4, len(split.ids))))
            z_e, z_i = (l2_normalize(z) for z in model.forward(batch))
            assert z_e.requires_grad and z_i.requires_grad
            taped_e.append(z_e.data)
            taped_i.append(z_i.data)
        outputs = []
        original = model.encode_images

        def spy(images):
            outputs.append(original(images))
            return outputs[-1]

        monkeypatch.setattr(model, "encode_images", spy)
        z_e, z_i = embed_split(model, split, batch_size=4)
        assert z_e.tobytes() == np.concatenate(taped_e).tobytes()
        assert z_i.tobytes() == np.concatenate(taped_i).tobytes()
        assert outputs and all(t._vjp is None and not t._parents for t in outputs)
