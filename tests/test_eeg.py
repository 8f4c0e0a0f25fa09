"""EEG branch: elementwise perturbation and the linear encoder."""
import numpy as np
import pytest

from eegalign.config import config_from_dict, default_config
from eegalign.eeg import LinearEncoder, Perturbation
from eegalign.errors import ConfigError
from eegalign.gradchecks import grad_check
from eegalign.model import AlignmentModel
from eegalign.tensor import Tensor


class TestPerturbation:
    def test_identity_at_init(self):
        p = Perturbation(channels=3, timesteps=5, init=np.random.default_rng(0))
        eeg = Tensor(np.random.default_rng(0).normal(size=(2, 3, 5)))
        out = p.apply(eeg)
        assert np.array_equal(out.data, eeg.data)

    def test_forced_affine_arithmetic(self):
        p = Perturbation(channels=1, timesteps=2, init=np.random.default_rng(0))
        p.gain.value.data[:] = [[2.0, 2.0]]
        p.offset.value.data[:] = [[1.0, 1.0]]
        out = p.apply(Tensor(np.array([[[1.0, 2.0]]])))
        assert np.array_equal(out.data, [[[3.0, 5.0]]])

    def test_gain_gradient_equals_input(self):
        # d sum(E*W + B) / dW = sum of E over the batch axis
        p = Perturbation(channels=2, timesteps=3, init=np.random.default_rng(0))
        eeg = Tensor(np.random.default_rng(1).normal(size=(4, 2, 3)))
        p.apply(eeg).sum().backward()
        assert np.allclose(p.gain.value.grad, eeg.data.sum(axis=0), atol=1e-12)
        assert np.allclose(p.offset.value.grad, 4.0, atol=1e-12)

    def test_parameters_in_group_a(self):
        p = Perturbation(channels=2, timesteps=2, init=np.random.default_rng(0))
        assert [q.group for q in p.params()] == ["A", "A"]
        assert [q.name for q in p.params()] == ["perturb.gain", "perturb.offset"]

    def test_grad_check(self):
        p = Perturbation(channels=2, timesteps=3, init=np.random.default_rng(0))
        eeg = Tensor(np.random.default_rng(2).normal(size=(4, 2, 3)))

        def loss():
            out = p.apply(eeg)
            return (out * out).sum()

        report = grad_check(loss, p.params())
        assert report.passed, report.summary()


class TestLinearEncoder:
    def test_constant_map_with_zero_weight(self):
        rng = np.random.default_rng(0)
        enc = LinearEncoder(channels=2, timesteps=3, dim=4, init=rng)
        enc.weight.value.data[:] = 0.0
        enc.bias.value.data[:] = [1.0, 0.0, 0.0, 0.0]
        out = enc.encode(Tensor(rng.normal(size=(5, 2, 3))))
        assert np.allclose(out.data, [[1.0, 0.0, 0.0, 0.0]] * 5, atol=1e-6)

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(3)
        enc = LinearEncoder(channels=3, timesteps=7, dim=5, init=rng)
        out = enc.encode(Tensor(rng.normal(size=(6, 3, 7))))
        assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-9)

    def test_trial_scale_output_shape(self):
        rng = np.random.default_rng(4)
        enc = LinearEncoder(channels=17, timesteps=250, dim=128, init=rng)
        out = enc.encode(Tensor(rng.normal(size=(4, 17, 250))))
        assert out.shape == (4, 128)

    def test_pre_norm_linearity(self):
        rng = np.random.default_rng(5)
        enc = LinearEncoder(channels=2, timesteps=4, dim=3, init=rng)
        enc.bias.value.data[:] = 0.0
        e1 = rng.normal(size=(3, 2, 4))
        e2 = rng.normal(size=(3, 2, 4))
        a, b = 0.7, -1.3
        mixed = enc.project(Tensor(a * e1 + b * e2)).data
        separate = a * enc.project(Tensor(e1)).data + b * enc.project(Tensor(e2)).data
        assert np.allclose(mixed, separate, atol=1e-12)

    def test_parameters_in_group_a(self):
        enc = LinearEncoder(2, 3, 4, np.random.default_rng(0))
        assert [q.group for q in enc.params()] == ["A", "A"]

    def test_grad_check_through_encode(self):
        rng = np.random.default_rng(6)
        perturb = Perturbation(channels=2, timesteps=3, init=np.random.default_rng(0))
        enc = LinearEncoder(channels=2, timesteps=3, dim=4, init=rng)
        eeg = Tensor(rng.normal(size=(4, 2, 3)))
        target = rng.normal(size=(4, 4))

        def loss():
            z = enc.encode(perturb.apply(eeg))
            diff = z - Tensor(target)
            return (diff * diff).sum()

        report = grad_check(loss, perturb.params() + enc.params())
        assert report.passed, report.summary()


class TestEncoderFactory:
    # "linear" is the only encoder kind; config rejects every other name,
    # including the six the configuration vocabulary once reserved
    def test_linear_is_built(self):
        cfg = default_config()
        cfg.encoder.dim = 4
        model = AlignmentModel(cfg, channels=2, timesteps=3, image_size=16, init=np.random.default_rng(0))
        assert isinstance(model.encoder, LinearEncoder)

    @pytest.mark.parametrize("kind", ("tsconv", "eegnet", "shallownet", "deepnet", "eegfusenet", "eegproject"))
    def test_known_names_not_implemented(self, kind):
        with pytest.raises(ConfigError, match="encoder.kind"):
            config_from_dict({"encoder": {"kind": kind}})

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="encoder.kind"):
            config_from_dict({"encoder": {"kind": "transformerxl"}})
