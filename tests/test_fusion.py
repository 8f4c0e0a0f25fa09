"""Gated cross-attention fusion and the bilinear pixel-mix fallback."""
import numpy as np
import pytest

from eegalign.errors import DimensionError
from eegalign.fusion import BilinearMix, CrossAttentionFusion
from eegalign.gradchecks import grad_check
from eegalign.tensor import Tensor, matmul, softmax_rows, transpose


def token_pair(seed, b=2, n=5, d=8):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(b, n, d))), Tensor(rng.normal(size=(b, n, d)))


class TestCrossAttentionFusion:
    def test_gate_forced_closed_returns_original(self):
        fusion = CrossAttentionFusion(dim=8, init=np.random.default_rng(0))
        fusion.gate_b2.value.data[:] = -np.inf
        x_orig, x_filt = token_pair(1)
        fused = fusion.fuse(x_orig, x_filt)
        assert np.array_equal(fused.data, x_orig.data)

    def test_gate_forced_open_returns_filtered(self):
        fusion = CrossAttentionFusion(dim=8, init=np.random.default_rng(0))
        fusion.gate_b2.value.data[:] = np.inf
        x_orig, x_filt = token_pair(2)
        fused = fusion.fuse(x_orig, x_filt)
        assert np.array_equal(fused.data, x_filt.data)

    def test_equal_streams_fuse_to_the_common_value(self):
        fusion = CrossAttentionFusion(dim=8, init=np.random.default_rng(3))
        x, _ = token_pair(4)
        fused = fusion.fuse(x, x)
        assert np.allclose(fused.data, x.data, atol=1e-12)

    def test_gate_shape_and_open_interval(self):
        fusion = CrossAttentionFusion(dim=8, init=np.random.default_rng(5))
        x_orig, x_filt = token_pair(6, b=3, n=4)
        alpha = fusion.gate(x_orig, x_filt)
        assert alpha.shape == (3, 4, 1)
        assert np.all(alpha.data > 0.0) and np.all(alpha.data < 1.0)

    def test_gate_bias_initialization_leans_original(self):
        fusion = CrossAttentionFusion(dim=8, gate_bias_init=-2.0, init=np.random.default_rng(7))
        assert fusion.gate_b2.value.data[0] == -2.0
        x_orig, x_filt = token_pair(8)
        # with zero gate inputs alpha would be sigmoid(-2) ~ 0.12; random
        # tokens move it but the gate should still favor the original stream
        alpha = fusion.gate(x_orig, x_filt)
        assert np.mean(alpha.data) < 0.5

    def test_fused_lies_on_the_token_segment(self):
        fusion = CrossAttentionFusion(dim=8, init=np.random.default_rng(9))
        x_orig, x_filt = token_pair(10)
        alpha = fusion.gate(x_orig, x_filt).data
        fused = fusion.fuse(x_orig, x_filt).data
        segment = x_orig.data + alpha * (x_filt.data - x_orig.data)
        assert np.allclose(fused, segment, atol=1e-12)

    def test_attention_rows_are_stochastic(self):
        fusion = CrossAttentionFusion(dim=8, init=np.random.default_rng(11))
        x_orig, x_filt = token_pair(12)
        q = matmul(x_orig, fusion.wq.value)
        k = matmul(x_filt, fusion.wk.value)
        probs = softmax_rows(matmul(q, transpose(k)) / np.sqrt(8.0))
        assert np.allclose(probs.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_multi_head_matches_shapes_and_differs_from_single(self):
        x_orig, x_filt = token_pair(13)
        single = CrossAttentionFusion(dim=8, heads=1, init=np.random.default_rng(14))
        multi = CrossAttentionFusion(dim=8, heads=4, init=np.random.default_rng(14))
        out_s = single.fuse(x_orig, x_filt)
        out_m = multi.fuse(x_orig, x_filt)
        assert out_s.shape == out_m.shape == (2, 5, 8)
        assert not np.allclose(out_s.data, out_m.data)

    def test_bad_heads_rejected(self):
        # a config is refused by validate_config; a direct build by the attention op
        x_orig, x_filt = token_pair(15)
        for heads in (3, 0):
            with pytest.raises(DimensionError, match="heads"):
                CrossAttentionFusion(dim=8, heads=heads, init=np.random.default_rng(0)).fuse(x_orig, x_filt)

    def test_stream_shape_mismatch_rejected(self):
        fusion = CrossAttentionFusion(dim=8, init=np.random.default_rng(0))
        x_orig, _ = token_pair(15)
        with pytest.raises(DimensionError):
            fusion.fuse(x_orig, Tensor(np.zeros((2, 4, 8))))
        with pytest.raises(DimensionError):
            fusion.fuse(Tensor(np.zeros((2, 5, 6))), Tensor(np.zeros((2, 5, 6))))

    def test_all_params_group_b(self):
        fusion = CrossAttentionFusion(dim=8, init=np.random.default_rng(0))
        assert all(p.group == "B" for p in fusion.params())
        assert all(p.name.startswith("fusion.") for p in fusion.params())

    @pytest.mark.parametrize("heads", [1, 2])
    def test_grad_check_params_and_streams(self, heads):
        fusion = CrossAttentionFusion(dim=8, heads=heads, init=np.random.default_rng(16))
        rng = np.random.default_rng(17)
        x_orig = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        x_filt = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)

        def loss():
            fused = fusion.fuse(x_orig, x_filt)
            return (fused * fused).sum()

        report = grad_check(loss, fusion.params(), max_entries=40, rng=np.random.default_rng(18))
        assert report.passed, report.summary()
        loss().backward()
        assert np.any(x_orig.grad != 0.0) and np.any(x_filt.grad != 0.0)


class TestBilinearMix:
    def test_blend_of_identical_images_is_identity(self):
        img = Tensor(np.random.default_rng(0).uniform(size=(2, 3, 4, 4)))
        out = BilinearMix(np.random.default_rng(0), mix_init=0.5).mix(img, img)
        assert np.allclose(out.data, img.data, atol=1e-15)

    def test_small_lambda_approaches_original(self):
        rng = np.random.default_rng(1)
        img = Tensor(rng.uniform(size=(1, 3, 4, 4)))
        filt = Tensor(rng.uniform(size=(1, 3, 4, 4)))
        out = BilinearMix(np.random.default_rng(0), mix_init=1e-9).mix(img, filt)
        assert np.allclose(out.data, img.data, atol=1e-8)

    def test_forced_constant_arithmetic(self):
        img = Tensor(np.zeros((1, 3, 2, 2)))
        filt = Tensor(np.ones((1, 3, 2, 2)))
        out = BilinearMix(np.random.default_rng(0), mix_init=0.25).mix(img, filt)
        assert np.array_equal(out.data, np.full((1, 3, 2, 2), 0.25))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            BilinearMix(np.random.default_rng(0)).mix(Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.zeros((1, 3, 4, 4))))

    @pytest.mark.parametrize("logit,picked", [(40.0, "filtered"), (-800.0, "image")])
    def test_saturated_coefficient_blends_and_backpropagates(self, logit, picked):
        # a trained logit can drive the sigmoid to exactly 1.0 or 0.0
        rng = np.random.default_rng(3)
        images = {"image": Tensor(rng.uniform(size=(1, 3, 4, 4))), "filtered": Tensor(rng.uniform(size=(1, 3, 4, 4)))}
        mix = BilinearMix(np.random.default_rng(0))
        mix.mix_logit.value.data[...] = logit
        out = mix.mix(images["image"], images["filtered"])
        assert np.array_equal(out.data, images[picked].data)
        out.sum().backward()
        assert np.isfinite(mix.mix_logit.value.grad).all()

    def test_learnable_coefficient_round_trip(self):
        mix = BilinearMix(np.random.default_rng(0), mix_init=0.3)
        assert abs(mix.coefficient().item() - 0.3) < 1e-12
        assert mix.params()[0].group == "B"

    def test_mix_gradient_reaches_logit(self):
        mix = BilinearMix(np.random.default_rng(0), mix_init=0.5)
        rng = np.random.default_rng(2)
        img = Tensor(rng.uniform(size=(1, 3, 4, 4)))
        filt = Tensor(rng.uniform(size=(1, 3, 4, 4)))

        def loss():
            out = mix.mix(img, filt)
            return (out * out).sum()

        report = grad_check(loss, mix.params())
        assert report.passed, report.summary()
