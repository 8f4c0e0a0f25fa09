"""Frozen vision trunk: patch embedding, prompt slots, blocks, projection."""
import numpy as np
import pytest

import eegalign.backbone as backbone_module
from eegalign.backbone import ProjectionHead, VisionBackbone, make_prompts
from eegalign.dynfilter import apply_dynamic_filter, delta_kernels
from eegalign.errors import DimensionError
from eegalign.gradchecks import grad_check
from eegalign.tensor import Tensor, attention, gelu, layer_norm, matmul, transpose


def small_backbone(prompt_count=2, layers=2, image_size=16, patch=8, dim=16, heads=4, seed=0):
    return VisionBackbone(
        image_size=image_size, patch=patch, dim=dim, layers=layers, heads=heads,
        prompt_count=prompt_count, init=np.random.default_rng(seed),
    )


class TestPatchEmbed:
    def test_token_geometry(self):
        bb = VisionBackbone(32, 8, 64, 2, 4, prompt_count=0, init=np.random.default_rng(0))
        images = Tensor(np.random.default_rng(1).uniform(size=(2, 3, 32, 32)))
        tokens = bb.patch_embed(images)
        assert tokens.shape == (2, 16, 64)
        assert bb.sequence_length == 17

    def test_shared_weights_and_delta_filter_agree(self):
        bb = small_backbone()
        images = Tensor(np.random.default_rng(2).uniform(size=(2, 3, 16, 16)))
        filtered = apply_dynamic_filter(images, delta_kernels(2, 3, 3, 3))
        assert np.array_equal(bb.patch_embed(images).data, bb.patch_embed(filtered).data)

    def test_zero_image_gives_bias_tokens(self):
        bb = small_backbone()
        tokens = bb.patch_embed(Tensor(np.zeros((1, 3, 16, 16))))
        assert np.array_equal(tokens.data, np.broadcast_to(bb.patch_b.value.data, (1, 4, 16)))


class TestInsertPrompts:
    def test_sequence_lengths(self):
        for count, expected in [(0, 5), (4, 9)]:
            bb = small_backbone(prompt_count=count)
            prompts = make_prompts(count, 16, np.random.default_rng(3))
            fused = Tensor(np.random.default_rng(4).normal(size=(2, 4, 16)))
            seq = bb.insert_prompts(prompts.value, fused)
            assert seq.shape == (2, expected, 16)

    def test_prompt_rows_are_prompts_plus_positions(self):
        bb = small_backbone(prompt_count=3)
        prompts = make_prompts(3, 16, np.random.default_rng(5))
        fused = Tensor(np.random.default_rng(6).normal(size=(2, 4, 16)))
        seq = bb.insert_prompts(prompts.value, fused)
        expected = prompts.value.data + bb.pos.value.data[1:4]
        assert np.array_equal(seq.data[0, 1:4], expected)
        assert np.array_equal(seq.data[1, 1:4], expected)

    def test_cls_row_is_cls_plus_first_position(self):
        bb = small_backbone(prompt_count=1)
        prompts = make_prompts(1, 16, np.random.default_rng(7))
        fused = Tensor(np.random.default_rng(8).normal(size=(3, 4, 16)))
        seq = bb.insert_prompts(prompts.value, fused)
        expected = bb.cls.value.data + bb.pos.value.data[0]
        for b in range(3):
            assert np.array_equal(seq.data[b, 0], expected)

    def test_wrong_prompt_shape_rejected(self):
        bb = small_backbone(prompt_count=2)
        fused = Tensor(np.zeros((1, 4, 16)))
        with pytest.raises(DimensionError):
            bb.insert_prompts(Tensor(np.zeros((3, 16))), fused)


class TestVitForward:
    def test_empty_stack_returns_cls_plus_position(self):
        bb = small_backbone(prompt_count=2, layers=0)
        prompts = make_prompts(2, 16, np.random.default_rng(9))
        fused = Tensor(np.random.default_rng(10).normal(size=(2, 4, 16)))
        out = bb.vit_forward(bb.insert_prompts(prompts.value, fused))
        expected = bb.cls.value.data + bb.pos.value.data[0]
        assert np.array_equal(out.data, np.broadcast_to(expected, (2, 16)))

    def test_patch_permutation_equivariance(self):
        # tokens carry their positions with them, so shuffling patch rows
        # after position addition cannot change the CLS output
        bb = small_backbone(prompt_count=2, layers=2)
        prompts = make_prompts(2, 16, np.random.default_rng(11))
        fused = Tensor(np.random.default_rng(12).normal(size=(2, 4, 16)))
        seq = bb.insert_prompts(prompts.value, fused)
        perm = np.array([0, 1, 2, 5, 3, 6, 4])
        shuffled = Tensor(seq.data[:, perm, :])
        out = bb.vit_forward(Tensor(seq.data))
        out_shuffled = bb.vit_forward(shuffled)
        assert np.allclose(out.data, out_shuffled.data, atol=1e-12)

    def test_everything_frozen(self):
        bb = small_backbone()
        assert all(p.frozen for p in bb.params())
        assert all(not p.value.requires_grad for p in bb.params())
        assert len(bb.params()) == 4 + 2 * 16

    def test_gradient_reaches_prompts_and_tokens_not_backbone(self):
        bb = small_backbone(prompt_count=2, layers=2)
        prompts = make_prompts(2, 16, np.random.default_rng(13))
        fused = Tensor(np.random.default_rng(14).normal(size=(2, 4, 16)), requires_grad=True)
        out = bb.vit_forward(bb.insert_prompts(prompts.value, fused))
        (out * out).sum().backward()
        assert prompts.value.grad is not None and np.any(prompts.value.grad != 0.0)
        assert fused.grad is not None and np.any(fused.grad != 0.0)
        assert all(p.value.grad is None for p in bb.params())

    def test_grad_check_through_blocks(self):
        bb = small_backbone(prompt_count=2, layers=1, dim=8, heads=2)
        prompts = make_prompts(2, 8, np.random.default_rng(15))
        fused = Tensor(np.random.default_rng(16).normal(size=(2, 4, 8)))

        def loss():
            out = bb.vit_forward(bb.insert_prompts(prompts.value, fused))
            return (out * out).sum()

        report = grad_check(loss, [prompts], max_entries=16, rng=np.random.default_rng(17))
        assert report.passed, report.summary()


def reference_vit(bb, seq):
    """Every row through every block, then row 0: the trunk without the CLS-only shortcut."""
    b, n, d = seq.shape
    h, dh = bb.heads, d // bb.heads

    def heads_of(t):
        return transpose(t.reshape((b, n, h, dh)), (0, 2, 1, 3))

    x = seq
    for blk in bb.blocks:
        a = layer_norm(x, blk.ln1_g.value, blk.ln1_b.value)
        q = heads_of(matmul(a, blk.wq.value) + blk.bq.value)
        k = heads_of(matmul(a, blk.wk.value) + blk.bk.value)
        v = heads_of(matmul(a, blk.wv.value) + blk.bv.value)
        z = transpose(attention(q, k, v), (0, 2, 1, 3)).reshape((b, n, d))
        x = x + matmul(z, blk.wo.value) + blk.bo.value
        m = layer_norm(x, blk.ln2_g.value, blk.ln2_b.value)
        x = x + matmul(gelu(matmul(m, blk.mlp_w1.value) + blk.mlp_b1.value), blk.mlp_w2.value) + blk.mlp_b2.value
    return x[:, 0, :]


class TestClsOnlyLastBlock:
    @staticmethod
    def forward_and_grads(bb, forward, seed):
        rng = np.random.default_rng(seed)
        prompts = make_prompts(bb.prompt_count, bb.dim, np.random.default_rng(seed + 1))
        fused = Tensor(rng.normal(size=(3, bb.n_patches, bb.dim)), requires_grad=True)
        out = forward(bb.insert_prompts(prompts.value, fused))
        (out * Tensor(rng.normal(size=out.shape))).sum().backward()
        return out.data, fused.grad, prompts.value.grad

    @pytest.mark.parametrize("prompt_count", [0, 2])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_the_all_rows_reference(self, layers, heads, prompt_count):
        bb = small_backbone(prompt_count=prompt_count, layers=layers, heads=heads, seed=layers)
        got = self.forward_and_grads(bb, bb.vit_forward, seed=10 * heads)
        want = self.forward_and_grads(bb, lambda seq: reference_vit(bb, seq), seed=10 * heads)
        assert got[0].shape == want[0].shape == (3, 16)
        for name, a, b in zip(("output", "fused grad", "prompt grad"), got, want):
            if prompt_count == 0 and name == "prompt grad":
                continue
            scale = np.abs(b).max()
            assert np.abs(a - b).max() <= 1e-12 * scale, name

    def test_last_mlp_runs_for_the_cls_row_only(self, monkeypatch):
        shapes = []

        def recording_gelu(a):
            shapes.append(a.shape)
            return gelu(a)

        monkeypatch.setattr(backbone_module, "gelu", recording_gelu)
        bb = small_backbone(prompt_count=2, layers=2)
        fused = Tensor(np.random.default_rng(30).normal(size=(3, 4, 16)))
        bb.vit_forward(bb.insert_prompts(make_prompts(2, 16, np.random.default_rng(31)).value, fused))
        assert shapes == [(3, 7, 64), (3, 1, 64)]


class TestValidation:
    def test_bad_heads_rejected(self):
        # a config is refused by validate_config; a direct build by the attention op
        bb = VisionBackbone(16, 8, 16, 1, 3, prompt_count=0, init=np.random.default_rng(0))
        with pytest.raises(DimensionError, match="heads"):
            bb.vit_forward(Tensor(np.zeros((1, bb.sequence_length, 16))))


class TestProjectionHead:
    def test_identity_weight_normalizes_input(self):
        head = ProjectionHead(4, 4, np.random.default_rng(18))
        head.weight.value.data[:] = np.eye(4)
        head.bias.value.data[:] = 0.0
        z = np.array([[3.0, 4.0, 0.0, 0.0]])
        out = head.project(Tensor(z))
        assert np.allclose(out.data, [[0.6, 0.8, 0.0, 0.0]], atol=1e-9)

    def test_unit_norm_rows_and_shape(self):
        head = ProjectionHead(16, 12, np.random.default_rng(19))
        out = head.project(Tensor(np.random.default_rng(20).normal(size=(5, 16))))
        assert out.shape == (5, 12)
        assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-9)

    def test_group_a_parameters(self):
        head = ProjectionHead(4, 4, np.random.default_rng(21))
        assert [p.group for p in head.params()] == ["A", "A"]

    def test_grad_check(self):
        head = ProjectionHead(6, 4, np.random.default_rng(22))
        z = Tensor(np.random.default_rng(23).normal(size=(3, 6)))
        target = np.random.default_rng(24).normal(size=(3, 4))

        def loss():
            diff = head.project(z) - Tensor(target)
            return (diff * diff).sum()

        report = grad_check(loss, head.params())
        assert report.passed, report.summary()
