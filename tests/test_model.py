"""Assembled model: geometry, parameter registry, architectural reduction."""
import numpy as np
import pytest

from eegalign.config import default_config
from eegalign.data import PairedBatch, generate_synthetic, make_batch
from eegalign.errors import ConfigError, DimensionError
from eegalign.fusion import BilinearMix, CrossAttentionFusion
from eegalign.model import AlignmentModel
from eegalign.tensor import Tensor
from eegalign.trainer import embed_split, parameter_digest

# the checkpoint layout of a default-config model, captured before the parts' parameter lists were
# read off their attributes: trainable parts first, the frozen trunk last
CATF_PARAMETERS = [
    "perturb.gain", "perturb.offset", "encoder.weight", "encoder.bias", "filter.conv1.weight",
    "filter.conv1.bias", "filter.conv2.weight", "filter.conv2.bias", "filter.fc1.weight", "filter.fc1.bias",
    "filter.fc2.weight", "filter.fc2.bias", "fusion.wq", "fusion.wk", "fusion.wv", "fusion.gate.w1",
    "fusion.gate.b1", "fusion.gate.w2", "fusion.gate.b2", "prompts", "projection.weight", "projection.bias",
    "loss.log_tau", "backbone.patch.weight", "backbone.patch.bias", "backbone.cls", "backbone.pos",
    "backbone.block0.ln1.gain", "backbone.block0.ln1.bias", "backbone.block0.attn.wq",
    "backbone.block0.attn.bq", "backbone.block0.attn.wk", "backbone.block0.attn.bk",
    "backbone.block0.attn.wv", "backbone.block0.attn.bv", "backbone.block0.attn.wo",
    "backbone.block0.attn.bo", "backbone.block0.ln2.gain", "backbone.block0.ln2.bias",
    "backbone.block0.mlp.w1", "backbone.block0.mlp.b1", "backbone.block0.mlp.w2", "backbone.block0.mlp.b2",
    "backbone.block1.ln1.gain", "backbone.block1.ln1.bias", "backbone.block1.attn.wq",
    "backbone.block1.attn.bq", "backbone.block1.attn.wk", "backbone.block1.attn.bk",
    "backbone.block1.attn.wv", "backbone.block1.attn.bv", "backbone.block1.attn.wo",
    "backbone.block1.attn.bo", "backbone.block1.ln2.gain", "backbone.block1.ln2.bias",
    "backbone.block1.mlp.w1", "backbone.block1.mlp.b1", "backbone.block1.mlp.w2", "backbone.block1.mlp.b2",
]
BILINEAR_PARAMETERS = [
    "perturb.gain", "perturb.offset", "encoder.weight", "encoder.bias", "filter.conv1.weight",
    "filter.conv1.bias", "filter.conv2.weight", "filter.conv2.bias", "filter.fc1.weight", "filter.fc1.bias",
    "filter.fc2.weight", "filter.fc2.bias", "fusion.mix_logit", "prompts", "projection.weight",
    "projection.bias", "loss.log_tau", "backbone.patch.weight", "backbone.patch.bias", "backbone.cls",
    "backbone.pos", "backbone.block0.ln1.gain", "backbone.block0.ln1.bias", "backbone.block0.attn.wq",
    "backbone.block0.attn.bq", "backbone.block0.attn.wk", "backbone.block0.attn.bk",
    "backbone.block0.attn.wv", "backbone.block0.attn.bv", "backbone.block0.attn.wo",
    "backbone.block0.attn.bo", "backbone.block0.ln2.gain", "backbone.block0.ln2.bias",
    "backbone.block0.mlp.w1", "backbone.block0.mlp.b1", "backbone.block0.mlp.w2", "backbone.block0.mlp.b2",
    "backbone.block1.ln1.gain", "backbone.block1.ln1.bias", "backbone.block1.attn.wq",
    "backbone.block1.attn.bq", "backbone.block1.attn.wk", "backbone.block1.attn.bk",
    "backbone.block1.attn.wv", "backbone.block1.attn.bv", "backbone.block1.attn.wo",
    "backbone.block1.attn.bo", "backbone.block1.ln2.gain", "backbone.block1.ln2.bias",
    "backbone.block1.mlp.w1", "backbone.block1.mlp.b1", "backbone.block1.mlp.w2", "backbone.block1.mlp.b2",
]
# parameter_digest of the same models at the quick-start geometry: every initial value, so the parts
# draw from the RNG in the same order too
DEFAULT_DIGESTS = {
    "catf": "c1d99e79eaef23d83d42890dbbfca3c5e61a768a00a928528f0d327823fe93c8",
    "bilinear": "a332cbde91eea0350c7c68559e6f89a40db751f7a859231d0be8b1f16b8408c1",
}


def small_config(**loss_overrides):
    cfg = default_config()
    cfg.encoder.dim = 16
    cfg.backbone.dim = 16
    cfg.backbone.layers = 1
    cfg.backbone.heads = 2
    cfg.backbone.patch = 8
    cfg.backbone.prompts = 2
    cfg.trainer.batch_size = 4
    for key, value in loss_overrides.items():
        setattr(cfg.loss, key, value)
    return cfg


def small_model(seed=0, **loss_overrides):
    cfg = small_config(**loss_overrides)
    return AlignmentModel(cfg, channels=4, timesteps=10, image_size=16,
                          init=np.random.default_rng(seed))


def small_batch(seed=0, b=4):
    data = generate_synthetic(seed=seed, n_classes=b, per_class=1, channels=4,
                              timesteps=10, height=16, noise=0.1)
    return make_batch(data, np.arange(b))


class TestForward:
    def test_embedding_shapes(self):
        model = small_model()
        batch = small_batch()
        z_e, z_i = model.forward(batch)
        assert z_e.shape == (4, 16)
        assert z_i.shape == (4, 16)

    def test_embeddings_unit_norm(self):
        model = small_model()
        z_e, z_i = model.forward(small_batch())
        assert np.allclose(np.linalg.norm(z_e.data, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(z_i.data, axis=1), 1.0, atol=1e-12)

    def test_forward_deterministic(self):
        batch = small_batch()
        za = small_model(seed=3).encode_images(batch.images)
        zb = small_model(seed=3).encode_images(batch.images)
        assert np.array_equal(za.data, zb.data)

    def test_batch_loss_breakdown(self):
        model = small_model()
        total, parts = model.batch_loss(small_batch())
        assert set(parts) == {"l_clip", "l_soft", "l_rel", "l_total"}
        assert total.item() == parts["l_total"]
        assert np.isfinite(parts["l_total"])

    def test_tau_starts_at_configured_init(self):
        model = small_model(tau_init=0.25)
        assert model.tau().item() == pytest.approx(0.25, abs=1e-12)


# the model's batch boundary: wrong shapes for small_model()'s (4, 10) EEG and 16x16 images
BAD_EEG = {"rank 2": (4, 40), "rank 4": (4, 4, 10, 1), "channels": (4, 7, 10), "timesteps": (4, 4, 9)}
BAD_IMAGES = {"rank 3": (4, 3, 16), "image channels": (4, 1, 16, 16), "height": (4, 3, 24, 24),
              "non-square": (4, 3, 16, 8)}
BAD_SHAPES = [("eeg", shape) for shape in BAD_EEG.values()] + [("images", shape) for shape in BAD_IMAGES.values()]
BAD_IDS = list(BAD_EEG) + list(BAD_IMAGES)


class TestBatchBoundary:
    """Each batch shape is checked once, where it enters the model; the parts trust it."""

    @pytest.mark.parametrize("field,shape", BAD_SHAPES, ids=BAD_IDS)
    def test_wrong_shape_rejected_directly(self, field, shape):
        model = small_model()
        encode = model.encode_eeg if field == "eeg" else model.encode_images
        with pytest.raises(DimensionError, match="expected"):
            encode(Tensor(np.zeros(shape)))

    @pytest.mark.parametrize("field,shape", BAD_SHAPES, ids=BAD_IDS)
    def test_wrong_shape_rejected_through_embed_split(self, field, shape):
        data = generate_synthetic(seed=0, n_classes=4, per_class=1, channels=4, timesteps=10, height=16)
        setattr(data, field, np.zeros(shape))
        with pytest.raises(DimensionError, match="expected"):
            embed_split(small_model(), data, batch_size=4)

    @pytest.mark.parametrize("n_eeg,n_images", [(3, 4), (4, 2)])
    def test_mismatched_batch_sizes_rejected_through_forward(self, n_eeg, n_images):
        batch = small_batch()
        bad = PairedBatch(eeg=Tensor(batch.eeg.data[:n_eeg]), images=Tensor(batch.images.data[:n_images]))
        with pytest.raises(DimensionError, match="batch size mismatch"):
            small_model().forward(bad)

    def test_unvalidated_config_refused_at_build(self):
        cfg = small_config()
        cfg.fusion.strategy = "nope"
        with pytest.raises(ConfigError, match="fusion.strategy"):
            AlignmentModel(cfg, channels=4, timesteps=10, image_size=16)

    @pytest.mark.parametrize("image_size,patch,message", [(20, 8, "not divisible"), (6, 2, "minimum")],
                             ids=["indivisible", "below-min-input"])
    def test_image_size_the_parts_cannot_use_refused_at_build(self, image_size, patch, message):
        cfg = small_config()
        cfg.backbone.patch = patch
        with pytest.raises(ConfigError, match=message):
            AlignmentModel(cfg, channels=4, timesteps=10, image_size=image_size)


class TestTapeSize:
    """A split-apart fused op shows up here, not only in the traced benchmark."""

    # nodes recorded by one default-config batch_loss at the criterion-7
    # desk geometry; the primitive-only tape recorded 265, and 182 before
    # each affine layer became one linear node
    MAX_NODES = 163

    @staticmethod
    def recorded_nodes(root) -> int:
        seen, stack, count = set(), [root], 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._vjp is not None:
                count += 1
                stack.extend(node._parents)
        return count

    def test_default_config_step_at_desk_geometry(self):
        cfg = default_config()
        cfg.encoder.dim = 64
        cfg.backbone.dim = 32
        b = cfg.trainer.batch_size
        model = AlignmentModel(cfg, channels=8, timesteps=50, image_size=16,
                               init=np.random.default_rng(0))
        data = generate_synthetic(seed=0, n_classes=b, per_class=1, channels=8,
                                  timesteps=50, height=16, noise=0.2)
        total, _ = model.batch_loss(make_batch(data, np.arange(b)))
        assert self.recorded_nodes(total) <= self.MAX_NODES


class TestFusionStrategies:
    def test_catf_by_default(self):
        assert isinstance(small_model().fusion, CrossAttentionFusion)

    def test_bilinear_arm(self):
        cfg = small_config()
        cfg.fusion.strategy = "bilinear"
        model = AlignmentModel(cfg, channels=4, timesteps=10, image_size=16)
        assert isinstance(model.fusion, BilinearMix)
        z_i = model.encode_images(small_batch().images)
        assert z_i.shape == (4, 16)
        assert np.all(np.isfinite(z_i.data))


class TestParameterRegistry:
    def test_groups_partition_trainables(self):
        model = small_model()
        trainable = {p.name for p in model.trainable_parameters()}
        group_a = {p.name for p in model.group("A")}
        group_b = {p.name for p in model.group("B")}
        assert group_a | group_b == trainable
        assert group_a & group_b == set()

    def test_group_a_contents(self):
        # perturbation + encoder + projection + temperature
        names = {p.name for p in small_model().group("A")}
        assert names == {
            "perturb.gain", "perturb.offset",
            "encoder.weight", "encoder.bias",
            "projection.weight", "projection.bias",
            "loss.log_tau",
        }

    def test_group_b_prefixes(self):
        # filter generator + fusion + prompt tokens
        names = {p.name for p in small_model().group("B")}
        prefixes = {name.split(".")[0] for name in names}
        assert prefixes == {"filter", "fusion", "prompts"}

    def test_backbone_entirely_frozen(self):
        model = small_model()
        frozen = {p.name for p in [p for p in model.parameters() if p.frozen]}
        assert frozen == {p.name for p in model.backbone.params()}
        assert all(name.startswith("backbone.") for name in frozen)

    def test_parameter_names_unique(self):
        names = [p.name for p in small_model().parameters()]
        assert len(names) == len(set(names))

    def test_parameter_order_stable(self):
        a = [p.name for p in small_model(seed=1).parameters()]
        b = [p.name for p in small_model(seed=2).parameters()]
        assert a == b


    @pytest.mark.parametrize("strategy", ["catf", "bilinear"])
    def test_default_layout_and_values_pinned(self, strategy):
        cfg = default_config()
        cfg.fusion.strategy = strategy
        params = AlignmentModel(cfg, channels=17, timesteps=250, image_size=32).parameters()
        assert [p.name for p in params] == (CATF_PARAMETERS if strategy == "catf" else BILINEAR_PARAMETERS)
        assert parameter_digest(params) == DEFAULT_DIGESTS[strategy]

class TestArchitecturalReduction:
    """No prompts + identity kernels + closed gate collapses the image
    branch onto a plain frozen transformer with a projection head."""

    def build_reduced(self):
        cfg = small_config()
        cfg.backbone.prompts = 0
        model = AlignmentModel(cfg, channels=4, timesteps=10, image_size=16,
                               init=np.random.default_rng(11))
        model.filter_gen.fc2_w.value.data[:] = 0.0   # kernels collapse to the delta bias
        model.fusion.gate_b2.value.data[:] = -np.inf  # sigmoid gate pinned to 0
        return model

    def test_matches_plain_vit_plus_projection(self):
        model = self.build_reduced()
        images = small_batch(seed=5).images

        bb = model.backbone
        seq = bb.insert_prompts(model.prompts.value, bb.patch_embed(images))
        reference = model.projection.project(bb.vit_forward(seq))

        reduced = model.encode_images(images)
        assert np.max(np.abs(reduced.data - reference.data)) < 1e-9

    def test_kernels_are_exact_deltas(self):
        model = self.build_reduced()
        images = small_batch(seed=5).images
        kernels = model.filter_gen.generate(images)
        expected = np.zeros((4, 3, 5, 5))
        expected[:, :, 2, 2] = 1.0
        assert np.array_equal(kernels.data, expected)

    def test_gate_exactly_zero(self):
        model = self.build_reduced()
        images = small_batch(seed=5).images
        tokens = model.backbone.patch_embed(images)
        alpha = model.fusion.gate(tokens, tokens)
        assert np.array_equal(alpha.data, np.zeros_like(alpha.data))
