"""Per-instance filter generation and channel-wise dynamic convolution."""
import numpy as np
import pytest

from eegalign.dynfilter import FilterGenerator, apply_dynamic_filter, delta_kernels
from eegalign.errors import DimensionError
from eegalign.gradchecks import grad_check
from eegalign.tensor import Tensor, dynamic_conv


def loop_convolve(images: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Direct same-padding channel-wise convolution, one tap at a time."""
    bsz, ch, h, w = images.shape
    kh, kw = kernels.shape[2], kernels.shape[3]
    ph, pw = kh // 2, kw // 2
    out = np.zeros_like(images)
    for b in range(bsz):
        for c in range(ch):
            for y in range(h):
                for x in range(w):
                    acc = 0.0
                    for dy in range(kh):
                        for dx in range(kw):
                            sy, sx = y + dy - ph, x + dx - pw
                            if 0 <= sy < h and 0 <= sx < w:
                                acc += images[b, c, sy, sx] * kernels[b, c, dy, dx]
                    out[b, c, y, x] = acc
    return out


class TestFilterGenerator:
    def test_kernel_count_and_shape(self):
        gen = FilterGenerator(fh=5, fw=5, init=np.random.default_rng(0))
        images = Tensor(np.random.default_rng(1).uniform(size=(2, 3, 16, 16)))
        kernels = gen.generate(images)
        assert kernels.shape == (2, 3, 5, 5)
        assert kernels.data.size == 2 * 75

    def test_identical_images_identical_kernels(self):
        gen = FilterGenerator(fh=3, fw=3, init=np.random.default_rng(0))
        one = np.random.default_rng(2).uniform(size=(1, 3, 12, 12))
        kernels = gen.generate(Tensor(np.concatenate([one, one], axis=0)))
        assert np.array_equal(kernels.data[0], kernels.data[1])

    def test_deterministic_in_inputs(self):
        gen = FilterGenerator(fh=3, fw=3, init=np.random.default_rng(0))
        images = Tensor(np.random.default_rng(3).uniform(size=(2, 3, 12, 12)))
        assert np.array_equal(gen.generate(images).data, gen.generate(images).data)

    def test_initial_kernels_near_delta(self):
        # the head starts with a center-spike bias so filtering starts near identity
        gen = FilterGenerator(fh=5, fw=5, init=np.random.default_rng(4))
        images = Tensor(np.random.default_rng(5).uniform(size=(3, 3, 16, 16)))
        k = gen.generate(images).data
        centers = k[:, :, 2, 2]
        off = k.copy()
        off[:, :, 2, 2] = 0.0
        assert np.all(np.abs(centers - 1.0) < 0.2)
        assert np.all(np.abs(off) < 0.2)

    def test_non_image_input_rejected(self):
        gen = FilterGenerator(fh=3, fw=3, init=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            gen.generate(Tensor(np.zeros((1, 4, 12, 12))))

    def test_all_params_group_b(self):
        gen = FilterGenerator(fh=3, fw=3, init=np.random.default_rng(0))
        assert all(p.group == "B" for p in gen.parameters())
        assert all(p.name.startswith("filter.") for p in gen.parameters())

    def test_gradient_reaches_parameters_and_image(self):
        gen = FilterGenerator(fh=3, fw=3, init=np.random.default_rng(6))
        base = np.random.default_rng(7).uniform(size=(2, 3, 8, 8))
        images = Tensor(base.copy(), requires_grad=True)

        def loss():
            k = gen.generate(images)
            return (k * k).sum()

        report = grad_check(loss, gen.parameters(), max_entries=40, rng=np.random.default_rng(8))
        assert report.passed, report.summary()
        loss().backward()
        assert images.grad is not None and np.any(images.grad != 0.0)


class TestApplyDynamicFilter:
    def test_delta_kernel_is_identity(self, kernel_path):
        images = Tensor(np.random.default_rng(0).uniform(size=(2, 3, 10, 10)))
        out = apply_dynamic_filter(images, delta_kernels(2, 3, 5, 5))
        assert np.array_equal(out.data, images.data)

    def test_uniform_kernel_on_constant_image(self):
        images = Tensor(np.full((1, 3, 9, 9), 2.0))
        kernels = Tensor(np.full((1, 3, 3, 3), 1.0 / 9.0))
        out = apply_dynamic_filter(images, kernels).data
        assert np.allclose(out[:, :, 1:-1, 1:-1], 2.0, atol=1e-12)
        # zero padding removes taps at the border, so corners keep only 4 of 9
        assert np.allclose(out[:, :, 0, 0], 2.0 * 4.0 / 9.0, atol=1e-12)

    @pytest.mark.parametrize("size,kh,kw", [((1, 3, 8, 8), 3, 3), ((2, 3, 7, 9), 5, 3), ((1, 2, 6, 6), 1, 5),
                                            ((5, 3, 6, 6), 5, 5)])
    def test_matches_naive_loop_convolution(self, size, kh, kw, kernel_path):
        rng = np.random.default_rng(hash((size, kh, kw)) % (2**32))
        images = rng.normal(size=size)
        kernels = rng.normal(size=(size[0], size[1], kh, kw))
        fast = apply_dynamic_filter(Tensor(images), Tensor(kernels)).data
        slow = loop_convolve(images, kernels)
        assert np.max(np.abs(fast - slow)) < 1e-9

    @pytest.mark.parametrize("size,kh,kw", [
        ((1, 3, 8, 8), 5, 5), ((2, 3, 6, 11), 3, 7), ((2, 3, 9, 5), 1, 3), ((1, 2, 7, 7), 1, 1),
        ((3, 1, 4, 10), 5, 1),
    ])
    def test_op_matches_naive_loop_convolution(self, size, kh, kw, kernel_path):
        rng = np.random.default_rng(sum(size) * 100 + kh * 10 + kw)
        images = rng.normal(size=size)
        kernels = rng.normal(size=(size[0], size[1], kh, kw))
        direct = dynamic_conv(Tensor(images), Tensor(kernels)).data
        assert np.max(np.abs(direct - loop_convolve(images, kernels))) < 1e-9

    def test_model_sized_filter_is_one_tape_node(self):
        rng = np.random.default_rng(15)
        images = Tensor(rng.uniform(size=(32, 3, 32, 32)))
        kernels = Tensor(rng.normal(size=(32, 3, 5, 5)), requires_grad=True)
        out = apply_dynamic_filter(images, kernels)
        assert out._parents == (images, kernels)
        assert all(p._vjp is None for p in out._parents)

    def test_linear_in_the_image(self):
        rng = np.random.default_rng(9)
        i1, i2 = rng.normal(size=(2, 3, 8, 8)), rng.normal(size=(2, 3, 8, 8))
        kernels = Tensor(rng.normal(size=(2, 3, 3, 3)))
        a, b = 0.3, -1.7
        mixed = apply_dynamic_filter(Tensor(a * i1 + b * i2), kernels).data
        parts = a * apply_dynamic_filter(Tensor(i1), kernels).data + b * apply_dynamic_filter(Tensor(i2), kernels).data
        assert np.allclose(mixed, parts, atol=1e-10)

    @pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (5, 5), (7, 3)])
    def test_output_shape_equals_input_shape(self, kh, kw):
        images = Tensor(np.random.default_rng(10).normal(size=(2, 3, 11, 13)))
        kernels = Tensor(np.random.default_rng(11).normal(size=(2, 3, kh, kw)))
        assert apply_dynamic_filter(images, kernels).shape == images.shape

    def test_even_kernel_rejected(self):
        images = Tensor(np.zeros((1, 3, 8, 8)))
        with pytest.raises(DimensionError):
            apply_dynamic_filter(images, Tensor(np.zeros((1, 3, 2, 3))))

    def test_batch_channel_mismatch_rejected(self):
        images = Tensor(np.zeros((2, 3, 8, 8)))
        with pytest.raises(DimensionError):
            apply_dynamic_filter(images, Tensor(np.zeros((1, 3, 3, 3))))
        with pytest.raises(DimensionError):
            apply_dynamic_filter(images, Tensor(np.zeros((2, 2, 3, 3))))

    def test_end_to_end_grad_check(self, kernel_path):
        gen = FilterGenerator(fh=3, fw=3, init=np.random.default_rng(12))
        base = np.random.default_rng(13).uniform(size=(2, 3, 8, 8))
        images = Tensor(base, requires_grad=True)

        def loss():
            filtered = apply_dynamic_filter(images, gen.generate(images))
            return (filtered * filtered).sum()

        report = grad_check(
            loss, gen.parameters(), max_entries=30, rng=np.random.default_rng(14)
        )
        assert report.passed, report.summary()
