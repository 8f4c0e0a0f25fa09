import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eegalign import tensor as tz
from eegalign.errors import ContractError, DimensionError, DomainError, FormatError
from eegalign.tensor import (
    Parameter,
    Tensor,
    add,
    attention,
    clamp_min,
    concat,
    div,
    dynamic_conv,
    exp,
    gelu,
    grad_check,
    kl_div_rows,
    l2_normalize,
    layer_norm,
    log_softmax_rows,
    matmul,
    mul,
    no_grad,
    read_tensor,
    sigmoid,
    softmax_rows,
    sub,
    transpose,
    unfold,
    write_tensor,
)


def _rand(rng, *shape):
    return rng.normal(size=shape)


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = _rand(rng, 5, 5)
        out = matmul(Tensor(a), Tensor(np.eye(5)))
        np.testing.assert_array_equal(out.data, a)

    def test_forced_2x2(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = _rand(rng, 3, 4)
        b = _rand(rng, 4, 6)
        want = np.zeros((3, 6))
        for i in range(3):
            for j in range(6):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, want, atol=1e-12)

    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(2)
        a = _rand(rng, 4, 3, 5)
        b = _rand(rng, 5, 2)
        out = matmul(Tensor(a), Tensor(b)).data
        for i in range(4):
            np.testing.assert_allclose(out[i], a[i] @ b, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_rank_one_rejected(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


class TestSoftmax:
    def test_constant_rows_become_uniform(self):
        out = softmax_rows(Tensor(np.full((3, 4), 2.5)))
        np.testing.assert_allclose(out.data, np.full((3, 4), 0.25), atol=1e-15)

    def test_hand_value(self):
        out = softmax_rows(Tensor([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = softmax_rows(Tensor(_rand(rng, 8, 11) * 10))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(8), atol=1e-12)

    def test_large_logits_stable(self):
        out = softmax_rows(Tensor([[1000.0, 1000.0, -1000.0]]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [[0.5, 0.5, 0.0]], atol=1e-12)

    def test_temperature_validation(self):
        with pytest.raises(DomainError):
            softmax_rows(Tensor([[1.0, 2.0]]), temperature=0.0)
        with pytest.raises(DomainError):
            softmax_rows(Tensor([[1.0, 2.0]]), temperature=Tensor(-0.5))

    def test_tensor_temperature_matches_scaled_input(self):
        rng = np.random.default_rng(4)
        x = _rand(rng, 5, 7)
        a = softmax_rows(Tensor(x), temperature=Tensor(0.25))
        b = softmax_rows(Tensor(x / 0.25))
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(arrays(np.float64, (4, 6), elements=st.floats(-40, 40)))
    def test_rows_sum_to_one_property(self, x):
        out = softmax_rows(Tensor(x), temperature=0.5)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-9)


class TestL2Normalize:
    def test_three_four_five(self):
        out = l2_normalize(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-12)

    def test_unit_norms(self):
        rng = np.random.default_rng(5)
        out = l2_normalize(Tensor(_rand(rng, 6, 9)))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1), np.ones(6), atol=1e-12)

    def test_zero_row_guarded(self):
        out = l2_normalize(Tensor(np.zeros((2, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    @settings(deadline=None, max_examples=40)
    @given(arrays(np.float64, (3, 5), elements=st.floats(0.1, 50)))
    def test_unit_norm_property(self, x):
        out = l2_normalize(Tensor(x))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1), np.ones(3), atol=1e-9)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_square_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == pytest.approx(6.0, abs=1e-12)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_double_backward_doubles_exactly(self):
        rng = np.random.default_rng(6)
        x = Tensor(_rand(rng, 4, 3), requires_grad=True)
        w = Tensor(_rand(rng, 3, 2), requires_grad=True)
        loss = (matmul(x, w) ** 2.0).sum()
        loss.backward()
        gx = x.grad.copy()
        gw = w.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * gx)
        np.testing.assert_array_equal(w.grad, 2.0 * gw)

    def test_reused_tensor_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        assert x.grad == pytest.approx(7.0, abs=1e-12)

    def test_off_path_untouched(self):
        x = Tensor(1.0, requires_grad=True)
        y = Tensor(1.0, requires_grad=True)
        (x * 2.0).backward()
        assert y.grad is None

    def test_composite_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        x0 = _rand(rng, 3, 4)

        def f(arr):
            t = Tensor(arr, requires_grad=True)
            out = (sigmoid(matmul(t, t.transpose())) ** 2.0).sum()
            return t, out

        t, out = f(x0)
        out.backward()
        step = 1e-6
        for idx in [(0, 0), (1, 2), (2, 3)]:
            bumped = x0.copy()
            bumped[idx] += step
            plus = f(bumped)[1].item()
            bumped[idx] -= 2 * step
            minus = f(bumped)[1].item()
            numeric = (plus - minus) / (2 * step)
            assert t.grad[idx] == pytest.approx(numeric, rel=1e-5)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(8)
        x = _rand(rng, 5, 5)

        def run():
            t = Tensor(x, requires_grad=True)
            loss = (softmax_rows(matmul(t, t)) ** 2.0).sum()
            loss.backward()
            return loss.item(), t.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


BINARY_OPS = [add, sub, mul, div, matmul]


class TestVJPGating:
    """A parent that needs no gradient gets no contribution computed."""

    @pytest.mark.parametrize("op", BINARY_OPS)
    def test_frozen_parent_gets_none(self, op):
        rng = np.random.default_rng(31)
        live = Tensor(_rand(rng, 3, 3), requires_grad=True)
        frozen = Tensor(_rand(rng, 3, 3) + 3.0)
        g = np.ones((3, 3))
        ga, gb = op(live, frozen)._vjp(g)
        assert ga is not None and gb is None
        ga, gb = op(frozen, live)._vjp(g)
        assert ga is None and gb is not None

    @pytest.mark.parametrize("op", BINARY_OPS)
    def test_gradient_of_the_live_parent_is_bitwise_unchanged(self, op):
        rng = np.random.default_rng(32)
        x0, w0 = _rand(rng, 3, 3), _rand(rng, 3, 3) + 3.0

        def grad_of_x(w_requires_grad):
            x = Tensor(x0, requires_grad=True)
            w = Tensor(w0, requires_grad=w_requires_grad)
            (op(x, w) ** 2.0).sum().backward()
            return x.grad

        assert grad_of_x(False).tobytes() == grad_of_x(True).tobytes()


class TestNoGrad:
    def test_outputs_have_no_parents(self):
        rng = np.random.default_rng(33)
        x = Tensor(_rand(rng, 3, 3), requires_grad=True)
        w = Tensor(_rand(rng, 3, 3) + 3.0, requires_grad=True)
        with no_grad():
            outs = [x + w, x - w, x * w, x / w, matmul(x, w), exp(x), x.sum(),
                    softmax_rows(x, temperature=w.sum()), concat([x, w]), x[0]]
        for out in outs:
            assert not out.requires_grad
            assert out._parents == ()
            assert out._vjp is None

    def test_values_match_the_recorded_forward(self):
        rng = np.random.default_rng(34)
        x = Tensor(_rand(rng, 4, 5), requires_grad=True)

        def f():
            return layer_norm(attention(x, x, x), Tensor(np.ones(5)), Tensor(np.zeros(5)))

        taped = f()
        with no_grad():
            bare = f()
        assert taped.requires_grad
        assert bare.data.tobytes() == taped.data.tobytes()

    def test_nested_blocks_restore_the_previous_state(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            with no_grad():
                assert not (x * 2.0).requires_grad
            assert not (x * 2.0).requires_grad
        y = x * 2.0
        assert y.requires_grad
        assert y._parents[0] is x

    def test_state_restored_after_an_exception(self):
        x = Tensor(1.0, requires_grad=True)
        with pytest.raises(DomainError):
            with no_grad():
                raise DomainError("inside the block")
        y = x * 3.0
        y.backward()
        assert x.grad == 3.0

    def test_leaves_keep_their_flag(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            leaf = Tensor(np.ones(2), requires_grad=True)
        assert x.requires_grad and leaf.requires_grad


class TestOpGradients:
    """Central-difference checks for every primitive used downstream."""

    def test_broadcast_arithmetic(self):
        rng = np.random.default_rng(10)
        a = Parameter("a", Tensor(_rand(rng, 4, 3), requires_grad=True))
        b = Parameter("b", Tensor(_rand(rng, 3), requires_grad=True))
        c = Parameter("c", Tensor(_rand(rng, 4, 1), requires_grad=True))
        probe = Tensor(_rand(rng, 4, 3))

        def f():
            out = (a.value + b.value) * c.value - b.value / 2.0
            return (out * probe).sum()

        report = grad_check(f, [a, b, c])
        assert report.passed, report.summary()

    def test_activations_and_norms(self):
        rng = np.random.default_rng(11)
        x = Parameter("x", Tensor(_rand(rng, 5, 6), requires_grad=True))
        g = Parameter("g", Tensor(1.0 + 0.1 * _rand(rng, 6), requires_grad=True))
        b = Parameter("b", Tensor(0.1 * _rand(rng, 6), requires_grad=True))
        probe = Tensor(_rand(rng, 5, 6))

        def f():
            out = layer_norm(gelu(x.value), g.value, b.value)
            out = sigmoid(out) + l2_normalize(x.value)
            return (out * probe).sum()

        report = grad_check(f, [x, g, b])
        assert report.passed, report.summary()

    def test_softmax_and_logsoftmax(self):
        rng = np.random.default_rng(12)
        x = Parameter("x", Tensor(_rand(rng, 4, 5), requires_grad=True))
        t = Parameter("t", Tensor(0.7, requires_grad=True))
        probe = Tensor(_rand(rng, 4, 5))

        def f():
            out = softmax_rows(x.value, temperature=t.value) + log_softmax_rows(x.value)
            return (out * probe).sum()

        report = grad_check(f, [x, t])
        assert report.passed, report.summary()

    def test_structural_ops(self):
        rng = np.random.default_rng(13)
        a = Parameter("a", Tensor(_rand(rng, 2, 3, 4), requires_grad=True))
        b = Parameter("b", Tensor(_rand(rng, 2, 2, 4), requires_grad=True))
        probe = Tensor(_rand(rng, 2, 5, 2))

        def f():
            joined = concat([a.value, b.value], axis=1)
            picked = joined[:, :, 1:3]
            out = transpose(picked, (0, 1, 2)).reshape((2, 5, 2))
            return (out * probe).sum()

        report = grad_check(f, [a, b])
        assert report.passed, report.summary()

    def test_diag_gather(self):
        rng = np.random.default_rng(14)
        x = Parameter("x", Tensor(_rand(rng, 4, 4), requires_grad=True))
        idx = np.arange(4)

        def f():
            return x.value[(idx, idx)].sum()

        report = grad_check(f, [x])
        assert report.passed, report.summary()
        x.value.grad = None
        f().backward()
        np.testing.assert_array_equal(x.value.grad, np.eye(4))

    def test_attention(self):
        rng = np.random.default_rng(15)
        q = Parameter("q", Tensor(_rand(rng, 2, 3, 4), requires_grad=True))
        k = Parameter("k", Tensor(_rand(rng, 2, 3, 4), requires_grad=True))
        v = Parameter("v", Tensor(_rand(rng, 2, 3, 4), requires_grad=True))
        probe = Tensor(_rand(rng, 2, 3, 4))

        def f():
            return (attention(q.value, k.value, v.value) * probe).sum()

        report = grad_check(f, [q, k, v])
        assert report.passed, report.summary()

    def test_kl_rows(self):
        rng = np.random.default_rng(16)
        raw_p = np.abs(_rand(rng, 3, 5)) + 0.2
        raw_q = np.abs(_rand(rng, 3, 5)) + 0.2
        p = Parameter("p", Tensor(raw_p / raw_p.sum(-1, keepdims=True), requires_grad=True))
        q = Parameter("q", Tensor(raw_q / raw_q.sum(-1, keepdims=True), requires_grad=True))

        def f():
            return kl_div_rows(p.value, q.value)

        report = grad_check(f, [p, q])
        assert report.passed, report.summary()

    def test_unfold_padded(self):
        rng = np.random.default_rng(17)
        x = Parameter("x", Tensor(_rand(rng, 2, 3, 5, 5), requires_grad=True))
        probe = Tensor(_rand(rng, 2, 25, 27))

        def f():
            return (unfold(x.value, 3, 3, stride=1, padding=1) * probe).sum()

        report = grad_check(f, [x])
        assert report.passed, report.summary()

    def test_unfold_tiled_fast_path(self):
        rng = np.random.default_rng(18)
        x = Parameter("x", Tensor(_rand(rng, 2, 3, 4, 4), requires_grad=True))
        probe = Tensor(_rand(rng, 2, 4, 12))

        def f():
            return (unfold(x.value, 2, 2, stride=2, padding=0) * probe).sum()

        report = grad_check(f, [x])
        assert report.passed, report.summary()


class TestKLValues:
    def test_identical_rows_give_zero(self):
        p = Tensor([[0.2, 0.3, 0.5]])
        assert kl_div_rows(p, p).item() == pytest.approx(0.0, abs=1e-15)

    def test_zero_entries_contribute_zero(self):
        p = Tensor([[1.0, 0.0]])
        q = Tensor([[0.5, 0.5]])
        # only the nonzero entry contributes: 1 * log(1 / 0.5)
        assert kl_div_rows(p, q).item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_scalar_loop_oracle(self):
        import math

        rng = np.random.default_rng(19)
        raw_p = np.abs(_rand(rng, 4, 6)) + 0.1
        raw_q = np.abs(_rand(rng, 4, 6)) + 0.1
        p = raw_p / raw_p.sum(-1, keepdims=True)
        q = raw_q / raw_q.sum(-1, keepdims=True)
        want = 0.0
        for i in range(4):
            row = 0.0
            for j in range(6):
                row += p[i, j] * (math.log(p[i, j]) - math.log(q[i, j]))
            want += row
        want /= 4.0
        assert kl_div_rows(Tensor(p), Tensor(q)).item() == pytest.approx(want, abs=1e-12)


class TestUnfoldValues:
    def test_window_contents(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        cols = unfold(Tensor(x), 2, 2, stride=1, padding=0).data
        assert cols.shape == (1, 9, 4)
        np.testing.assert_array_equal(cols[0, 0], [0.0, 1.0, 4.0, 5.0])
        np.testing.assert_array_equal(cols[0, 8], [10.0, 11.0, 14.0, 15.0])

    def test_tiled_matches_general_path(self):
        rng = np.random.default_rng(20)
        x = _rand(rng, 2, 3, 8, 8)
        fast = unfold(Tensor(x), 4, 4, stride=4, padding=0).data
        # force the general path by asking for a padded version then cropping
        slow = unfold(Tensor(np.pad(x, ((0, 0), (0, 0), (0, 0), (0, 0)))), 4, 4, stride=4, padding=0)
        general = unfold(Tensor(x), 4, 4, stride=4, padding=(0, 0)).data
        np.testing.assert_array_equal(fast, general)
        np.testing.assert_array_equal(fast, slow.data)

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            unfold(Tensor(np.zeros((1, 1, 3, 3))), 5, 5)


def _unfold_form(x, k):
    """The dynamic filter as an unfold, a broadcast product and a sum."""
    bsz, ch, h, w = x.shape
    kh, kw = k.shape[2], k.shape[3]
    cols = unfold(x, kh, kw, stride=1, padding=(kh // 2, kw // 2)).reshape((bsz, h * w, ch, kh * kw))
    mixed = (cols * k.reshape((bsz, 1, ch, kh * kw))).sum(axis=-1)
    return transpose(mixed, (0, 2, 1)).reshape((bsz, ch, h, w))


class TestDynamicConv:
    @pytest.mark.parametrize("size,kh,kw", [
        ((2, 3, 8, 8), 3, 3), ((1, 3, 7, 10), 5, 3), ((2, 2, 6, 9), 1, 5), ((3, 1, 5, 4), 1, 1),
    ])
    def test_matches_the_unfold_formulation(self, size, kh, kw):
        rng = np.random.default_rng(40)
        x0, k0 = _rand(rng, *size), _rand(rng, size[0], size[1], kh, kw)
        probe = Tensor(_rand(rng, *size))
        results = []
        for form in (dynamic_conv, _unfold_form):
            x, k = Tensor(x0, requires_grad=True), Tensor(k0, requires_grad=True)
            out = form(x, k)
            (out * probe).sum().backward()
            results.append((out.data, x.grad, k.grad))
        for direct, unfolded in zip(*results):
            assert direct.shape == unfolded.shape
            assert np.max(np.abs(direct - unfolded)) < 1e-12

    @pytest.mark.parametrize("live", ["image", "kernel"])
    def test_finite_differences_per_parent(self, live):
        rng = np.random.default_rng(41)
        x = Tensor(_rand(rng, 2, 2, 5, 6), requires_grad=live == "image")
        k = Tensor(_rand(rng, 2, 2, 3, 5), requires_grad=live == "kernel")
        probe = Tensor(_rand(rng, 2, 2, 5, 6))
        param = Parameter(live, x if live == "image" else k)

        report = grad_check(lambda: (dynamic_conv(x, k) ** 2.0 * probe).sum(), [param])
        assert report.passed, report.summary()

    def test_frozen_image_gets_none_and_kernel_gradient_is_unchanged(self):
        rng = np.random.default_rng(42)
        x0, k0 = _rand(rng, 2, 3, 6, 6), _rand(rng, 2, 3, 3, 3)
        g = _rand(rng, 2, 3, 6, 6)
        gx, gk = dynamic_conv(Tensor(x0), Tensor(k0, requires_grad=True))._vjp(g)
        assert gx is None
        gx_live, gk_live = dynamic_conv(Tensor(x0, requires_grad=True), Tensor(k0, requires_grad=True))._vjp(g)
        assert gx_live is not None
        assert gk.tobytes() == gk_live.tobytes()
        gx, gk = dynamic_conv(Tensor(x0, requires_grad=True), Tensor(k0))._vjp(g)
        assert gk is None and gx.tobytes() == gx_live.tobytes()

    def test_records_nothing_under_no_grad(self):
        rng = np.random.default_rng(43)
        x = Tensor(_rand(rng, 1, 3, 6, 6), requires_grad=True)
        k = Tensor(_rand(rng, 1, 3, 3, 3), requires_grad=True)
        taped = dynamic_conv(x, k)
        with no_grad():
            out = dynamic_conv(x, k)
        assert not out.requires_grad and out._parents == () and out._vjp is None
        assert out.data.tobytes() == taped.data.tobytes()

    @pytest.mark.parametrize("xshape,kshape", [
        ((1, 3, 6, 6), (1, 3, 2, 3)), ((1, 3, 6, 6), (2, 3, 3, 3)), ((1, 3, 6, 6), (1, 2, 3, 3)),
        ((3, 6, 6), (1, 3, 3, 3)), ((1, 3, 6, 6), (3, 3, 3)),
    ])
    def test_bad_shapes_rejected(self, xshape, kshape):
        with pytest.raises(DimensionError):
            dynamic_conv(Tensor(np.zeros(xshape)), Tensor(np.zeros(kshape)))


class TestSigmoidStability:
    def test_saturation_is_exact(self):
        out = sigmoid(Tensor([-np.inf, -800.0, 0.0, 800.0, np.inf]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.5, 1.0, 1.0])

    def test_no_overflow_warnings(self):
        with np.errstate(over="raise"):
            sigmoid(Tensor([-1000.0, 1000.0]))


class TestGradCheckHarness:
    def test_quadratic_form_passes_tightly(self):
        rng = np.random.default_rng(21)
        m = _rand(rng, 4, 4)
        sym = Tensor(m + m.T)
        x = Parameter("x", Tensor(_rand(rng, 4, 1), requires_grad=True))

        def f():
            return (matmul(matmul(x.value.transpose(), sym), x.value) * 0.5).sum()

        report = grad_check(f, [x], step=1e-5, tol=1e-6)
        assert report.passed, report.summary()

    def test_corrupted_rule_fails(self):
        # an op whose vjp is deliberately wrong must be caught
        def bad_square(t):
            data = t.data ** 2

            def vjp(g):
                return (g * 3.0 * t.data,)  # should be 2x

            return tz._make(data, (t,), vjp)

        x = Parameter("x", Tensor(np.array([1.7, -0.4]), requires_grad=True))

        def f():
            return bad_square(x.value).sum()

        report = grad_check(f, [x])
        assert not report.passed

    def test_max_entries_subsampling(self):
        rng = np.random.default_rng(22)
        x = Parameter("x", Tensor(_rand(rng, 30, 30), requires_grad=True))

        def f():
            return (x.value ** 2.0).sum()

        report = grad_check(f, [x], max_entries=17, rng=np.random.default_rng(1))
        assert report.results[0].checked == 17
        assert report.passed


class TestClampMin:
    def test_values_and_gradient_mask(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        clamp_min(x, 0.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0])


class TestSerialization:
    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(23)
        arrays_ = [
            _rand(rng, 3, 4, 5),
            np.array(2.5),
            _rand(rng, 7),
            np.zeros((2, 0, 3)),
        ]
        buf = io.BytesIO()
        for a in arrays_:
            write_tensor(buf, a)
        buf.seek(0)
        for a in arrays_:
            back = read_tensor(buf)
            assert back.shape == a.shape
            assert back.tobytes() == np.ascontiguousarray(a).tobytes()

    def test_truncated_payload_reports_offset(self):
        buf = io.BytesIO()
        write_tensor(buf, np.ones((2, 2)))
        raw = buf.getvalue()[:-8]
        with pytest.raises(FormatError) as exc:
            read_tensor(io.BytesIO(raw))
        assert exc.value.offset is not None

    def test_truncated_header_reports_offset(self):
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(b"\x02\x00"))

    @pytest.mark.parametrize("dims", [(2**31, 2**31), (2**20, 2**19)])
    def test_oversized_header_rejected_before_reading(self, dims):
        buf = io.BytesIO()
        write_tensor(buf, np.ones(3))
        start = buf.tell()
        buf.write(np.asarray([len(dims), *dims], "<u4").tobytes())
        buf.write(b"\x00" * 64)
        buf.seek(0)
        read_tensor(buf)
        with pytest.raises(FormatError, match="payload bytes") as exc:
            read_tensor(buf)
        assert exc.value.offset == start

    def test_empty_shape_numpy_cannot_index_rejected(self):
        buf = io.BytesIO(np.asarray([3, 0, 2**32 - 1, 2**32 - 1], "<u4").tobytes())
        with pytest.raises(FormatError, match="implausible tensor shape") as exc:
            read_tensor(buf)
        assert exc.value.offset == 0

    def test_garbage_rank_rejected(self):
        buf = io.BytesIO(np.asarray([4_000_000], "<u4").tobytes())
        with pytest.raises(FormatError):
            read_tensor(buf)


class TestParameter:
    def test_frozen_disables_grad(self):
        p = Parameter("w", Tensor(np.ones(3)), frozen=True, group="B")
        assert not p.value.requires_grad

    def test_group_validated(self):
        with pytest.raises(DomainError):
            Parameter("w", Tensor(np.ones(3)), group="C")
