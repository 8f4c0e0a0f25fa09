import itertools
import math
import zlib

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eegalign import kernels
from eegalign import tensor as tz
from eegalign.errors import ContractError, DimensionError, DomainError
from eegalign.gradchecks import grad_check
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
    kl_div_rows,
    l2_normalize,
    layer_norm,
    linear,
    log,
    log_softmax_rows,
    matmul,
    mul,
    no_grad,
    sigmoid,
    softmax_rows,
    sub,
    transpose,
    unfold,
)
from kernel_ops import (
    KERNEL_OPS,
    assert_keeps_numpys_bits,
    assert_same,
    layer_norm_composite,
    numpy_path,
    train_one_step,
    with_specials,
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


def _linear_composite(x, w, b):
    return matmul(x, w) + b


def _linear_outputs(op, arrays, live, probe):
    """The output and the gradient of each input under ``probe``; inputs not in ``live`` need none."""
    ts = [Tensor(a, requires_grad=i in live) for i, a in enumerate(arrays)]
    out = op(*ts)
    if live:
        (out * Tensor(probe)).sum().backward()
    return out, [t.grad for t in ts]


class TestLinear:
    """``linear`` is bitwise the two-node ``matmul(x, w) + b`` it replaces."""

    CASES = {
        "2d": ((5, 4), (4, 3), (3,)),
        "3d": ((2, 5, 4), (4, 3), (3,)),
        "bias-per-row": ((2, 5, 4), (4, 3), (5, 1)),
        "batched-weight": ((2, 5, 4), (2, 4, 3), (1, 3)),
    }

    @pytest.mark.parametrize("live", [set(c) for n in range(4) for c in itertools.combinations(range(3), n)],
                             ids=lambda live: "live-" + ("".join("xwb"[i] for i in sorted(live)) or "none"))
    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_values_and_gradients_are_the_composite_bitwise(self, case, live):
        rng = np.random.default_rng(80)
        arrays = [_rand(rng, *shape) for shape in self.CASES[case]]
        probe = _rand(rng, *np.broadcast_shapes(self.CASES[case][0][:-1] + (3,), self.CASES[case][2]))
        got, got_grads = _linear_outputs(linear, arrays, live, probe)
        want, want_grads = _linear_outputs(_linear_composite, arrays, live, probe)
        assert got.data.shape == want.data.shape and got.data.tobytes() == want.data.tobytes()
        assert got.requires_grad == bool(live)
        for i, (a, b) in enumerate(zip(got_grads, want_grads)):
            if i in live:
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            else:
                assert a is None and b is None

    def test_one_node(self):
        rng = np.random.default_rng(81)
        out = linear(Tensor(_rand(rng, 2, 5, 4), requires_grad=True), Tensor(_rand(rng, 4, 3)), Tensor(_rand(rng, 3)))
        assert _recorded_nodes(out) == 1

    def test_records_nothing_under_no_grad(self):
        rng = np.random.default_rng(82)
        _assert_records_nothing_under_no_grad(linear, [_rand(rng, 2, 5, 4), _rand(rng, 4, 3), _rand(rng, 3)])

    # a bias that widens the product would not fit the product it is written into
    @pytest.mark.parametrize("shapes", [((4,), (4, 3), (3,)), ((5, 4), (4,), (3,)),
                                        ((5, 4), (2, 3), (3,)), ((5, 4), (4, 3), (2,)),
                                        ((5, 4), (4, 3), (2, 5, 3))],
                             ids=["rank-one-x", "rank-one-w", "inner-mismatch", "bias-mismatch", "bias-widens"])
    def test_bad_shapes_rejected(self, shapes):
        with pytest.raises(DimensionError):
            linear(*[Tensor(np.zeros(shape)) for shape in shapes])


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

    def test_tensor_temperature_matches_scaled_input(self):
        rng = np.random.default_rng(4)
        x = _rand(rng, 5, 7)
        a = softmax_rows(Tensor(x) / Tensor(0.25))
        b = softmax_rows(Tensor(x / 0.25))
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(arrays(np.float64, (4, 6), elements=st.floats(-40, 40)))
    def test_rows_sum_to_one_property(self, x):
        out = softmax_rows(Tensor(x) / 0.5)
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
# the ops that record through tensor._unary, each a call on one input; a 0-d input has no softmax axis
UNARY_OPS = {
    "power": lambda a: a ** 3.0,
    "exp": exp,
    "log": log,
    "clamp_min": lambda a: clamp_min(a, 1.0),
    "sigmoid": sigmoid,
    "reshape": lambda a: a.reshape((-1, 1)),
    "transpose": lambda a: transpose(a, tuple(reversed(range(a.ndim)))),
    "softmax_rows": softmax_rows,
    "sum": lambda a: a.sum(),
}
UNARY_CASES = [(name, shape) for name in UNARY_OPS for shape in [(), (1,), (1, 1), (2, 3)]
               if shape or name != "softmax_rows"]


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

    @pytest.mark.parametrize("name,shape", UNARY_CASES, ids=str)
    def test_frozen_single_input_records_nothing(self, name, shape):
        out = UNARY_OPS[name](Tensor(np.random.default_rng(35).uniform(0.5, 2.0, size=shape)))
        assert not out.requires_grad and out._parents == () and out._vjp is None

    @pytest.mark.parametrize("name,shape", UNARY_CASES, ids=str)
    def test_live_single_input_records_one_node(self, name, shape):
        x = Tensor(np.random.default_rng(36).uniform(0.5, 2.0, size=shape), requires_grad=True)
        out = UNARY_OPS[name](x)
        assert out.requires_grad and out._parents == (x,)
        grads = out._vjp(np.ones(out.shape))
        assert len(grads) == 1 and np.shape(grads[0]) == shape


class TestNoGrad:
    def test_outputs_have_no_parents(self):
        rng = np.random.default_rng(33)
        x = Tensor(_rand(rng, 3, 3), requires_grad=True)
        w = Tensor(_rand(rng, 3, 3) + 3.0, requires_grad=True)
        with no_grad():
            outs = [x + w, x - w, x * w, x / w, matmul(x, w), exp(x), x.sum(), x ** 2.0, log(x * x),
                    clamp_min(x, 0.0), sigmoid(x), x.reshape(9), transpose(x), softmax_rows(x / w.sum()),
                    concat([x, w]), x[0]]
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


class TestTranspose:
    def test_negative_axes_gradient_matches_the_oracle(self):
        rng = np.random.default_rng(14)
        x = Tensor(_rand(rng, 2, 3, 4), requires_grad=True)
        probe = _rand(rng, 2, 4, 3)
        out = transpose(x, (0, -1, 1))
        assert out.shape == (2, 4, 3)
        (out * Tensor(probe)).sum().backward()
        # out[i, k, j] = x[i, j, k], so d(sum(out * probe)) / dx[i, j, k] = probe[i, k, j]
        np.testing.assert_array_equal(x.grad, np.einsum("ikj->ijk", probe))

    @pytest.mark.parametrize("axes", [(0, 0, 1), (0, 1, 3), (0, 1, -4), (0, 1)])
    def test_non_permutation_rejected(self, axes):
        with pytest.raises(DimensionError, match="permutation"):
            transpose(Tensor(np.zeros((2, 3, 4))), axes)


class TestOpGradients:
    """Central-difference checks for every primitive used downstream."""

    def test_broadcast_arithmetic(self):
        rng = np.random.default_rng(10)
        a = Parameter("a", _rand(rng, 4, 3))
        b = Parameter("b", _rand(rng, 3))
        c = Parameter("c", _rand(rng, 4, 1))
        probe = Tensor(_rand(rng, 4, 3))

        def f():
            out = (a + b) * c - b / 2.0
            return (out * probe).sum()

        report = grad_check(f, [a, b, c])
        assert report.passed, report.summary()

    def test_activations_and_norms(self, kernel_path):
        rng = np.random.default_rng(11)
        x = Parameter("x", _rand(rng, 5, 6))
        g = Parameter("g", 1.0 + 0.1 * _rand(rng, 6))
        b = Parameter("b", 0.1 * _rand(rng, 6))
        probe = Tensor(_rand(rng, 5, 6))

        def f():
            out = layer_norm(gelu(x), g, b)
            out = sigmoid(out) + l2_normalize(x)
            return (out * probe).sum()

        report = grad_check(f, [x, g, b])
        assert report.passed, report.summary()

    @pytest.mark.parametrize("width", [7, 9, 130])
    def test_layer_norm(self, width, kernel_path):
        rng = np.random.default_rng(width)
        x, g, b = (Parameter(name, a) for name, a in zip("xgb", _ln_inputs(rng, 2, 3, width)))
        probe = Tensor(_rand(rng, 2, 3, width))
        report = grad_check(lambda: (layer_norm(x, g, b) * probe).sum(), [x, g, b])
        assert report.passed, report.summary()

    def test_gelu_of_a_scalar(self, kernel_path):
        x = Parameter("x", 0.7)
        assert gelu(x).data == 0.5 * 0.7 * (1.0 + scipy.special.erf(0.7 / math.sqrt(2.0)))
        report = grad_check(lambda: gelu(x) * 3.0, [x])
        assert report.passed, report.summary()

    def test_div_by_a_divisor_whose_square_underflows(self):
        # below |y| of about 1e-162, y * y is 0, and -g * x / (y * y) would read inf or nan; up to about 1.5e-154
        # it is subnormal, with too few bits: at y = 3e-162 that quotient is 9 % off
        x = Tensor(np.array([1e-250, -1e-250, 0.0, 3.0, 1.0, 1e-170, 1e-170]), requires_grad=True)
        y = Tensor(np.array([1e-200, 1e-200, -3e-170, 2.0, 1e-150, 3e-162, 1e-160]), requires_grad=True)
        div(x, y).sum().backward()
        assert np.isfinite(y.grad).all()
        assert y.grad.tobytes() == np.array([-1e-250 / 1e-200 / 1e-200, 1e-250 / 1e-200 / 1e-200, -0.0,
                                             -3.0 / (2.0 * 2.0), -1.0 / (1e-150 * 1e-150),
                                             -1e-170 / 3e-162 / 3e-162, -1e-170 / 1e-160 / 1e-160]).tobytes()
        assert abs(-1e-170 / (3e-162 * 3e-162) / y.grad[5] - 1.0) > 0.05
        scalar = Tensor(1e-200, requires_grad=True)  # broadcast, so its gradient is a sum
        div(Tensor(np.array([1e-250, 2e-250])), scalar).sum().backward()
        assert scalar.grad == -1e-250 / 1e-200 / 1e-200 + -2e-250 / 1e-200 / 1e-200

    def test_softmax_and_logsoftmax(self):
        rng = np.random.default_rng(12)
        x = Parameter("x", _rand(rng, 4, 5))
        t = Parameter("t", 0.7)
        probe = Tensor(_rand(rng, 4, 5))

        def f():
            out = softmax_rows(x / t) + log_softmax_rows(x)
            return (out * probe).sum()

        report = grad_check(f, [x, t])
        assert report.passed, report.summary()

    def test_structural_ops(self):
        rng = np.random.default_rng(13)
        a = Parameter("a", _rand(rng, 2, 3, 4))
        b = Parameter("b", _rand(rng, 2, 2, 4))
        probe = Tensor(_rand(rng, 2, 5, 2))

        def f():
            joined = concat([a, b], axis=1)
            picked = joined[:, :, 1:3]
            out = transpose(picked, (0, 1, 2)).reshape((2, 5, 2))
            return (out * probe).sum()

        report = grad_check(f, [a, b])
        assert report.passed, report.summary()

    def test_diag_gather(self):
        rng = np.random.default_rng(14)
        x = Parameter("x", _rand(rng, 4, 4))
        idx = np.arange(4)

        def f():
            return x[(idx, idx)].sum()

        report = grad_check(f, [x])
        assert report.passed, report.summary()
        x.grad = None
        f().backward()
        np.testing.assert_array_equal(x.grad, np.eye(4))

    def test_attention(self):
        rng = np.random.default_rng(15)
        q = Parameter("q", _rand(rng, 2, 3, 4))
        k = Parameter("k", _rand(rng, 2, 3, 4))
        v = Parameter("v", _rand(rng, 2, 3, 4))
        probe = Tensor(_rand(rng, 2, 3, 4))

        def f():
            return (attention(q, k, v) * probe).sum()

        report = grad_check(f, [q, k, v])
        assert report.passed, report.summary()

    def test_kl_rows(self):
        rng = np.random.default_rng(16)
        raw_p = np.abs(_rand(rng, 3, 5)) + 0.2
        raw_q = np.abs(_rand(rng, 3, 5)) + 0.2
        p = Parameter("p", raw_p / raw_p.sum(-1, keepdims=True))
        q = Parameter("q", raw_q / raw_q.sum(-1, keepdims=True))

        def f():
            return kl_div_rows(p, q)

        report = grad_check(f, [p, q])
        assert report.passed, report.summary()

    def test_unfold_padded(self):
        rng = np.random.default_rng(17)
        x = Parameter("x", _rand(rng, 2, 3, 5, 5))
        probe = Tensor(_rand(rng, 2, 25, 27))

        def f():
            return (unfold(x, 3, 3, stride=1, padding=1) * probe).sum()

        report = grad_check(f, [x])
        assert report.passed, report.summary()

    def test_unfold_tiled_fast_path(self):
        rng = np.random.default_rng(18)
        x = Parameter("x", _rand(rng, 2, 3, 4, 4))
        probe = Tensor(_rand(rng, 2, 4, 12))

        def f():
            return (unfold(x, 2, 2, stride=2, padding=0) * probe).sum()

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
        x = _rand(rng, 2, 3, 8, 9)
        tiled = unfold(Tensor(x[..., :8]), 4, 4, stride=4).data  # 4x4 tiles cover 8x8 exactly: the reindexing
        general = unfold(Tensor(x), 4, 4, stride=4).data  # no window reaches the ninth column, which breaks the tiling
        loop = np.stack([np.stack([x[b, :, i * 4:i * 4 + 4, j * 4:j * 4 + 4].reshape(-1)
                                   for i in range(2) for j in range(2)]) for b in range(2)])
        np.testing.assert_array_equal(tiled, loop)
        np.testing.assert_array_equal(general, loop)

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            unfold(Tensor(np.zeros((1, 1, 3, 3))), 5, 5)

    @pytest.mark.parametrize("padding", [-1, (0, -1), (-1, 2)])
    def test_negative_padding_is_refused(self, padding, kernel_path):
        # cropping is not padding; a kernel that checks its bounds would crop without a word
        with pytest.raises(DomainError):
            unfold(Tensor(np.zeros((1, 1, 6, 6))), 3, 3, padding=padding)


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
    def test_matches_the_unfold_formulation(self, size, kh, kw, kernel_path):
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
    def test_finite_differences_per_parent(self, live, kernel_path):
        rng = np.random.default_rng(41)
        x0, k0 = _rand(rng, 2, 2, 5, 6), _rand(rng, 2, 2, 3, 5)
        x = Parameter(live, x0) if live == "image" else Tensor(x0)
        k = Parameter(live, k0) if live == "kernel" else Tensor(k0)
        probe = Tensor(_rand(rng, 2, 2, 5, 6))

        report = grad_check(lambda: (dynamic_conv(x, k) ** 2.0 * probe).sum(), [x if live == "image" else k])
        assert report.passed, report.summary()

    def test_frozen_image_gets_none_and_kernel_gradient_is_unchanged(self, kernel_path):
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


class TestTapSum:
    @pytest.mark.parametrize("wrong", ["rank", "float32", "channels", "batch"])
    def test_an_input_the_kernel_cannot_read_is_refused(self, wrong, kernel_path):
        # the 3x3 kernels of two 3-channel samples need float64 (2, 3, h, w) images
        x = {"rank": np.zeros((2, 3, 6)), "float32": np.zeros((2, 3, 6, 6), np.float32),
             "channels": np.zeros((2, 2, 6, 6)), "batch": np.zeros((1, 3, 6, 6))}[wrong]
        with pytest.raises(ContractError, match="tap sum needs"):
            tz._tap_sum(x, np.zeros((2, 3, 3, 3)))


# -- each kernel-backed op of KERNEL_OPS against its numpy path -----------


def _rng_for(*key):
    return np.random.default_rng(zlib.crc32(repr(key).encode()))


def _recording(fn, owner, spy, seen):
    """``fn``, recording into ``seen`` the kernels each call takes, forward and in its VJP, and checking that its
    value and VJP have the bits the numpy path gives from the same inputs and g."""

    def call(*args, **kwargs):
        start = len(spy.calls)
        out = fn(*args, **kwargs)
        record = [owner, spy.calls[start:], None]
        seen.append(record)
        if not isinstance(out, Tensor):
            return out
        with numpy_path():
            shadow = fn(*args, **kwargs)
        assert_same([out.data], [shadow.data])
        vjp = out._vjp

        def spied(g):
            start = len(spy.calls)
            grads = vjp(g)
            record[2] = spy.calls[start:]
            with numpy_path():
                assert_same(list(grads), list(shadow._vjp(g)))
            return grads

        if vjp is not None:
            out._vjp = spied
        return out

    return call


class TestKernelOps:
    """Each op of ``KERNEL_OPS`` gives the numpy path's bits, shapes and strides on the compiled kernels."""

    @pytest.mark.parametrize("name, draw", [(name, draw) for name, op in KERNEL_OPS.items() for draw in op.draws],
                             ids=str)
    def test_draws_keep_numpys_bits(self, name, draw, kernel_path):
        # at each scale, plain, and with the special rows in the first rows of a batch that has room for them and
        # the special entries among the drawn ones
        op = KERNEL_OPS[name]
        for scale in op.scales:
            rng = _rng_for(name, draw, scale)
            assert_keeps_numpys_bits(op, op.build(rng, draw, scale))
            if op.special_rows or op.special_entries:
                assert_keeps_numpys_bits(op, with_specials(op, op.build(rng, draw, scale), rng))

    @pytest.mark.parametrize("name, row, width", [(name, row, width) for name, op in KERNEL_OPS.items()
                                                  for row in op.special_rows
                                                  for width in sorted({draw[-1] for draw in op.draws})], ids=str)
    def test_a_special_row_alone_keeps_numpys_bits(self, name, row, width, kernel_path):
        op = KERNEL_OPS[name]
        inputs = op.build(_rng_for(name, width), (width,), 1.0)
        inputs[op.special_inputs[0]][...] = op.special_rows[row](width)
        assert_keeps_numpys_bits(op, inputs)

    @pytest.mark.parametrize("name, case", [(name, case) for name, op in KERNEL_OPS.items() for case in op.cases()],
                             ids=str)
    def test_each_case_takes_its_kernels_and_keeps_numpys_bits(self, name, case, kernel_path, install_spy):
        # a case's nan_only outputs have NaN where the numpy path's have it, and their numbers' bits, for the
        # reason its row gives
        op = KERNEL_OPS[name]
        inputs, takes, nan_only = op.cases()[case]
        spy = install_spy(kernels.compiled()) if kernel_path == "compiled" else None
        want = assert_keeps_numpys_bits(op, inputs, nan_only)
        assert spy is None or sorted(set(spy.calls)) == sorted(op.kernels if takes is None else takes)
        assert not nan_only or op.nan_reason and any(np.isnan(want[i]).any() for i in nan_only)

    @pytest.mark.parametrize("name", KERNEL_OPS)
    def test_the_models_calls_take_the_kernels(self, name, kernels_spy, monkeypatch):
        seen = []
        for owner, attr in KERNEL_OPS[name].model:
            where = owner.__name__.rsplit(".", 1)[-1]
            monkeypatch.setattr(owner, attr, _recording(getattr(owner, attr), where, kernels_spy, seen))
        train_one_step()
        assert sorted(map(tuple, seen), key=str) == sorted(KERNEL_OPS[name].model_calls, key=str)


# -- fused ops against the primitive compositions they replaced -----------


def _softmax_composite(x, axis=-1):
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    e = exp(x - shift)
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax_composite(x, axis=-1):
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    z = x - shift
    return z - log(exp(z).sum(axis=axis, keepdims=True))


def _attention_composite(q, k, v):
    scores = matmul(q, transpose(k)) * (1.0 / math.sqrt(q.shape[-1]))
    return matmul(_softmax_composite(scores, axis=-1), v)


def _multi_head_composite(heads):
    """Per-head attention with the heads split and merged by reshape and transpose nodes."""
    def swap_rows_and_heads(t):  # (..., a, b, e) <-> (..., b, a, e)
        r = t.ndim
        return transpose(t, tuple(range(r - 3)) + (r - 2, r - 3, r - 1))

    def split(t):
        return swap_rows_and_heads(t.reshape(t.shape[:-1] + (heads, t.shape[-1] // heads)))

    def composite(q, k, v):
        z = swap_rows_and_heads(_attention_composite(split(q), split(k), split(v)))
        return z.reshape(z.shape[:-2] + (z.shape[-2] * z.shape[-1],))

    return composite


def _recorded_nodes(root):
    """Tensors with a VJP reachable from ``root``: the tape it built."""
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


def _assert_within_largest(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def _values_and_grads(op, arrays, rng):
    """Output values and every input's gradient under a random probe."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*ts)
    (out * Tensor(rng.normal(size=out.shape))).sum().backward()
    return out.data, [t.grad for t in ts]


def _assert_matches_composite(fused, composite, arrays, seed):
    got_out, got_grads = _values_and_grads(fused, arrays, np.random.default_rng(seed))
    want_out, want_grads = _values_and_grads(composite, arrays, np.random.default_rng(seed))
    _assert_within_largest(got_out, want_out)
    for got, want in zip(got_grads, want_grads):
        _assert_within_largest(got, want)


def _assert_gated(op, arrays, frozen):
    """Parents in ``frozen`` get None; the others' VJPs are bitwise the all-live ones."""
    all_live = op(*[Tensor(a, requires_grad=True) for a in arrays])
    g = np.random.default_rng(0).normal(size=all_live.shape)
    want = all_live._vjp(g)
    got = op(*[Tensor(a, requires_grad=i not in frozen) for i, a in enumerate(arrays)])._vjp(g)
    for i, (a, b) in enumerate(zip(got, want)):
        if i in frozen:
            assert a is None
        else:
            assert a.tobytes() == b.tobytes()


def _assert_records_nothing_under_no_grad(op, arrays):
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    taped = op(*ts)
    with no_grad():
        bare = op(*ts)
    assert not bare.requires_grad and bare._parents == () and bare._vjp is None
    assert bare.data.tobytes() == taped.data.tobytes()


def _ln_inputs(rng, *shape):
    d = shape[-1]
    return [_rand(rng, *shape) * 3.0 + 1.0, 1.0 + 0.3 * _rand(rng, d), 0.2 * _rand(rng, d)]


def _attn_inputs(rng, lead, m, n, d, dv):
    return [_rand(rng, *lead, m, d), _rand(rng, *lead, n, d), _rand(rng, *lead, n, dv)]


class TestFusedLayerNorm:
    @pytest.mark.parametrize("shape", [(5, 8), (3, 1, 6), (2, 3, 7, 16)])
    def test_matches_the_composite(self, shape):
        arrays = _ln_inputs(np.random.default_rng(50), *shape)
        _assert_matches_composite(layer_norm, layer_norm_composite, arrays, seed=51)

    def test_forward_is_the_composite_bitwise(self):
        arrays = _ln_inputs(np.random.default_rng(52), 4, 9, 32)
        fused = layer_norm(*[Tensor(a) for a in arrays])
        assert fused.data.tobytes() == layer_norm_composite(*[Tensor(a) for a in arrays]).data.tobytes()

    @pytest.mark.parametrize("frozen", [{0}, {1}, {2}, {1, 2}, {0, 2}])
    def test_frozen_parents_get_none_and_live_ones_are_unchanged(self, frozen):
        _assert_gated(layer_norm, _ln_inputs(np.random.default_rng(53), 3, 4, 8), frozen)

    def test_records_nothing_under_no_grad(self):
        _assert_records_nothing_under_no_grad(layer_norm, _ln_inputs(np.random.default_rng(54), 3, 4, 8))

    def test_a_model_sized_call_is_one_node(self):
        rng = np.random.default_rng(55)
        x = Tensor(_rand(rng, 32, 21, 32), requires_grad=True)
        out = layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)))
        assert _recorded_nodes(out) == 1

    def test_bad_affine_shape_rejected(self):
        with pytest.raises(DimensionError):
            layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))

    def test_a_scalar_is_refused_naming_its_shape(self, kernel_path):
        # a 0-d x has no last axis to normalize
        with pytest.raises(DimensionError, match=r"x \(\)"):
            layer_norm(Tensor(1.0), Tensor(1.0), Tensor(0.0))


class TestFusedAttention:
    @pytest.mark.parametrize("lead,m,n,d,dv", [
        ((), 5, 5, 4, 4), ((3,), 1, 6, 4, 3), ((2, 3), 5, 6, 4, 3), ((2, 4), 21, 21, 8, 8),
    ])
    def test_matches_the_composite(self, lead, m, n, d, dv):
        arrays = _attn_inputs(np.random.default_rng(60), lead, m, n, d, dv)
        _assert_matches_composite(attention, _attention_composite, arrays, seed=61)

    @pytest.mark.parametrize("frozen", [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}])
    def test_frozen_parents_get_none_and_live_ones_are_unchanged(self, frozen):
        _assert_gated(attention, _attn_inputs(np.random.default_rng(62), (2, 2), 3, 5, 4, 3), frozen)

    def test_records_nothing_under_no_grad(self):
        _assert_records_nothing_under_no_grad(attention, _attn_inputs(np.random.default_rng(64), (2,), 3, 5, 4, 3))

    def test_a_model_sized_call_is_one_node(self):
        q, k, v = (Tensor(a, requires_grad=True)
                   for a in _attn_inputs(np.random.default_rng(65), (32, 4), 21, 21, 8, 8))
        assert _recorded_nodes(attention(q, k, v)) == 1

    @pytest.mark.parametrize("shapes", [
        ((2, 3, 4), (2, 5, 3), (2, 5, 4)), ((2, 3, 4), (2, 5, 4), (2, 6, 4)), ((4,), (5, 4), (5, 4)),
    ])
    def test_bad_shapes_rejected(self, shapes):
        with pytest.raises(DimensionError):
            attention(*[Tensor(np.zeros(s)) for s in shapes])

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_heads_match_the_split_and_merged_composite(self, lead, heads):
        arrays = _attn_inputs(np.random.default_rng(66), lead, 5, 6, 8, 12)
        _assert_matches_composite(lambda q, k, v: attention(q, k, v, heads), _multi_head_composite(heads),
                                  arrays, seed=67)

    @pytest.mark.parametrize("frozen", [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}])
    def test_multi_head_frozen_parents_get_none(self, frozen):
        arrays = _attn_inputs(np.random.default_rng(68), (2, 2), 3, 5, 4, 6)
        _assert_gated(lambda q, k, v: attention(q, k, v, 2), arrays, frozen)

    def test_a_model_sized_multi_head_call_is_one_node(self):
        q, k, v = (Tensor(a, requires_grad=True)
                   for a in _attn_inputs(np.random.default_rng(69), (32,), 21, 21, 64, 64))
        assert _recorded_nodes(attention(q, k, v, 4)) == 1

    @pytest.mark.parametrize("heads,d,dv", [(0, 4, 4), (-2, 4, 4), (3, 6, 4), (2, 3, 4), (2, 4, 3)])
    def test_heads_that_do_not_divide_the_dims_rejected(self, heads, d, dv):
        q, k, v = _attn_inputs(np.random.default_rng(0), (2,), 3, 5, d, dv)
        with pytest.raises(DimensionError, match="heads"):
            attention(Tensor(q), Tensor(k), Tensor(v), heads)


class TestFusedSoftmax:
    @pytest.mark.parametrize("shape,axis,temperature", [
        ((4, 6), -1, 1.0), ((4, 6), -1, 0.3), ((3, 4, 5), 0, 1.0), ((3, 4, 5), 1, 2.5),
        ((2, 3, 4, 5), -1, 1.0 / 14.0),
    ])
    def test_matches_the_composite(self, shape, axis, temperature):
        arrays = [_rand(np.random.default_rng(70), *shape) * 4.0]
        _assert_matches_composite(lambda x: softmax_rows(x / temperature, axis),
                                  lambda x: _softmax_composite(x / temperature, axis), arrays, seed=71)

    @pytest.mark.parametrize("axis", [-1, 0])
    def test_tensor_temperature_matches_the_composite(self, axis):
        arrays = [_rand(np.random.default_rng(72), 5, 7) * 2.0, np.asarray(0.7)]
        _assert_matches_composite(lambda x, t: softmax_rows(x / t, axis),
                                  lambda x, t: _softmax_composite(x / t, axis), arrays, seed=73)

    def test_frozen_input_leaves_the_temperature_gradient_unchanged(self):
        rng = np.random.default_rng(74)
        x0, probe = _rand(rng, 4, 6), Tensor(_rand(rng, 4, 6))

        def grads(x_live):
            x, t = Tensor(x0, requires_grad=x_live), Tensor(0.4, requires_grad=True)
            (softmax_rows(x / t) * probe).sum().backward()
            return x.grad, t.grad

        gx, gt = grads(False)
        assert gx is None
        assert gt.tobytes() == grads(True)[1].tobytes()

    def test_records_nothing_under_no_grad(self):
        arrays = [_rand(np.random.default_rng(75), 4, 6), np.asarray(0.5)]
        _assert_records_nothing_under_no_grad(lambda x, t: softmax_rows(x / t), arrays)

    def test_a_model_sized_call_is_one_node_after_the_division(self):
        rng = np.random.default_rng(76)
        x = Tensor(_rand(rng, 32, 32), requires_grad=True)
        assert _recorded_nodes(softmax_rows(x)) == 1
        assert _recorded_nodes(softmax_rows(x / Tensor(1.0 / 14.0, requires_grad=True))) == 2


class TestFusedLogSoftmax:
    @pytest.mark.parametrize("shape,axis", [((4, 6), -1), ((3, 4, 5), 0), ((3, 4, 5), 1), ((2, 3, 4, 5), -1)])
    def test_matches_the_composite(self, shape, axis):
        arrays = [_rand(np.random.default_rng(80), *shape) * 4.0]
        _assert_matches_composite(lambda x: log_softmax_rows(x, axis),
                                  lambda x: _log_softmax_composite(x, axis), arrays, seed=81)

    def test_records_nothing_under_no_grad(self):
        _assert_records_nothing_under_no_grad(log_softmax_rows, [_rand(np.random.default_rng(82), 4, 6)])

    def test_a_model_sized_call_is_one_node(self):
        x = Tensor(_rand(np.random.default_rng(83), 32, 32), requires_grad=True)
        assert _recorded_nodes(log_softmax_rows(x)) == 1


class TestSoftmaxKernel:
    @pytest.mark.parametrize("case,cause", [
        ("0-d", "not an axis"), ("axis 2 of 2", "not an axis"), ("axis -3 of 2", "not an axis"),
        ("empty rows", "are empty"),
    ])
    @pytest.mark.parametrize("op", [softmax_rows, log_softmax_rows])
    def test_an_input_without_rows_is_refused(self, op, case, cause):
        x, axis = {"0-d": (np.array(3.0), -1), "axis 2 of 2": (np.ones((2, 3)), 2),
                   "axis -3 of 2": (np.ones((2, 3)), -3), "empty rows": (np.ones((2, 0)), -1)}[case]
        with pytest.raises(DimensionError, match=cause):
            op(Tensor(x), axis)

    def test_attention_without_keys_is_refused(self):
        q, k, v = np.ones((2, 3, 4)), np.ones((2, 0, 4)), np.ones((2, 0, 4))
        with pytest.raises(DimensionError, match="at least one key"):
            attention(Tensor(q), Tensor(k), Tensor(v), 2)


def _backward_storing_every_grad(loss):
    """The sweep before leaf-only storage: every tensor on the path gets .grad."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((parent, False) for parent in node._parents if id(parent) not in seen)
    flows = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        flow = flows.pop(id(node), None)
        if flow is None:
            continue
        if node.requires_grad:
            node.grad = flow.copy() if node.grad is None else node.grad + flow
        if node._vjp is None:
            continue
        for parent, contrib in zip(node._parents, node._vjp(flow)):
            if contrib is None or not parent.requires_grad:
                continue
            held = flows.get(id(parent))
            flows[id(parent)] = contrib if held is None else held + contrib


class TestLeafOnlyGradients:
    @staticmethod
    def graph(seed=90):
        rng = np.random.default_rng(seed)
        leaves = {
            "x": Tensor(_rand(rng, 2, 5, 8), requires_grad=True),
            "w": Tensor(_rand(rng, 8, 8), requires_grad=True),
            "gain": Tensor(1.0 + 0.1 * _rand(rng, 8), requires_grad=True),
            "frozen": Tensor(_rand(rng, 8)),
            "tau": Tensor(0.5, requires_grad=True),
        }
        h = matmul(leaves["x"], leaves["w"])
        n = layer_norm(h, leaves["gain"], leaves["frozen"])
        a = gelu(attention(n, n, h)) + leaves["x"]
        s = softmax_rows(a.sum(axis=1) / leaves["tau"])
        loss = (log_softmax_rows(a) * a).sum() + (s * s).sum()
        return leaves, [h, n, a, s, loss], loss

    def test_intermediates_keep_no_grad(self):
        leaves, intermediates, loss = self.graph()
        loss.backward()
        assert all(t.grad is None for t in intermediates)
        assert all(leaves[name].grad is not None for name in ("x", "w", "gain", "tau"))
        assert leaves["frozen"].grad is None

    def test_leaf_gradients_are_bitwise_those_of_the_every_node_sweep(self):
        leaves, _, loss = self.graph()
        loss.backward()
        reference, intermediates, ref_loss = self.graph()
        _backward_storing_every_grad(ref_loss)
        assert all(t.grad is not None for t in intermediates)
        for name, leaf in leaves.items():
            want = reference[name].grad
            assert (leaf.grad is None) == (want is None)
            if want is not None:
                assert leaf.grad.tobytes() == want.tobytes()

    def test_a_leaf_root_gets_its_gradient(self):
        x = Tensor(np.asarray(2.0), requires_grad=True)
        x.backward()
        assert x.grad == 1.0


class TestSigmoidStability:
    def test_saturation_is_exact(self):
        out = sigmoid(Tensor([-np.inf, -800.0, 0.0, 800.0, np.inf]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.5, 1.0, 1.0])

    def test_no_overflow_warnings(self):
        with np.errstate(over="raise"):
            sigmoid(Tensor([-1000.0, 1000.0]))


class TestClampMin:
    def test_values_and_gradient_mask(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        clamp_min(x, 0.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0])


class TestParameter:
    def test_frozen_disables_grad(self):
        p = Parameter("w", np.ones(3), frozen=True, group="B")
        assert not p.requires_grad

    def test_is_a_leaf_tensor_over_its_array(self):
        data = np.ones(3)
        p = Parameter("w", data)
        assert isinstance(p, Tensor) and p.data is data and p.requires_grad and p._vjp is None
        (p * 2.0).sum().backward()
        np.testing.assert_array_equal(p.grad, [2.0, 2.0, 2.0])

    def test_group_validated(self):
        with pytest.raises(DomainError):
            Parameter("w", np.ones(3), group="C")
