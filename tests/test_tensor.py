import itertools
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eegalign import backbone, dynfilter, fusion, kernels
from eegalign import tensor as tz
from eegalign.config import default_config
from eegalign.data import generate_synthetic, make_batch, zero_shot_split
from eegalign.dynfilter import FilterGenerator
from eegalign.errors import ContractError, DimensionError, DomainError
from eegalign.gradchecks import grad_check
from eegalign.model import AlignmentModel
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
from eegalign.trainer import Adam, train_step


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


# x for unfold's general path: C-order, dense but transposed, read backwards, and a slice that is not dense
UNFOLD_LAYOUTS = {
    "c-order": lambda rng: _rand(rng, 2, 3, 7, 8),
    "transposed": lambda rng: _rand(rng, 8, 2, 7, 3).transpose(1, 3, 2, 0),
    "negative-strides": lambda rng: _rand(rng, 2, 3, 7, 8)[::-1, :, ::-1],
    "sliced": lambda rng: _rand(rng, 3, 4, 9, 17)[:2, 1:, 1:8, ::2],
}


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

    @pytest.mark.parametrize("layout", sorted(UNFOLD_LAYOUTS))
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2, (2, 1)])
    @pytest.mark.parametrize("kh,kw", [(3, 3), (2, 4)])
    def test_general_path_against_the_window_loop(self, layout, stride, padding, kh, kw, kernel_path):
        # values against a loop over windows, and the numpy path's buffer layout, whatever x's strides; the VJP
        # against the numpy path's sum of tap slices, bit for bit and stride for stride, for a C-order and a
        # transposed g, since later BLAS calls see both results as operands
        x = UNFOLD_LAYOUTS[layout](np.random.default_rng(21))
        ph, pw = (padding, padding) if isinstance(padding, int) else padding
        bsz, ch, h, w = x.shape
        oh, ow = (h + 2 * ph - kh) // stride + 1, (w + 2 * pw - kw) // stride + 1
        out = unfold(Tensor(x, requires_grad=True), kh, kw, stride=stride, padding=padding)
        padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        loop = np.stack([np.stack([padded[b, :, i * stride:i * stride + kh, j * stride:j * stride + kw].reshape(-1)
                                   for i in range(oh) for j in range(ow)]) for b in range(bsz)])
        assert out.data.tobytes() == loop.tobytes()
        buffer = np.empty((bsz, ch, kh, kw, oh, ow)).transpose(0, 4, 5, 1, 2, 3).reshape(loop.shape)
        assert out.data.strides == buffer.strides
        for g in (_rand(np.random.default_rng(22), *loop.shape),
                  _rand(np.random.default_rng(23), *loop.shape[::-1]).T):
            (gx,) = out._vjp(g)
            gcols = g.reshape(bsz, oh, ow, ch, kh, kw).transpose(0, 3, 4, 5, 1, 2)
            gpad = np.zeros(padded.shape)
            for u in range(kh):
                for v in range(kw):
                    gpad[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride] += gcols[:, :, u, v]
            want = gpad[:, :, ph:ph + h, pw:pw + w]
            assert gx.tobytes() == want.tobytes() and gx.strides == want.strides


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

    @pytest.mark.parametrize("layout", ["transposed", "negative strides", "sliced"])
    def test_any_image_layout_gives_the_padded_sums_bits(self, layout, kernel_path):
        # an infinite and a NaN tap: their products with the zeros outside the image are NaN, as in numpy's padded
        # copy. Which of two NaN addends a sum keeps is not compared (see TestTapSum)
        rng = np.random.default_rng(44)
        x = {"transposed": _rand(rng, 3, 2, 11, 7).transpose(0, 1, 3, 2),
             "negative strides": _rand(rng, 3, 2, 7, 11)[:, ::-1, ::-1, ::-1],
             "sliced": _rand(rng, 3, 4, 14, 11)[:, ::2, ::2]}[layout]
        k, g = _rand(rng, 3, 2, 5, 3), _rand(rng, 3, 2, 11, 7).transpose(0, 1, 3, 2)
        k[0, 1, 0, 2], k[2, 0, 4, 0] = np.inf, np.nan
        padded, flipped = _pad_for(x, k), k[:, :, ::-1, ::-1]
        want_gk = np.stack([np.einsum("bchw,bchw->bc", g, padded[:, :, u:u + 7, v:v + 11])
                            for u in range(5) for v in range(3)], axis=-1).reshape(k.shape)
        with np.errstate(invalid="ignore"):
            out = dynamic_conv(Tensor(x, requires_grad=True), Tensor(k, requires_grad=True))
            got = [out.data, *out._vjp(g)]
            want = [_whole_batch_tap_sum(padded, k, 7, 11), _whole_batch_tap_sum(_pad_for(g, k), flipped, 7, 11),
                    want_gk]
        assert np.isnan(want[0][0, 1]).any() and np.isnan(want[1][0, 1]).any()  # the infinite tap's zeros
        for a, b in zip(got, want):
            number = ~np.isnan(b)
            assert np.array_equal(np.isnan(a), ~number) and a[number].tobytes() == b[number].tobytes()

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


def _pad_for(x, k):
    """``x`` zero-padded by half of ``k``'s odd sides, as the tap sum reads it."""
    return np.pad(x, ((0, 0), (0, 0), (k.shape[2] // 2,) * 2, (k.shape[3] // 2,) * 2))


def _whole_batch_tap_sum(padded, k, h, w):
    """The tap sum written out: each tap's product added into zeros in (u, v) order."""
    out = np.zeros(padded.shape[:2] + (h, w))
    for u in range(k.shape[2]):
        for v in range(k.shape[3]):
            out += np.einsum("bchw,bc->bchw", padded[:, :, u:u + h, v:v + w], k[:, :, u, v])
    return out


class TestDynamicConvBatchSizes:
    @pytest.mark.parametrize("side", [16, 32])
    @pytest.mark.parametrize("bsz", [1, 9, 10, 11, 23, 32])
    def test_bitwise_the_whole_batch_sum(self, side, bsz, kernel_path):
        rng = np.random.default_rng(bsz + side)
        x0, k0, g = _rand(rng, bsz, 3, side, side), _rand(rng, bsz, 3, 5, 5), _rand(rng, bsz, 3, side, side)
        out = dynamic_conv(Tensor(x0, requires_grad=True), Tensor(k0, requires_grad=True))
        gx, gk = out._vjp(g)
        pad = ((0, 0), (0, 0), (2, 2), (2, 2))
        padded = np.pad(x0, pad)
        assert np.array_equal(out.data, _whole_batch_tap_sum(padded, k0, side, side))
        assert np.array_equal(gx, _whole_batch_tap_sum(np.pad(g, pad), k0[:, :, ::-1, ::-1], side, side))
        want_gk = np.empty(k0.shape)
        for u in range(5):
            for v in range(5):
                want_gk[:, :, u, v] = np.einsum("bchw,bchw->bc", g, padded[:, :, u:u + side, v:v + side])
        assert np.array_equal(gk, want_gk)


# (samples, channels, h, w, kh, kw) that the batch-size tests above do not reach
TAP_SUM_CASES = {"one-sample": (1, 3, 8, 8, 5, 5), "1x1": (2, 3, 6, 7, 1, 1), "3x5": (2, 2, 7, 9, 3, 5),
                 "5x1": (3, 1, 6, 4, 5, 1)}
# signed zeros, subnormals, overflow and non-finite values (rarer, so that most sums stay numbers), whose bits
# a reordered or flushed sum would change
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -1e-310, 1e-300, 1e200, 1.5, -2.25, np.inf, -np.inf, np.nan]
SPECIAL_ODDS = np.array([12] * 8 + [1] * 3) / 99


class TestTapSum:
    @pytest.mark.parametrize("case", sorted(TAP_SUM_CASES))
    @pytest.mark.parametrize("flipped", [False, True], ids=["kernel", "flipped-view"])
    def test_bitwise_the_whole_batch_sum(self, case, flipped, kernel_path):
        bsz, ch, h, w, kh, kw = TAP_SUM_CASES[case]
        rng = np.random.default_rng(46)
        x = _rand(rng, bsz, ch, h, w)
        k = _rand(rng, bsz, ch, kh, kw)
        if flipped:  # the view with negative strides that the image-side VJP passes
            k = k[:, :, ::-1, ::-1]
        assert np.array_equal(tz._tap_sum(x, k), _whole_batch_tap_sum(_pad_for(x, k), k, h, w))

    @pytest.mark.parametrize("wrong", ["rank", "float32", "channels", "batch"])
    def test_an_input_the_kernel_cannot_read_is_refused(self, wrong, kernel_path):
        # the 3x3 kernels of two 3-channel samples need float64 (2, 3, h, w) images
        x = {"rank": np.zeros((2, 3, 6)), "float32": np.zeros((2, 3, 6, 6), np.float32),
             "channels": np.zeros((2, 2, 6, 6)), "batch": np.zeros((1, 3, 6, 6))}[wrong]
        with pytest.raises(ContractError, match="tap sum needs"):
            tz._tap_sum(x, np.zeros((2, 3, 3, 3)))

    def test_special_values_keep_their_bits(self, kernel_path):
        # a NaN's sign and payload are not compared: which of two NaN addends a sum keeps is the order in which
        # the machine code passes them, which neither numpy's loops nor a C compiler fixes
        rng = np.random.default_rng(47)
        x, k = (rng.choice(SPECIAL_VALUES, size=size, p=SPECIAL_ODDS) for size in ((4, 3, 6, 6), (4, 3, 3, 3)))
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = tz._tap_sum(x, k), _whole_batch_tap_sum(_pad_for(x, k), k, 6, 6)
        number = ~np.isnan(want)
        assert np.array_equal(np.isnan(got), ~number) and 100 < number.sum() < got.size
        assert got[number].tobytes() == want[number].tobytes()


def _gelu_numpy(x):
    """tensor.gelu's forward by numpy and scipy: e = erf(x / sqrt(2)) and (0.5 * x) * (1 + e)."""
    e = scipy.special.erf(x / math.sqrt(2.0))
    out = 0.5 * x
    out *= 1.0 + e
    return e, out


def _steps(x, n):
    """x and its n nearest floats on each side."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


MAXLOG = 7.09782712893383996732e2  # Cephes' erfc is 0 once x * x passes it
# |x / sqrt(2)| near 1 (where Cephes' erf turns to 1 - erfc), 8 (where erfc changes coefficients) and
# sqrt(MAXLOG) (where erfc underflows), with both signs
GELU_EDGES = np.array([sign * v for t in (1.0, 8.0, math.sqrt(MAXLOG)) for v in _steps(t * math.sqrt(2.0), 40)
                       for sign in (1.0, -1.0)])
GELU_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-300, np.inf, -np.inf, 1e308, -1e308])


class TestGelu:
    @pytest.mark.parametrize("scale", [0.1, 0.5, 1.0, 2.0, 5.0, 12.0, 40.0])
    def test_bitwise_numpy_on_normal_draws(self, scale, kernel_path):
        x = scale * np.random.default_rng(48).normal(size=(3, 7, 1001))
        e, out = tz._gelu_parts(x)
        want_e, want_out = _gelu_numpy(x)
        assert np.array_equal(e.view(np.uint64), want_e.view(np.uint64))
        assert np.array_equal(out.view(np.uint64), want_out.view(np.uint64))

    def test_bitwise_numpy_at_the_branch_points_and_special_values(self, kernel_path):
        # np.nan is the quiet NaN erf returns, so a product of it and x's NaN has the same bits whichever it
        # keeps; it sits at every position of an 8-entry SIMD block and last, in a loop's tail
        x = np.concatenate([GELU_EDGES, GELU_SPECIALS, np.linspace(-60.0, 60.0, 2001)])
        x = np.append(np.insert(x, np.arange(0, 40 * 37, 37), np.nan), np.nan)
        with np.errstate(invalid="ignore"):
            e, out = tz._gelu_parts(x)
            want_e, want_out = _gelu_numpy(x)
        assert e.tobytes() == want_e.tobytes() and out.tobytes() == want_out.tobytes()

    def test_a_negative_nan_gives_nan(self, kernel_path):
        # which NaN a product of two keeps is its operand order in the machine code, and numpy's own loops give
        # x's NaN in their body and erf's in their tail, so only erf's bits are compared
        x = np.where(np.arange(19) % 3 == 0, -np.nan, np.linspace(-3.0, 3.0, 19))
        e, out = tz._gelu_parts(x)
        want_e, want_out = _gelu_numpy(x)
        assert e.tobytes() == want_e.tobytes()
        assert np.array_equal(np.isnan(out), np.isnan(x))
        assert out[~np.isnan(x)].tobytes() == want_out[~np.isnan(x)].tobytes()

    def test_a_strided_input_gives_the_same_bits(self, kernel_path):
        x = np.random.default_rng(49).normal(size=(6, 40))[:, ::3].T
        e, out = tz._gelu_parts(x)
        want_e, want_out = _gelu_numpy(x)
        assert e.tobytes() == want_e.tobytes() and out.tobytes() == want_out.tobytes()

    def test_the_kernel_runs_on_the_generators_layout(self, kernels_spy, monkeypatch):
        # each stem conv hands gelu a (B, C, oh, ow) view of its (B, L, C) rows: dense, but not in C order
        inputs = []

        def recording_gelu(a):
            inputs.append(a.data)
            return gelu(a)

        monkeypatch.setattr(dynfilter, "gelu", recording_gelu)
        FilterGenerator(3, 3, np.random.default_rng(51)).generate(Tensor(_rand(np.random.default_rng(52), 4, 3, 9, 9)))
        stem = inputs[:2]
        assert len(stem) == 2
        for x in stem:
            assert not x.flags.c_contiguous
            kernels_spy.calls.clear()
            got = tz._gelu_parts(x)
            assert kernels_spy.calls == ["gelu"]
            monkeypatch.setattr(kernels, "_loaded", [None])
            want = tz._gelu_parts(x)
            monkeypatch.setattr(kernels, "_loaded", [kernels_spy])
            assert [(a.tobytes(), a.strides) for a in got] == [(a.tobytes(), a.strides) for a in want]

    @pytest.mark.parametrize("layout", ["sliced", "broadcast"])
    def test_an_input_that_is_not_dense_runs_numpy(self, layout, kernels_spy, monkeypatch):
        base = 3.0 * _rand(np.random.default_rng(53), 6, 40)
        x = base[:, 1::3] if layout == "sliced" else np.broadcast_to(base[0], (5, 40))
        got = tz._gelu_parts(x)
        assert "gelu" not in kernels_spy.calls
        monkeypatch.setattr(kernels, "_loaded", [None])
        want = tz._gelu_parts(x)
        assert [(a.tobytes(), a.strides) for a in got] == [(a.tobytes(), a.strides) for a in want]

    @pytest.mark.parametrize("layout", ["c-order", "transposed"])
    def test_vjp_is_the_closed_form_bit_for_bit(self, layout, kernel_path):
        # with the e the forward kept on either path, the bits and the layout of g * (0.5 * (1 + e) + x * pdf(x)),
        # since a later matmul's bits depend on its operands' layout
        rng = np.random.default_rng(50)
        x, g = 2.0 * _rand(rng, 5, 9, 13), _rand(rng, 5, 9, 13)
        if layout == "transposed":
            x = x.transpose(2, 0, 1)
        g = g.reshape(x.shape)
        (got,) = gelu(Tensor(x, requires_grad=True))._vjp(g)
        e, pdf = scipy.special.erf(x / math.sqrt(2.0)), np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        want = g * (0.5 * (1.0 + e) + x * pdf)
        assert got.tobytes() == want.tobytes() and got.strides == want.strides


# every row length at which a SIMD loop's tail or numpy's pairwise sum changes its shape
VJP_WIDTHS = [1, 7, 8, 9, 64, 128, 129, 300]
# |x| from 37.5 up, where exp(-0.5 * x * x) turns subnormal (about 37.6) and then 0 (about 38.6)
GELU_VJP_X_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 37.5, -38.0, 38.5, -38.6, 39.0, -40.0, 1e3])
GELU_VJP_G_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324])


def _assert_gelu_vjp_is_numpys(x, g, monkeypatch):
    """gelu's VJP on the path in use gives the numpy path's bits and strides, and the closed form's."""
    results = []
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(2):
            (got,) = gelu(Tensor(x, requires_grad=True))._vjp(g)
            results.append((got.tobytes(), got.strides))
            monkeypatch.setattr(kernels, "_loaded", [None])
        e, pdf = scipy.special.erf(x / math.sqrt(2.0)), np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        want = g * (0.5 * (1.0 + e) + x * pdf)
    assert results[0] == results[1] == (want.tobytes(), want.strides)


def _with_specials(a, specials, start):
    """``a`` with ``specials`` written over every 5th entry from ``start`` on, in turn."""
    flat = a.reshape(-1)
    at = np.arange(start, flat.size, 5)
    flat[at] = np.resize(specials, at.size)
    return a


class TestGeluVjpKernel:
    @pytest.mark.parametrize("lead", [(), (4, 5)], ids=str)
    @pytest.mark.parametrize("width", VJP_WIDTHS)
    @pytest.mark.parametrize("scale", [0.1, 3.0, 40.0])
    def test_bitwise_the_numpy_path(self, scale, width, lead, kernel_path, monkeypatch):
        rng = np.random.default_rng(width)
        x, g = scale * _rand(rng, *lead, width), _rand(rng, *lead, width)
        _assert_gelu_vjp_is_numpys(x, g, monkeypatch)

    @pytest.mark.parametrize("width", VJP_WIDTHS)
    def test_bitwise_the_numpy_path_with_special_entries(self, width, kernel_path, monkeypatch):
        # the specials of x and of g sit at different entries, each of them in a SIMD body and in its tail
        rng = np.random.default_rng(width)
        x = _with_specials(3.0 * _rand(rng, 4, 5, width), GELU_VJP_X_SPECIALS, 0)
        g = _with_specials(_rand(rng, 4, 5, width), GELU_VJP_G_SPECIALS, 2)
        _assert_gelu_vjp_is_numpys(x, g, monkeypatch)

    def test_a_nan_of_g_on_a_nan_of_the_vjp_gives_nan(self, kernel_path, monkeypatch):
        # at x = +-inf the VJP makes inf * 0, a NaN of its own; which of two NaNs a product keeps is its operand
        # order in the machine code, and numpy's own loop keeps g's in its body and the other in its tail, so only
        # the finite entries' bits are compared
        x = np.where(np.arange(40) % 4 == 0, np.inf, np.linspace(-3.0, 3.0, 40))
        g = np.where(np.arange(40) % 2 == 0, np.nan, 1.5)
        results = []
        with np.errstate(invalid="ignore"):
            for _ in range(2):
                (got,) = gelu(Tensor(x, requires_grad=True))._vjp(g)
                results.append(got)
                monkeypatch.setattr(kernels, "_loaded", [None])
        number = ~np.isnan(results[1])
        assert np.array_equal(np.isnan(results[0]), ~number) and number.sum() == 20
        assert results[0][number].tobytes() == results[1][number].tobytes()

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0, 4)], ids=str)
    def test_a_scalar_or_an_empty_input_keeps_numpys_bits(self, shape, kernel_path, monkeypatch):
        # a 0-d x runs numpy: -0.5 * x of it is a numpy scalar, which cannot take the exp in place
        rng = np.random.default_rng(86)
        _assert_gelu_vjp_is_numpys(_rand(rng, *shape), _rand(rng, *shape), monkeypatch)

    @pytest.mark.parametrize("layout", ["transposed", "transposed g", "sliced", "broadcast", "float32 g"])
    def test_which_layouts_take_the_kernel(self, layout, kernels_spy, monkeypatch):
        # x, g and the forward's e must share their strides: then x is dense and the kernel runs on the flat
        # buffers; a transposed x with a g of its own layout qualifies
        rng = np.random.default_rng(87)
        base, g = 3.0 * _rand(rng, 6, 40), _rand(rng, 6, 40)
        x = {"transposed": base.T, "transposed g": base.T, "sliced": base[:, ::2],
             "broadcast": np.broadcast_to(base[0], (6, 40)), "float32 g": base}[layout]
        g = {"transposed": g.T, "transposed g": np.ascontiguousarray(g.T), "sliced": g[:, ::2],
             "float32 g": g.astype(np.float32)}.get(layout, g)
        gelu(Tensor(x, requires_grad=True))._vjp(g)
        assert ("gelu_grad" in kernels_spy.calls) == (layout == "transposed")
        _assert_gelu_vjp_is_numpys(x, g, monkeypatch)


# -- fused ops against the primitive compositions they replaced -----------


def _layer_norm_composite(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps) ** 0.5 * gain + bias


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


# every width at which numpy's pairwise sum changes its shape: fewer than 8 entries, 8 and a tail, one block of 128
# and the split halves above it
LN_WIDTHS = [1, 7, 8, 9, 64, 100, 128, 129, 300]
LN_SPECIAL_ROWS = {
    "-0.0": lambda d: np.full(d, -0.0),  # np.add.reduce starts from +0.0, so the mean is +0.0 and x - mean -0.0
    "constant": lambda d: np.full(d, 0.1),
    "nan": lambda d: np.where(np.arange(d) == d // 2, np.nan, np.linspace(-1.0, 1.0, d)),
    "inf": lambda d: np.where(np.arange(d) == 0, np.inf, np.linspace(-1.0, 1.0, d)),
    "-inf and inf": lambda d: np.where(np.arange(d) == d - 1, -np.inf, np.where(np.arange(d) == 0, np.inf, 1.0)),
}


def _assert_layer_norm_is_numpys(x, rng, monkeypatch, gain=None, bias=None, g=None, live=(True, True, True)):
    """layer_norm's output and its VJP's three outputs on the path in use are bitwise those of the numpy path, with
    their strides, and its output the composite's. The VJP reads xhat and std; for a one-row input the gain
    gradient is g * xhat itself, so even the sign of a zero in xhat shows. ``g`` is a normal draw unless given;
    ``live`` says which of x, gain and bias take a gradient."""
    d = x.shape[-1]
    gain = 1.0 + 0.3 * _rand(rng, d) if gain is None else gain
    bias = 0.2 * _rand(rng, d) if bias is None else bias
    g, results = _rand(rng, *x.shape) if g is None else g, []
    with np.errstate(invalid="ignore"):
        composite = _layer_norm_composite(Tensor(x), Tensor(gain), Tensor(bias)).data
        for _ in range(2):
            out = layer_norm(*[Tensor(a, requires_grad=r) for a, r in zip((x, gain, bias), live)])
            results.append([a if a is None else (a.tobytes(), a.strides) for a in (out.data, *out._vjp(g))])
            monkeypatch.setattr(kernels, "_loaded", [None])
    assert results[0] == results[1]
    assert results[0][0] == (composite.tobytes(), composite.strides)


def _attn_inputs(rng, lead, m, n, d, dv):
    return [_rand(rng, *lead, m, d), _rand(rng, *lead, n, d), _rand(rng, *lead, n, dv)]


class TestFusedLayerNorm:
    @pytest.mark.parametrize("shape", [(5, 8), (3, 1, 6), (2, 3, 7, 16)])
    def test_matches_the_composite(self, shape):
        arrays = _ln_inputs(np.random.default_rng(50), *shape)
        _assert_matches_composite(layer_norm, _layer_norm_composite, arrays, seed=51)

    def test_forward_is_the_composite_bitwise(self):
        arrays = _ln_inputs(np.random.default_rng(52), 4, 9, 32)
        fused = layer_norm(*[Tensor(a) for a in arrays])
        assert fused.data.tobytes() == _layer_norm_composite(*[Tensor(a) for a in arrays]).data.tobytes()

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

    @pytest.mark.parametrize("lead", [(), (1,), (32, 21), (32, 1)], ids=str)
    @pytest.mark.parametrize("width", LN_WIDTHS)
    def test_bitwise_the_numpy_path_and_the_composite(self, width, lead, kernel_path, monkeypatch):
        # offsets and magnitudes that make each sum's order show in its bits; with 5 rows or more, the first five
        # are the special rows
        rng = np.random.default_rng(width)
        x = 10.0 ** rng.integers(-3, 4, size=lead + (width,)) * _rand(rng, *lead, width) + 7.0 * _rand(rng)
        rows = x.reshape(-1, width)
        if len(rows) >= len(LN_SPECIAL_ROWS):
            rows[:len(LN_SPECIAL_ROWS)] = [row(width) for row in LN_SPECIAL_ROWS.values()]
        _assert_layer_norm_is_numpys(x, rng, monkeypatch)

    @pytest.mark.parametrize("row", sorted(LN_SPECIAL_ROWS))
    @pytest.mark.parametrize("width", LN_WIDTHS)
    def test_bitwise_the_numpy_path_on_a_special_row(self, width, row, kernel_path, monkeypatch):
        _assert_layer_norm_is_numpys(LN_SPECIAL_ROWS[row](width), np.random.default_rng(width), monkeypatch)

    @pytest.mark.parametrize("layout", ["transposed", "sliced", "gain (1, d)", "gain broadcast", "bias sliced",
                                        "g transposed"])
    def test_any_other_layout_runs_numpy(self, layout, kernels_spy, monkeypatch):
        # a transposed x meets a g of another layout, C order; a g that is not in C order lets the forward run the
        # kernel, but its VJP runs numpy, whose row means then take another order
        rng = np.random.default_rng(56)
        x, gain, bias = _ln_inputs(rng, 6, 9, 12)
        if layout == "transposed":
            x = x.transpose(1, 0, 2)
        elif layout == "sliced":
            x = x[:, ::2]
        elif layout == "gain (1, d)":
            gain = gain[None]
        elif layout == "gain broadcast":
            gain = np.broadcast_to(1.5, gain.shape)
        elif layout == "bias sliced":
            bias = _rand(rng, 24)[::2]
        g = _rand(rng, *x.shape)
        if layout == "g transposed":
            g = np.ascontiguousarray(g.transpose(1, 0, 2)).transpose(1, 0, 2)
        layer_norm(Tensor(x, requires_grad=True), Tensor(gain), Tensor(bias))._vjp(g)
        assert ("layer_norm" in kernels_spy.calls) == (layout == "g transposed")
        assert "layer_norm_grad" not in kernels_spy.calls
        _assert_layer_norm_is_numpys(x, rng, monkeypatch, gain, bias, g)

    @pytest.mark.parametrize("width", LN_WIDTHS)
    def test_bitwise_the_numpy_path_with_special_gradient_rows(self, width, kernel_path, monkeypatch):
        # the special rows in g, in other rows than the special rows of x
        rng = np.random.default_rng(width)
        x, g = 3.0 * _rand(rng, 2, 6, width) + 1.0, _rand(rng, 2, 6, width)
        x.reshape(-1, width)[:5] = [row(width) for row in LN_SPECIAL_ROWS.values()]
        g.reshape(-1, width)[6:11] = [row(width) for row in LN_SPECIAL_ROWS.values()]
        _assert_layer_norm_is_numpys(x, rng, monkeypatch, g=g)

    def test_a_frozen_input_takes_only_the_affine_gradients(self, kernels_spy, monkeypatch):
        rng = np.random.default_rng(60)
        x, gain, bias = _ln_inputs(rng, 4, 7, 64)
        layer_norm(Tensor(x), Tensor(gain, requires_grad=True), Tensor(bias))._vjp(_rand(rng, *x.shape))
        assert kernels_spy.calls == ["layer_norm"]
        for live in [(False, True, True), (False, True, False), (False, False, True)]:
            _assert_layer_norm_is_numpys(x, rng, monkeypatch, gain, bias, live=live)
            monkeypatch.setattr(kernels, "_loaded", [kernels_spy])

    @pytest.mark.filterwarnings("ignore:Mean of empty slice")
    @pytest.mark.parametrize("shape", [(0, 6), (2, 0)], ids=str)
    def test_an_empty_input_keeps_numpys_bits(self, shape, kernel_path, monkeypatch):
        _assert_layer_norm_is_numpys(np.ones(shape), np.random.default_rng(61), monkeypatch)

    def test_the_kernel_runs_on_the_trunks_layer_norms(self, kernels_spy, monkeypatch):
        # ln1 and ln2 of each of the two blocks: the last block's ln2 takes the CLS row alone
        inputs = []

        def recording_layer_norm(x, gain, bias):
            inputs.append((x.data, gain.data, bias.data))
            return layer_norm(x, gain, bias)

        monkeypatch.setattr(backbone, "layer_norm", recording_layer_norm)
        trunk = backbone.VisionBackbone(16, 8, 16, 2, 4, prompt_count=2, init=np.random.default_rng(57))
        trunk.vit_forward(Tensor(_rand(np.random.default_rng(58), 3, trunk.sequence_length + 2, 16)))
        assert len(inputs) == 4 and kernels_spy.calls.count("layer_norm") == 4
        for x, gain, bias in inputs:
            monkeypatch.setattr(kernels, "_loaded", [kernels_spy])
            _assert_layer_norm_is_numpys(x, np.random.default_rng(59), monkeypatch, gain, bias)


def test_the_vjp_kernels_run_in_a_training_step(kernels_spy, monkeypatch):
    # each gelu and layer_norm node's VJP, with the kernels it called, in one real step of a small model: the
    # trunk's MLP GELUs and layer norms and the fusion gate's GELU take the kernels, and so does the filter
    # generator's fc GELU. Its two conv GELUs run numpy, since their g has other strides than x: the first gets a
    # strided view of unfold's padded sum from unfold's VJP, the second a broadcast from the mean's VJP
    seen = []

    def recording(where, op):
        def record(*args):
            out = op(*args)
            vjp = out._vjp

            def spied(g):
                start = len(kernels_spy.calls)
                grads = vjp(g)
                seen.append((where, kernels_spy.calls[start:]))
                return grads

            out._vjp = spied
            return out

        return record

    for module in (backbone, fusion, dynfilter):
        monkeypatch.setattr(module, "gelu", recording(module.__name__.rsplit(".", 1)[1], gelu))
    monkeypatch.setattr(backbone, "layer_norm", recording("layer_norm", layer_norm))
    cfg = default_config()
    cfg.encoder.dim = cfg.backbone.dim = 16
    cfg.backbone.layers, cfg.backbone.heads, cfg.backbone.patch, cfg.backbone.prompts = 2, 2, 8, 2
    model = AlignmentModel(cfg, channels=4, timesteps=12, image_size=16)
    data = generate_synthetic(seed=0, n_classes=5, per_class=6, channels=4, timesteps=12, height=16, noise=0.2)
    train = zero_shot_split(data, n_test_classes=1, n_val_samples=6, seed=0)["train"]
    train_step(model, make_batch(train, np.arange(8)), Adam(model.group("A"), 0.002), Adam(model.group("B"), 0.02))
    assert sorted(seen) == sorted([("backbone", ["gelu_grad"])] * 2 + [("layer_norm", ["layer_norm_grad"])] * 4 + [
        ("fusion", ["gelu_grad"]), ("dynfilter", ["gelu_grad"]), ("dynfilter", []), ("dynfilter", [])])


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


# every row length at which numpy's pairwise sum changes its shape, and the trunk's 21 tokens
SOFTMAX_WIDTHS = [1, 7, 8, 9, 16, 21, 128, 129, 300]
SOFTMAX_SPECIAL_ROWS = {
    "nan": lambda d: np.where(np.arange(d) == d // 2, np.nan, np.linspace(-1.0, 1.0, d)),
    # a max that passed over the NaN would be inf, and inf - inf gives a NaN of another sign
    "nan then inf": lambda d: np.where(np.arange(d) == d // 2, np.nan, np.where(np.arange(d) == d - 1, np.inf, 1.0)),
    "inf": lambda d: np.where(np.arange(d) == 0, np.inf, np.linspace(-1.0, 1.0, d)),
    "all -inf": lambda d: np.full(d, -np.inf),
    "-0.0": lambda d: np.full(d, -0.0),
    "constant": lambda d: np.full(d, 0.1),
}


def _assert_softmax_is_numpys(z, monkeypatch, axis=-1):
    """``_softmax`` and ``softmax_rows``' value and VJP on the path in use give the numpy path's bits."""
    g, results = _rand(np.random.default_rng(z.size), *z.shape), []
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(2):
            out = softmax_rows(Tensor(z, requires_grad=True), axis)
            results.append([a.tobytes() for a in (tz._softmax(z, axis), out.data, *out._vjp(g))])
            monkeypatch.setattr(kernels, "_loaded", [None])
    assert results[0] == results[1]


class TestSoftmaxKernel:
    @pytest.mark.parametrize("lead", [(), (1,), (4, 5)], ids=str)
    @pytest.mark.parametrize("width", SOFTMAX_WIDTHS)
    def test_bitwise_the_numpy_path(self, width, lead, kernel_path, monkeypatch):
        # magnitudes from 0.1 to 1e3 and one of 1e300, so that exp underflows; with 6 rows or more, the first six
        # are the special rows
        rng = np.random.default_rng(width)
        z = 10.0 ** rng.uniform(-1.0, 3.0, size=lead + (1,)) * _rand(rng, *lead, width)
        rows = z.reshape(-1, width)
        rows[-1, -1] *= 1e300
        if len(rows) >= len(SOFTMAX_SPECIAL_ROWS):
            rows[:len(SOFTMAX_SPECIAL_ROWS)] = [row(width) for row in SOFTMAX_SPECIAL_ROWS.values()]
        _assert_softmax_is_numpys(z, monkeypatch)

    @pytest.mark.parametrize("row", sorted(SOFTMAX_SPECIAL_ROWS))
    @pytest.mark.parametrize("width", SOFTMAX_WIDTHS)
    def test_bitwise_the_numpy_path_on_a_special_row(self, width, row, kernel_path, monkeypatch):
        _assert_softmax_is_numpys(SOFTMAX_SPECIAL_ROWS[row](width)[None], monkeypatch)

    @pytest.mark.parametrize("layout", ["transposed", "sliced", "axis 0", "axis 1 of 3"])
    def test_any_other_layout_runs_numpy(self, layout, kernels_spy, monkeypatch):
        z, axis = _rand(np.random.default_rng(84), 6, 9) * 5.0, -1
        if layout == "transposed":
            z = z.T
        elif layout == "sliced":
            z = z[:, ::2]
        elif layout == "axis 0":
            axis = 0
        else:
            z, axis = z.reshape(2, 3, 9), 1
        tz._softmax(z, axis)
        softmax_rows(Tensor(z), axis)
        assert not {"row_shift", "row_divide"} & set(kernels_spy.calls)
        _assert_softmax_is_numpys(z, monkeypatch, axis)

    def test_the_kernels_run_in_the_trunks_and_the_fusions_attention(self, kernels_spy, monkeypatch):
        calls = []

        def recording_attention(q, k, v, heads=1):
            calls.append((q.data, k.data, v.data, heads))
            return attention(q, k, v, heads)

        for module in (backbone, fusion):
            monkeypatch.setattr(module, "attention", recording_attention)
        rng = np.random.default_rng(85)
        trunk = backbone.VisionBackbone(16, 8, 16, 2, 4, prompt_count=2, init=rng)
        trunk.vit_forward(Tensor(_rand(rng, 3, trunk.sequence_length + 2, 16)))
        fusion.CrossAttentionFusion(16, rng, heads=2).fuse(Tensor(_rand(rng, 3, 5, 16)), Tensor(_rand(rng, 3, 5, 16)))
        assert len(calls) == 3
        assert kernels_spy.calls.count("row_shift") == kernels_spy.calls.count("row_divide") == 3
        for q, k, v, heads in calls:
            results, g = [], _rand(rng, *q.shape[:-1], v.shape[-1])
            for lib in (kernels_spy, None):
                monkeypatch.setattr(kernels, "_loaded", [lib])
                out = attention(*[Tensor(a, requires_grad=True) for a in (q, k, v)], heads)
                results.append([a.tobytes() for a in (out.data, *out._vjp(g))])
            assert results[0] == results[1]

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
