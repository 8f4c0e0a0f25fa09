"""The named component registry behind `gradcheck --all`, and the grad_check harness it runs."""
import numpy as np
import pytest

from eegalign import tensor as tz
from eegalign.errors import ConfigError
from eegalign.gradchecks import CHECKS, grad_check, run_checks
from eegalign.tensor import Parameter, Tensor, matmul

EXPECTED_COMPONENTS = {
    "perturbation", "encoder", "filter_generator", "dynamic_filter",
    "fusion", "prompts", "projection", "loss_clip", "loss_soft", "loss_rel",
}


class TestRegistry:
    def test_covers_every_component(self):
        assert set(CHECKS) == EXPECTED_COMPONENTS

    def test_all_components_pass_at_default_tolerance(self):
        reports = run_checks(None, seed=0)
        assert set(reports) == EXPECTED_COMPONENTS
        for name, report in reports.items():
            assert report.passed, f"{name}: {report.summary()}"
            assert max(r.max_rel_err for r in report.results) < 1e-4

    def test_single_component_selection(self):
        reports = run_checks(["fusion"], seed=1)
        assert list(reports) == ["fusion"]
        assert reports["fusion"].passed

    def test_unknown_component_rejected(self):
        with pytest.raises(ConfigError, match="unknown gradcheck component"):
            run_checks(["attention"], seed=0)

    def test_negative_seed_rejected_before_any_check(self, monkeypatch):
        ran = []
        monkeypatch.setitem(CHECKS, "encoder", ran.append)
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            run_checks(["encoder"], seed=-1)
        assert ran == []

    def test_seed_changes_the_probe(self):
        a = run_checks(["encoder"], seed=0)["encoder"]
        b = run_checks(["encoder"], seed=1)["encoder"]
        assert max(r.max_rel_err for r in a.results) != max(r.max_rel_err for r in b.results)


class TestNegativeControl:
    def test_broken_gradient_is_caught(self):
        # constructing the loss from a detached copy hides the true
        # dependency from backward, so the numeric probe must disagree
        rng = np.random.default_rng(0)
        p = Parameter("broken", Tensor(rng.normal(size=3)))

        def loss():
            detached = Tensor(p.value.data.copy())
            return (detached * detached).sum()

        report = grad_check(loss, [p])
        assert not report.passed
        assert max(r.max_rel_err for r in report.results) > 1e-2


class TestGradCheckHarness:
    def test_quadratic_form_passes_tightly(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(4, 4))
        sym = Tensor(m + m.T)
        x = Parameter("x", Tensor(rng.normal(size=(4, 1)), requires_grad=True))

        def f():
            return (matmul(matmul(x.value.transpose(), sym), x.value) * 0.5).sum()

        report = grad_check(f, [x])
        assert report.passed, report.summary()
        assert max(r.max_rel_err for r in report.results) < 1e-6

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
        x = Parameter("x", Tensor(rng.normal(size=(30, 30)), requires_grad=True))

        def f():
            return (x.value ** 2.0).sum()

        report = grad_check(f, [x], max_entries=17, rng=np.random.default_rng(1))
        assert report.results[0].checked == 17
        assert report.passed
