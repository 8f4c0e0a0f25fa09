"""Contrastive objective: InfoNCE, softened targets, relation matching."""
import numpy as np
import pytest

from eegalign import losses
from eegalign.config import LossConfig
from eegalign.errors import DimensionError, DomainError
from eegalign.gradchecks import grad_check
from eegalign.losses import (
    infonce,
    relation_loss,
    soft_loss,
    soft_targets,
    total_loss,
)
from eegalign.tensor import Tensor, exp, l2_normalize, matmul, no_grad, softmax_rows, transpose

TAU = LossConfig.tau_init


def unit_rows(rng, b, d):
    z = rng.normal(size=(b, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def cosine_sim_matrix(z_e, z_i):
    """The similarity `total_loss` builds, from the same public ops."""
    return matmul(l2_normalize(z_e), transpose(l2_normalize(z_i)))


def intra_modal(z, tau):
    """The detached softmax(Z Z^T / tau) of unit rows, as `total_loss` builds it."""
    with no_grad():
        zn = l2_normalize(Tensor(z))
        return softmax_rows(matmul(zn, transpose(zn)) / tau)


class TestCosineSimMatrix:
    def test_orthonormal_rows_give_identity(self):
        z = Tensor(np.eye(3))
        s = cosine_sim_matrix(z, z)
        assert np.allclose(s.data, np.eye(3), atol=1e-9)

    def test_antiparallel_pair(self):
        z_e = Tensor(np.array([[1.0, 0.0]]))
        z_i = Tensor(np.array([[-2.0, 0.0]]))
        assert abs(cosine_sim_matrix(z_e, z_i).data[0, 0] + 1.0) < 1e-9

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(0)
        ze, zi = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
        s = cosine_sim_matrix(Tensor(ze), Tensor(zi)).data
        for i in range(6):
            for j in range(6):
                e = ze[i] / np.sqrt(ze[i] @ ze[i] + 1e-12)
                v = zi[j] / np.sqrt(zi[j] @ zi[j] + 1e-12)
                assert abs(s[i, j] - e @ v) < 1e-12

    def test_entries_bounded(self):
        rng = np.random.default_rng(1)
        s = cosine_sim_matrix(Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(5, 4)))).data
        assert np.all(np.abs(s) <= 1.0 + 1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            total_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), LossConfig(), TAU)


class TestInfoNCE:
    def test_single_pair_scores_zero(self):
        assert infonce(Tensor(np.array([[0.37]]))).item() == 0.0

    def test_two_pair_identity_hand_value(self):
        loss = infonce(Tensor(np.eye(2))).item()
        expected = -np.log(np.e / (np.e + 1.0))
        assert abs(loss - expected) < 1e-12
        assert abs(loss - 0.313262) < 1e-6

    def test_temperature_ratio_invariance(self):
        rng = np.random.default_rng(2)
        s = Tensor(rng.normal(size=(4, 4)))
        base = infonce(s / 0.25).item()
        for c in (0.5, 3.0):
            scaled = infonce(Tensor(c * s.data) / (c * 0.25)).item()
            assert abs(scaled - base) < 1e-12

    def test_nonpositive_temperature_rejected(self):
        z = Tensor(np.eye(2))
        with pytest.raises(DomainError):
            total_loss(z, z, LossConfig(), 0.0)
        with pytest.raises(DomainError):
            total_loss(z, z, LossConfig(), Tensor(-1.0))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=(5, 5))
        tau = 0.3
        logits = s / tau
        total = 0.0
        for i in range(5):
            row = np.exp(logits[i] - logits[i].max())
            col = np.exp(logits[:, i] - logits[:, i].max())
            total -= np.log(row[i] / row.sum()) + np.log(col[i] / col.sum())
        assert abs(infonce(Tensor(s) / tau).item() - total / 10.0) < 1e-12


class TestSoftTargets:
    def test_beta_zero_is_exact_identity(self):
        rng = np.random.default_rng(4)
        p_ee, p_ii = intra_modal(rng.normal(size=(3, 4)), 0.1), intra_modal(rng.normal(size=(3, 4)), 0.1)
        t_e, t_i = soft_targets(p_ee, p_ii, beta=0.0)
        assert np.array_equal(t_e.data, np.eye(3))
        assert np.array_equal(t_i.data, np.eye(3))

    def test_beta_one_is_intra_modal_distribution(self):
        rng = np.random.default_rng(5)
        p_ee = intra_modal(unit_rows(rng, 3, 4), 0.5)
        t_e, _ = soft_targets(p_ee, intra_modal(unit_rows(rng, 3, 4), 0.5), beta=1.0)
        assert np.allclose(t_e.data, p_ee.data, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        p_ee, p_ii = (intra_modal(rng.normal(size=(4, 5)), 1.0 / 14.0) for _ in range(2))
        t_e, t_i = soft_targets(p_ee, p_ii, beta=0.3)
        assert np.allclose(t_e.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(t_i.data.sum(axis=1), 1.0, atol=1e-12)

    def test_detach_flag(self, monkeypatch):
        # total_loss builds the intra-modal distributions, and so the
        # targets, off the tape exactly when detach_targets is set
        built = []

        def recording(p_ee, p_ii, beta):
            built.append(soft_targets(p_ee, p_ii, beta))
            return built[-1]

        monkeypatch.setattr(losses, "soft_targets", recording)
        rng = np.random.default_rng(7)
        ze = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        zi = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        for detach in (True, False):
            total_loss(ze, zi, LossConfig(beta=0.5, detach_targets=detach), 0.5)
        detached, attached = built
        assert not any(t.requires_grad for t in detached)
        assert all(t.requires_grad for t in attached)


class TestSoftLoss:
    def test_zero_when_predictions_match_targets(self):
        t = Tensor(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert soft_loss(t, t, t, t).item() == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        with no_grad():
            mats = [softmax_rows(Tensor(rng.normal(size=(4, 4)))) for _ in range(4)]
        assert soft_loss(*mats).item() >= 0.0

    def test_hand_case_matches_scalar_oracle(self):
        t = np.array([[0.9, 0.1], [0.1, 0.9]])
        p = np.array([[0.8, 0.2], [0.2, 0.8]])

        def kl(a, b):
            return np.mean([(a[i] * np.log(a[i] / b[i])).sum() for i in range(2)])

        expected = 0.5 * (kl(t, p) + kl(p, t)) + 0.5 * (kl(t, p) + kl(p, t))
        got = soft_loss(Tensor(t), Tensor(t), Tensor(p), Tensor(p)).item()
        assert abs(got - expected) < 1e-12

    def test_zero_rows_in_targets_are_fine(self):
        # identity targets contain exact zeros; 0 log 0 counts as 0
        eye = Tensor(np.eye(2))
        p = Tensor(np.array([[0.9, 0.1], [0.1, 0.9]]))
        got = soft_loss(eye, eye, p, p).item()
        kl_tp = np.mean([-np.log(0.9), -np.log(0.9)])
        kl_pt = np.mean([
            0.9 * np.log(0.9 / 1.0) + 0.1 * np.log(0.1 / 1e-12),
            0.1 * np.log(0.1 / 1e-12) + 0.9 * np.log(0.9 / 1.0),
        ])
        assert abs(got - (kl_tp + kl_pt)) < 1e-12


class TestRelationLoss:
    def test_b2_is_always_zero(self):
        # at B=2 every renormalized negatives row is a point mass
        rng = np.random.default_rng(9)
        with no_grad():
            mats = [softmax_rows(Tensor(rng.normal(size=(2, 2)))) for _ in range(4)]
        assert relation_loss(*mats).item() == 0.0

    def test_matching_distributions_give_zero(self):
        rng = np.random.default_rng(10)
        with no_grad():
            p = softmax_rows(Tensor(rng.normal(size=(4, 4))))
            q = softmax_rows(Tensor(rng.normal(size=(4, 4))))
        assert relation_loss(p, q, p, q).item() == 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        raw = [rng.normal(size=(4, 4)) for _ in range(4)]
        with no_grad():
            mats = [softmax_rows(Tensor(r)) for r in raw]

        def neg(p):
            q = p.copy()
            np.fill_diagonal(q, 0.0)
            return q / q.sum(axis=1, keepdims=True)

        def kl(a, b):
            total = 0.0
            for i in range(4):
                for j in range(4):
                    if a[i, j] > 0.0:
                        total += a[i, j] * np.log(a[i, j] / max(b[i, j], 1e-12))
            return total / 4.0

        n = [neg(m.data) for m in mats]
        expected = 0.5 * (kl(n[0], n[2]) + kl(n[1], n[3]))
        got = relation_loss(*mats).item()
        assert abs(got - expected) < 1e-12

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.full((3, 3), 1.0 / 3.0))
        q = Tensor(np.full((3, 4), 0.25))
        with pytest.raises(DimensionError):
            relation_loss(p, p, p, q)


class TestTotalLoss:
    # the weights come from a validated LossConfig; the temperature comes from training and is checked here
    def test_bad_tau_rejected(self):
        z = Tensor(np.eye(2))
        with pytest.raises(DomainError):
            total_loss(z, z, LossConfig(), 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tau_rejected(self, bad):
        z = Tensor(np.eye(2))
        with pytest.raises(DomainError, match="finite"):
            total_loss(z, z, LossConfig(), bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_tensor_tau_rejected(self, bad):
        z = Tensor(np.eye(2))
        with pytest.raises(DomainError, match="temperature"):
            total_loss(z, z, LossConfig(), Tensor(bad))

    def test_non_scalar_tau_rejected(self):
        z = Tensor(np.eye(2))
        with pytest.raises(DomainError, match="scalar"):
            total_loss(z, z, LossConfig(), Tensor(np.full(2, 0.5)))

    def test_pure_clip_weighting_equals_infonce(self):
        rng = np.random.default_rng(12)
        ze, zi = Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=(4, 6)))
        w = LossConfig(mu=1.0, alpha=0.0, lam=0.0)
        got, parts = total_loss(ze, zi, w, 0.2)
        reference = infonce(cosine_sim_matrix(ze, zi) / 0.2)
        assert abs(got.item() - reference.item()) < 1e-12
        assert parts["l_soft"] == 0.0 and parts["l_rel"] == 0.0

    def test_default_weights_produce_breakdown(self):
        rng = np.random.default_rng(13)
        got, parts = total_loss(Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=(4, 6))), LossConfig(), TAU)
        assert set(parts) == {"l_clip", "l_soft", "l_rel", "l_total"}
        assert parts["l_clip"] >= 0.0 and parts["l_soft"] >= 0.0 and parts["l_rel"] >= 0.0
        combined = 0.6 * parts["l_clip"] + 0.3 * parts["l_soft"] + 0.1 * parts["l_rel"]
        assert abs(got.item() - combined) < 1e-12

    def test_aligned_orthonormal_embeddings_at_cold_temperature(self):
        z = Tensor(np.eye(4))
        w = LossConfig(mu=0.6, alpha=0.3, lam=0.1, beta=0.0)
        got, _ = total_loss(z, z, w, 0.005)
        assert got.item() < 1e-6

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(14)
        ze, zi = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        w = LossConfig()
        base, _ = total_loss(Tensor(ze), Tensor(zi), w, TAU)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(6)
            permuted, _ = total_loss(Tensor(ze[perm]), Tensor(zi[perm]), w, TAU)
            assert abs(base.item() - permuted.item()) < 1e-12

    def test_relation_term_needs_pairs(self):
        # a batch of one has no negatives: every term scores exactly 0
        z = Tensor(np.ones((1, 4)), requires_grad=True)
        for detach in (True, False):
            w = LossConfig(lam=0.1, detach_targets=detach)
            got, parts = total_loss(z, Tensor(np.arange(4.0)[None], requires_grad=True), w, TAU)
            assert got.item() == 0.0
            assert parts == {"l_clip": 0.0, "l_soft": 0.0, "l_rel": 0.0, "l_total": 0.0}
        got, _ = total_loss(z, z, LossConfig(mu=1.0, alpha=0.0, lam=0.0), TAU)
        assert got.item() == 0.0

    @pytest.mark.parametrize("detach", [True, False])
    def test_a_batch_of_one_has_a_finite_relation_gradient(self, detach):
        # the one row masks to 0, so its sum is clamped to 1e-300, whose square underflows to 0
        z_e = Tensor(np.ones((1, 4)), requires_grad=True)
        z_i = Tensor(np.arange(4.0)[None], requires_grad=True)
        got, _ = total_loss(z_e, z_i, LossConfig(mu=0.0, alpha=0.0, lam=1.0, detach_targets=detach), TAU)
        got.backward()
        assert np.isfinite(z_e.grad).all() and np.isfinite(z_i.grad).all()

    def test_grad_check_embeddings_and_temperature(self):
        # with targets flowing (detach off) the objective is an ordinary
        # function of its parameters, so central differences apply
        rng = np.random.default_rng(15)
        from eegalign.tensor import Parameter

        ze = Parameter("ze", rng.normal(size=(4, 5)), group="A")
        zi = Parameter("zi", rng.normal(size=(4, 5)), group="A")
        # tau 0.5 keeps every softmax entry far above the KL clamp floor,
        # where the objective is smooth enough for central differences
        log_tau = Parameter("log_tau", np.log(0.5), group="A")

        def loss():
            w = LossConfig(detach_targets=False)
            return total_loss(ze, zi, w, exp(log_tau))[0]

        report = grad_check(loss, [ze, zi, log_tau], max_entries=30, rng=np.random.default_rng(16))
        assert report.passed, report.summary()

    def test_detached_gradient_matches_fixed_target_objective(self):
        # detached targets mean backward treats them as constants; the
        # matching differentiable reference pins the targets at their
        # current values explicitly, and its FD-verified gradient must
        # coincide with the detached backward
        from eegalign.tensor import Parameter

        rng = np.random.default_rng(17)
        ze = Parameter("ze", rng.normal(size=(4, 5)), group="A")
        zi = Parameter("zi", rng.normal(size=(4, 5)), group="A")
        tau = 0.5
        w = LossConfig(mu=0.6, alpha=0.3, lam=0.1, beta=0.3, detach_targets=True)

        total, _ = total_loss(ze, zi, w, tau)
        total.backward()
        detached_ze = ze.grad.copy()
        detached_zi = zi.grad.copy()
        ze.grad = None
        zi.grad = None

        p_ee_fixed = intra_modal(ze.data, tau)
        p_ii_fixed = intra_modal(zi.data, tau)
        t_e, t_i = soft_targets(p_ee_fixed, p_ii_fixed, w.beta)

        def fixed_target_loss():
            a = l2_normalize(ze)
            b = l2_normalize(zi)
            sim = matmul(a, transpose(b))
            p_ei = softmax_rows(sim / tau)
            p_ie = softmax_rows(transpose(sim) / tau)
            return (
                infonce(sim / tau) * w.mu
                + soft_loss(t_e, t_i, p_ei, p_ie) * w.alpha
                + relation_loss(p_ee_fixed, p_ii_fixed, p_ei, p_ie) * w.lam
            )

        report = grad_check(
            fixed_target_loss, [ze, zi], max_entries=20, rng=np.random.default_rng(18)
        )
        assert report.passed, report.summary()

        ze.grad = None
        zi.grad = None
        fixed_target_loss().backward()
        assert np.allclose(detached_ze, ze.grad, atol=1e-12)
        assert np.allclose(detached_zi, zi.grad, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            total_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))), LossConfig(), TAU)

    def test_shared_quantities_are_built_once(self, monkeypatch):
        # unit rows once per modality; p_ei, p_ie, p_ee and p_ii once
        # each, shared by the soft and the relation term
        calls = {"softmax_rows": 0, "l2_normalize": 0}
        for name in calls:
            original = getattr(losses, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(losses, name, counted)
        rng = np.random.default_rng(19)
        total_loss(Tensor(rng.normal(size=(5, 6))), Tensor(rng.normal(size=(5, 6))), LossConfig(), TAU)
        assert calls == {"softmax_rows": 4, "l2_normalize": 2}
