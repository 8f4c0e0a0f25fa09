"""The nine package-level acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line through the conftest hook.
Oracles used here are written independently of the library code paths
they judge: convolution by explicit quadruple loop, ranks by full sort,
mean average precision from its summation definition, InfoNCE from its
cross-entropy definition.
"""
import hashlib
import time

import numpy as np

from eegalign.config import LossConfig, default_config
from eegalign.data import generate_synthetic, make_batch, zero_shot_split
from eegalign.dynfilter import apply_dynamic_filter
from eegalign.gradchecks import run_checks
from eegalign.losses import infonce, soft_targets, total_loss
from eegalign.metrics import build_report, mean_average_precision, retrieval_ranks
from eegalign.model import AlignmentModel
from eegalign.tensor import Tensor, l2_normalize, matmul, softmax_rows, transpose
from eegalign.trainer import (
    Adam,
    evaluate_zero_shot,
    fit,
    load_checkpoint,
    parameter_digest,
    save_checkpoint,
    snapshot_values,
    train_step,
    validation_loss,
)

GRADCHECK_SEEDS = (0, 1, 2)
# pinned with numpy 2.4.6 (np.show_runtime() SIMD found: X86_V3, X86_V4, AVX512_ICL, AVX512_SPR) and
# OpenBLAS 0.3.31.188.0 (scipy-openblas, DYNAMIC_ARCH, core SkylakeX), with and without the compiled kernels;
# numpy's AVX2 code or another OpenBLAS core gives other bits
CRITERION_9_PARAMS_SHA256 = "5fd7fcbdd210d410d310be57e2a198fd4e9f1160b02815246bd8c58104035979"
CRITERION_9_VAL_LOSSES = [6.4074456274024225, 4.1045007009648, 3.7003024137695184]


def desk_config(seed=0, epochs=1, **kw):
    cfg = default_config()
    cfg.encoder.dim = 16
    cfg.backbone.dim = 16
    cfg.backbone.layers = 1
    cfg.backbone.heads = 2
    cfg.backbone.prompts = 2
    cfg.trainer.batch_size = 8
    cfg.trainer.seed = seed
    cfg.trainer.epochs = epochs
    for key, value in kw.items():
        section, attr = key.split("__")
        setattr(getattr(cfg, section), attr, value)
    return cfg


def desk_splits(seed=0, noise=0.2):
    data = generate_synthetic(seed=seed, n_classes=5, per_class=6, channels=4,
                              timesteps=12, height=16, noise=noise)
    return zero_shot_split(data, n_test_classes=1, n_val_samples=6, seed=seed)


# -- independent oracles -------------------------------------------------------


def oracle_convolve(images: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Same-padding per-sample per-channel convolution, spelled out."""
    b, c, h, w = images.shape
    fh, fw = kernels.shape[2], kernels.shape[3]
    pad_h, pad_w = fh // 2, fw // 2
    out = np.zeros_like(images)
    for n in range(b):
        for ch in range(c):
            for y in range(h):
                for x in range(w):
                    acc = 0.0
                    for dy in range(fh):
                        for dx in range(fw):
                            sy, sx = y + dy - pad_h, x + dx - pad_w
                            if 0 <= sy < h and 0 <= sx < w:
                                acc += kernels[n, ch, dy, dx] * images[n, ch, sy, sx]
                    out[n, ch, y, x] = acc
    return out


def oracle_ranks_by_sort(sim: np.ndarray) -> np.ndarray:
    """Rank of the diagonal entry per row, ties broken by column index."""
    n = sim.shape[0]
    ranks = np.empty(n, dtype=np.int64)
    for i in range(n):
        order = np.lexsort((np.arange(n), -sim[i]))
        ranks[i] = int(np.where(order == i)[0][0]) + 1
    return ranks


def oracle_map_by_definition(sim: np.ndarray) -> float:
    """Average precision summed over the ranked list, then averaged."""
    ranks = oracle_ranks_by_sort(sim)
    per_query = []
    for rank in ranks:
        precisions = [1.0 / rank]  # the single relevant item sits at `rank`
        per_query.append(sum(precisions) / 1.0)
    return float(np.mean(np.asarray(per_query)))


def oracle_infonce_by_definition(z_e: np.ndarray, z_i: np.ndarray, tau: float) -> float:
    """Cross entropy of each matched pair over cosine similarities / tau, both directions, averaged."""
    unit_e = z_e / np.linalg.norm(z_e, axis=1, keepdims=True)
    unit_i = z_i / np.linalg.norm(z_i, axis=1, keepdims=True)
    logits = unit_e @ unit_i.T / tau
    b = logits.shape[0]
    total = 0.0
    for i in range(b):
        for scores in (logits[i, :], logits[:, i]):
            top = scores.max()
            total += top + np.log(np.sum(np.exp(scores - top))) - scores[i]
    return total / (2 * b)


# -- criteria ------------------------------------------------------------------


def test_criterion_1_gradient_integrity(request):
    request.node.acceptance_line = (
        "criterion 1: gradient checks on all components, 3 seeds, tol 1e-4")
    worst = 0.0
    for seed in GRADCHECK_SEEDS:
        reports = run_checks(None, seed=seed)
        assert len(reports) == 10
        for name, report in reports.items():
            assert report.passed, f"seed {seed} {name}:\n{report.summary()}"
            worst = max(worst, max(r.max_rel_err for r in report.results))
    assert worst < 1e-4
    request.node.acceptance_line += f" (max rel err {worst:.2e})"


def test_criterion_2_freeze_contract(request):
    request.node.acceptance_line = (
        "criterion 2: frozen backbone unchanged, all trainables changed, 20 steps")
    splits = desk_splits()
    model = AlignmentModel(desk_config(), channels=4, timesteps=12, image_size=16)
    frozen_before = parameter_digest([p for p in model.parameters() if p.frozen])
    values_before = snapshot_values(model)
    opt_a = Adam(model.group("A"), 0.002)
    opt_b = Adam(model.group("B"), 0.02)
    rng = np.random.default_rng(0)
    train = splits["train"]
    for _ in range(20):
        idx = rng.choice(len(train.ids), size=8, replace=False)
        train_step(model, make_batch(train, idx), opt_a, opt_b)
    assert parameter_digest([p for p in model.parameters() if p.frozen]) == frozen_before
    for p in model.trainable_parameters():
        assert not np.array_equal(p.data, values_before[p.name]), \
            f"trainable {p.name} never moved"


def test_criterion_3_loss_degeneracy(request):
    request.node.acceptance_line = (
        "criterion 3: (mu,a,l)=(1,0,0) total == InfoNCE on 100 batches; beta=0 targets = I")
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        b, d = int(rng.integers(2, 10)), int(rng.integers(4, 12))
        z_e = Tensor(rng.normal(size=(b, d)))
        z_i = Tensor(rng.normal(size=(b, d)))
        tau = float(rng.uniform(0.05, 1.0))
        weights = LossConfig(mu=1.0, alpha=0.0, lam=0.0)
        total, _ = total_loss(z_e, z_i, weights, tau)
        standalone = oracle_infonce_by_definition(z_e.data, z_i.data, tau)
        worst = max(worst, abs(total.item() - standalone))
    assert worst < 1e-9

    for _ in range(10):
        b = int(rng.integers(2, 8))
        z_e = Tensor(rng.normal(size=(b, 6)))
        z_i = Tensor(rng.normal(size=(b, 6)))
        p_ee, p_ii = (softmax_rows(matmul(z, transpose(z)) / 0.5)
                      for z in (l2_normalize(z_e), l2_normalize(z_i)))
        t_e, t_i = soft_targets(p_ee, p_ii, beta=0.0)
        assert np.array_equal(t_e.data, np.eye(b))
        assert np.array_equal(t_i.data, np.eye(b))
    request.node.acceptance_line += f" (max diff {worst:.2e})"


def test_criterion_4_architectural_reduction(request):
    request.node.acceptance_line = (
        "criterion 4: no prompts + delta kernels + closed gate == plain ViT + projection")
    cfg = desk_config()
    cfg.backbone.prompts = 0
    model = AlignmentModel(cfg, channels=4, timesteps=12, image_size=16,
                           init=np.random.default_rng(11))
    model.filter_gen.fc2_w.data[:] = 0.0
    model.fusion.gate_b2.data[:] = -np.inf
    images = make_batch(desk_splits()["train"], np.arange(4)).images

    backbone = model.backbone
    seq = backbone.insert_prompts(model.prompts, backbone.patch_embed(images))
    plain = model.projection.project(backbone.vit_forward(seq))
    reduced = model.encode_images(images)

    gap = float(np.max(np.abs(reduced.data - plain.data)))
    assert gap < 1e-9
    request.node.acceptance_line += f" (max abs diff {gap:.2e})"


def test_criterion_5_oracle_equivalence(request):
    request.node.acceptance_line = (
        "criterion 5: filtering vs loop conv (50 cases); top-k/mAP vs sort oracles (20x200x200)")
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        b = int(rng.integers(1, 4))
        h = int(rng.integers(7, 12))
        w = int(rng.integers(7, 12))
        k = int(rng.choice([1, 3, 5]))
        images = rng.uniform(size=(b, 3, h, w))
        kernels = rng.normal(size=(b, 3, k, k))
        fast = apply_dynamic_filter(Tensor(images), Tensor(kernels)).data
        slow = oracle_convolve(images, kernels)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    assert worst < 1e-9

    ks = [1, 5, 10, 50, 200]
    for _ in range(20):
        sim = rng.normal(size=(200, 200))
        ranks = oracle_ranks_by_sort(sim)
        assert np.array_equal(retrieval_ranks(sim), ranks)
        accuracy = build_report(sim, ks).top_k
        for k in ks:
            assert accuracy[k] == float(np.mean(ranks <= k))
        assert mean_average_precision(sim) == oracle_map_by_definition(sim)
    request.node.acceptance_line += f" (max conv diff {worst:.2e}, metrics exact)"


def test_criterion_6_hand_values(request):
    request.node.acceptance_line = (
        "criterion 6: B=2 identity InfoNCE = 0.313262 +- 1e-6; all-rank-2 mAP = 0.5 exactly")
    value = infonce(Tensor(np.eye(2))).item()
    assert abs(value - 0.313262) <= 1e-6
    assert abs(value - (-np.log(np.e / (np.e + 1.0)))) < 1e-12

    n = 10
    sim = np.eye(n)
    for i in range(n):
        sim[i, (i + 1) % n] = 2.0  # one impostor above each true match
    assert np.array_equal(retrieval_ranks(sim), np.full(n, 2))
    assert mean_average_precision(sim) == 0.5
    request.node.acceptance_line += f" (InfoNCE {value:.6f})"


def test_criterion_7_learning_signal(request):
    request.node.acceptance_line = (
        "criterion 7: zero-shot top-1 over 3 seeds vs 10% chance, untrained baseline")
    start = time.time()

    def learning_config(seed):
        cfg = default_config()
        cfg.encoder.dim = 64
        cfg.backbone.dim = 32
        cfg.backbone.layers = 2
        cfg.trainer.batch_size = 32
        cfg.trainer.epochs = 30
        cfg.trainer.seed = seed
        return cfg

    data = generate_synthetic(seed=0, n_classes=50, per_class=20, channels=8,
                              timesteps=50, height=16, noise=0.1)
    splits = zero_shot_split(data, n_test_classes=10, n_val_samples=80, seed=0)

    accuracies = []
    for seed in (0, 1, 2):
        model = AlignmentModel(learning_config(seed), channels=8, timesteps=50, image_size=16)
        ckpt, _ = fit(model, splits["train"], splits["val"])
        report, _ = evaluate_zero_shot(ckpt.build_model(), splits["test"], ks=[1],
                                       train_class_ids=ckpt.train_class_ids)
        accuracies.append(report.top_k[1])
    median = float(np.median(accuracies))

    baseline = []
    for i in range(20):
        model = AlignmentModel(learning_config(100 + i), channels=8, timesteps=50, image_size=16)
        baseline.append(evaluate_zero_shot(model, splits["test"], ks=[1])[0].top_k[1])
    baseline_mean = float(np.mean(baseline))

    elapsed = time.time() - start
    request.node.acceptance_line += (
        f" (median {median:.2f} vs bar 0.20; untrained mean {baseline_mean:.3f}; {elapsed:.0f}s)")
    assert median >= 0.20, f"median zero-shot top-1 {median} below 2x chance"
    assert 0.0 <= baseline_mean <= 0.30, f"untrained baseline {baseline_mean} outside [0, 0.30]"
    assert elapsed <= 180.0, f"learning-signal run took {elapsed:.0f}s, budget is 180s"


def test_criterion_8_metric_sanity(request):
    request.node.acceptance_line = (
        "criterion 8: top-k monotone; rank invariance; loss permutation invariance < 1e-12")
    rng = np.random.default_rng(13)
    sim = rng.normal(size=(40, 40))
    accuracy = build_report(sim, list(range(1, 41))).top_k
    values = [accuracy[k] for k in range(1, 41)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0

    for transform in (lambda s: 3.0 * s + 2.0, lambda s: s ** 3, lambda s: s + np.tanh(s)):
        moved = transform(sim)
        assert np.array_equal(retrieval_ranks(moved), retrieval_ranks(sim))
        assert build_report(moved, [1, 5, 10]).top_k == build_report(sim, [1, 5, 10]).top_k
        assert mean_average_precision(moved) == mean_average_precision(sim)

    z_e = Tensor(rng.normal(size=(12, 10)))
    z_i = Tensor(rng.normal(size=(12, 10)))
    _, parts = total_loss(z_e, z_i, LossConfig(), LossConfig.tau_init)
    worst = 0.0
    for _ in range(10):
        perm = rng.permutation(12)
        _, permuted = total_loss(Tensor(z_e.data[perm]), Tensor(z_i.data[perm]), LossConfig(), LossConfig.tau_init)
        for key in ("l_clip", "l_soft", "l_rel", "l_total"):
            worst = max(worst, abs(parts[key] - permuted[key]))
    assert worst < 1e-12
    request.node.acceptance_line += f" (max permutation diff {worst:.2e})"


def test_criterion_9_determinism_and_persistence(request, tmp_path):
    request.node.acceptance_line = (
        "criterion 9: identical (seed, config, data) -> bitwise identical checkpoints; reload")
    splits = desk_splits()
    raw = {}
    for run in ("a", "b"):
        model = AlignmentModel(desk_config(seed=5, epochs=2), channels=4, timesteps=12,
                               image_size=16)
        ckpt, history = fit(model, splits["train"], splits["val"])
        save_checkpoint(ckpt, tmp_path / run)
        raw[run] = {name: (tmp_path / run / name).read_bytes()
                    for name in ("manifest.json", "params.bin")}
    assert raw["a"]["params.bin"] == raw["b"]["params.bin"]
    assert raw["a"]["manifest.json"] == raw["b"]["manifest.json"]
    # the anchor every arithmetic-preserving change must keep, bit for bit
    assert hashlib.sha256(raw["a"]["params.bin"]).hexdigest() == CRITERION_9_PARAMS_SHA256
    assert [row["val_loss"] for row in history] == CRITERION_9_VAL_LOSSES

    ckpt = load_checkpoint(tmp_path / "a")
    reproduced = validation_loss(ckpt.build_model(), splits["val"],
                                 ckpt.config.trainer.batch_size)
    gap = abs(reproduced - ckpt.val_loss)
    assert gap < 1e-9
    request.node.acceptance_line += f" (val loss gap {gap:.2e})"
