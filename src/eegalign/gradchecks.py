"""Finite-difference verification of every trainable component.

Each named check builds one component at tiny dimensions on a batch of
four, defines a smooth scalar objective over it, and compares backward
gradients against central differences with ``grad_check``. The three loss
checks run `total_loss` itself, the composition training runs, with one
term's weight at 1 and the others at 0. They let the gradients flow through
the target construction (no detaching): with targets detached the numeric
derivative of the recomputed objective measures a different quantity than
backward deliberately reports, so the detached path is validated
separately by algebraic identity tests instead.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .backbone import ProjectionHead, VisionBackbone, make_prompts
from .config import LossConfig
from .dynfilter import FilterGenerator, apply_dynamic_filter
from .eeg import LinearEncoder, Perturbation
from .errors import ConfigError
from .fusion import CrossAttentionFusion
from .losses import total_loss
from .tensor import Parameter, Tensor, exp

BATCH = 4
# tau for the loss checks; cold temperatures push softmax entries under
# the KL clamp where the objective has a corner
CHECK_TAU = 0.5
# the central-difference step, and the relative error at which an entry fails
PROBE_STEP = 1e-5
REL_TOL = 1e-4


@dataclass
class GradCheckResult:
    name: str
    max_rel_err: float
    checked: int
    passed: bool


@dataclass
class GradCheckReport:
    results: list[GradCheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> str:
        lines = []
        for r in self.results:
            flag = "ok" if r.passed else "FAIL"
            lines.append(f"{flag:4s} {r.name:<28s} max_rel_err={r.max_rel_err:.3e} ({r.checked} entries)")
        return "\n".join(lines)


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Parameter],
    max_entries: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare backward() gradients of ``f`` against central differences.

    ``f`` must rebuild its forward graph from the current parameter
    values on every call and return a scalar. The relative error of each
    checked entry is |analytic - numeric| / max(|analytic|, |numeric|, 1),
    with numeric differences at ``PROBE_STEP``; an entry fails at
    ``REL_TOL``. ``max_entries`` caps the entries probed per parameter,
    chosen by ``rng``, which must then be given; by default every entry
    is probed.
    """
    for p in params:
        p.value.grad = None
    loss = f()
    loss.backward()
    analytic = {}
    for p in params:
        g = p.value.grad
        analytic[p.name] = np.zeros_like(p.value.data) if g is None else g.copy()
        p.value.grad = None

    report = GradCheckReport()
    for p in params:
        flat = p.value.data.reshape(-1)
        ana = analytic[p.name].reshape(-1)
        if max_entries is not None and flat.size > max_entries:
            indices = rng.choice(flat.size, size=max_entries, replace=False)
        else:
            indices = np.arange(flat.size)
        worst = 0.0
        for i in indices:
            saved = flat[i]
            flat[i] = saved + PROBE_STEP
            plus = f().item()
            flat[i] = saved - PROBE_STEP
            minus = f().item()
            flat[i] = saved
            numeric = (plus - minus) / (2.0 * PROBE_STEP)
            denom = max(abs(ana[i]), abs(numeric), 1.0)
            worst = max(worst, abs(ana[i] - numeric) / denom)
        report.results.append(
            GradCheckResult(name=p.name, max_rel_err=worst, checked=len(indices), passed=worst < REL_TOL)
        )
    return report


def _param(name: str, array: np.ndarray) -> Parameter:
    return Parameter(name, Tensor(array), group="A")


def check_perturbation(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    perturb = Perturbation(channels=3, timesteps=5, init=rng)
    perturb.gain.value.data += 0.1 * rng.normal(size=(3, 5))
    perturb.offset.value.data += 0.1 * rng.normal(size=(3, 5))
    eeg = Tensor(rng.normal(size=(BATCH, 3, 5)))
    weights = Tensor(rng.normal(size=(BATCH, 3, 5)))

    def loss():
        out = perturb.apply(eeg)
        return (out * out * weights).sum()

    return grad_check(loss, perturb.params())


def check_encoder(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    enc = LinearEncoder(channels=3, timesteps=5, dim=6, init=rng)
    eeg = Tensor(rng.normal(size=(BATCH, 3, 5)))
    target = Tensor(rng.normal(size=(BATCH, 6)))

    def loss():
        diff = enc.encode(eeg) - target
        return (diff * diff).sum()

    return grad_check(loss, enc.params())


def check_filter_generator(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    gen = FilterGenerator(fh=3, fw=3, init=rng)
    images = Tensor(rng.uniform(size=(BATCH, 3, 8, 8)))
    weights = Tensor(rng.normal(size=(BATCH, 3, 3, 3)))

    def loss():
        k = gen.generate(images)
        return (k * k * weights).sum()

    return grad_check(loss, gen.params(), max_entries=25, rng=np.random.default_rng(seed + 1))


def check_dynamic_filter(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    images = _param("images", rng.uniform(size=(BATCH, 3, 6, 6)))
    kernels = _param("kernels", 0.3 * rng.normal(size=(BATCH, 3, 3, 3)))

    def loss():
        out = apply_dynamic_filter(images.value, kernels.value)
        return (out * out).sum()

    return grad_check(loss, [images, kernels], max_entries=40, rng=np.random.default_rng(seed + 1))


def check_fusion(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    fusion = CrossAttentionFusion(dim=8, heads=2, init=rng)
    x_orig = _param("x_orig", rng.normal(size=(BATCH, 3, 8)))
    x_filt = _param("x_filt", rng.normal(size=(BATCH, 3, 8)))

    def loss():
        fused = fusion.fuse(x_orig.value, x_filt.value)
        return (fused * fused).sum()

    return grad_check(loss, fusion.params() + [x_orig, x_filt], max_entries=30,
                      rng=np.random.default_rng(seed + 1))


def check_prompts(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    bb = VisionBackbone(image_size=8, patch=4, dim=8, layers=1, heads=2, prompt_count=2, init=rng)
    prompts = make_prompts(2, 8, rng)
    fused = Tensor(rng.normal(size=(BATCH, 4, 8)))

    def loss():
        out = bb.vit_forward(bb.insert_prompts(prompts.value, fused))
        return (out * out).sum()

    return grad_check(loss, [prompts])


def check_projection(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    head = ProjectionHead(8, 6, rng)
    z = Tensor(rng.normal(size=(BATCH, 8)))
    target = Tensor(rng.normal(size=(BATCH, 6)))

    def loss():
        diff = head.project(z) - target
        return (diff * diff).sum()

    return grad_check(loss, head.params(), max_entries=30, rng=np.random.default_rng(seed + 1))


def _check_loss_term(seed: int, mu: float = 0.0, alpha: float = 0.0, lam: float = 0.0) -> GradCheckReport:
    """Check `total_loss` with one term weighted and the others at 0."""
    rng = np.random.default_rng(seed)
    ze = _param("z_e", rng.normal(size=(BATCH, 6)))
    zi = _param("z_i", rng.normal(size=(BATCH, 6)))
    log_tau = _param("log_tau", np.log(CHECK_TAU))

    weights = LossConfig(mu=mu, alpha=alpha, lam=lam, beta=0.3, detach_targets=False)

    def loss():
        return total_loss(ze.value, zi.value, weights, exp(log_tau.value))[0]

    return grad_check(loss, [ze, zi, log_tau])


CHECKS = {
    "perturbation": check_perturbation,
    "encoder": check_encoder,
    "filter_generator": check_filter_generator,
    "dynamic_filter": check_dynamic_filter,
    "fusion": check_fusion,
    "prompts": check_prompts,
    "projection": check_projection,
    "loss_clip": functools.partial(_check_loss_term, mu=1.0),
    "loss_soft": functools.partial(_check_loss_term, alpha=1.0),
    "loss_rel": functools.partial(_check_loss_term, lam=1.0),
}


def run_checks(names, seed: int) -> dict[str, GradCheckReport]:
    """Run the named checks (all of them for `None`) at one seed; ConfigError before any runs if it is negative."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if names is None:
        names = list(CHECKS)
    reports = {}
    for name in names:
        if name not in CHECKS:
            raise ConfigError(f"unknown gradcheck component {name!r}; known: {', '.join(sorted(CHECKS))}")
        reports[name] = CHECKS[name](seed)
    return reports
