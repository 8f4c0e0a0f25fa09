"""Contrastive alignment objectives.

Three ingredients, combined as a weighted sum:

* a symmetric InfoNCE term over the cosine similarity matrix, averaged
  over both retrieval directions with a 1/(2B) prefactor;
* a softened distribution-matching term, a symmetric KL that pulls the
  cross-modal softmax rows toward targets interpolated between the
  identity and the intra-modal similarity distribution;
* an off-diagonal relation term that matches how each modality
  distributes probability over its negatives.

`total_loss` is the one place they are assembled. It reads the weights
from a ``LossConfig``, which ``config.validate_config`` has checked, and
trusts them. It normalizes the embeddings, divides the similarity by the
temperature and builds the intra-modal distributions once per batch; the
term functions take those as inputs, trust them and compute nothing
twice. A batch of one has no negatives and scores exactly 0 on every term.

The temperature is shared by every softmax here and is learned through
the exponential of a free scalar. Training, not the config, produces it,
so `total_loss` refuses one that is not a finite, positive scalar.
"""
from __future__ import annotations

import contextlib

import numpy as np

from .config import LossConfig
from .errors import DimensionError, DomainError
from .tensor import (
    Tensor,
    as_tensor,
    clamp_min,
    kl_div_rows,
    l2_normalize,
    log_softmax_rows,
    matmul,
    no_grad,
    softmax_rows,
    transpose,
)


def infonce(logits: Tensor) -> Tensor:
    """Symmetric InfoNCE over square logits, the similarity divided by the temperature.

    Mean of the row-wise and column-wise cross entropies of the matched
    diagonal, i.e. a 1/(2B) prefactor over both directions. A batch of
    one has no negatives and scores exactly zero.
    """
    b = logits.shape[0]
    idx = np.arange(b)
    row_diag = log_softmax_rows(logits)[(idx, idx)]
    col_diag = log_softmax_rows(transpose(logits))[(idx, idx)]
    return (row_diag.sum() + col_diag.sum()) * (-1.0 / (2.0 * b))


def soft_targets(p_ee: Tensor, p_ii: Tensor, beta: float) -> tuple[Tensor, Tensor]:
    """Identity targets softened toward the intra-modal distributions.

    T = (1 - beta) * I + beta * P, where P = softmax(Z Z^T / tau) over
    one modality's unit rows. At beta 0 the targets are exactly the
    identity, because P is finite.
    """
    eye = Tensor(np.eye(p_ee.shape[0]))
    return eye * (1.0 - beta) + p_ee * beta, eye * (1.0 - beta) + p_ii * beta


def soft_loss(t_e: Tensor, t_i: Tensor, p_ei: Tensor, p_ie: Tensor) -> Tensor:
    """Symmetric KL between softened targets and cross-modal rows.

    0.5 * [KL(T_E || P_EI) + KL(P_EI || T_E)] plus the same with the
    image-to-EEG direction. Each KL sums over a row and averages over
    the batch. It trusts `total_loss`'s four row-stochastic matrices; at
    a batch of one each is [[1]] and the term is 0.
    """
    part_e = (kl_div_rows(t_e, p_ei) + kl_div_rows(p_ei, t_e)) * 0.5
    part_i = (kl_div_rows(t_i, p_ie) + kl_div_rows(p_ie, t_i)) * 0.5
    return part_e + part_i


def _off_diagonal_renormalize(p: Tensor) -> Tensor:
    """Zero the diagonal and rescale every row back to probability."""
    b = p.shape[0]
    masked = p * Tensor(1.0 - np.eye(b))
    return masked / clamp_min(masked.sum(axis=-1, keepdims=True), 1e-300)


def relation_loss(p_ee: Tensor, p_ii: Tensor, p_ei: Tensor, p_ie: Tensor) -> Tensor:
    """Match the negatives-only distributions across modalities.

    Rows are renormalized after removing the diagonal. It trusts
    `total_loss`'s four (B, B) row-stochastic matrices. A batch of one
    has no negatives and scores 0, with a NaN gradient; the trainer
    forms no batch of one.
    """
    kl_e = kl_div_rows(_off_diagonal_renormalize(p_ee), _off_diagonal_renormalize(p_ei))
    kl_i = kl_div_rows(_off_diagonal_renormalize(p_ii), _off_diagonal_renormalize(p_ie))
    return (kl_e + kl_i) * 0.5


def total_loss(z_e: Tensor, z_i: Tensor, loss: LossConfig, tau: Tensor | float) -> tuple[Tensor, dict[str, float]]:
    """Weighted sum of the three terms with a per-component breakdown.

    The one place the objective is assembled: the unit rows, the logits
    sim / tau and the intra-modal distributions are each built once and
    shared by every term that reads them. Soft and relation terms with
    a zero weight are skipped entirely, so a (1, 0, 0) weighting
    reproduces plain InfoNCE exactly.
    """
    value = np.asarray(tau.data if isinstance(tau, Tensor) else tau, dtype=float)
    if value.size != 1 or not (value.item() > 0 and np.isfinite(value.item())):
        raise DomainError(f"temperature must be a finite, positive scalar, got {value}")
    z_e, z_i = l2_normalize(as_tensor(z_e)), l2_normalize(as_tensor(z_i))
    if z_e.shape != z_i.shape:
        raise DimensionError(f"embedding shapes differ: {z_e.shape} vs {z_i.shape}")
    logits = matmul(z_e, transpose(z_i)) / tau

    l_clip = infonce(logits)
    total = l_clip * loss.mu
    parts = {"l_clip": l_clip.item(), "l_soft": 0.0, "l_rel": 0.0}

    if loss.alpha > 0 or loss.lam > 0:
        p_ei = softmax_rows(logits)
        p_ie = softmax_rows(transpose(logits))
        with no_grad() if loss.detach_targets else contextlib.nullcontext():
            p_ee = softmax_rows(matmul(z_e, transpose(z_e)) / tau)
            p_ii = softmax_rows(matmul(z_i, transpose(z_i)) / tau)

    if loss.alpha > 0:
        t_e, t_i = soft_targets(p_ee, p_ii, loss.beta)
        l_soft = soft_loss(t_e, t_i, p_ei, p_ie)
        total = total + l_soft * loss.alpha
        parts["l_soft"] = l_soft.item()

    if loss.lam > 0:
        l_rel = relation_loss(p_ee, p_ii, p_ei, p_ie)
        total = total + l_rel * loss.lam
        parts["l_rel"] = l_rel.item()

    parts["l_total"] = total.item()
    return total, parts
