"""Query-target matching loss, the joint training objective, and gallery scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    Tensor,
    add,
    concat,
    log,
    matmul,
    mul,
    scalar_mul,
    softmax_rows,
    sum_all,
    transpose,
)


@dataclass
class LossBreakdown:
    """Per-step scalar values of the three terms and their weighted total."""

    matching: float
    alignment: float | None
    reasoning: float | None
    total: float


def in_batch_nll(sim: Tensor, tau: float) -> Tensor:
    """Mean negative log-likelihood of the diagonal of a B x B similarity matrix.

    Row i holds query i's similarity to every in-batch candidate; candidate i
    is the positive and the rest are negatives.  Shared by all three losses.
    """
    b = sim.shape[0]
    if sim.shape != (b, b):
        raise ValueError(f"in_batch_nll: expected a square matrix, got {sim.shape}")
    log_probs = log(softmax_rows(scalar_mul(sim, 1.0 / tau)))
    diag_sum = sum_all(mul(log_probs, Tensor(np.eye(b))))
    return scalar_mul(diag_sum, -1.0 / b)


def matching_loss(query_embs, target_embs, tau: float) -> Tensor:
    """In-batch contrastive loss between pooled query and pooled target embeddings.

    Both inputs are lists of L2-normalized 1 x d tensors; entry i of each list
    belongs to triplet i, so the similarity diagonal holds the positives.
    """
    sim = matmul(concat(query_embs, axis=0), transpose(concat(target_embs, axis=0)))
    return in_batch_nll(sim, tau)


def total_loss(l_match: Tensor, l_align: Tensor | None, l_reason: Tensor | None,
               alpha: float, beta: float) -> Tensor:
    """Weighted sum of the three terms; absent auxiliaries contribute nothing."""
    total = l_match
    if l_align is not None:
        total = add(total, scalar_mul(l_align, alpha))
    if l_reason is not None:
        total = add(total, scalar_mul(l_reason, beta))
    return total


def score_query_against_gallery(query: Tensor, gallery: np.ndarray) -> np.ndarray:
    """Cosine score of one query row against each gallery row (rows pre-normalized).

    This is the whole inference-time scoring path: plain dot products, no
    graph recording and no attention machinery.
    """
    if gallery.ndim != 2 or gallery.shape[0] == 0:
        raise ValueError("gallery must be a non-empty G x d matrix")
    q = query.data.reshape(-1)
    if q.shape[0] != gallery.shape[1]:
        raise ValueError(f"query dim {q.shape[0]} does not match gallery dim {gallery.shape[1]}")
    return gallery @ q
