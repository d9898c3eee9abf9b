"""Query-target matching loss, the joint training objective, and gallery scoring; each
loss term is `tensor.diagonal_nll` of an in-batch similarity matrix at temperature tau."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, add, diagonal_nll, matmul, scalar_mul, transpose


@dataclass
class LossBreakdown:
    """Per-step scalar values of the three terms and their weighted total."""

    matching: float
    alignment: float | None
    reasoning: float | None
    total: float


def matching_loss(query_embs: Tensor, target_embs: Tensor, tau: float) -> Tensor:
    """In-batch contrastive loss between two unit-row sets, here pooled query and
    pooled target embeddings; the reasoning term reuses it for composites and texts.

    Both inputs are B x d matrices of L2-normalized rows; row i of each
    belongs to triplet i, so the similarity diagonal holds the positives.
    """
    return diagonal_nll(matmul(query_embs, transpose(target_embs)), tau)


def total_loss(l_match: Tensor, l_align: Tensor | None, l_reason: Tensor | None,
               alpha: float, beta: float) -> Tensor:
    """Weighted sum of the three terms; absent auxiliaries contribute nothing."""
    total = l_match
    if l_align is not None:
        total = add(total, scalar_mul(l_align, alpha))
    if l_reason is not None:
        total = add(total, scalar_mul(l_reason, beta))
    return total


def score_query_against_gallery(queries: Tensor, gallery: np.ndarray) -> np.ndarray:
    """Cosine scores of a B x d chunk of query rows against each gallery row
    (rows pre-normalized): the B x G product `queries @ gallery.T`.

    This is the whole inference-time scoring path: one matrix product, no
    graph recording and no attention machinery.  Each row is bitwise the
    matching row of one product over all queries.
    """
    if gallery.ndim != 2 or gallery.shape[0] == 0:
        raise ValueError("gallery must be a non-empty G x d matrix")
    q = queries.data
    if q.ndim != 2 or q.shape[1] != gallery.shape[1]:
        raise ValueError(f"queries of shape {q.shape} are not B x {gallery.shape[1]} like the gallery")
    if len(q) == 1:  # numpy sends one row to gemv, whose sums can round apart from gemm's
        return (np.vstack((q, q)) @ gallery.T)[:1]
    return q @ gallery.T
