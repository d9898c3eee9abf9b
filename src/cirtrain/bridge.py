"""Text-bridged attention from reference to target image, and the alignment loss.

The text acts as a pivot: reference patches attend to words (cosine
association), words attend to target patches, and the product of the two
association matrices, scaled and row-softmaxed, lets each reference patch
attend to target patches it can only reach through the text.  The alignment
loss then contrasts the attentive target features against the reference
features over in-batch negatives.
"""

from __future__ import annotations

import math

import numpy as np

from .objective import in_batch_nll
from .tensor import (
    Param,
    Tensor,
    concat,
    l2_normalize_rows,
    matmul,
    mean_axis,
    scalar_mul,
    softmax_rows,
    transpose,
)


class BridgeParams:
    """Projection weights for the two-hop attention chain.

    With share_text_projection the text is projected by the same matrix in
    both hops, so w_text_query is literally w_text: one storage, one
    gradient buffer.
    """

    def __init__(self, dim: int, rng: np.random.Generator, share_text_projection: bool):
        scale = 1.0 / math.sqrt(dim)
        self.w_ref = Param("bridge.w_ref", rng.normal(0.0, scale, (dim, dim)))
        self.w_text = Param("bridge.w_text", rng.normal(0.0, scale, (dim, dim)))
        self.w_text_query = (
            self.w_text
            if share_text_projection
            else Param("bridge.w_text_query", rng.normal(0.0, scale, (dim, dim)))
        )
        self.w_target = Param("bridge.w_target", rng.normal(0.0, scale, (dim, dim)))
        self.w_value = Param("bridge.w_value", rng.normal(0.0, scale, (dim, dim)))

    def params(self):
        # keyed by identity, so a shared w_text_query is listed once
        every = (self.w_ref, self.w_text, self.w_text_query, self.w_target, self.w_value)
        return list({id(w): w for w in every}.values())


def attend_ref_to_text(f_r_bar: Tensor, f_c: Tensor, p: BridgeParams) -> Tensor:
    """N x L cosine association of projected reference rows against projected words."""
    q = l2_normalize_rows(matmul(f_r_bar, p.w_ref.tensor))
    k = l2_normalize_rows(matmul(f_c, p.w_text.tensor))
    return matmul(q, transpose(k))


def attend_text_to_target(f_c: Tensor, f_t: Tensor, p: BridgeParams) -> Tensor:
    """L x N cosine association of projected words against projected target rows."""
    q = l2_normalize_rows(matmul(f_c, p.w_text_query.tensor))
    k = l2_normalize_rows(matmul(f_t, p.w_target.tensor))
    return matmul(q, transpose(k))


def hinge_attention(a_r2c: Tensor, a_c2t: Tensor, dim: int) -> Tensor:
    """Compose the two hops: row-softmax of their product scaled by 1/sqrt(dim)."""
    return softmax_rows(scalar_mul(matmul(a_r2c, a_c2t), 1.0 / math.sqrt(dim)))


def _pooled(x: Tensor) -> Tensor:
    return l2_normalize_rows(mean_axis(x, axis=0))


def alignment_loss(triplet_features, p: BridgeParams, tau: float) -> Tensor:
    """Contrastive alignment of reference features with bridged target features.

    triplet_features is a list of (f_r_bar, f_c, f_t) tensors, one per batch
    item.  For every query the chain is recomputed against every in-batch
    target (each candidate target supplies its own keys and values), the two
    sides are mean-pooled, and their cosine similarities feed the in-batch
    softmax with the matched target on the diagonal.
    """
    triplets = list(triplet_features)
    b = len(triplets)
    dim = p.w_ref.shape[0]

    pooled_refs = [_pooled(f_r_bar) for f_r_bar, _, _ in triplets]
    # per-query and per-candidate projections are reused across the B x B chains
    a_r2cs = [attend_ref_to_text(f_r_bar, f_c, p) for f_r_bar, f_c, _ in triplets]
    q_texts = [l2_normalize_rows(matmul(f_c, p.w_text_query.tensor)) for _, f_c, _ in triplets]
    k_targets_t = [transpose(l2_normalize_rows(matmul(f_t, p.w_target.tensor)))
                   for _, _, f_t in triplets]
    v_targets = [matmul(f_t, p.w_value.tensor) for _, _, f_t in triplets]

    rows = []
    for i in range(b):
        sims = []
        for j in range(b):
            a_c2t = matmul(q_texts[i], k_targets_t[j])
            a_r2t = hinge_attention(a_r2cs[i], a_c2t, dim)
            pooled_bridge = _pooled(matmul(a_r2t, v_targets[j]))
            sims.append(matmul(pooled_refs[i], transpose(pooled_bridge)))
        rows.append(concat(sims, axis=1))
    return in_batch_nll(concat(rows, axis=0), tau)
