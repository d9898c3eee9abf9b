"""Text-bridged attention from reference to target image, and the alignment loss.

The text acts as a pivot: reference patches attend to words (cosine
association), words attend to target patches, and the product of the two
association matrices, scaled and row-softmaxed, lets each reference patch
attend to target patches it can only reach through the text; each hop is
`cosines` under its own two projections.  The alignment loss then contrasts
the attentive target features against the reference features over in-batch
negatives, regrouping its batched grid by one axis permutation at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import (
    Param,
    Tensor,
    diagonal_nll,
    l2_normalize_rows,
    matmul,
    mean_axis,
    reshape,
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
        # a shared w_text_query is listed once: params hash by identity
        return list(dict.fromkeys((self.w_ref, self.w_text, self.w_text_query, self.w_target,
                                   self.w_value)))


def cosines(x: Tensor, w_x: Param, y: Tensor, w_y: Param) -> Tensor:
    """Cosine of every row of x projected by w_x against every row of y projected by w_y, per
    matrix of a batched x; y shares x's leading axes or is 2-D (`alignment_loss` passes both)."""
    q = l2_normalize_rows(matmul(x, w_x.tensor))
    k = l2_normalize_rows(matmul(y, w_y.tensor))
    return matmul(q, transpose(k))


def alignment_loss(f_r_bar: Tensor, f_c: Tensor, f_t: Tensor, p: BridgeParams,
                   tau: float) -> Tensor:
    """Contrastive alignment of reference features with bridged target features.

    The features are B x N x d, B x L x d and B x M x d tensors, item i of
    each belonging to triplet i.  For every query the chain is computed
    against every in-batch target (each candidate target supplies its own
    keys and values), the two sides are mean-pooled, and their cosine
    similarities feed the in-batch softmax with the matched target on the
    diagonal.  The grid is laid out (i, n, j, m): query i's reference row n
    against candidate j's target row m, never expanded over a second batch
    axis.
    """
    (b, n, dim), m = f_r_bar.shape, f_t.shape[1]

    # every word of every query against every row of every target in one product, B x L x
    # (B·M) cosines; then B x N x B x M hinge logits, softmaxed over each candidate's M rows
    a_c2t = cosines(f_c, p.w_text_query, reshape(f_t, (b * m, dim)), p.w_target)
    logits = matmul(cosines(f_r_bar, p.w_ref, f_c, p.w_text), a_c2t)
    a_r2t = softmax_rows(reshape(logits, (b, n, b, m)), 1.0 / math.sqrt(dim))
    # the value product is linear, so pool the N reference rows first; regroup the
    # B x B x M pooled attention by candidate j, (j, i, m), to weigh j's own M values
    pooled = transpose(mean_axis(a_r2t, axis=1), (1, 0, 2))
    bridge = l2_normalize_rows(matmul(pooled, matmul(f_t, p.w_value.tensor)))
    # (j, i, d) -> (i, d, j), so query i's pooled reference row, as 1 x d, meets its B bridged rows
    pooled_ref = reshape(l2_normalize_rows(mean_axis(f_r_bar, axis=-2)), (b, 1, dim))
    return diagonal_nll(reshape(matmul(pooled_ref, transpose(bridge, (1, 2, 0))), (b, b)), tau)
