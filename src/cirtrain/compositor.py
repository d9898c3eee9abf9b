"""Twin attention-based fusion of reference and target images, plus the
text-reasoning loss that matches the fused vector against the text.

Each branch anchors one image as a persistent query while the other image's
representation evolves through M plain attention layers (no residuals).
Within a branch all layers share one weight set, so parameter count does
not grow with depth; across branches the weights are independent unless
explicitly shared.
"""

from __future__ import annotations

import logging

import numpy as np

from .encoders import Attention
from .objective import in_batch_nll
from .tensor import (
    Tensor,
    add,
    concat,
    l2_normalize_rows,
    matmul,
    mean_axis,
    scalar_mul,
    slice_rows,
    transpose,
)

log = logging.getLogger(__name__)


class CompositorParams:
    """Weights and layout of the two fusion branches."""

    def __init__(self, dim: int, rng: np.random.Generator, layers: int, share_branches: bool):
        if layers < 1:
            raise ValueError("compositor needs at least one attention layer")
        self.layers = layers
        self.target_branch = Attention("compositor.target_branch", dim, rng)
        self.reference_branch = (
            self.target_branch
            if share_branches
            else Attention("compositor.reference_branch", dim, rng)
        )

    def params(self):
        # keyed by identity, so shared branches are listed once
        every = self.target_branch.params() + self.reference_branch.params()
        return list({id(w): w for w in every}.values())


def fuse_branch(anchor: Tensor, other: Tensor, attend: Attention, layers: int) -> Tensor:
    """Run M attention layers with `anchor` as the fixed query over the evolving state.

    The state starts at `other`; every layer reuses the branch's single
    weight set.  The result keeps the anchor's row count.
    """
    if anchor.shape[1] != other.shape[1]:
        raise ValueError(f"feature dims disagree: {anchor.shape} vs {other.shape}")
    state = other
    for _ in range(layers):
        state = attend(anchor, state)
    return state


def compose(f_r_prime: Tensor, f_t: Tensor, p: CompositorParams) -> Tensor:
    """Average the two branches' CLS rows into one L2-normalized 1 x d vector."""
    if f_r_prime.shape[0] == 0 or f_t.shape[0] == 0:
        raise ValueError("compose: inputs must carry a CLS row (row 0)")
    h_target = fuse_branch(f_r_prime, f_t, p.target_branch, p.layers)
    h_reference = fuse_branch(f_t, f_r_prime, p.reference_branch, p.layers)
    mean_cls = scalar_mul(add(slice_rows(h_target, 0, 1), slice_rows(h_reference, 0, 1)), 0.5)
    if float(np.linalg.norm(mean_cls.data)) < 1e-12:
        log.warning("degenerate composite vector: branch CLS rows cancel")
    return l2_normalize_rows(mean_cls)


def reasoning_loss(triplet_features, p: CompositorParams, tau: float) -> Tensor:
    """Contrast each composite visual vector against all in-batch texts.

    triplet_features is a list of (f_r_prime, f_t, f_c) tensors per batch
    item.  Texts are mean-pooled and L2-normalized; row i of the similarity
    matrix scores composite i against every text, diagonal matched.
    """
    triplets = list(triplet_features)
    if not triplets:
        raise ValueError("reasoning_loss: empty batch")
    composites = [compose(f_r_prime, f_t, p) for f_r_prime, f_t, _ in triplets]
    texts = [l2_normalize_rows(mean_axis(f_c, axis=0)) for _, _, f_c in triplets]
    sim = matmul(concat(composites, axis=0), transpose(concat(texts, axis=0)))
    return in_batch_nll(sim, tau)
