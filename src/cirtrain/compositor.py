"""Twin attention-based fusion of reference and target images, plus the
text-reasoning loss that matches the fused vector against the text.

Each branch anchors one image as a persistent query while the other image's
representation evolves through M plain attention layers (no residuals).
Within a branch all layers share one weight set, so parameter count does
not grow with depth; the two branches' weights are independent, and the
composite is the L2-normalized sum of their CLS rows, the normalized mean.
"""

from __future__ import annotations

import logging

import numpy as np

from .encoders import Attention
from .objective import matching_loss
from .tensor import NORM_EPS, Tensor, add, first_row, l2_normalize_rows, mean_axis

log = logging.getLogger(__name__)


class CompositorParams:
    """Weights and layout of the two fusion branches."""

    def __init__(self, dim: int, rng: np.random.Generator, layers: int):
        self.layers = layers
        self.target_branch = Attention("compositor.target_branch", dim, rng)
        self.reference_branch = Attention("compositor.reference_branch", dim, rng)

    def params(self):
        return self.target_branch.params() + self.reference_branch.params()


def fuse_branch(anchor: Tensor, other: Tensor, attend: Attention, layers: int) -> Tensor:
    """Run M attention layers with `anchor` as the fixed query over the evolving state.

    The state starts at `other`; every layer reuses the branch's single
    weight set.  The result keeps the anchor's row count.
    """
    state = other
    for _ in range(layers):
        state = attend(anchor, state)
    return state


def compose(f_r_prime: Tensor, f_t: Tensor, p: CompositorParams) -> Tensor:
    """L2-normalize the sum of the independent branches' CLS rows into B x d composites, one
    per item: bit for bit the normalized mean, since halving is exact in float64."""
    h_target = fuse_branch(f_r_prime, f_t, p.target_branch, p.layers)
    h_reference = fuse_branch(f_t, f_r_prime, p.reference_branch, p.layers)
    cls_sum = add(first_row(h_target), first_row(h_reference))
    if (np.linalg.norm(cls_sum.data, axis=-1) < NORM_EPS).any():
        log.warning("degenerate composite vector: branch CLS rows cancel")
    return l2_normalize_rows(cls_sum)


def reasoning_loss(f_r_prime: Tensor, f_t: Tensor, f_c: Tensor, p: CompositorParams,
                   tau: float) -> Tensor:
    """Contrast each composite visual vector against all in-batch texts.

    The features are B x N x d, B x M x d and B x L x d tensors, item i of
    each belonging to triplet i.  Texts are mean-pooled and L2-normalized,
    and the two unit-row sets meet in the matching term's in-batch contrast,
    composite i matched with text i.
    """
    composites = compose(f_r_prime, f_t, p)
    texts = l2_normalize_rows(mean_axis(f_c, axis=-2))
    return matching_loss(composites, texts, tau)
