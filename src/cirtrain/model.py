"""Full retrieval model: encoders, fusion blocks, loss assembly, checkpoints.

Training touches every component; inference touches only the encoders and
the query-fusion block, then scores plain dot products.  Both image
encoders are frozen at initialization, mirroring the training policy the
auxiliary losses are designed around.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bridge import BridgeParams, alignment_loss
from .compositor import CompositorParams, reasoning_loss
from .config import RunConfig
from .data import TripletRecord
from .encoders import (
    KIND_REFERENCE,
    KIND_TARGET,
    KIND_TEXT,
    CrossEncoder,
    ImageEncoder,
    QueryFusion,
    TextEncoder,
    TokenSeq,
)
from .objective import LossBreakdown, matching_loss, total_loss
from .tensor import Tensor, l2_normalize_rows, slice_rows


class RetrievalModel:
    def __init__(self, cfg: RunConfig, seed: int | None = None):
        mc, ab = cfg.model, cfg.ablation
        self.cfg = cfg
        rng = np.random.default_rng(cfg.training.seed if seed is None else seed)

        self.ref_encoder = ImageEncoder("ref_encoder", mc.image_vocab, mc.dim, mc.max_tokens, rng)
        self.tgt_encoder = ImageEncoder("tgt_encoder", mc.image_vocab, mc.dim, mc.max_tokens, rng)
        self.text_encoder = TextEncoder(
            "text_encoder", mc.text_vocab, mc.dim, mc.max_tokens, rng,
        )
        self.cross_encoder = CrossEncoder("cross_encoder", mc.dim, rng)
        self.fusion = QueryFusion("fusion", mc.dim, mc.prompts, rng)
        self.bridge = BridgeParams(mc.dim, rng, share_text_projection=ab.share_text_projection)
        self.compositor = CompositorParams(
            mc.dim, rng, layers=mc.compositor_layers,
            share_branches=ab.share_compositor_branches,
        )

    # ------------------------------------------------------------------ params

    def parameters(self) -> dict:
        """All params by name, in a deterministic order."""
        groups = (
            self.ref_encoder.params()
            + self.tgt_encoder.params()
            + self.text_encoder.params()
            + self.cross_encoder.params()
            + self.fusion.params()
            + self.bridge.params()
            + self.compositor.params()
        )
        return {p.name: p for p in groups}

    def trainable(self) -> list:
        return [p for p in self.parameters().values() if not p.frozen]

    def zero_grad(self):
        for p in self.parameters().values():
            p.zero_grad()

    # ------------------------------------------------------------------ forward

    def encode_triplet(self, record: TripletRecord) -> dict:
        """All per-triplet feature sequences the three losses consume."""
        ref_seq = TokenSeq(record.ref_tokens, KIND_REFERENCE)
        f_r = self.ref_encoder.encode(ref_seq)
        f_t = self.tgt_encoder.encode(TokenSeq(record.target_tokens, KIND_TARGET))
        f_c = self.text_encoder.encode(TokenSeq(record.text_tokens, KIND_TEXT))
        f_r_bar = self.cross_encoder(f_r, f_c)
        # the reference re-encoded through the image branch, train-time only
        f_r_prime = self.tgt_encoder.encode(TokenSeq(record.ref_tokens, KIND_REFERENCE))
        return {"f_r": f_r, "f_t": f_t, "f_c": f_c, "f_r_bar": f_r_bar, "f_r_prime": f_r_prime}

    def pooled_target(self, f_t: Tensor) -> Tensor:
        """CLS row of the target features, L2-normalized."""
        return l2_normalize_rows(slice_rows(f_t, 0, 1))

    def batch_losses(self, records) -> tuple:
        """Joint loss over one batch; returns (total tensor, LossBreakdown)."""
        ab, ob = self.cfg.ablation, self.cfg.objective
        feats = [self.encode_triplet(r) for r in records]

        query_embs = [self.fusion.query_embedding(f["f_c"], f["f_r"]) for f in feats]
        target_embs = [self.pooled_target(f["f_t"]) for f in feats]
        l_match = matching_loss(query_embs, target_embs, ob.tau)

        l_align = None
        if ab.use_alignment and ob.alpha > 0:
            ref_key = "f_r_bar" if ab.attentive_reference else "f_r"
            l_align = alignment_loss(
                [(f[ref_key], f["f_c"], f["f_t"]) for f in feats], self.bridge, ob.tau
            )

        l_reason = None
        if ab.use_reasoning and ob.beta > 0:
            l_reason = reasoning_loss(
                [(f["f_r_prime"], f["f_t"], f["f_c"]) for f in feats], self.compositor, ob.tau
            )

        total = total_loss(l_match, l_align, l_reason, ob.alpha, ob.beta)
        breakdown = LossBreakdown(
            matching=l_match.item(),
            alignment=None if l_align is None else l_align.item(),
            reasoning=None if l_reason is None else l_reason.item(),
            total=total.item(),
        )
        return total, breakdown

    # ------------------------------------------------------------------ inference

    def query_embedding(self, ref_tokens, text_tokens) -> Tensor:
        """The multimodal query vector; this and pooled targets are the whole
        inference surface (no bridge or compositor involvement)."""
        f_r = self.ref_encoder.encode(TokenSeq(ref_tokens, KIND_REFERENCE))
        f_c = self.text_encoder.encode(TokenSeq(text_tokens, KIND_TEXT))
        return self.fusion.query_embedding(f_c, f_r)

    def target_embedding(self, target_tokens) -> Tensor:
        return self.pooled_target(self.tgt_encoder.encode(TokenSeq(target_tokens, KIND_TARGET)))


# ---------------------------------------------------------------------- checkpoints


def save_checkpoint(model: RetrievalModel, path):
    """One JSON document: parameter name -> shape, row-major values, frozen flag.

    Floats are serialized via repr (shortest round-trip decimal form), so a
    load restores bit-identical float64 values.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        name: {
            "shape": list(p.shape),
            "data": [float(v) for v in p.data.reshape(-1)],
            "frozen": p.frozen,
        }
        for name, p in sorted(model.parameters().items())
    }
    with path.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(model: RetrievalModel, path):
    """Restore parameter values in place; names, shapes and flags must match."""
    with Path(path).open("r", encoding="utf-8") as fh:
        doc = json.load(fh)
    params = model.parameters()
    if set(doc) != set(params):
        missing = sorted(set(params) - set(doc))
        extra = sorted(set(doc) - set(params))
        raise ValueError(f"checkpoint mismatch: missing {missing}, unexpected {extra}")
    # read and check every entry before writing any, so a bad file leaves the model as it was
    values = {}
    for name, p in params.items():
        entry = doc[name]
        if tuple(entry["shape"]) != p.shape:
            raise ValueError(f"{name}: checkpoint shape {entry['shape']} vs model {list(p.shape)}")
        if bool(entry["frozen"]) != p.frozen:
            raise ValueError(f"{name}: frozen flag mismatch")
        values[name] = np.array(entry["data"], dtype=np.float64).reshape(p.shape)
    for name, value in values.items():
        params[name].data[...] = value
