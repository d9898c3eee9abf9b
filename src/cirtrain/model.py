"""Full retrieval model: encoders, fusion blocks, loss assembly, checkpoints.

Training touches every component; inference touches only the encoders and
the query-fusion block, then scores plain dot products.  Both image
encoders are frozen at initialization, mirroring the training policy the
auxiliary losses are designed around.
"""

from __future__ import annotations

import json
from contextlib import suppress
from itertools import chain
from pathlib import Path

import numpy as np

from .bridge import BridgeParams, alignment_loss
from .compositor import CompositorParams, reasoning_loss
from .config import RunConfig
from .data import TOKEN_FIELDS, check_batch, integer_tokens
from .encoders import CrossEncoder, ImageEncoder, QueryFusion, TextEncoder, TokenSeq
from .objective import LossBreakdown, matching_loss, total_loss
from .tensor import NonFiniteError, Tensor, first_row, l2_normalize_rows, unchecked


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
        self.compositor = CompositorParams(mc.dim, rng, layers=mc.compositor_layers)

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
            p.grad = None

    # ------------------------------------------------------------------ forward

    def pooled_target(self, f_t: Tensor) -> Tensor:
        """CLS rows of B x N x d target features, L2-normalized: B x d."""
        return l2_normalize_rows(first_row(f_t))

    def batch_losses(self, records) -> tuple:
        """Joint loss over one batch; returns (total tensor, LossBreakdown).

        The batch must pass `data.check_batch` ("batch_losses: ...").  The forward runs
        under `tensor.unchecked`, and again checked, naming the op at fault, if that raises
        a numpy flag or `NonFiniteError` or leaves a non-finite total or unread tensor.
        """
        ids = {name: [getattr(r, name) for r in records] for name in TOKEN_FIELDS}
        check_batch("batch_losses", **ids)
        with suppress(FloatingPointError, NonFiniteError), unchecked():
            total, breakdown, unread = self._forward(ids)
            if np.isfinite(breakdown.total) and all(np.isfinite(t.data).all() for t in unread):
                return total, breakdown
        return self._forward(ids)[:2]

    def _forward(self, ids) -> tuple:
        """(total, LossBreakdown, the tensors no enabled loss reads); features stack as B x N x d."""
        ab, ob = self.cfg.ablation, self.cfg.objective
        f_r = _frozen_rows(self.ref_encoder, ids["ref_tokens"])
        f_t = _frozen_rows(self.tgt_encoder, ids["target_tokens"])
        # the reference re-encoded through the image branch, train-time only
        f_r_prime = _frozen_rows(self.tgt_encoder, ids["ref_tokens"])
        f_c = self.text_encoder.encode(ids["text_tokens"])
        f_r_bar = self.cross_encoder(f_r, f_c)

        l_match = matching_loss(self.fusion.query_embedding(f_c, f_r), self.pooled_target(f_t),
                                ob.tau)

        l_align = None
        if ab.use_alignment and ob.alpha > 0:
            f_ref = f_r_bar if ab.attentive_reference else f_r
            l_align = alignment_loss(f_ref, f_c, f_t, self.bridge, ob.tau)

        l_reason = None
        if ab.use_reasoning and ob.beta > 0:
            l_reason = reasoning_loss(f_r_prime, f_t, f_c, self.compositor, ob.tau)

        total = total_loss(l_match, l_align, l_reason, ob.alpha, ob.beta)
        breakdown = LossBreakdown(
            matching=l_match.item(),
            alignment=None if l_align is None else l_align.item(),
            reasoning=None if l_reason is None else l_reason.item(),
            total=total.item(),
        )
        return total, breakdown, () if l_align is not None and ab.attentive_reference else (f_r_bar,)

    # ------------------------------------------------------------------ inference

    def query_embedding(self, ref_tokens, text_tokens) -> Tensor:
        """The multimodal query vector; this and pooled targets are the whole
        inference surface (no bridge or compositor involvement).

        Lists of B records' ids give B x d; one record's ids (both
        arguments) run as a batch of one and give 1 x d.  The batch must pass
        `data.check_batch` ("query_embedding: ..."), and ids are refused by
        the rule a record applies to its fields.
        """
        ids = _batch("query_embedding", ref_tokens=ref_tokens, text_tokens=text_tokens)
        f_r = _frozen_rows(self.ref_encoder, ids["ref_tokens"])
        return self.fusion.query_embedding(self.text_encoder.encode(ids["text_tokens"]), f_r)

    def target_embedding(self, target_tokens) -> Tensor:
        """Pooled target vectors: B x d for a list of B records' ids, 1 x d for
        one record's; refused as `query_embedding` refuses its ids."""
        ids = _batch("target_embedding", target_tokens=target_tokens)
        return self.pooled_target(_frozen_rows(self.tgt_encoder, ids["target_tokens"]))


def _frozen_rows(encoder: ImageEncoder, ids) -> Tensor:
    """The frozen encoder's rows of each id tuple as one constant B x (N + 1) x d, joined
    in one copy: `check_batch` gives every tuple one length, so a reshape splits them."""
    rows = [encoder.encode(TokenSeq(t)).data for t in ids]
    return Tensor(np.concatenate(rows).reshape(len(rows), *rows[0].shape))


def _batch(entry: str, **fields) -> dict:
    """Raw ids of the embedding `entry` as lists of records' ids, checked.

    A field that is not a list of lists, tuples or arrays holds one record's
    ids, a batch of one; every field must take the same form.  Each entry must
    pass `data.integer_tokens`, a numpy array failing it, before the batch
    meets `data.check_batch`, which refuses an empty list as an empty batch.
    A field of exact tuples of exact ints, which is what records hold, passes
    with one bulk type check; any other field is walked entry by entry with
    `integer_tokens`, which names the entry it refuses.
    """
    sequences = (list, tuple, np.ndarray)
    one = {name: not (isinstance(ids, list) and (not ids or isinstance(ids[0], sequences)))
           for name, ids in fields.items()}
    if len(set(one.values())) > 1:
        single, batch = (next(name for name in one if one[name] is form) for form in (True, False))
        raise ValueError(f"{entry}: {single} holds one record's ids but {batch} a list of records' ids")
    if any(one.values()):
        fields = {name: [ids] for name, ids in fields.items()}
    for name, ids in fields.items():
        if {*map(type, ids)} != {tuple} or not {*map(type, chain.from_iterable(ids))} <= {int}:
            fields[name] = [integer_tokens(f"{entry}: {name}", t) for t in ids]
    check_batch(entry, **fields)
    return fields


# ---------------------------------------------------------------------- checkpoints


def save_checkpoint(model: RetrievalModel, path):
    """One JSON document: parameter name -> shape, row-major values, frozen flag.

    Floats are serialized via repr (shortest round-trip decimal form), so a
    load restores bit-identical float64 values.  The bytes are `json.dumps(doc,
    sort_keys=True) + "\n"`, encoded one entry at a time so that the document is never one
    string in memory: at the default config the traced peak is 0.1 MB, not 1.8 MB.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("{")
        for i, (name, p) in enumerate(sorted(model.parameters().items())):
            entry = {"shape": list(p.shape), "data": p.data.reshape(-1).tolist(), "frozen": p.frozen}
            fh.write((", " if i else "") + f"{json.dumps(name)}: {json.dumps(entry, sort_keys=True)}")
        fh.write("}\n")


def load_checkpoint(model: RetrievalModel, path):
    """Restore parameter values through `Param.assign`; names, shapes and flags must match."""
    with Path(path).open("r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if type(doc) is not dict:
        raise ValueError(f"checkpoint is a {type(doc).__name__}, not an object")
    params = model.parameters()
    if set(doc) != set(params):
        missing = sorted(set(params) - set(doc))
        extra = sorted(set(doc) - set(params))
        raise ValueError(f"checkpoint mismatch: missing {missing}, unexpected {extra}")
    # read and check every entry before writing any, so a bad file leaves the model as it was
    values = {}
    for name, p in params.items():
        entry = doc[name]
        if type(entry) is not dict:
            raise ValueError(f"{name}: checkpoint entry is a {type(entry).__name__}, not an object")
        shape, frozen = entry.get("shape"), entry.get("frozen")
        if shape != list(p.shape):
            raise ValueError(f"{name}: checkpoint shape {shape} vs model {list(p.shape)}")
        if frozen is not p.frozen:
            raise ValueError(f"{name}: checkpoint frozen flag {frozen} vs model {p.frozen}")
        data = entry.get("data")
        if type(data) is not list or len(data) != p.data.size or {*map(type, data)} - {int, float}:
            raise ValueError(f"{name}: checkpoint data must be a list of {p.data.size} numbers")
        try:
            values[name] = np.array(data, dtype=np.float64).reshape(p.shape)
        except OverflowError:
            raise ValueError(f"{name}: checkpoint holds an integer beyond the float range") from None
        if not np.isfinite(values[name]).all():
            raise ValueError(f"{name}: checkpoint holds non-finite values")
    for name, value in values.items():
        params[name].assign(value)
