"""Toy trainable encoders: embedding tables plus single-head attention blocks.

These stand in for the large pretrained backbones a production retrieval
system would use.  Each encoder is an embedding lookup and learned positional
vectors, both read from their tables by `take_rows`, and one self-attention
block with a residual connection.  Image encoders prepend a CLS row; the
text encoder does not.  The frozen image encoders take one sequence at a
time; the text encoder, cross encoder and query fusion take only batches,
B x L x d, in training and evaluation alike (one item is a batch of one).

A frozen encode is a pure function of the token tuple and the frozen
weights, so each image encoder computes it once per tuple and keeps the
read-only rows in an instance memo.  The memo is valid only for the weight
versions it was built from: every call compares the six params' `version`s
and drops the memo when any has moved.  A frozen array cannot be written in
place, and `Param.assign` counts up its version, so a stale row cannot be
returned.  A hit is one dict lookup; a miss runs the ops any encoder runs,
and frozen params count no read, so the frozen encoders' groups read 0.

Token ids are checked by `take_rows` (integers, rows of the table); `_embed`
adds lengths, and an image miss the bool ids numpy reads as ints.  A memo hit
checks nothing: a tuple enters the memo only after its lookup passed.  Records
and the model's raw-id entries refuse non-integer ids first (`integer_tokens`).
"""

from __future__ import annotations

import math

import numpy as np

from .data import integer_tokens
from .tensor import (
    Param,
    Tensor,
    add,
    attention,
    concat,
    l2_normalize_rows,
    matmul,
    mean_axis,
    reshape,
    take_rows,
)


class TokenSeq:
    """The token id tuple of one image (reference or target); a slotted holder, built per lookup."""

    __slots__ = ("tokens",)

    def __init__(self, tokens: tuple):
        self.tokens = tokens


def _embed(encoder, ids) -> Tensor:
    """The (..., N, d) embedding rows at (..., N) ids; `take_rows` refuses ids it cannot read."""
    ids = np.asarray(ids)
    if ids.shape[-1] == 0:
        raise ValueError("token sequence must be non-empty")
    if ids.shape[-1] > encoder.max_tokens:
        raise ValueError(f"sequence length {ids.shape[-1]} exceeds maximum {encoder.max_tokens}")
    return take_rows(encoder.embedding, ids)


class Attention:
    """Single-head attention, softmax((x_q Wq)(x_kv Wk)ᵀ/√d)(x_kv Wv), run as
    one engine op (`tensor.attention`) with its own backward.

    Every q/k/v site of the model is one of these: the encoders' self
    attention (x_q is x_kv), the cross encoder, query fusion and both
    compositor branches.  Weights are drawn wq, wk, wv from `rng`.
    """

    def __init__(self, name: str, dim: int, rng: np.random.Generator, frozen: bool = False,
                 scale_qk: float | None = None):
        base = 1.0 / math.sqrt(dim)
        scale_qk = base if scale_qk is None else scale_qk
        self.wq = Param(f"{name}.wq", rng.normal(0.0, scale_qk, (dim, dim)), frozen)
        self.wk = Param(f"{name}.wk", rng.normal(0.0, scale_qk, (dim, dim)), frozen)
        self.wv = Param(f"{name}.wv", rng.normal(0.0, base, (dim, dim)), frozen)

    def __call__(self, x_q: Tensor, x_kv: Tensor) -> Tensor:
        return attention(x_q, x_kv, self.wq, self.wk, self.wv)

    def params(self):
        return [self.wq, self.wk, self.wv]


class ImageEncoder:
    """Frozen patch-token encoder: CLS row + embedded tokens through one attention block."""

    def __init__(self, name: str, vocab: int, dim: int, max_tokens: int, rng: np.random.Generator):
        self.name = name
        self.max_tokens = max_tokens
        # a frozen encoder never adapts, so its init keeps the token signal
        # dominant: a modest CLS vector, near-uniform attention (small q/k)
        # and full-strength values preserve a linearly decodable pooled row
        self.embedding = Param(f"{name}.embedding", rng.normal(0.0, 1.0, (vocab, dim)), frozen=True)
        self.cls = Param(f"{name}.cls", rng.normal(0.0, 0.3, (1, dim)), frozen=True)
        # row 0 is the CLS slot, rows 1..max are token positions
        self.positions = Param(
            f"{name}.positions", rng.normal(0.0, 0.1, (max_tokens + 1, dim)), frozen=True
        )
        self.attn = Attention(f"{name}.attn", dim, rng, frozen=True, scale_qk=0.25 / math.sqrt(dim))
        self._versions, self._rows = (), {}

    def encode(self, seq: TokenSeq) -> Tensor:
        """The (N + 1) x d rows of `seq`, memoized by the token tuple alone: a reference and a
        target with one tuple share rows, read-only for that reason.  Only a miss runs the lookup,
        its id checks (a bool id too, by the records' `integer_tokens` rule) and `self.attn`.  A hit
        scans no types, so (4, 9, 1.0) after (4, 9, 1) gets its rows: a scan costs 0.6 us an 8-id
        tuple, 8% of an eval pass's 2,048 hits; ROADMAP item 2's id arrays drop the key.  Every call
        compares the six weights' `version`s and drops the memo when any moved (`Param.assign`)."""
        versions = (self.embedding.version, self.cls.version, self.positions.version,
                    self.attn.wq.version, self.attn.wk.version, self.attn.wv.version)
        if versions != self._versions:
            self._versions, self._rows = versions, {}
        out = self._rows.get(seq.tokens)
        if out is None:
            rows = concat([self.cls, _embed(self, seq.tokens)])
            integer_tokens(self.name, seq.tokens)  # after _embed, whose words refuse a float id
            rows = add(rows, take_rows(self.positions, np.arange(len(seq.tokens) + 1)))
            out = self._rows[seq.tokens] = add(rows, self.attn(rows, rows))
            out.data.flags.writeable = False
        return out

    def params(self):
        return [self.embedding, self.cls, self.positions] + self.attn.params()


class TextEncoder:
    """Word-token encoder; row 0 of the output is the first word (no CLS row)."""

    def __init__(
        self,
        name: str,
        vocab: int,
        dim: int,
        max_tokens: int,
        rng: np.random.Generator,
    ):
        self.name = name
        self.max_tokens = max_tokens
        self.embedding = Param(f"{name}.embedding", rng.normal(0.0, 1.0, (vocab, dim)))
        self.positions = Param(f"{name}.positions", rng.normal(0.0, 0.1, (max_tokens, dim)))
        self.attn = Attention(f"{name}.attn", dim, rng)

    def encode(self, ids) -> Tensor:
        """A list of B id tuples of one length L gives B x L x d rows; the model's
        entries refuse any other batch first (`data.check_batch`)."""
        rows = _embed(self, ids)
        b, length = rows.shape[:2]
        rows = add(rows, take_rows(self.positions, np.tile(np.arange(length), (b, 1))))
        return add(rows, self.attn(rows, rows))

    def params(self):
        return [self.embedding, self.positions] + self.attn.params()


class CrossEncoder(Attention):
    """Refines reference-image features with the text: one cross-attention block.

    The reference rows act as queries over text keys/values and the result is
    added residually, so the output keeps the reference shape, B x N x d, and
    routes gradients into the text encoder.
    """

    def __call__(self, f_r: Tensor, f_c: Tensor) -> Tensor:
        return add(f_r, super().__call__(f_r, f_c))


class QueryFusion:
    """Prompt-token fusion block producing the multimodal query representation.

    Learnable prompt rows are concatenated with the text features on the
    query side and cross-attend into the reference image (values come from
    the image).  The mean-pooled text feature is then added back onto the
    text-side output rows through a 0/1 row mask (P zeros for the prompt
    rows, then L ones), so the fused result keeps explicit text guidance.
    Prompts and mask are repeated over the leading batch axis.
    """

    def __init__(self, name: str, dim: int, n_prompts: int, rng: np.random.Generator):
        self.n_prompts = n_prompts
        self.prompts = (
            Param(f"{name}.prompts", rng.normal(0.0, 1.0, (n_prompts, dim))) if n_prompts else None
        )
        self.attn = Attention(name, dim, rng)

    def fuse(self, f_c: Tensor, f_r: Tensor) -> Tensor:
        b, p, (length, dim) = f_c.shape[0], self.n_prompts, f_c.shape[-2:]
        query_side = (concat([take_rows(self.prompts, np.tile(np.arange(p), (b, 1))), f_c])
                      if p else f_c)
        text_mask = np.zeros((b, p + length, 1))
        text_mask[:, p:] = 1.0
        text_row = reshape(mean_axis(f_c, axis=-2), (b, 1, dim))
        return add(self.attn(query_side, f_r), matmul(Tensor(text_mask), text_row))

    def query_embedding(self, f_c: Tensor, f_r: Tensor) -> Tensor:
        """Mean-pool the fused sequence and L2-normalize: B x d, one query row per item."""
        return l2_normalize_rows(mean_axis(self.fuse(f_c, f_r), axis=-2))

    def params(self):
        base = [self.prompts] if self.prompts is not None else []
        return base + self.attn.params()
