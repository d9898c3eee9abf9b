"""Toy trainable encoders: embedding tables plus single-head attention blocks.

These stand in for the large pretrained backbones a production retrieval
system would use.  Each encoder is an embedding lookup (realised as a
one-hot matmul so gradients reach the table through the ordinary matmul
rule), learned positional vectors, and one self-attention block with a
residual connection.  Image encoders prepend a CLS row; the text encoder
does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    Param,
    Tensor,
    add,
    concat,
    l2_normalize_rows,
    matmul,
    mean_axis,
    scalar_mul,
    slice_rows,
    softmax_rows,
    transpose,
)

KIND_REFERENCE = "reference-image"
KIND_TARGET = "target-image"
KIND_TEXT = "text"
IMAGE_KINDS = (KIND_REFERENCE, KIND_TARGET)


@dataclass(frozen=True)
class TokenSeq:
    """A sequence of integer token ids (image patches or text words)."""

    tokens: tuple
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        if len(self.tokens) == 0:
            raise ValueError("token sequence must be non-empty")
        if self.kind not in IMAGE_KINDS + (KIND_TEXT,):
            raise ValueError(f"unknown sequence kind {self.kind!r}")


def _one_hot(tokens, vocab: int) -> Tensor:
    """Constant N x V indicator matrix; the lookup becomes one_hot @ table."""
    m = np.zeros((len(tokens), vocab))
    m[np.arange(len(tokens)), list(tokens)] = 1.0
    return Tensor(m)


def _check_tokens(tokens, vocab: int, max_tokens: int):
    if len(tokens) > max_tokens:
        raise ValueError(f"sequence length {len(tokens)} exceeds maximum {max_tokens}")
    for t in tokens:
        if not (0 <= t < vocab):
            raise ValueError(f"token id {t} outside vocabulary [0, {vocab})")


class Attention:
    """Single-head attention, softmax((x_q Wq)(x_kv Wk)ᵀ/√d)(x_kv Wv).

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
        q = matmul(x_q, self.wq.tensor)
        k = matmul(x_kv, self.wk.tensor)
        v = matmul(x_kv, self.wv.tensor)
        logits = scalar_mul(matmul(q, transpose(k)), 1.0 / math.sqrt(q.shape[1]))
        return matmul(softmax_rows(logits), v)

    def params(self):
        return [self.wq, self.wk, self.wv]


class ImageEncoder:
    """Frozen patch-token encoder: CLS row + embedded tokens through one attention block."""

    def __init__(self, name: str, vocab: int, dim: int, max_tokens: int, rng: np.random.Generator):
        self.name = name
        self.vocab = vocab
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

    def encode(self, seq: TokenSeq) -> Tensor:
        if seq.kind not in IMAGE_KINDS:
            raise ValueError(f"image encoder got a {seq.kind!r} sequence")
        _check_tokens(seq.tokens, self.vocab, self.max_tokens)
        rows = concat([self.cls.tensor, matmul(_one_hot(seq.tokens, self.vocab), self.embedding.tensor)], axis=0)
        rows = add(rows, slice_rows(self.positions.tensor, 0, len(seq.tokens) + 1))
        return add(rows, self.attn(rows, rows))

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
        self.vocab = vocab
        self.max_tokens = max_tokens
        self.embedding = Param(f"{name}.embedding", rng.normal(0.0, 1.0, (vocab, dim)))
        self.positions = Param(f"{name}.positions", rng.normal(0.0, 0.1, (max_tokens, dim)))
        self.attn = Attention(f"{name}.attn", dim, rng)

    def encode(self, seq: TokenSeq) -> Tensor:
        if seq.kind != KIND_TEXT:
            raise ValueError(f"text encoder got a {seq.kind!r} sequence")
        _check_tokens(seq.tokens, self.vocab, self.max_tokens)
        rows = matmul(_one_hot(seq.tokens, self.vocab), self.embedding.tensor)
        rows = add(rows, slice_rows(self.positions.tensor, 0, len(seq.tokens)))
        return add(rows, self.attn(rows, rows))

    def params(self):
        return [self.embedding, self.positions] + self.attn.params()


class CrossEncoder(Attention):
    """Refines reference-image features with the text: one cross-attention block.

    The reference rows act as queries over text keys/values and the result is
    added residually, so the output keeps the reference shape and routes
    gradients into the text encoder.
    """

    def __call__(self, f_r: Tensor, f_c: Tensor) -> Tensor:
        return add(f_r, super().__call__(f_r, f_c))


class QueryFusion:
    """Prompt-token fusion block producing the multimodal query representation.

    Learnable prompt rows are concatenated with the text features on the
    query side and cross-attend into the reference image (values come from
    the image).  The mean-pooled text feature is then added back onto the
    text-side output rows so the fused result keeps explicit text guidance.
    """

    def __init__(self, name: str, dim: int, n_prompts: int, rng: np.random.Generator):
        self.n_prompts = n_prompts
        self.prompts = (
            Param(f"{name}.prompts", rng.normal(0.0, 1.0, (n_prompts, dim))) if n_prompts else None
        )
        self.attn = Attention(name, dim, rng)

    def fuse(self, f_c: Tensor, f_r: Tensor) -> Tensor:
        p, length = self.n_prompts, f_c.shape[0]
        query_side = concat([self.prompts.tensor, f_c], axis=0) if p else f_c
        out = self.attn(query_side, f_r)
        pooled_text = matmul(Tensor(np.ones((length, 1))), mean_axis(f_c, axis=0))
        text_rows = add(slice_rows(out, p, p + length), pooled_text)
        if p:
            return concat([slice_rows(out, 0, p), text_rows], axis=0)
        return text_rows

    def query_embedding(self, f_c: Tensor, f_r: Tensor) -> Tensor:
        """Mean-pool the fused sequence and L2-normalize: the 1 x d query vector."""
        return l2_normalize_rows(mean_axis(self.fuse(f_c, f_r), axis=0))

    def params(self):
        base = [self.prompts] if self.prompts is not None else []
        return base + self.attn.params()
