"""Spans and counts taken around the library's own layer entry points.

`probing(tracer)` replaces every entry point in PROBES, for the length of a
`with` block, by a wrapper that opens a tracer span around the original
call, and puts the original back on exit.  The traced run calls the
library's real `batch_losses`, `backward`, `Adam.step` and `evaluate_model`
inside it, so the per-layer times follow whatever code the library runs.
A function imported into a module is patched where its caller looks it up
(`cirtrain.model.alignment_loss`, `cirtrain.cli.rank_gallery`, ...).  An
entry point that is gone raises at once; one the library no longer calls
reports 0 and is listed by `silent`, which the run counts as a failure.
"""

from __future__ import annotations

import functools
from contextlib import ExitStack, contextmanager

import cirtrain.cli
import cirtrain.model
from cirtrain.encoders import CrossEncoder, ImageEncoder, QueryFusion, TextEncoder
from cirtrain.model import RetrievalModel
from cirtrain.tensor import Tensor
from cirtrain.train import Adam

# (owner, attribute, span name)
PROBES = (
    (ImageEncoder, "encode", "encoders.image"),
    (TextEncoder, "encode", "encoders.text"),
    (CrossEncoder, "__call__", "encoders.cross"),
    (QueryFusion, "query_embedding", "encoders.fusion"),
    (cirtrain.model, "matching_loss", "objective.matching"),
    (cirtrain.model, "alignment_loss", "bridge.alignment"),
    (cirtrain.model, "reasoning_loss", "compositor.reasoning"),
    (Tensor, "backward", "tensor.backward"),
    (Adam, "step", "train.adam"),
    (RetrievalModel, "target_embedding", "encoders.gallery_embed"),
    (RetrievalModel, "query_embedding", "encoders.query_embed"),
    (cirtrain.cli, "score_query_against_gallery", "objective.score"),
    (cirtrain.cli, "rank_gallery", "metrics.rank"),
    (cirtrain.cli, "rank_within_subset", "metrics.subset_rank"),
    (cirtrain.cli, "summarize", "metrics.summarize"),
)


@contextmanager
def patched(owner, name: str, wrap):
    """Set `owner.name` to wrap(original) inside the block; `name` must be
    defined on `owner` itself, so that restoring it is a plain setattr."""
    original = vars(owner)[name]
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _spanned(tracer, span_name, before, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        with tracer.span(span_name):
            return original(*args, **kwargs)

    return wrapper


@contextmanager
def probing(tracer, before=None):
    """Span every PROBES entry point; `before` maps a span name to a hook
    called with the entry point's arguments just before its span opens."""
    before = before or {}
    with ExitStack() as stack:
        for owner, name, span_name in PROBES:
            wrap = functools.partial(_spanned, tracer, span_name, before.get(span_name))
            stack.enter_context(patched(owner, name, wrap))
        yield


def frozen_encode_recorder(calls: list):
    """A `before` hook for "encoders.image" that appends (encoder, tokens) of
    each encode by a frozen image encoder to `calls`."""

    def record(encoder, seq, *args, **kwargs):
        if encoder.embedding.frozen:
            calls.append((encoder.name, seq.tokens))

    return record


def silent(tracer, expected) -> list:
    """The span names in `expected` that the tracer never recorded."""
    seen = {span[0] for span in tracer.spans}
    return sorted(set(expected) - seen)
