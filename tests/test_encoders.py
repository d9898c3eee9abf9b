import re

import numpy as np
import pytest

from cirtrain import tensor as T
from cirtrain.encoders import (
    Attention,
    CrossEncoder,
    ImageEncoder,
    QueryFusion,
    TextEncoder,
    TokenSeq,
)
from cirtrain.train import Adam
from graph import graph_nodes
from oracles import attention_oracle
from scalarize import scalarize

DIM = 16


def make_image_encoder():
    return ImageEncoder("enc", vocab=32, dim=DIM, max_tokens=16, rng=np.random.default_rng(3))


def attention_arrays(attn):
    return attn.wq.data, attn.wk.data, attn.wv.data


def test_attention_matches_oracle():
    rng = np.random.default_rng(21)
    attn = Attention("a", DIM, rng)
    x_q = rng.normal(size=(3, DIM))
    x_kv = rng.normal(size=(5, DIM))
    out = attn(T.Tensor(x_q), T.Tensor(x_kv))
    assert out.shape == (3, DIM)
    assert np.allclose(out.data, attention_oracle(x_q, x_kv, *attention_arrays(attn)), atol=1e-12)
    assert [p.name for p in attn.params()] == ["a.wq", "a.wk", "a.wv"]


def test_attention_init_scales_and_frozen_flag():
    attn = Attention("a", 64, np.random.default_rng(22), frozen=True, scale_qk=0.01)
    assert all(p.frozen for p in attn.params())
    assert attn.wq.data.std() == pytest.approx(0.01, rel=0.1)
    assert attn.wk.data.std() == pytest.approx(0.01, rel=0.1)
    default = Attention("b", 64, np.random.default_rng(22))
    assert default.wv.data.std() == pytest.approx(1 / 8, rel=0.1)


def test_image_encode_matches_oracle():
    enc = make_image_encoder()
    tokens = (4, 0, 31, 4)
    rows = np.vstack([enc.cls.data, enc.embedding.data[list(tokens)]])
    rows = rows + enc.positions.data[: len(tokens) + 1]
    expected = rows + attention_oracle(rows, rows, *attention_arrays(enc.attn))
    out = enc.encode(TokenSeq(tokens))
    assert np.allclose(out.data, expected, atol=1e-12)


def test_text_encode_matches_oracle():
    enc = TextEncoder("txt", vocab=12, dim=DIM, max_tokens=8, rng=np.random.default_rng(4))
    tokens = (3, 11, 3)
    rows = enc.embedding.data[list(tokens)] + enc.positions.data[: len(tokens)]
    expected = rows + attention_oracle(rows, rows, *attention_arrays(enc.attn))
    assert np.allclose(enc.encode([tokens]).data[0], expected, atol=1e-12)


def test_text_encode_refuses_an_empty_batch():
    # the model's entries refuse these by name first (data.check_batch); a direct call
    # still raises, at the lookup or when numpy cannot make one id array of the batch
    enc = TextEncoder("txt", vocab=12, dim=DIM, max_tokens=8, rng=np.random.default_rng(4))
    with pytest.raises(ValueError, match="token sequence must be non-empty"):
        enc.encode([])
    with pytest.raises(ValueError, match="inhomogeneous"):
        enc.encode([(1, 2), (3,)])


def test_image_encode_deterministic():
    enc = make_image_encoder()
    seq = TokenSeq((1, 5, 9))
    a = enc.encode(seq)
    b = enc.encode(seq)
    assert np.array_equal(a.data, b.data)


def test_image_encode_output_shape():
    enc = make_image_encoder()
    out = enc.encode(TokenSeq(tuple(range(9))))
    assert out.shape == (10, DIM)


def test_permuting_tokens_permutes_rows_without_positions():
    enc = make_image_encoder()
    # zero positional vectors: only token identity is left
    enc.positions.assign(np.zeros(enc.positions.shape))
    tokens = (2, 7, 11, 3)
    perm = (11, 3, 2, 7)
    out = enc.encode(TokenSeq(tokens)).data
    out_perm = enc.encode(TokenSeq(perm)).data
    assert np.allclose(out[0], out_perm[0], atol=1e-12)  # CLS row unaffected
    # row for token t must be identical wherever t sits
    for i, t in enumerate(tokens):
        j = perm.index(t)
        assert np.allclose(out[1 + i], out_perm[1 + j], atol=1e-12)


def test_a_memo_hit_returns_the_same_rows_and_reads_no_weight():
    enc, seq = make_image_encoder(), TokenSeq((4, 9, 1))
    first = enc.encode(seq)
    assert np.array_equal(first.data, make_image_encoder().encode(seq).data)
    assert enc.encode(TokenSeq((4, 9, 1))) is first  # keyed by the tuple, not the object
    # the memo's weight check compares tensor objects; it is not a forward read
    assert [p.reads for p in enc.params()] == [0] * 6


FROZEN_WEIGHTS = ["embedding", "cls", "positions", "attn.wq", "attn.wk", "attn.wv"]


@pytest.mark.parametrize("name", FROZEN_WEIGHTS)
def test_assigning_any_one_frozen_weight_drops_the_memo(name):
    # the memo is valid only for the six tensor objects it was built from, each checked
    enc, seq = make_image_encoder(), TokenSeq((4, 9, 1))
    stale = enc.encode(seq)
    param = {p.name: p for p in enc.params()}[f"enc.{name}"]
    values = np.random.default_rng(5).normal(0.0, 0.5, param.shape)
    fresh = make_image_encoder()
    for target in (param, {p.name: p for p in fresh.params()}[f"enc.{name}"]):
        target.assign(values)
    rows = enc.encode(seq)
    assert np.array_equal(rows.data, fresh.encode(seq).data)
    assert not np.array_equal(rows.data, stale.data)


@pytest.mark.parametrize("tokens,message", [((4, 9, 32), "take_rows: id 32 outside")],
                         ids=["out of vocabulary"])
def test_a_warm_memo_still_refuses_what_the_encoder_cannot_take(tokens, message):
    # a refused tuple never enters the memo, so asking again is refused again
    enc = make_image_encoder()
    enc.encode(TokenSeq((4, 9, 1)))
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            enc.encode(TokenSeq(tokens))


@pytest.mark.parametrize("tokens,message", [
    ((1, True, 3), "enc: token id True is not an integer"),
    ((1, 2.0, 3), f"take_rows: expected a 2-D table and integer ids, got shape (32, {DIM}) and float64 ids"),
], ids=["bool", "float"])
def test_a_cold_miss_refuses_a_bool_or_float_id_and_memoizes_nothing(tokens, message):
    # numpy reads (1, True, 3) as the ints (1, 1, 3), so the records' rule refuses the bool
    enc = make_image_encoder()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        enc.encode(TokenSeq(tokens))
    assert enc._rows == {}


def _cold_image(tokens):
    return make_image_encoder().encode(TokenSeq(tokens))


def _warm_image(tokens):
    enc = make_image_encoder()
    enc.encode(TokenSeq((4, 9, 1)))
    return enc.encode(TokenSeq(tokens))


def _text(tokens):
    # the image encoder's vocabulary and length, so both refuse with one message
    return TextEncoder("txt", vocab=32, dim=DIM, max_tokens=16,
                       rng=np.random.default_rng(4)).encode([tokens])


@pytest.mark.parametrize("lookup", [_cold_image, _warm_image, _text],
                         ids=["cold image", "warm image", "text"])
@pytest.mark.parametrize("tokens,message", [
    ((4, 9, 32), "take_rows: id 32 outside [0, 32)"),
    ((4, -1, 1), "take_rows: id -1 outside [0, 32)"),
    (tuple(range(17)), "sequence length 17 exceeds maximum 16"),
    ((), "token sequence must be non-empty"),
    ((4, 9, 1.5), f"take_rows: expected a 2-D table and integer ids, got shape (32, {DIM}) and float64 ids"),
], ids=["out of vocabulary", "negative", "overlong", "empty", "float"])
def test_every_lookup_refuses_ids_it_cannot_embed(lookup, tokens, message):
    # lengths at the lookup, ids at the table read: every encoder path refuses in the same words
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lookup(tokens)


def test_frozen_arrays_and_encoded_rows_are_read_only():
    enc = make_image_encoder()
    rows = enc.encode(TokenSeq((4, 9, 1)))
    for array in [rows.data] + [p.data for p in enc.params()]:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    enc.positions.assign(np.zeros(enc.positions.shape))
    with pytest.raises(ValueError, match="read-only"):
        enc.positions.data[0, 0] = 1.0
    with pytest.raises(ValueError, match=r"enc.positions: cannot assign shape \(2, 2\)"):
        enc.positions.assign(np.zeros((2, 2)))
    assert not enc.positions.data.any()
    trainable = TextEncoder("txt", vocab=12, dim=DIM, max_tokens=8, rng=np.random.default_rng(5))
    trainable.positions.data[0, 0] = 1.0  # the optimizer writes trainable arrays in place


def test_text_encode_shape_and_determinism():
    enc = TextEncoder("txt", vocab=12, dim=DIM, max_tokens=8,
                      rng=np.random.default_rng(0))
    seq = (3, 1, 4)
    out = enc.encode([seq])
    assert out.shape == (1, 3, DIM)
    assert np.array_equal(out.data, enc.encode([seq]).data)
    with pytest.raises(ValueError, match="and object ids$"):
        enc.encode([TokenSeq((0,))])  # text is a tuple of ids, never an image's TokenSeq


def test_separate_encoders_get_separate_gradients():
    # two encoders share no storage: a loss on one leaves the other grad-free
    a = TextEncoder("a", vocab=12, dim=DIM, max_tokens=8, rng=np.random.default_rng(1))
    b = TextEncoder("b", vocab=12, dim=DIM, max_tokens=8, rng=np.random.default_rng(2))
    seq = (1, 2, 3)
    scalarize(a.encode([seq])).backward()
    assert any(p.grad is not None for p in a.params())
    assert all(p.grad is None for p in b.params())


def test_frozen_encoder_untouched_by_optimizer():
    frozen = make_image_encoder()
    trainable = TextEncoder("txt", vocab=12, dim=DIM, max_tokens=8,
                            rng=np.random.default_rng(5))
    frozen_before = {p.name: p.data.copy() for p in frozen.params()}
    text_before = {p.name: p.data.copy() for p in trainable.params()}
    image_rows = T.reshape(frozen.encode(TokenSeq((1, 2))), (1, 3, DIM))
    text_rows = trainable.encode([(3, 1)])
    loss = scalarize(T.matmul(image_rows, T.transpose(text_rows)))
    loss.backward()
    opt = Adam(frozen.params() + trainable.params(), lr=0.1)
    opt.step()
    for p in frozen.params():
        assert np.array_equal(p.data, frozen_before[p.name]), p.name
    assert all(p.grad is None for p in frozen.params())
    assert any(not np.array_equal(p.data, text_before[p.name]) for p in trainable.params())


@pytest.mark.parametrize("n_prompts", [0, 3])
def test_batched_front_end_equals_each_item_bitwise(n_prompts):
    # a batch and batches of one run the same code: each item's rows agree bit for bit
    rng = np.random.default_rng(31)
    text = TextEncoder("txt", vocab=12, dim=DIM, max_tokens=8, rng=rng)
    cross = CrossEncoder("cross", DIM, rng)
    fusion = QueryFusion("q", DIM, n_prompts=n_prompts, rng=rng)
    seqs = [tuple(int(t) for t in rng.integers(0, 12, size=4)) for _ in range(3)]
    f_r = rng.normal(size=(3, 5, DIM))
    f_c = text.encode(seqs)
    f_r_bar = cross(T.Tensor(f_r), f_c)
    query = fusion.query_embedding(f_c, T.Tensor(f_r))
    assert f_c.shape == (3, 4, DIM) and query.shape == (3, DIM)
    for i, seq in enumerate(seqs):
        item_c, item_r = text.encode([seq]), T.Tensor(f_r[i:i + 1])
        assert np.array_equal(f_c.data[i:i + 1], item_c.data)
        assert np.array_equal(f_r_bar.data[i:i + 1], cross(item_r, item_c).data)
        assert np.array_equal(query.data[i:i + 1], fusion.query_embedding(item_c, item_r).data)


class TestCrossEncoder:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.cross = CrossEncoder("cross", DIM, rng)
        self.f_r = T.Tensor(rng.normal(size=(1, 5, DIM)))
        self.f_c = T.Tensor(rng.normal(size=(1, 3, DIM)))

    def test_disabled_attention_is_identity(self):
        self.cross.wv.data[...] = 0.0  # zero values switch the attention term off
        out = self.cross(self.f_r, self.f_c)
        assert np.array_equal(out.data, self.f_r.data)

    def test_matches_oracle(self):
        expected = self.f_r.data[0] + attention_oracle(
            self.f_r.data[0], self.f_c.data[0], *attention_arrays(self.cross))
        assert np.allclose(self.cross(self.f_r, self.f_c).data[0], expected, atol=1e-12)

    def test_shape_preserved(self):
        assert self.cross(self.f_r, self.f_c).shape == (1, 5, DIM)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.cross(self.f_r, T.Tensor(np.ones((1, 3, DIM + 1))))

    def test_gradient_reaches_text_features(self):
        f_c = T.Tensor(np.random.default_rng(9).normal(size=(1, 3, DIM)), requires_grad=True)
        scalarize(self.cross(self.f_r, f_c)).backward()
        assert f_c.grad is not None and np.abs(f_c.grad).max() > 0


class TestQueryFusion:
    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def test_output_shape(self):
        fusion = QueryFusion("q", 16, n_prompts=8, rng=self.rng)
        f_c = T.Tensor(self.rng.normal(size=(1, 6, 16)))
        f_r = T.Tensor(self.rng.normal(size=(1, 10, 16)))
        assert fusion.fuse(f_c, f_r).shape == (1, 14, 16)

    def test_no_prompts_disabled_attention_reduces_to_text_mean(self):
        fusion = QueryFusion("q", DIM, n_prompts=0, rng=self.rng)
        fusion.attn.wv.data[...] = 0.0  # zero values switch the attention term off
        f_c = T.Tensor(self.rng.normal(size=(1, 4, DIM)))
        f_r = T.Tensor(self.rng.normal(size=(1, 5, DIM)))
        emb = fusion.query_embedding(f_c, f_r)
        mean = f_c.data[0].mean(axis=0, keepdims=True)
        assert np.allclose(emb.data, mean / np.linalg.norm(mean), atol=1e-12)

    def test_gradient_reaches_prompts(self):
        fusion = QueryFusion("q", DIM, n_prompts=4, rng=self.rng)
        f_c = T.Tensor(self.rng.normal(size=(1, 3, DIM)))
        f_r = T.Tensor(self.rng.normal(size=(1, 5, DIM)))
        scalarize(fusion.fuse(f_c, f_r)).backward()
        assert fusion.prompts.grad is not None
        assert np.abs(fusion.prompts.grad).max() > 0

    def test_pooled_text_added_to_text_rows_only(self):
        fusion = QueryFusion("q", DIM, n_prompts=2, rng=self.rng)
        f_c = T.Tensor(self.rng.normal(size=(1, 3, DIM)))
        f_r = T.Tensor(self.rng.normal(size=(1, 4, DIM)))
        fusion.attn.wv.data[...] = 0.0  # zero values isolate the add
        fused = fusion.fuse(f_c, f_r).data[0]
        assert np.allclose(fused[:2], 0.0, atol=1e-12)
        assert np.allclose(fused[2:], np.tile(f_c.data[0].mean(axis=0), (3, 1)), atol=1e-12)

    def test_fuse_matches_oracle(self):
        fusion = QueryFusion("q", DIM, n_prompts=2, rng=self.rng)
        f_c = self.rng.normal(size=(3, DIM))
        f_r = self.rng.normal(size=(4, DIM))
        out = attention_oracle(np.vstack([fusion.prompts.data, f_c]), f_r,
                               *attention_arrays(fusion.attn))
        out[2:] += f_c.mean(axis=0)
        fused = fusion.fuse(T.Tensor(f_c[None]), T.Tensor(f_r[None]))
        assert np.allclose(fused.data[0], out, atol=1e-12)
        assert [p.name for p in fusion.params()] == ["q.prompts", "q.wq", "q.wk", "q.wv"]

    @pytest.mark.parametrize("n_prompts,prompt_ops", [(0, []), (2, ["concat", "take_rows"])])
    def test_fuse_adds_the_pooled_text_without_slicing(self, n_prompts, prompt_ops):
        # only the prompt read and the query side's join come before the attention; the
        # pooled text, a 1 x d matrix per item, goes in through a row mask, with no row
        # picked or sliced out
        fusion = QueryFusion("q", DIM, n_prompts=n_prompts, rng=self.rng)
        f_c = T.Tensor(self.rng.normal(size=(1, 3, DIM)), requires_grad=True)
        f_r = T.Tensor(self.rng.normal(size=(1, 4, DIM)))
        ops = sorted(node.op for node in graph_nodes(fusion.fuse(f_c, f_r)) if node.op != "leaf")
        assert ops == sorted(["add", "attention", "matmul", "mean_axis", "reshape"] + prompt_ops)

    @pytest.mark.parametrize("n_prompts", [0, 2])
    def test_dim_mismatch_rejected(self, n_prompts):
        # the engine's concat and attention refuse features of the wrong width
        fusion = QueryFusion("q", DIM, n_prompts=n_prompts, rng=self.rng)
        good, wide = T.Tensor(np.ones((1, 3, DIM))), T.Tensor(np.ones((1, 3, DIM + 1)))
        for f_c, f_r in ((wide, good), (good, wide)):
            with pytest.raises(ValueError, match="concat|attention"):
                fusion.fuse(f_c, f_r)

    @pytest.mark.parametrize("n_prompts,op", [(0, "reshape"), (2, "concat")])
    def test_unbatched_rows_rejected(self, n_prompts, op):
        # fuse has no unbatched form: L x d rows are refused by the engine, not fused
        fusion = QueryFusion("q", DIM, n_prompts=n_prompts, rng=self.rng)
        f_c, f_r = T.Tensor(np.ones((3, DIM))), T.Tensor(np.ones((4, DIM)))
        with pytest.raises(ValueError, match=f"^{op}: "):
            fusion.fuse(f_c, f_r)
