import numpy as np
import pytest

from cirtrain import tensor as T
from cirtrain.encoders import (
    KIND_REFERENCE,
    KIND_TARGET,
    KIND_TEXT,
    Attention,
    CrossEncoder,
    ImageEncoder,
    QueryFusion,
    TextEncoder,
    TokenSeq,
)
from cirtrain.train import Adam
from oracles import attention_oracle

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
    out = enc.encode(TokenSeq(tokens, KIND_REFERENCE))
    assert np.allclose(out.data, expected, atol=1e-12)


def test_text_encode_matches_oracle():
    enc = TextEncoder("txt", vocab=12, dim=DIM, max_tokens=8, rng=np.random.default_rng(4))
    tokens = (3, 11, 3)
    rows = enc.embedding.data[list(tokens)] + enc.positions.data[: len(tokens)]
    expected = rows + attention_oracle(rows, rows, *attention_arrays(enc.attn))
    assert np.allclose(enc.encode(TokenSeq(tokens, KIND_TEXT)).data, expected, atol=1e-12)


def test_token_seq_rejects_empty():
    with pytest.raises(ValueError):
        TokenSeq((), KIND_TEXT)


def test_image_encode_deterministic():
    enc = make_image_encoder()
    seq = TokenSeq((1, 5, 9), KIND_REFERENCE)
    a = enc.encode(seq)
    b = enc.encode(seq)
    assert np.array_equal(a.data, b.data)


def test_image_encode_output_shape():
    enc = make_image_encoder()
    out = enc.encode(TokenSeq(tuple(range(9)), KIND_TARGET))
    assert out.shape == (10, DIM)


def test_image_encode_rejects_text_kind():
    enc = make_image_encoder()
    with pytest.raises(ValueError):
        enc.encode(TokenSeq((1, 2), KIND_TEXT))


def test_image_encode_rejects_out_of_vocab():
    enc = make_image_encoder()
    with pytest.raises(ValueError):
        enc.encode(TokenSeq((99,), KIND_REFERENCE))


def test_image_encode_rejects_overlong():
    enc = make_image_encoder()
    with pytest.raises(ValueError):
        enc.encode(TokenSeq(tuple(range(17)), KIND_REFERENCE))


def test_permuting_tokens_permutes_rows_without_positions():
    enc = make_image_encoder()
    enc.positions.data[...] = 0.0  # zero positional vectors: only token identity is left
    tokens = (2, 7, 11, 3)
    perm = (11, 3, 2, 7)
    out = enc.encode(TokenSeq(tokens, KIND_REFERENCE)).data
    out_perm = enc.encode(TokenSeq(perm, KIND_REFERENCE)).data
    assert np.allclose(out[0], out_perm[0], atol=1e-12)  # CLS row unaffected
    # row for token t must be identical wherever t sits
    for i, t in enumerate(tokens):
        j = perm.index(t)
        assert np.allclose(out[1 + i], out_perm[1 + j], atol=1e-12)


def test_text_encode_shape_and_determinism():
    enc = TextEncoder("txt", vocab=12, dim=DIM, max_tokens=8,
                      rng=np.random.default_rng(0))
    seq = TokenSeq((3, 1, 4), KIND_TEXT)
    out = enc.encode(seq)
    assert out.shape == (3, DIM)
    assert np.array_equal(out.data, enc.encode(seq).data)
    with pytest.raises(ValueError):
        enc.encode(TokenSeq((0,), KIND_REFERENCE))


def test_separate_encoders_get_separate_gradients():
    # two encoders share no storage: a loss on one leaves the other grad-free
    a = TextEncoder("a", vocab=12, dim=DIM, max_tokens=8, rng=np.random.default_rng(1))
    b = TextEncoder("b", vocab=12, dim=DIM, max_tokens=8, rng=np.random.default_rng(2))
    seq = TokenSeq((1, 2, 3), KIND_TEXT)
    T.sum_all(a.encode(seq)).backward()
    assert any(p.grad is not None for p in a.params())
    assert all(p.grad is None for p in b.params())


def test_frozen_encoder_untouched_by_optimizer():
    frozen = make_image_encoder()
    trainable = TextEncoder("txt", vocab=12, dim=DIM, max_tokens=8,
                            rng=np.random.default_rng(5))
    frozen_before = {p.name: p.data.copy() for p in frozen.params()}
    text_before = {p.name: p.data.copy() for p in trainable.params()}
    loss = T.sum_all(T.matmul(frozen.encode(TokenSeq((1, 2), KIND_REFERENCE)),
                              T.transpose(trainable.encode(TokenSeq((3, 1), KIND_TEXT)))))
    loss.backward()
    opt = Adam(frozen.params() + trainable.params(), lr=0.1)
    opt.step()
    for p in frozen.params():
        assert np.array_equal(p.data, frozen_before[p.name]), p.name
    assert all(p.grad is None for p in frozen.params())
    assert any(not np.array_equal(p.data, text_before[p.name]) for p in trainable.params())


class TestCrossEncoder:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.cross = CrossEncoder("cross", DIM, rng)
        self.f_r = T.Tensor(rng.normal(size=(5, DIM)))
        self.f_c = T.Tensor(rng.normal(size=(3, DIM)))

    def test_disabled_attention_is_identity(self):
        self.cross.wv.data[...] = 0.0  # zero values switch the attention term off
        out = self.cross(self.f_r, self.f_c)
        assert np.array_equal(out.data, self.f_r.data)

    def test_matches_oracle(self):
        expected = self.f_r.data + attention_oracle(
            self.f_r.data, self.f_c.data, *attention_arrays(self.cross))
        assert np.allclose(self.cross(self.f_r, self.f_c).data, expected, atol=1e-12)

    def test_shape_preserved(self):
        assert self.cross(self.f_r, self.f_c).shape == (5, DIM)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.cross(self.f_r, T.Tensor(np.ones((3, DIM + 1))))

    def test_gradient_reaches_text_features(self):
        f_c = T.Tensor(np.random.default_rng(9).normal(size=(3, DIM)), requires_grad=True)
        T.sum_all(self.cross(self.f_r, f_c)).backward()
        assert f_c.grad is not None and np.abs(f_c.grad).max() > 0


class TestQueryFusion:
    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def test_output_shape(self):
        fusion = QueryFusion("q", 16, n_prompts=8, rng=self.rng)
        f_c = T.Tensor(self.rng.normal(size=(6, 16)))
        f_r = T.Tensor(self.rng.normal(size=(10, 16)))
        assert fusion.fuse(f_c, f_r).shape == (14, 16)

    def test_no_prompts_disabled_attention_reduces_to_text_mean(self):
        fusion = QueryFusion("q", DIM, n_prompts=0, rng=self.rng)
        fusion.attn.wv.data[...] = 0.0  # zero values switch the attention term off
        f_c = T.Tensor(self.rng.normal(size=(4, DIM)))
        f_r = T.Tensor(self.rng.normal(size=(5, DIM)))
        emb = fusion.query_embedding(f_c, f_r)
        mean = f_c.data.mean(axis=0, keepdims=True)
        assert np.allclose(emb.data, mean / np.linalg.norm(mean), atol=1e-12)

    def test_gradient_reaches_prompts(self):
        fusion = QueryFusion("q", DIM, n_prompts=4, rng=self.rng)
        f_c = T.Tensor(self.rng.normal(size=(3, DIM)))
        f_r = T.Tensor(self.rng.normal(size=(5, DIM)))
        T.sum_all(fusion.fuse(f_c, f_r)).backward()
        assert fusion.prompts.grad is not None
        assert np.abs(fusion.prompts.grad).max() > 0

    def test_pooled_text_added_to_text_rows_only(self):
        fusion = QueryFusion("q", DIM, n_prompts=2, rng=self.rng)
        f_c = T.Tensor(self.rng.normal(size=(3, DIM)))
        f_r = T.Tensor(self.rng.normal(size=(4, DIM)))
        fusion.attn.wv.data[...] = 0.0  # zero values isolate the add
        fused = fusion.fuse(f_c, f_r).data
        assert np.allclose(fused[:2], 0.0, atol=1e-12)
        assert np.allclose(fused[2:], np.tile(f_c.data.mean(axis=0), (3, 1)), atol=1e-12)

    def test_fuse_matches_oracle(self):
        fusion = QueryFusion("q", DIM, n_prompts=2, rng=self.rng)
        f_c = self.rng.normal(size=(3, DIM))
        f_r = self.rng.normal(size=(4, DIM))
        out = attention_oracle(np.vstack([fusion.prompts.data, f_c]), f_r,
                               *attention_arrays(fusion.attn))
        out[2:] += f_c.mean(axis=0)
        fused = fusion.fuse(T.Tensor(f_c), T.Tensor(f_r))
        assert np.allclose(fused.data, out, atol=1e-12)
        assert [p.name for p in fusion.params()] == ["q.prompts", "q.wq", "q.wk", "q.wv"]

    @pytest.mark.parametrize("n_prompts", [0, 2])
    def test_dim_mismatch_rejected(self, n_prompts):
        # the engine's concat and matmul refuse features of the wrong width
        fusion = QueryFusion("q", DIM, n_prompts=n_prompts, rng=self.rng)
        good, wide = T.Tensor(np.ones((3, DIM))), T.Tensor(np.ones((3, DIM + 1)))
        for f_c, f_r in ((wide, good), (good, wide)):
            with pytest.raises(ValueError, match="concat|matmul"):
                fusion.fuse(f_c, f_r)
