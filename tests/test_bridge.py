import math

import numpy as np
import pytest

from cirtrain import tensor as T
from cirtrain.bridge import (
    BridgeParams,
    alignment_loss,
    attend_ref_to_text,
    attend_text_to_target,
    hinge_attention,
)
from oracles import (
    alignment_loss_oracle,
    bridged_chain,
    finite_diff,
    max_rel_err,
    np_cosine,
)

DIM = 6
TAU = 0.1


def make_params(seed=1, share=True):
    return BridgeParams(DIM, np.random.default_rng(seed), share_text_projection=share)


def identity_params():
    """All projections forced to the identity so cosines act on raw features."""
    p = make_params()
    for param in (p.w_ref, p.w_text, p.w_target, p.w_value):
        param.data[...] = np.eye(DIM)
    return p


def weight_arrays(p):
    return (p.w_ref.data, p.w_text.data, p.w_text_query.data,
            p.w_target.data, p.w_value.data)


def test_parallel_rows_give_cosine_one():
    p = identity_params()
    v = np.zeros((1, DIM))
    v[0, 0] = 2.0
    out = attend_ref_to_text(T.Tensor(v), T.Tensor(v * 3.0), p)
    assert abs(out.item() - 1.0) < 1e-12


def test_orthogonal_rows_give_cosine_zero():
    p = identity_params()
    a = np.zeros((1, DIM))
    b = np.zeros((1, DIM))
    a[0, 0] = 1.0
    b[0, 1] = 1.0
    assert abs(attend_ref_to_text(T.Tensor(a), T.Tensor(b), p).item()) < 1e-12


def test_association_matches_cosine_oracle():
    rng = np.random.default_rng(4)
    p = make_params()
    f_r = rng.normal(size=(3, DIM))
    f_c = rng.normal(size=(2, DIM))
    out = attend_ref_to_text(T.Tensor(f_r), T.Tensor(f_c), p)
    q = f_r @ p.w_ref.data
    k = f_c @ p.w_text.data
    for i in range(3):
        for j in range(2):
            assert abs(out.data[i, j] - np_cosine(q[i], k[j])) < 1e-12


def test_text_to_target_matches_cosine_oracle():
    rng = np.random.default_rng(5)
    p = make_params(share=False)
    f_c = rng.normal(size=(2, DIM))
    f_t = rng.normal(size=(4, DIM))
    out = attend_text_to_target(T.Tensor(f_c), T.Tensor(f_t), p)
    assert out.shape == (2, 4)
    q = f_c @ p.w_text_query.data
    k = f_t @ p.w_target.data
    for i in range(2):
        for j in range(4):
            assert abs(out.data[i, j] - np_cosine(q[i], k[j])) < 1e-12


def test_association_entries_bounded_by_cosine():
    rng = np.random.default_rng(6)
    p = make_params()
    for _ in range(10):
        f_r = rng.normal(size=(4, DIM)) * rng.uniform(0.1, 10)
        f_c = rng.normal(size=(3, DIM)) * rng.uniform(0.1, 10)
        a = attend_ref_to_text(T.Tensor(f_r), T.Tensor(f_c), p).data
        b = attend_text_to_target(T.Tensor(f_c), T.Tensor(f_r), p).data
        assert np.all(a <= 1 + 1e-12) and np.all(a >= -1 - 1e-12)
        assert np.all(b <= 1 + 1e-12) and np.all(b >= -1 - 1e-12)


def test_hinge_single_word_uniform_rows():
    n = 4
    a_r2c = T.Tensor(np.full((n, 1), 0.7))
    a_c2t = T.Tensor(np.full((1, n), 0.7))
    out = hinge_attention(a_r2c, a_c2t, DIM)
    assert np.allclose(out.data, 1.0 / n, atol=1e-12)


def test_hinge_rows_sum_to_one():
    rng = np.random.default_rng(7)
    out = hinge_attention(T.Tensor(rng.uniform(-1, 1, (5, 3))),
                          T.Tensor(rng.uniform(-1, 1, (3, 5))), DIM)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


def test_hinge_inner_dim_mismatch_rejected():
    with pytest.raises(ValueError, match="matmul: inner dimensions disagree"):
        hinge_attention(T.Tensor(np.ones((4, 3))), T.Tensor(np.ones((2, 4))), DIM)


def test_hinge_two_by_two_closed_form():
    # product [[0, c], [0, c]] with c chosen so softmax gives (0.25, 0.75)
    c = math.log(3.0) * math.sqrt(DIM)
    a_r2c = T.Tensor([[1.0], [1.0]])
    a_c2t = T.Tensor([[0.0, c]])
    out = hinge_attention(a_r2c, a_c2t, DIM)
    assert np.allclose(out.data, [[0.25, 0.75], [0.25, 0.75]], atol=1e-12)


def test_full_chain_matches_oracle():
    rng = np.random.default_rng(11)
    p = make_params(share=False, seed=12)
    f_r_bar = rng.normal(size=(4, DIM))
    f_c = rng.normal(size=(2, DIM))
    f_t = rng.normal(size=(5, DIM))
    # the chain alignment_loss builds for one (query, candidate) pair, from its public hops
    a_r2c = attend_ref_to_text(T.Tensor(f_r_bar), T.Tensor(f_c), p)
    a_r2t = hinge_attention(a_r2c, attend_text_to_target(T.Tensor(f_c), T.Tensor(f_t), p), DIM)
    out = T.matmul(a_r2t, T.matmul(T.Tensor(f_t), p.w_value.tensor))
    expected = bridged_chain(f_r_bar, f_c, f_t, *weight_arrays(p))
    assert np.allclose(out.data, expected, atol=1e-12)


def _random_triplets(rng, b, n=3, length=2, m=4):
    return [(rng.normal(size=(n, DIM)), rng.normal(size=(length, DIM)),
             rng.normal(size=(m, DIM))) for _ in range(b)]


def as_tensors(triplets):
    return [tuple(T.Tensor(x) for x in tri) for tri in triplets]


def test_loss_single_item_batch_is_zero():
    rng = np.random.default_rng(13)
    p = make_params()
    loss = alignment_loss(as_tensors(_random_triplets(rng, 1)), p, TAU)
    assert loss.item() == 0.0


def test_loss_two_identical_targets_is_ln2():
    rng = np.random.default_rng(14)
    p = make_params()
    base = _random_triplets(rng, 1)[0]
    shared_target = base[2]
    triplets = [(base[0], base[1], shared_target), (base[0], base[1], shared_target)]
    loss = alignment_loss(as_tensors(triplets), p, TAU)
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def test_loss_matches_brute_force_oracle():
    rng = np.random.default_rng(15)
    for trial in range(5):
        p = make_params(seed=trial, share=bool(trial % 2))
        triplets = _random_triplets(rng, 3)
        loss = alignment_loss(as_tensors(triplets), p, TAU)
        expected = alignment_loss_oracle(triplets, *weight_arrays(p), tau=TAU)
        assert abs(loss.item() - expected) < 1e-9


def test_loss_batch_permutation_invariance():
    rng = np.random.default_rng(16)
    p = make_params()
    triplets = _random_triplets(rng, 4)
    a = alignment_loss(as_tensors(triplets), p, TAU).item()
    b = alignment_loss(as_tensors([triplets[i] for i in (2, 0, 3, 1)]), p, TAU).item()
    assert abs(a - b) < 1e-9


def test_temperature_preserves_per_query_ranking():
    rng = np.random.default_rng(17)
    triplets = _random_triplets(rng, 3)

    def per_query_sims(p):
        sims = np.zeros((3, 3))
        arrays = weight_arrays(p)
        for i in range(3):
            f_r_bar, f_c, _ = triplets[i]
            pooled_ref = f_r_bar.mean(axis=0)
            for j in range(3):
                bridged = bridged_chain(f_r_bar, f_c, triplets[j][2], *arrays)
                sims[i, j] = np_cosine(pooled_ref, bridged.mean(axis=0))
        return sims

    p = make_params(seed=20)
    sims = per_query_sims(p)
    argmaxes = []
    for tau in (0.1, 1.0):
        probs = np.exp(sims / tau) / np.exp(sims / tau).sum(axis=1, keepdims=True)
        # the loss is the mean NLL of these probabilities' diagonal
        loss = alignment_loss(as_tensors(triplets), p, tau).item()
        assert abs(loss + np.log(np.diag(probs)).mean()) < 1e-9
        argmaxes.append(probs.argmax(axis=1))
    # tau scales probabilities, not similarities: argmax per query identical
    assert np.array_equal(*argmaxes)


def test_shared_text_projection_is_one_storage():
    shared = make_params(share=True)
    assert shared.w_text_query is shared.w_text
    assert len(shared.params()) == 4
    split = make_params(share=False)
    assert split.w_text_query is not split.w_text
    assert len(split.params()) == 5


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    p = make_params(seed=22, share=True)
    triplets = _random_triplets(rng, 3)

    loss = alignment_loss(as_tensors(triplets), p, TAU)
    loss.backward()

    def value():
        with T.no_grad():
            return alignment_loss(as_tensors(triplets), p, TAU).item()

    for param in p.params():
        numeric = finite_diff(value, param.data)
        assert max_rel_err(param.grad, numeric) < 1e-4, param.name


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        alignment_loss([], make_params(), TAU)
