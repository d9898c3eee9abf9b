import json
import math

import numpy as np
import pytest

from cirtrain import tensor as T
from cirtrain.config import ObjectiveConfig, RunConfig, apply_override, load_config
from cirtrain.objective import (
    in_batch_nll,
    matching_loss,
    score_query_against_gallery,
    total_loss,
)
from oracles import matching_loss_oracle, np_l2n


def unit_rows(rng, b, d):
    return np_l2n(rng.normal(size=(b, d)))


def as_row_tensors(matrix):
    return [T.Tensor(row.reshape(1, -1)) for row in matrix]


W = ObjectiveConfig()


def test_weights_validation(tmp_path):
    # alpha, beta >= 0 and tau > 0, checked wherever the objective is read; NaN fails every check
    bad = [("alpha", -0.1), ("beta", -1.0), ("tau", 0.0), ("tau", -0.1),
           ("alpha", math.nan), ("beta", math.nan), ("tau", math.nan)]
    for key, value in bad:
        with pytest.raises(ValueError, match=f"objective.{key}"):
            ObjectiveConfig(**{key: value})
        with pytest.raises(ValueError, match=f"objective.{key}"):
            apply_override(RunConfig(), f"objective.{key}={value}")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"objective": {key: value}}))
        with pytest.raises(ValueError, match=f"objective.{key}"):
            load_config(path)
    assert (W.alpha, W.beta, W.tau) == (0.45, 0.1, 0.1)
    # a zero weight is valid: it switches its term off
    assert apply_override(RunConfig(), "objective.alpha=0").objective.alpha == 0.0


def test_matching_loss_single_item_is_zero():
    rng = np.random.default_rng(0)
    rows = unit_rows(rng, 1, 8)
    assert matching_loss(as_row_tensors(rows), as_row_tensors(rows), W.tau).item() == 0.0


def test_matching_loss_orthogonal_pair_closed_form():
    # diagonal similarity 1, off-diagonal 0, tau=0.1 -> ln(1 + e^-10)
    q = np.eye(2, 8)
    loss = matching_loss(as_row_tensors(q), as_row_tensors(q), W.tau)
    assert abs(loss.item() - math.log(1.0 + math.exp(-10.0))) < 1e-12


def test_matching_loss_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        q = unit_rows(rng, 3, 6)
        t = unit_rows(rng, 3, 6)
        loss = matching_loss(as_row_tensors(q), as_row_tensors(t), W.tau)
        assert abs(loss.item() - matching_loss_oracle(list(q), list(t), W.tau)) < 1e-9


def test_matching_loss_permutation_invariance():
    rng = np.random.default_rng(2)
    q = unit_rows(rng, 4, 6)
    t = unit_rows(rng, 4, 6)
    a = matching_loss(as_row_tensors(q), as_row_tensors(t), W.tau).item()
    perm = [2, 0, 3, 1]
    b = matching_loss(as_row_tensors(q[perm]), as_row_tensors(t[perm]), W.tau).item()
    assert abs(a - b) < 1e-9


def test_matching_loss_empty_batch():
    with pytest.raises(ValueError):
        matching_loss([], [], W.tau)


def test_matching_loss_count_mismatch_rejected():
    rng = np.random.default_rng(3)
    queries, targets = as_row_tensors(unit_rows(rng, 3, 4)), as_row_tensors(unit_rows(rng, 2, 4))
    with pytest.raises(ValueError, match="in_batch_nll: expected a square matrix"):
        matching_loss(queries, targets, W.tau)


def test_in_batch_nll_requires_square():
    with pytest.raises(ValueError):
        in_batch_nll(T.Tensor(np.ones((2, 3))), 0.1)


def test_total_loss_arithmetic():
    out = total_loss(T.Tensor([[1.0]]), T.Tensor([[2.0]]), T.Tensor([[3.0]]), W.alpha, W.beta)
    assert abs(out.item() - 2.2) < 1e-12


def test_total_loss_zero_weights_is_identity():
    l_match = T.Tensor([[1.37]])
    out = total_loss(l_match, T.Tensor([[5.0]]), T.Tensor([[7.0]]), 0.0, 0.0)
    assert out.item() == l_match.item()
    # absent auxiliaries behave the same way
    assert total_loss(l_match, None, None, W.alpha, W.beta).item() == l_match.item()


def test_total_gradient_is_weighted_sum_of_term_gradients():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 3))

    def terms(t):
        m = T.sum_all(T.mul(t, t))
        a = T.sum_all(T.mul(T.l2_normalize_rows(t), t))
        r = T.sum_all(T.softmax_rows(t))
        return m, a, r

    # three separate backward passes, one per term
    grads = []
    for pick in range(3):
        t = T.Tensor(x, requires_grad=True)
        terms(t)[pick].backward()
        grads.append(t.grad)

    t = T.Tensor(x, requires_grad=True)
    total_loss(*terms(t), W.alpha, W.beta).backward()
    combined = grads[0] + W.alpha * grads[1] + W.beta * grads[2]
    assert np.allclose(t.grad, combined, atol=1e-12)


class TestGalleryScoring:
    def test_matching_row_scores_one(self):
        rng = np.random.default_rng(4)
        gallery = unit_rows(rng, 5, 8)
        scores = score_query_against_gallery(T.Tensor(gallery[2:3]), gallery)
        assert abs(scores[2] - 1.0) < 1e-12

    def test_orthogonal_rows_score_zero(self):
        q = np.zeros((1, 4))
        q[0, 0] = 1.0
        g = np.zeros((2, 4))
        g[:, 1] = 1.0
        scores = score_query_against_gallery(T.Tensor(q), g)
        assert np.allclose(scores, 0.0, atol=1e-12)

    def test_matches_per_row_dot_products(self):
        rng = np.random.default_rng(5)
        q = unit_rows(rng, 1, 4)
        g = unit_rows(rng, 5, 4)
        scores = score_query_against_gallery(T.Tensor(q), g)
        assert scores.shape == (5,)
        assert np.allclose(scores, [float(np.dot(q[0], row)) for row in g], atol=1e-12)

    def test_empty_gallery_rejected(self):
        with pytest.raises(ValueError):
            score_query_against_gallery(T.Tensor(np.ones((1, 4))), np.ones((0, 4)))

    def test_scoring_builds_no_graph(self):
        q = T.Tensor(np.ones((1, 4)), requires_grad=True)
        scores = score_query_against_gallery(q, np.ones((3, 4)))
        assert type(scores) is np.ndarray
