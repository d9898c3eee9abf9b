import logging
import math

import numpy as np
import pytest

from cirtrain import tensor as T
from cirtrain.compositor import (
    CompositorParams,
    compose,
    fuse_branch,
    reasoning_loss,
)
from cirtrain.config import ModelConfig, RunConfig, apply_override
from oracles import (
    compose_oracle,
    finite_diff,
    fuse_branch_oracle,
    max_rel_err,
    reasoning_loss_oracle,
)

DIM = 6
TAU = 0.1


def make_params(seed=1, layers=2, share=False):
    return CompositorParams(DIM, np.random.default_rng(seed), layers=layers,
                            share_branches=share)


def branch_arrays(w):
    return (w.wq.data, w.wk.data, w.wv.data)


def test_zero_layers_rejected():
    # the layer count is a model setting, checked wherever the config is read
    with pytest.raises(ValueError, match="model.compositor_layers must be >= 1"):
        ModelConfig(compositor_layers=0)
    with pytest.raises(ValueError, match="model.compositor_layers must be >= 1"):
        apply_override(RunConfig(), "model.compositor_layers=0")


def test_inputs_without_a_cls_row_rejected():
    p = make_params()
    rows, empty = T.Tensor(np.ones((3, DIM))), T.Tensor(np.ones((0, DIM)))
    for f_r_prime, f_t in ((empty, rows), (rows, empty)):
        with pytest.raises(ValueError, match="softmax_rows: rows have no entries"):
            compose(f_r_prime, f_t, p)


def test_uniform_attention_identity_values_averages_other():
    p = make_params(layers=1)
    w = p.target_branch
    w.wq.data[...] = 0.0          # zero queries force uniform attention
    w.wv.data[...] = np.eye(DIM)  # identity value projection
    rng = np.random.default_rng(2)
    anchor = T.Tensor(rng.normal(size=(3, DIM)))
    other = T.Tensor(rng.normal(size=(5, DIM)))
    out = fuse_branch(anchor, other, p.target_branch, p.layers)
    assert np.allclose(out.data, np.tile(other.data.mean(axis=0), (3, 1)), atol=1e-12)


def test_output_keeps_anchor_row_count():
    p = make_params()
    rng = np.random.default_rng(3)
    anchor = T.Tensor(rng.normal(size=(5, DIM)))
    other = T.Tensor(rng.normal(size=(7, DIM)))
    assert fuse_branch(anchor, other, p.target_branch, p.layers).shape == (5, DIM)
    assert fuse_branch(other, anchor, p.reference_branch, p.layers).shape == (7, DIM)


def test_dim_mismatch_rejected():
    p = make_params()
    good, wide = T.Tensor(np.ones((3, DIM))), T.Tensor(np.ones((3, DIM + 1)))
    for anchor, other in ((wide, good), (good, wide)):
        with pytest.raises(ValueError, match="matmul: inner dimensions disagree"):
            fuse_branch(anchor, other, p.target_branch, p.layers)


def test_two_layer_fusion_matches_unrolled_oracle():
    p = make_params(seed=4, layers=2)
    rng = np.random.default_rng(5)
    anchor = rng.normal(size=(3, DIM))
    other = rng.normal(size=(4, DIM))
    out = fuse_branch(T.Tensor(anchor), T.Tensor(other), p.reference_branch, p.layers)
    expected = fuse_branch_oracle(anchor, other, *branch_arrays(p.reference_branch), 2)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_parameter_count_independent_of_depth():
    shallow = make_params(layers=1)
    deep = make_params(layers=4)
    count = lambda p: sum(np.prod(q.shape) for q in p.params())
    assert count(shallow) == count(deep)


def test_branches_disjoint_unless_shared():
    p = make_params(share=False)
    rng = np.random.default_rng(6)
    anchor = T.Tensor(rng.normal(size=(3, DIM)))
    other = T.Tensor(rng.normal(size=(4, DIM)))
    before = fuse_branch(anchor, other, p.reference_branch, p.layers).data.copy()
    p.target_branch.wq.data[...] += 1.0
    after = fuse_branch(anchor, other, p.reference_branch, p.layers).data
    assert np.array_equal(before, after)

    shared = make_params(share=True)
    assert shared.target_branch is shared.reference_branch
    assert len(shared.params()) == 3


def test_compose_identical_branch_outputs():
    p = make_params(share=True, layers=1)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, DIM))
    # same params, same inputs on both branches -> both CLS rows identical
    out = compose(T.Tensor(x), T.Tensor(x), p)
    branch = fuse_branch_oracle(x, x, *branch_arrays(p.target_branch), 1)
    v = branch[0]
    assert np.allclose(out.data.reshape(-1), v / np.linalg.norm(v), atol=1e-12)


def test_compose_antisymmetric_branches_flag_degenerate(caplog):
    p = make_params(layers=1)
    for w, sign in ((p.target_branch, 1.0), (p.reference_branch, -1.0)):
        w.wq.data[...] = 0.0
        w.wv.data[...] = sign * np.eye(DIM)
    # both branches see the same single-row inputs, so CLS outputs are v and -v
    x = np.ones((1, DIM))
    with caplog.at_level(logging.WARNING, logger="cirtrain.compositor"):
        out = compose(T.Tensor(x), T.Tensor(x), p)
    assert np.allclose(out.data, 0.0, atol=1e-12)
    assert any("degenerate" in rec.message for rec in caplog.records)


def test_compose_matches_straight_line_oracle():
    p = make_params(seed=10, layers=3)
    rng = np.random.default_rng(11)
    f_r_prime = rng.normal(size=(4, DIM))
    f_t = rng.normal(size=(5, DIM))
    out = compose(T.Tensor(f_r_prime), T.Tensor(f_t), p)
    expected = compose_oracle(f_r_prime, f_t,
                              branch_arrays(p.target_branch),
                              branch_arrays(p.reference_branch), 3)
    assert np.allclose(out.data.reshape(-1), expected, atol=1e-12)


def test_compose_symmetric_under_branch_and_input_swap():
    p = make_params(seed=12, layers=2)
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, DIM))
    b = rng.normal(size=(4, DIM))
    tgt = branch_arrays(p.target_branch)
    ref = branch_arrays(p.reference_branch)
    # swapping both the branch weights and the inputs only reorders the average
    assert np.allclose(compose_oracle(a, b, tgt, ref, 2),
                       compose_oracle(b, a, ref, tgt, 2), atol=1e-12)


def _random_triplets(rng, b, n_ref=3, n_tgt=4, length=2):
    return [(rng.normal(size=(n_ref, DIM)), rng.normal(size=(n_tgt, DIM)),
             rng.normal(size=(length, DIM))) for _ in range(b)]


def as_tensors(triplets):
    return [tuple(T.Tensor(x) for x in tri) for tri in triplets]


def test_loss_single_item_batch_is_zero():
    rng = np.random.default_rng(14)
    p = make_params()
    assert reasoning_loss(as_tensors(_random_triplets(rng, 1)), p, TAU).item() == 0.0


def test_loss_two_identical_texts_is_ln2():
    rng = np.random.default_rng(15)
    p = make_params()
    base = _random_triplets(rng, 2)
    triplets = [(base[0][0], base[0][1], base[0][2]),
                (base[1][0], base[1][1], base[0][2])]
    loss = reasoning_loss(as_tensors(triplets), p, TAU)
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def test_loss_matches_brute_force_oracle():
    rng = np.random.default_rng(16)
    for trial in range(5):
        p = make_params(seed=30 + trial, layers=1 + trial % 3)
        triplets = _random_triplets(rng, 3)
        loss = reasoning_loss(as_tensors(triplets), p, TAU)
        expected = reasoning_loss_oracle(
            triplets, branch_arrays(p.target_branch),
            branch_arrays(p.reference_branch), p.layers, tau=TAU)
        assert abs(loss.item() - expected) < 1e-9


def test_loss_batch_permutation_invariance():
    rng = np.random.default_rng(17)
    p = make_params()
    triplets = _random_triplets(rng, 4)
    a = reasoning_loss(as_tensors(triplets), p, TAU).item()
    b = reasoning_loss(as_tensors([triplets[i] for i in (3, 1, 0, 2)]), p, TAU).item()
    assert abs(a - b) < 1e-9


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(18)
    p = make_params(seed=19, layers=2)
    triplets = _random_triplets(rng, 3)

    loss = reasoning_loss(as_tensors(triplets), p, TAU)
    loss.backward()

    def value():
        with T.no_grad():
            return reasoning_loss(as_tensors(triplets), p, TAU).item()

    for param in p.params():
        numeric = finite_diff(value, param.data)
        assert max_rel_err(param.grad, numeric) < 1e-4, param.name


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        reasoning_loss([], make_params(), TAU)
