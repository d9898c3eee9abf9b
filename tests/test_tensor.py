import math

import numpy as np
import pytest

from cirtrain import tensor as T
from oracles import finite_diff, max_rel_err

RNG = np.random.default_rng(42)


def test_matmul_identity():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(T.Tensor(np.eye(2)), a)
    assert np.array_equal(out.data, a.data)


def test_matmul_row_times_column():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_softmax_symmetric_rows():
    out = T.softmax_rows(T.Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-12)


def test_softmax_huge_logits_no_overflow():
    out = T.softmax_rows(T.Tensor([[1000.0, 1000.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-12)


def test_softmax_closed_form():
    out = T.softmax_rows(T.Tensor([[0.0, math.log(3.0)]]))
    assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    x = RNG.normal(size=(5, 7))
    out = T.softmax_rows(T.Tensor(x))
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
    shifted = T.softmax_rows(T.Tensor(x + 3.25))
    assert np.allclose(out.data, shifted.data, atol=1e-9)


def test_softmax_rows_without_entries_rejected():
    with pytest.raises(ValueError, match="softmax_rows: rows have no entries"):
        T.softmax_rows(T.Tensor(np.ones((3, 0))))


def test_l2_normalize_345_triangle():
    out = T.l2_normalize_rows(T.Tensor([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-12)


def test_l2_normalize_zero_row_passthrough():
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    out = T.l2_normalize_rows(T.Tensor(x))
    assert np.array_equal(out.data[0], x[0])
    assert np.allclose(out.data[1], [1.0, 0.0, 0.0])


def test_l2_normalize_unit_norm_and_idempotent():
    x = T.Tensor(RNG.normal(size=(1, 4)))
    once = T.l2_normalize_rows(x)
    assert abs(np.linalg.norm(once.data) - 1.0) < 1e-9
    twice = T.l2_normalize_rows(once)
    assert np.allclose(once.data, twice.data, atol=1e-9)


def test_backward_sum_gives_ones():
    x = T.Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    T.sum_all(x).backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_square_scalar():
    x = T.Tensor([[3.0]], requires_grad=True)
    T.mul(x, x).backward()
    assert np.allclose(x.grad, [[6.0]])


def test_backward_fanout_sums_contributions():
    x = T.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    T.add(T.sum_all(x), T.sum_all(x)).backward()
    assert np.allclose(x.grad, 2.0)


def test_backward_accumulates_across_calls():
    x = T.Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    T.sum_all(x).backward()
    T.sum_all(x).backward()
    assert np.allclose(x.grad, 2.0)


def test_backward_rejects_non_scalar():
    x = T.Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        T.add(x, x).backward()


def test_elementwise_shape_mismatch():
    with pytest.raises(ValueError):
        T.add(T.Tensor(np.ones((2, 2))), T.Tensor(np.ones((2, 3))))


def test_non_finite_output_raises():
    with pytest.raises(T.NonFiniteError) as err:
        T.log(T.Tensor([[-1.0]]))
    assert err.value.op == "log"


def test_grad_shapes_match_data():
    x = T.Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    T.sum_all(T.softmax_rows(x)).backward()
    assert x.grad.shape == x.data.shape


def _fd_case(name, build, shapes):
    """Compare analytic grads of sum(op(...)) against finite differences."""
    arrays = [RNG.normal(size=s) for s in shapes]
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    T.sum_all(build(*tensors)).backward()
    for arr, ten in zip(arrays, tensors):
        def value():
            rebuilt = [T.Tensor(a) for a in arrays]
            return T.sum_all(build(*rebuilt)).item()

        numeric = finite_diff(value, arr)
        assert max_rel_err(ten.grad, numeric) < 1e-4, name


# a case's position is part of its test id, so new cases go where removed ones were
@pytest.mark.parametrize("name,build,shapes", [
    ("add", lambda a, b: T.add(a, b), [(3, 4), (3, 4)]),
    ("concat_one", lambda a: T.concat([a], 0), [(3, 4)]),
    ("mul", lambda a, b: T.mul(a, b), [(3, 4), (3, 4)]),
    ("scalar_mul", lambda a: T.scalar_mul(a, -2.5), [(3, 4)]),
    ("matmul", lambda a, b: T.matmul(a, b), [(3, 4), (4, 2)]),
    ("transpose", lambda a: T.matmul(T.transpose(a), a), [(3, 4)]),
    ("concat3", lambda a, b, c: T.concat([a, b, c], 1), [(2, 3), (2, 1), (2, 2)]),
    ("log", lambda a: T.log(T.softmax_rows(a)), [(2, 3)]),
    ("mean_axis0", lambda a: T.mean_axis(a, 0), [(3, 4)]),
    ("mean_axis1", lambda a: T.mean_axis(a, 1), [(3, 4)]),
    ("concat0", lambda a, b: T.concat([a, b], 0), [(2, 3), (4, 3)]),
    ("concat1", lambda a, b: T.concat([a, b], 1), [(3, 2), (3, 4)]),
    ("slice_rows", lambda a: T.slice_rows(a, 1, 3), [(4, 3)]),
    ("attention", lambda q, k, v: T.matmul(
        T.softmax_rows(T.scalar_mul(T.matmul(q, T.transpose(k)), 0.5)), v),
     [(3, 4), (5, 4), (5, 2)]),
    ("softmax_rows", lambda a: T.mul(T.softmax_rows(a), a), [(3, 5)]),
    ("l2_normalize", lambda a: T.mul(T.l2_normalize_rows(a), a), [(4, 5)]),
    ("sum_all", lambda a: T.sum_all(a), [(3, 4)]),
])
def test_gradients_match_finite_differences(name, build, shapes):
    _fd_case(name, build, shapes)


def test_gradient_of_composite_expression():
    # cosine-style composite touching most ops at once
    a = RNG.normal(size=(4, 6))
    b = RNG.normal(size=(6, 6))

    def build(ta, tb):
        prod = T.l2_normalize_rows(T.matmul(ta, tb))
        att = T.softmax_rows(T.scalar_mul(T.matmul(prod, T.transpose(prod)), 3.0))
        return T.log(T.add(T.mean_axis(T.matmul(att, prod), 0),
                           T.Tensor(np.full((1, 6), 4.0))))

    ta = T.Tensor(a, requires_grad=True)
    tb = T.Tensor(b, requires_grad=True)
    T.sum_all(build(ta, tb)).backward()

    def value():
        return T.sum_all(build(T.Tensor(a), T.Tensor(b))).item()

    assert max_rel_err(ta.grad, finite_diff(value, a)) < 1e-4
    assert max_rel_err(tb.grad, finite_diff(value, b)) < 1e-4


def test_no_grad_disables_recording():
    x = T.Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    with T.no_grad():
        out = T.sum_all(x)
    assert not out.requires_grad
    out2 = T.sum_all(x)
    assert out2.requires_grad


def test_param_frozen_flag_and_reads_counter():
    p = T.Param("w", np.ones((2, 2)), frozen=True)
    assert not p.tensor.requires_grad
    assert p.reads == 1
    q = T.Param("v", np.ones((2, 2)))
    assert q.tensor.requires_grad
    T.sum_all(q.tensor).backward()
    assert q.grad is not None
    q.zero_grad()
    assert q.grad is None
