import ast
import math
import zlib
from pathlib import Path

import numpy as np
import pytest

from cirtrain import tensor as T
from cirtrain.train import Adam
from graph import graph_nodes
from oracles import attention_oracle, finite_diff, max_rel_err, np_diagonal_nll
from scalarize import scalarize


def _rng(key: str) -> np.random.Generator:
    """One generator per test or case, so adding or removing one moves no other's inputs.

    Seeded by the CRC-32 of the name, which unlike `hash()` is the same in every process.
    """
    return np.random.default_rng(zlib.crc32(key.encode()))


@pytest.fixture
def rng(request):
    return _rng(request.node.name)


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
    out = T.softmax_rows(T.Tensor([[0.0, 0.0]]), 1.0)
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-12)


def test_softmax_huge_logits_no_overflow():
    out = T.softmax_rows(T.Tensor([[1000.0, 1000.0]]), 1.0)
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-12)


def test_softmax_rows_wider_than_the_float_range():
    # the row-max shift overflows to -inf, which exp takes to exactly 0, without a warning
    out = T.softmax_rows(T.Tensor([[1e308, -1e308]]), 1.0)
    assert out.data.tolist() == [[1.0, 0.0]]


def test_l2_normalize_rows_whose_norm_overflows_rejected():
    # the sum of squares overflows to inf, and dividing by it would silently give a zero row
    with pytest.raises(T.NonFiniteError, match="'l2_normalize_rows'"):
        T.l2_normalize_rows(T.Tensor([[1e200, 1e200]]))


def test_softmax_closed_form():
    out = T.softmax_rows(T.Tensor([[0.0, math.log(3.0)]]), 1.0)
    assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)
    # the logits are the entries times the scale
    out = T.softmax_rows(T.Tensor([[0.0, math.log(9.0)]]), 0.5)
    assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant(rng):
    x = rng.normal(size=(5, 7))
    out = T.softmax_rows(T.Tensor(x), 1.0)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
    shifted = T.softmax_rows(T.Tensor(x + 3.25), 1.0)
    assert np.allclose(out.data, shifted.data, atol=1e-9)


def test_softmax_rows_without_entries_rejected():
    with pytest.raises(ValueError, match="softmax_rows: rows have no entries"):
        T.softmax_rows(T.Tensor(np.ones((3, 0))), 1.0)


@pytest.mark.parametrize("b,scale", [(1, 1.0), (3, 1.0), (5, 10.0), (8, 100.0)])
def test_diagonal_nll_matches_oracle(b, scale, rng):
    x = scale * rng.normal(size=(b, b))
    assert abs(T.diagonal_nll(T.Tensor(x), 1.0).item() - np_diagonal_nll(x)) < 1e-9 * max(1.0, scale)


@pytest.mark.parametrize("sim,loss", [([[1.0, -1.0], [-1.0, 1.0]], 0.0),
                                      ([[-1.0, 1.0], [1.0, -1.0]], 2000.0)])
def test_diagonal_nll_closed_forms_at_a_small_temperature(sim, loss):
    # at tau = 1e-3 every off-peak softmax entry underflows to exactly 0
    x = T.Tensor(sim, requires_grad=True)
    out = T.diagonal_nll(x, 1e-3)
    assert out.item() == loss and math.copysign(1.0, out.item()) == 1.0
    out.backward()
    softmax = (np.array(sim) > 0).astype(float)
    assert np.array_equal(x.grad, (softmax - np.eye(2)) * 500.0)  # (softmax - I) / (B tau)


def test_diagonal_nll_refuses_what_is_not_a_non_empty_square_matrix():
    for shape in ((0, 0), (2, 3), (3,), (2, 2, 2)):
        with pytest.raises(ValueError, match="diagonal_nll: expected a non-empty square matrix"):
            T.diagonal_nll(T.Tensor(np.ones(shape)), 1.0)


@pytest.mark.parametrize("tau", [0.0, -0.1, math.nan])
def test_diagonal_nll_refuses_a_temperature_that_is_not_positive(tau):
    with pytest.raises(ValueError, match=f"^diagonal_nll: the temperature must be > 0, got {tau}$"):
        T.diagonal_nll(T.Tensor(np.eye(2)), tau)


def test_diagonal_nll_at_tau_equals_the_scaled_matrix_at_one_bitwise(rng):
    # the op scales by 1/tau as scalar_mul does and multiplies the gradient by it last
    x, runs = rng.normal(size=(4, 4)), []
    for build in (lambda t: T.diagonal_nll(t, 0.07),
                  lambda t: T.diagonal_nll(T.scalar_mul(t, 1.0 / 0.07), 1.0)):
        t = T.Tensor(x, requires_grad=True)
        out = build(t)
        out.backward()
        runs.append((out.item(), t.grad))
    assert runs[0][0] == runs[1][0] and np.array_equal(runs[0][1], runs[1][1])


def test_l2_normalize_345_triangle():
    out = T.l2_normalize_rows(T.Tensor([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-12)


def test_l2_normalize_zero_row_passthrough():
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    out = T.l2_normalize_rows(T.Tensor(x))
    assert np.array_equal(out.data[0], x[0])
    assert np.allclose(out.data[1], [1.0, 0.0, 0.0])


def test_l2_normalize_unit_norm_and_idempotent(rng):
    x = T.Tensor(rng.normal(size=(1, 4)))
    once = T.l2_normalize_rows(x)
    assert abs(np.linalg.norm(once.data) - 1.0) < 1e-9
    twice = T.l2_normalize_rows(once)
    assert np.allclose(once.data, twice.data, atol=1e-9)


def test_backward_sum_gives_ones(rng):
    x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    scalarize(x).backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_square_scalar():
    x = T.Tensor([[3.0]], requires_grad=True)
    T.matmul(x, x).backward()
    assert np.allclose(x.grad, [[6.0]])


def test_backward_fanout_sums_contributions(rng):
    x = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    T.add(scalarize(x), scalarize(x)).backward()
    assert np.allclose(x.grad, 2.0)


def test_backward_accumulates_across_calls(rng):
    x = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    scalarize(x).backward()
    scalarize(x).backward()
    assert np.allclose(x.grad, 2.0)


def test_backward_overflow_is_an_inf_grad_that_adam_refuses_not_a_warning():
    # a finite forward (1e-300 * 1e300 * 1e10) whose backward product 1e10 * 1e300 overflows
    x = T.Param("x", [[1e-300]])
    T.scalar_mul(T.matmul(x.tensor, T.Tensor([[1e300]])), 1e10).backward()
    assert np.isposinf(x.grad).all()
    with pytest.raises(T.NonFiniteError, match=r"Adam\.step\[x\]"):
        Adam([x], lr=0.1).step()


def test_backward_on_a_loss_without_grad_leaves_every_grad_none():
    x = T.Tensor([[2.0]], requires_grad=True)
    with T.no_grad():
        loss = T.matmul(x, x)
    loss.backward()
    assert x.grad is None and loss.grad is None


def test_item_refuses_a_tensor_with_more_than_one_element():
    with pytest.raises(ValueError, match=r"item\(\) requires a single-element tensor, got shape \(1, 2\)"):
        T.Tensor([[1.0, 2.0]]).item()


@pytest.mark.parametrize("axis", [2, -3])
def test_mean_axis_refuses_an_axis_out_of_range(axis):
    with pytest.raises(ValueError, match=rf"mean_axis: axis {axis} out of range for shape \(2, 3\)"):
        T.mean_axis(T.Tensor(np.ones((2, 3))), axis)


@pytest.mark.parametrize("axis", [0, 1, 2, -1, -2, -3])
def test_mean_axis_drops_the_axis_it_averages(axis, rng):
    x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    out = T.mean_axis(x, axis)
    assert out.shape == tuple(np.delete([2, 3, 4], axis))
    assert np.array_equal(out.data, x.data.mean(axis=axis))
    scalarize(out).backward()
    assert x.grad.shape == x.shape
    assert np.array_equal(x.grad, np.full(x.shape, 1.0 / x.shape[axis]))


def test_backward_rejects_non_scalar(rng):
    x = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        T.add(x, x).backward()


def test_elementwise_shape_mismatch():
    with pytest.raises(ValueError):
        T.add(T.Tensor(np.ones((2, 2))), T.Tensor(np.ones((2, 3))))


def test_non_finite_output_raises():
    with pytest.raises(T.NonFiniteError) as err:
        T.matmul(T.Tensor([[1e200]]), T.Tensor([[1e200]]))
    assert err.value.op == "matmul"


def test_grad_shapes_match_data(rng):
    x = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    scalarize(T.softmax_rows(x, 1.0)).backward()
    assert x.grad.shape == x.data.shape


def _fd_case(name, build, shapes):
    """Compare analytic grads of a fixed random weighting of op(...) against finite differences."""
    rng = _rng(name)
    arrays = [rng.normal(size=s) for s in shapes]
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    weights = rng.normal(size=out.data.size)
    scalarize(out, weights).backward()
    for arr, ten in zip(arrays, tensors):
        def value():
            rebuilt = [T.Tensor(a) for a in arrays]
            return scalarize(build(*rebuilt), weights).item()

        numeric = finite_diff(value, arr)
        assert max_rel_err(ten.grad, numeric) < 1e-4, name


# a case's position is part of its test id, so new cases go where removed ones were; each
# case's output is reduced by fixed random weights, so a case needs no product of its own
FD_CASES = [
    ("add", lambda a, b: T.add(a, b), [(3, 4), (3, 4)]),
    ("concat_one", lambda a: T.concat([a]), [(3, 4)]),
    ("add3", lambda a, b: T.add(a, b), [(2, 3, 4), (2, 3, 4)]),
    ("scalar_mul", lambda a: T.scalar_mul(a, -2.5), [(3, 4)]),
    ("matmul", lambda a, b: T.matmul(a, b), [(3, 4), (4, 2)]),
    ("transpose", lambda a: T.matmul(T.transpose(a), a), [(3, 4)]),
    ("concat3", lambda a, b, c: T.concat([a, b, c]), [(3, 2), (1, 2), (2, 2)]),
    ("diagonal_nll", lambda a: T.diagonal_nll(a, 1.0), [(3, 3)]),
    ("mean_axis0", lambda a: T.mean_axis(a, 0), [(3, 4)]),
    ("mean_axis1", lambda a: T.mean_axis(a, 1), [(3, 4)]),
    ("concat0", lambda a, b: T.concat([a, b]), [(2, 3), (4, 3)]),
    ("concat1", lambda a, b: T.concat([a, b]), [(1, 4), (3, 4)]),
    ("take_rows", lambda t: T.take_rows(t, [2, 0, 2, 3]), [(4, 3)]),
    ("attention", lambda q, k, v: T.matmul(T.softmax_rows(T.matmul(q, T.transpose(k)), 0.5), v),
     [(3, 4), (5, 4), (5, 2)]),
    ("softmax_rows", lambda a: T.softmax_rows(a, 1.0), [(3, 5)]),
    ("l2_normalize", lambda a: T.l2_normalize_rows(a), [(4, 5)]),
    ("scalar_mul3", lambda a: T.scalar_mul(a, 0.75), [(2, 3, 4)]),
    # leading batch axes: each generalised or new op at rank 3 and rank 4
    ("matmul_batched3", lambda a, b: T.matmul(a, b), [(2, 3, 4), (2, 4, 2)]),
    ("matmul_batched4", lambda a, b: T.matmul(a, b), [(2, 3, 2, 4), (2, 3, 4, 3)]),
    ("matmul_weight3", lambda a, w: T.matmul(a, w), [(2, 3, 4), (4, 2)]),
    ("matmul_weight4", lambda a, w: T.matmul(a, w), [(2, 3, 2, 4), (4, 3)]),
    ("transpose3", lambda a: T.matmul(T.transpose(a), a), [(2, 3, 4)]),
    ("transpose4", lambda a: T.matmul(T.transpose(a), a), [(2, 2, 3, 4)]),
    # a table read at ids of rank 2 and 3, ids repeated so one row's gradient sums several reads
    ("take_rows2", lambda t: T.take_rows(t, [[1, 1, 0], [3, 1, 1]]), [(4, 3)]),
    ("take_rows3", lambda t: T.take_rows(t, [[[0, 2], [2, 2]], [[1, 0], [2, 1]]]), [(3, 4)]),
    # the model's two poolings: a CLS row and a row mean, each dropping the row axis
    ("pooled_cls_row", lambda a: T.l2_normalize_rows(T.first_row(a)), [(2, 3, 4)]),
    ("pooled_mean", lambda a: T.l2_normalize_rows(T.mean_axis(a, -2)), [(2, 3, 4)]),
    ("reshape3", lambda a: T.reshape(a, (2, 6)), [(2, 3, 2)]),
    ("reshape4", lambda a: T.reshape(a, (2, 1, 3, 2)), [(3, 4)]),
    ("softmax_rows3", lambda a: T.softmax_rows(a, 1.0), [(2, 3, 5)]),
    ("softmax_rows4", lambda a: T.softmax_rows(a, 1.0), [(2, 2, 3, 4)]),
    ("l2_normalize3", lambda a: T.l2_normalize_rows(a), [(2, 4, 5)]),
    ("l2_normalize4", lambda a: T.l2_normalize_rows(a), [(2, 2, 3, 4)]),
    ("mean_axis2_rank3", lambda a: T.mean_axis(a, 2), [(2, 3, 4)]),
    ("mean_axis2_rank4", lambda a: T.mean_axis(a, 2), [(2, 2, 3, 4)]),
    ("first_row3", lambda a: T.first_row(a), [(2, 4, 3)]),
    ("first_row4", lambda a: T.first_row(a), [(2, 2, 4, 3)]),
    ("concat_rank3", lambda a, b: T.concat([a, b]), [(2, 1, 4), (2, 3, 4)]),
    ("concat_rank4", lambda a, b: T.concat([a, b, a]), [(2, 2, 1, 3), (2, 2, 2, 3)]),
    # the fused attention op: rank-2 self attention (x_q is x_kv), rank-3 cross attention
    ("attention_self", lambda x, wq, wk, wv: T.attention(x, x, wq, wk, wv),
     [(3, 4), (4, 4), (4, 4), (4, 4)]),
    ("attention_cross3", lambda xq, xkv, wq, wk, wv: T.attention(xq, xkv, wq, wk, wv),
     [(2, 3, 4), (2, 5, 4), (4, 2), (4, 2), (4, 4)]),
    # the loss at a temperature other than 1, and transpose given a permutation of every axis
    ("diagonal_nll_tau", lambda a: T.diagonal_nll(a, 0.3), [(3, 3)]),
    ("transpose_axes3", lambda a: T.transpose(a, (1, 2, 0)), [(2, 3, 4)]),
    ("transpose_axes4", lambda a: T.transpose(a, (2, 0, 3, 1)), [(2, 3, 4, 5)]),
    ("first_row", lambda a: T.first_row(a), [(4, 3)]),
    # a softmax at a scale other than 1: its backward carries the scale, as the forward does
    ("softmax_rows_scale", lambda a: T.softmax_rows(a, 0.37), [(3, 5)]),
]


@pytest.mark.parametrize("name,build,shapes", FD_CASES)
def test_gradients_match_finite_differences(name, build, shapes):
    _fd_case(name, build, shapes)


# the engine's exports that are not ops: the tensor and parameter types, the error, the graph
# control and the unchecked mode
NOT_OPS = {"NonFiniteError", "Tensor", "Param", "no_grad", "unchecked"}


def test_every_exported_op_has_a_finite_difference_case():
    # the ops each case's graph records, walked back from its output
    recorded = {node.op for _, build, shapes in FD_CASES
                for node in graph_nodes(build(*(T.Tensor(np.ones(s), requires_grad=True)
                                                for s in shapes)))}
    assert not set(T.__all__) - NOT_OPS - recorded


def test_every_exported_op_has_a_library_caller():
    # an op only the tests call is surface the model does not need: every name the engine
    # exports must be imported from it and called in some other module of the library
    called = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        if path.name == "tensor.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.module == "tensor" and node.level == 1 for alias in node.names}
        called |= imported & {node.func.id for node in ast.walk(tree)
                              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not set(T.__all__) - NOT_OPS - called


# top-level names no module loads yet, each kept for a stated reason
UNLOADED_ALLOWED = {
    "challenge_metric": "the paper's challenge score, pinned by the c6 metric oracles",
    "compare_ablations": "the c5 ablation run, until a seed harness calls it",
    "format_ablation_table": "the c5 ablation table, until a seed harness calls it",
}


def test_every_top_level_name_is_loaded_outside_its_definition():
    # a function, class or constant that only tests read is surface the program does not
    # need: each top-level name of the library must be loaded by another top-level
    # statement of the library or the benchmark, as a name or an attribute
    library = Path(T.__file__).parent
    statements = []
    for path in [*library.glob("*.py"), *(library.parents[1] / "cirbench").glob("*.py")]:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            loads = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt) if isinstance(node, ast.Attribute)
                     or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            statements.append((path.parent == library, stmt, loads))
    unloaded = set()
    for in_library, stmt, _ in statements:
        if not in_library:
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = {stmt.name}
        else:
            names = {node.id for node in ast.walk(stmt) if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                     and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        unloaded |= {name for name in names if not name.startswith("__")
                     and not any(name in loads for _, other, loads in statements if other is not stmt)}
    # an allowed name that gains a caller leaves the list
    assert unloaded == set(UNLOADED_ALLOWED)


def _attention_chain(x_q, x_kv, wq, wk, wv):
    """The primitive chain that `attention` fuses."""
    q, k, v = T.matmul(x_q, wq), T.matmul(x_kv, wk), T.matmul(x_kv, wv)
    return T.matmul(T.softmax_rows(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(q.shape[-1])), v)


@pytest.mark.parametrize("q_shape,kv_shape", [((4, 5), None), ((3, 5), (6, 5)),
                                              ((2, 3, 5), (2, 6, 5)), ((2, 2, 3, 5), None)])
def test_attention_equals_the_primitive_chain(q_shape, kv_shape, rng):
    # kv_shape None is self attention: the same tensor on both sides
    arrays = [rng.normal(size=q_shape)] + ([rng.normal(size=kv_shape)] if kv_shape else [])
    arrays += [rng.normal(size=(5, 3)), rng.normal(size=(5, 3)), rng.normal(size=(5, 4))]
    upstream = T.Tensor(rng.normal(size=q_shape[:-1] + (4,)))
    runs = []
    for build in (T.attention, _attention_chain):
        inputs = [T.Tensor(a, requires_grad=True) for a in arrays]
        x_q, x_kv, weights = inputs[0], inputs[-4], inputs[-3:]
        out = build(x_q, x_kv, *weights)
        scalarize(out, upstream.data).backward()
        runs.append((out, inputs))
    (fused, fused_inputs), (chain, chain_inputs) = runs
    assert fused.op == "attention" and np.array_equal(fused.data, chain.data)
    for f, c in zip(fused_inputs, chain_inputs):
        assert np.abs(f.grad - c.grad).max() <= 1e-15 * np.abs(c.grad).max()


@pytest.mark.parametrize("op,shapes,constant", [
    ("attention", [(2, 3, 5), (2, 4, 5), (5, 3), (5, 3), (5, 4)], {0}),
    ("attention", [(2, 3, 5), (2, 4, 5), (5, 3), (5, 3), (5, 4)], {1}),
    ("attention", [(2, 3, 5), (2, 4, 5), (5, 3), (5, 3), (5, 4)], {0, 2, 4}),
    ("matmul", [(2, 3, 4), (4, 5)], {0}),
    ("matmul", [(2, 3, 4), (2, 4, 5)], {1}),
])
def test_backward_gives_none_to_an_input_without_grad_and_keeps_the_rest(op, shapes, constant,
                                                                         rng):
    arrays = [rng.normal(size=shape) for shape in shapes]
    upstream = rng.normal(size=getattr(T, op)(*map(T.Tensor, arrays)).shape)
    runs = []
    for skipped in (set(), constant):
        inputs = [T.Tensor(a, requires_grad=i not in skipped) for i, a in enumerate(arrays)]
        out = getattr(T, op)(*inputs)
        scalarize(out, upstream).backward()
        runs.append((inputs, out._backprop(upstream)))
    (every, every_slots), (some, slots) = runs
    assert all(s is not None for s in every_slots)
    assert [i for i, s in enumerate(slots) if s is None] == sorted(constant)
    for i, (a, b) in enumerate(zip(every, some)):
        if i not in constant:
            assert np.array_equal(a.grad, b.grad) and np.array_equal(slots[i], every_slots[i])


def test_attention_matches_the_oracle_at_a_batched_shape(rng):
    x_q, x_kv = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 5, 4))
    wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
    out = T.attention(*map(T.Tensor, (x_q, x_kv, wq, wk, wv)))
    for i in range(3):
        assert np.allclose(out.data[i], attention_oracle(x_q[i], x_kv[i], wq, wk, wv), atol=1e-12)


def test_attention_refuses_bad_inputs():
    x, w = T.Tensor(np.ones((2, 3, 4))), T.Tensor(np.ones((4, 4)))
    cases = [
        ((T.Tensor(np.ones(4)), x, w, w, w), "expected at least 2 axes"),
        ((x, x, T.Tensor(np.ones((2, 4, 4))), w, w), "2-D weights"),
        ((x, T.Tensor(np.ones((3, 3, 4))), w, w, w), "leading axes disagree"),
        ((x, T.Tensor(np.ones((2, 3, 5))), w, w, w), "do not match the weights"),
        ((T.Tensor(np.ones((2, 3, 5))), x, w, w, w), "do not match the weights"),
        ((x, x, w, T.Tensor(np.ones((4, 3))), w), "do not match the weights"),
        ((x, T.Tensor(np.ones((2, 0, 4))), w, w, w), "the key/value side has no rows"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=f"^attention: .*{message}"):
            T.attention(*args)


def test_attention_overflow_raises_the_engine_error():
    # the projections overflow; the op checks only its output, which that turns to NaN
    x, w = T.Tensor([[1e200, 1e200]]), T.Tensor(np.full((2, 2), 1e200))
    with pytest.raises(T.NonFiniteError, match="'attention'"):
        T.attention(x, x, w, w, T.Tensor(np.eye(2)))


@pytest.mark.parametrize("op,build", [
    ("add", lambda: T.add(T.Tensor([[1e308]]), T.Tensor([[1e308]]))),
    ("scalar_mul", lambda: T.scalar_mul(T.Tensor([[2.0]]), 1e308)),
    ("mean_axis", lambda: T.mean_axis(T.Tensor([[1e308, 1e308]]), -1)),
])
def test_overflow_raises_the_engine_error_not_a_numpy_warning(op, build):
    # the suite turns warnings into errors, so a numpy RuntimeWarning would fail this test
    with pytest.raises(T.NonFiniteError, match=f"'{op}'"):
        build()


@pytest.mark.parametrize("build", [
    lambda: T.matmul(T.Tensor([[1e200]]), T.Tensor([[1e200]])),
    lambda: T.attention(*[T.Tensor(np.full((2, 2), 1e200))] * 4 + [T.Tensor(np.eye(2))]),
    lambda: T.add(T.Tensor([[1e308]]), T.Tensor([[1e308]])),
    lambda: T.scalar_mul(T.Tensor([[2.0]]), 1e308),
], ids=["matmul", "attention", "add", "scalar_mul"])
def test_overflow_under_unchecked_raises_the_numpy_flag(build):
    # the unchecked forward rests on this: a non-finite result from finite inputs raises a flag
    with pytest.raises(FloatingPointError, match="overflow"), T.unchecked():
        build()


def test_unchecked_restores_the_mode_and_errstate_after_an_exception():
    before = np.geterr()
    with pytest.raises(FloatingPointError), T.unchecked():
        assert not T._checked and np.geterr()["over"] == "raise"
        T.matmul(T.Tensor([[1e200]]), T.Tensor([[1e200]]))
    assert T._checked and np.geterr() == before
    with pytest.raises(T.NonFiniteError, match="'matmul'"):
        T.matmul(T.Tensor([[1e200]]), T.Tensor([[1e200]]))


def test_gradient_of_composite_expression(rng):
    # cosine-style composite touching most ops at once
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(6, 6))

    def build(ta, tb):
        prod = T.l2_normalize_rows(T.matmul(ta, tb))
        att = T.softmax_rows(T.matmul(prod, T.transpose(prod)), 3.0)
        centre = T.matmul(T.Tensor(np.ones((4, 1))), T.reshape(T.mean_axis(prod, 0), (1, 6)))
        mixed = T.add(T.matmul(att, prod), centre)
        return T.diagonal_nll(T.matmul(mixed, T.transpose(prod)), 1.0)

    ta = T.Tensor(a, requires_grad=True)
    tb = T.Tensor(b, requires_grad=True)
    build(ta, tb).backward()

    def value():
        return build(T.Tensor(a), T.Tensor(b)).item()

    assert max_rel_err(ta.grad, finite_diff(value, a)) < 1e-4
    assert max_rel_err(tb.grad, finite_diff(value, b)) < 1e-4


def test_no_grad_disables_recording(rng):
    x = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with T.no_grad():
        out = scalarize(x)
    assert not out.requires_grad
    out2 = scalarize(x)
    assert out2.requires_grad


def test_param_frozen_flag_and_reads_counter():
    p = T.Param("w", np.ones((2, 2)), frozen=True)
    assert not p.tensor.requires_grad
    assert p.reads == 1
    q = T.Param("v", np.ones((2, 2)))
    assert q.tensor.requires_grad
    scalarize(q.tensor).backward()
    assert q.grad is not None
    q.grad = None
    assert q.grad is None


def test_a_param_is_a_tensor_and_each_read_is_counted_once():
    p = T.Param("w", np.ones((2, 3)))
    assert isinstance(p, T.Tensor) and p.shape == (2, 3)
    for reads in (1, 2, 3):
        assert p.tensor is p
        assert p.reads == reads


def test_a_param_is_itself_the_leaf_its_loss_reaches():
    p, x = T.Param("w", np.ones((3, 2))), T.Tensor(np.ones((2, 3)))
    loss = scalarize(T.matmul(x, p.tensor))
    leaves = [node for node in graph_nodes(loss) if node._backprop is None and node.requires_grad]
    assert len(leaves) == 1 and leaves[0] is p
    loss.backward()
    assert np.array_equal(p.grad, np.full((3, 2), 2.0))


@pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
@pytest.mark.parametrize("values, error, message", [
    (np.full((2, 2), np.nan), T.NonFiniteError, "output of 'leaf'"),
    (np.full((2, 2), np.inf), T.NonFiniteError, "output of 'leaf'"),
    (np.zeros((2, 3)), ValueError, r"^w: cannot assign shape \(2, 3\) to \(2, 2\)$"),
    (np.zeros(4), ValueError, r"^w: cannot assign shape \(4,\) to \(2, 2\)$"),
], ids=["nan", "inf", "wider", "flat"])
def test_a_refused_assign_changes_nothing(frozen, values, error, message):
    p = T.Param("w", [[1.0, 2.0], [3.0, 4.0]], frozen=frozen)
    if not frozen:
        scalarize(p.tensor).backward()
    data, grad, version = p.data, p.grad, p.version
    with pytest.raises(error, match=message):
        p.assign(values)
    assert p.data is data and np.array_equal(data, [[1.0, 2.0], [3.0, 4.0]])
    assert p.grad is grad and p.version == version == 0
    assert p.requires_grad is not frozen and p.data.flags.writeable is not frozen


def test_version_counts_accepted_assigns_only():
    p = T.Param("w", np.zeros((2, 2)))
    scalarize(p.tensor).backward()
    assert p.version == 0 and p.grad is not None
    for values, version in [(np.ones((2, 2)), 1), (np.ones((1, 2)), 1), (np.full((2, 2), np.nan), 1),
                            (np.full((2, 2), 2.0), 2)]:
        try:
            p.assign(values)
        except (ValueError, T.NonFiniteError):
            pass
        assert p.version == version
    # an accepted assign installs a fresh copy with an empty gradient
    assert np.array_equal(p.data, np.full((2, 2), 2.0)) and p.grad is None


def test_matmul_leading_axes_must_match():
    with pytest.raises(ValueError, match="matmul: leading axes disagree"):
        T.matmul(T.Tensor(np.ones((2, 3, 4))), T.Tensor(np.ones((3, 4, 2))))
    # only a 2-D right operand is shared across leading axes
    with pytest.raises(ValueError, match="matmul: leading axes disagree"):
        T.matmul(T.Tensor(np.ones((3, 4))), T.Tensor(np.ones((2, 4, 2))))


def test_batched_ops_equal_their_2d_slices_bitwise(rng):
    a, b, w = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5, 2)), rng.normal(size=(5, 5))
    batched = [T.matmul(T.Tensor(a), T.Tensor(b)), T.matmul(T.Tensor(a), T.Tensor(w)),
               T.softmax_rows(T.Tensor(a), 1.0), T.l2_normalize_rows(T.Tensor(a)),
               T.transpose(T.Tensor(a)), T.mean_axis(T.Tensor(a), 1), T.first_row(T.Tensor(a))]
    for i in range(3):
        x = T.Tensor(a[i])
        single = [T.matmul(x, T.Tensor(b[i])), T.matmul(x, T.Tensor(w)), T.softmax_rows(x, 1.0),
                  T.l2_normalize_rows(x), T.transpose(x), T.mean_axis(x, 0), T.first_row(x)]
        for whole, part in zip(batched, single):
            assert np.array_equal(whole.data[i], part.data), whole.op


def test_concat_refuses_parts_that_differ_outside_the_row_axis():
    rows = T.Tensor(np.ones((2, 1, 4)))
    assert T.concat([rows, T.Tensor(np.ones((2, 3, 4)))]).shape == (2, 4, 4)
    for other in ((3, 1, 4), (2, 1, 5), (1, 4)):
        with pytest.raises(ValueError, match="concat: parts differ outside the row axis"):
            T.concat([rows, T.Tensor(np.ones(other))])
    with pytest.raises(ValueError, match="concat: expected at least 2 axes"):
        T.concat([T.Tensor(np.ones(4))])
    with pytest.raises(ValueError, match="concat: need at least one tensor"):
        T.concat([])


def test_reshape_checks_its_arguments():
    x = T.Tensor(np.ones((2, 3)))
    assert T.reshape(x, (3, 1, 2)).shape == (3, 1, 2)
    with pytest.raises(ValueError, match="reshape: cannot reshape"):
        T.reshape(x, (4, 2))


@pytest.mark.parametrize("table,ids,message", [
    ((4, 3), [0, -1], r"id -1 outside \[0, 4\)$"),  # numpy would wrap a negative id to the last row
    ((4, 3), [[1, 4]], r"id 4 outside \[0, 4\)$"),
    ((4, 3), [[1, 7], [-2, 4]], r"id 7 outside \[0, 4\)$"),  # the first in row-major order
    ((4, 3), [-3, 9], r"id -3 outside \[0, 4\)$"),
    ((4, 3), [0.0, 1.0], "integer ids"),
    ((4, 3), [True], "integer ids"),
    ((2, 4, 3), [0, 1], "2-D table"),
])
def test_take_rows_refuses_ids_it_cannot_read_and_tables_that_are_not_2d(table, ids, message):
    with pytest.raises(ValueError, match=f"^take_rows: .*{message}"):
        T.take_rows(T.Tensor(np.ones(table)), ids)


@pytest.mark.parametrize("shape", [(3,), (2, 0, 3)])
def test_first_row_refuses_what_has_no_rows(shape):
    with pytest.raises(ValueError, match="^first_row: expected matrices with rows"):
        T.first_row(T.Tensor(np.ones(shape)))


def test_take_rows_gradient_is_the_one_hot_product_bitwise(rng):
    # the gradient a one-hot `matmul` gives its table, repeated ids summing several rows
    table, ids = rng.normal(size=(7, 5)), rng.integers(0, 7, size=(16, 8))
    g = rng.normal(size=(16, 8, 5))
    gathered = T.Tensor(table, requires_grad=True)
    read = T.take_rows(gathered, ids)
    assert np.array_equal(read.data, table[ids])
    one_hot = T.Tensor(ids[..., None] == np.arange(7))
    product = T.matmul(one_hot, T.Tensor(table, requires_grad=True))
    assert np.array_equal(read._backprop(g)[0], product._backprop(g)[1])


def test_transpose_with_axes_permutes_them_and_refuses_what_is_not_a_permutation(rng):
    x = rng.normal(size=(2, 3, 4))
    assert np.array_equal(T.transpose(T.Tensor(x), (1, 2, 0)).data, x.transpose(1, 2, 0))
    assert np.array_equal(T.transpose(T.Tensor(x), (0, 2, 1)).data, T.transpose(T.Tensor(x)).data)
    for axes in ((0, 1), (0, 1, 1), (1, 2, 3), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match=r"^transpose: axes .* are not a permutation of the "
                                             r"axes of \(2, 3, 4\)$"):
            T.transpose(T.Tensor(x), axes)
