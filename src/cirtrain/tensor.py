"""Dense float64 tensors with reverse-mode automatic differentiation.

Shapes are explicit everywhere: `add`, the one elementwise op, demands
identical shapes, which keeps every gradient rule below auditable by eye.
Tensors may carry leading batch axes: at any rank the last two axes are a
matrix's rows and columns, which `transpose` (unless given a permutation of
all axes), `first_row`, `concat`, `softmax_rows` and `l2_normalize_rows` act
on, `mean_axis` takes any axis, and `matmul` pairs matrices over equal leading
axes.  Reductions drop the axis they reduce, as numpy's do: a pooled row of
(..., N, d) rows, by `mean_axis` or `first_row`, is (..., d).  There are two
broadcasts and no others: scalar times tensor, and a 2-D weight right of
`matmul` (applied to every matrix on the left; its gradient sums over the
leading axes).  A 2-D table is read by `take_rows`, a gather whose gradient
sums the rows each id read.  Every softmax owns the scale of its logits,
forward and backward: `softmax_rows` is given it, and two fused ops own
theirs: `diagonal_nll` takes the in-batch NLL at the temperature τ it is given
as one log-sum-exp op, and `attention` is a whole single-head attention block
at 1/√d.  Each op does its forward arithmetic under `np.errstate` and
validates its output, so a NaN or Inf fails loudly, as `NonFiniteError` rather
than a numpy warning, at the op that produced it instead of poisoning the
loss.  Inside `unchecked()` the ops skip both, under one errstate raising on
overflow, invalid and divide, the flags IEEE 754 raises wherever finite inputs
give a non-finite value; a product OpenBLAS may split across worker threads,
whose flags that errstate never sees, still has its output checked.

Memory policy: on glibc, importing this module fixes malloc's mmap threshold
at 32 MiB and its trim threshold at 64 MiB, where glibc's own dynamic rule
ends up once a 32 MiB mapped block is freed.  At the default 128 KiB trim
threshold each step handed its freed heap top back to the OS and faulted it
in again (about 175 minor faults a `train_matching` step and 1,300 a warm
eval pass), and a run was fast only if some earlier free had raised the
threshold.  The freed heap now stays in the process, for about 1% more peak
resident memory.
"""

from __future__ import annotations

import ctypes
import math
import os
from contextlib import contextmanager, nullcontext

import numpy as np

__all__ = [
    "NonFiniteError",
    "Tensor",
    "Param",
    "no_grad",
    "unchecked",
    "add",
    "scalar_mul",
    "matmul",
    "transpose",
    "mean_axis",
    "concat",
    "reshape",
    "take_rows",
    "first_row",
    "softmax_rows",
    "l2_normalize_rows",
    "diagonal_nll",
    "attention",
]

NORM_EPS = 1e-12
# OpenBLAS's gemm runs on the calling thread up to m·n·k = SMP_THRESHOLD_MIN (65536) times
# GEMM_MULTITHREAD_THRESHOLD (4)
BLAS_SINGLE_THREAD_MNK = 1 << 18


def _keep_freed_heap() -> bool:
    """Set the malloc thresholds the module docstring gives, on glibc; True once both hold."""
    try:
        if os.confstr("CS_GNU_LIBC_VERSION"):
            mallopt = ctypes.CDLL(None).mallopt  # M_MMAP_THRESHOLD is -3, M_TRIM_THRESHOLD -1
            return mallopt(-3, 32 << 20) == 1 and mallopt(-1, 64 << 20) == 1
    except (AttributeError, ValueError, OSError):
        pass
    return False


_keep_freed_heap()


class NonFiniteError(ArithmeticError):
    """Raised when an engine op produces NaN or Inf."""

    def __init__(self, op: str):
        super().__init__(f"non-finite values in output of '{op}'")
        self.op = op


_grad_enabled = True
_checked = True


@contextmanager
def no_grad():
    """Disable graph recording; forward values only (used by finite differences)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def unchecked():
    """Skip each op's finite check and errstate: one errstate raising on overflow, invalid and
    divide covers the block (`l2_normalize_rows` keeps its own norm check)."""
    global _checked
    prev, _checked = _checked, False
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            yield
    finally:
        _checked = prev


def _errstate(**kwargs):
    """An op's own `np.errstate`; none under `unchecked`, so that block's raising one holds."""
    return np.errstate(**kwargs) if _checked else nullcontext()


class Tensor:
    """A dense float64 array plus the bookkeeping reverse mode needs.

    `grad` is populated (and accumulated across backward calls) only on leaves
    with requires_grad=True, parameters and user-built inputs; an op's output keeps None.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf"):
        data = np.asarray(data, dtype=np.float64)
        if _checked and not np.isfinite(data).all():
            raise NonFiniteError(op)
        self.data = data
        self.requires_grad = requires_grad
        self.grad = None
        self.op = op
        self._parents = ()
        self._backprop = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def backward(self):
        """Populate grad on every requires_grad leaf reachable from this scalar loss.

        An intermediate gradient is dropped once its rule has run.  The rules run under one
        errstate ignoring overflow, invalid and divide: a non-finite gradient is a value that
        `Adam.step` refuses, never a numpy warning.  Grads accumulate across calls; clear
        them by setting grad = None between optimizer steps.  The walk keys nodes by the
        tensors themselves, which hash by identity (`Tensor` defines no `__eq__`).
        """
        if self.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {self.shape}")
        if not self.requires_grad:
            return

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p not in visited and p.requires_grad:
                    stack.append((p, False))

        running = {self: np.ones_like(self.data)}
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for node in reversed(topo):
                g = running.pop(node)
                if node._backprop is None:
                    node.grad = g if node.grad is None else node.grad + g
                    continue
                for parent, pg in zip(node._parents, node._backprop(g)):
                    if parent.requires_grad:
                        acc = running.get(parent)
                        running[parent] = pg if acc is None else acc + pg

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _result(data, parents, backprop, op: str) -> Tensor:
    """Wrap an op output, recording the graph edge only when an operand takes a gradient and
    grads can flow; each trainable `Param` operand counts one read, recorded or not."""
    track = False
    for p in parents:
        if p.requires_grad:
            track = True
            if p.__class__ is Param:  # an attribute test: no call, unlike isinstance
                p.reads += 1
    out = Tensor(data, requires_grad=_grad_enabled and track, op=op)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backprop = backprop
    return out


def _check_rows(x: Tensor, op: str):
    if x.data.ndim < 2:
        raise ValueError(f"{op}: expected at least 2 axes, got shape {x.shape}")


def _product(a: np.ndarray, b: np.ndarray, op: str) -> np.ndarray:
    """a @ b.  Inside `unchecked`, a product of m·n·k above 2^18, which OpenBLAS may split
    across worker threads, has its output checked: a worker's overflow sets no flag here."""
    out = a @ b
    if (not _checked and a.shape[-2] * a.shape[-1] * b.shape[-1] > BLAS_SINGLE_THREAD_MNK
            and not np.isfinite(out).all()):
        raise NonFiniteError(op)
    return out


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of a 2-D weight W in a @ W: aᵀ @ g summed over every leading axis."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, each row shifted by its max; call under np.errstate.

    A row spanning more than the float range overflows the shift to -inf, which exp maps to 0.
    The max runs down the columns of one transposed copy, as a last-axis max loops once per row:
    the copy wins on short rows, not on long ones as (4, 1000) or on square logits (`diagonal_nll`
    keeps its own).  A max's order sets no bit; the sum's pairwise order does from 8 entries on.
    """
    m = x.reshape(-1, x.shape[-1]).T.copy().max(axis=0).reshape(x.shape[:-1] + (1,))
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """dL/dx of y = softmax(x) given g = dL/dy: y * (g - sum_j g_j y_j) per row."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - dot)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
    with _errstate(over="ignore"):
        out_data = a.data + b.data
    return _result(out_data, (a, b), lambda g: (g, g), "add")


def scalar_mul(x: Tensor, c: float) -> Tensor:
    c = float(c)
    with _errstate(over="ignore", invalid="ignore"):
        out_data = x.data * c
    return _result(out_data, (x,), lambda g: (g * c,), "scalar_mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.

    The leading axes of `a` and `b` must be equal, or `b` is a 2-D weight
    applied to every matrix of `a`.
    """
    _check_rows(a, "matmul")
    _check_rows(b, "matmul")
    ad, bd = a.data, b.data
    if bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ValueError(f"matmul: leading axes disagree, {a.shape} @ {b.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ValueError(f"matmul: inner dimensions disagree, {a.shape} @ {b.shape}")
    with _errstate(over="ignore", invalid="ignore"):
        out_data = _product(ad, bd, "matmul")

    # d(sum g.C)/dA = g @ B^T, d/dB = A^T @ g; a shared weight sums A^T @ g over every matrix.
    # An operand that takes no gradient (a mask on the left) gets None, not a product.
    def back(g):
        ga = g @ bd.swapaxes(-1, -2) if a.requires_grad else None
        if not b.requires_grad:
            return ga, None
        return ga, _weight_grad(ad, g) if bd.ndim == 2 else ad.swapaxes(-1, -2) @ g

    return _result(out_data, (a, b), back, "matmul")


def transpose(x: Tensor, axes=None) -> Tensor:
    """Swap the last two axes; given `axes`, a permutation of every axis, permute them."""
    if axes is None:
        _check_rows(x, "transpose")
        axes = (*range(x.data.ndim - 2), x.data.ndim - 1, x.data.ndim - 2)
    elif sorted(axes) != list(range(x.data.ndim)):
        raise ValueError(f"transpose: axes {axes} are not a permutation of the axes of {x.shape}")
    return _result(x.data.transpose(axes).copy(), (x,), lambda g: (g.transpose(np.argsort(axes)),),
                   "transpose")


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """Mean over one axis, which the result drops."""
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ValueError(f"mean_axis: axis {axis} out of range for shape {x.shape}")
    n = x.shape[axis]
    with _errstate(over="ignore", invalid="ignore"):
        out_data = x.data.mean(axis=axis)

    def back(g):
        return (np.repeat(np.expand_dims(g, axis), n, axis=axis) / n,)

    return _result(out_data, (x,), back, "mean_axis")


def concat(parts) -> Tensor:
    """Join parts along the row axis (second-to-last), top to bottom.

    Every other axis, leading batch axes and columns alike, must agree.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("concat: need at least one tensor")
    for p in parts:
        _check_rows(p, "concat")
    if len({p.shape[:-2] + p.shape[-1:] for p in parts}) != 1:
        raise ValueError(f"concat: parts differ outside the row axis {[p.shape for p in parts]}")
    splits = np.cumsum([p.shape[-2] for p in parts[:-1]])
    return _result(np.concatenate([p.data for p in parts], axis=-2), parts,
                   lambda g: tuple(np.split(g, splits, axis=-2)), "concat")


def reshape(x: Tensor, shape: tuple) -> Tensor:
    """The same values, in row-major order, under a new shape."""
    shape = tuple(shape)
    if math.prod(shape) != x.data.size:
        raise ValueError(f"reshape: cannot reshape {x.shape} to {shape}")
    in_shape = x.shape
    return _result(x.data.reshape(shape), (x,), lambda g: (g.reshape(in_shape),), "reshape")


def take_rows(table: Tensor, ids) -> Tensor:
    """The rows of a 2-D table at integer `ids`, ids.shape + (d,); the gradient is the one-hot
    product `matmul` would give, the one-hot built only in the backward."""
    ids = np.asarray(ids)
    if table.data.ndim != 2 or ids.dtype.kind not in "iu":
        raise ValueError(f"take_rows: expected a 2-D table and integer ids, got shape {table.shape} "
                         f"and {ids.dtype} ids")
    n = table.shape[0]
    if (outside := (ids < 0) | (ids >= n)).any():
        raise ValueError(f"take_rows: id {ids[outside][0]} outside [0, {n})")

    def back(g):
        return (_weight_grad((ids[..., None] == np.arange(n)).astype(np.float64), g),)

    return _result(table.data[ids], (table,), back, "take_rows")


def first_row(x: Tensor) -> Tensor:
    """Row 0 of each matrix: (..., N, d) -> (..., d)."""
    if x.data.ndim < 2 or x.shape[-2] == 0:
        raise ValueError(f"first_row: expected matrices with rows, got shape {x.shape}")

    def back(g):
        full = np.zeros(x.shape)
        full[..., 0, :] = g
        return (full,)

    return _result(x.data[..., 0, :].copy(), (x,), back, "first_row")


def softmax_rows(x: Tensor, scale: float) -> Tensor:
    """Softmax over the last axis of the logits `x * scale`, each row shifted by its max."""
    _check_rows(x, "softmax_rows")
    if x.shape[-1] == 0:
        raise ValueError(f"softmax_rows: rows have no entries, got shape {x.shape}")
    with _errstate(over="ignore", invalid="ignore"):
        y = _softmax(x.data * scale)
    return _result(y, (x,), lambda g: (_softmax_grad(y, g) * scale,), "softmax_rows")


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale each last-axis row to unit L2 norm; rows with norm < 1e-12 pass through unchanged."""
    _check_rows(x, "l2_normalize_rows")
    # a row whose squares sum past the float range has an inf norm, which would divide it to 0
    with _errstate(over="ignore"):
        norms = np.linalg.norm(x.data, axis=-1, keepdims=True)
    if not np.isfinite(norms).all():
        raise NonFiniteError("l2_normalize_rows")
    degenerate = norms < NORM_EPS
    safe = np.where(degenerate, 1.0, norms)
    y = x.data / safe

    def back(g):
        # normal rows: (g - y * <g, y>) / norm; degenerate rows: identity
        dot = (g * y).sum(axis=-1, keepdims=True)
        gx = (g - y * dot) / safe
        return (np.where(degenerate, g, gx),)

    return _result(y, (x,), back, "l2_normalize_rows")


def diagonal_nll(x: Tensor, tau: float) -> Tensor:
    """1 x 1 mean of -log softmax(row i / tau)[i] over the rows i of a non-empty square matrix."""
    if x.data.ndim != 2 or not 0 < x.shape[0] == x.shape[1]:
        raise ValueError(f"diagonal_nll: expected a non-empty square matrix, got shape {x.shape}")
    if not tau > 0:
        raise ValueError(f"diagonal_nll: the temperature must be > 0, got {tau!r}")
    b, c = x.shape[0], 1.0 / tau
    # as in softmax_rows, an entry scaled below a finite row max weighs 0; a 1/tau, row max or
    # diagonal entry scaled, or a loss summed, past the float range gives a NaN or inf output
    with _errstate(over="ignore", invalid="ignore"):
        scaled = x.data * c
        shifted = scaled - scaled.max(axis=-1, keepdims=True)
        sums = np.exp(shifted).sum(axis=-1, keepdims=True)
        # each row's log-sum-exp minus its diagonal entry: >= 0, finite where the softmax underflows
        loss = (np.log(sums[:, 0]) - np.diagonal(shifted)).sum() / b

    def back(g):
        grad = np.exp(shifted) / sums  # g * (softmax - I) / (B tau)
        grad[np.diag_indices(b)] -= 1.0
        return (grad * (g.reshape(-1)[0] / b) * c,)

    return _result(np.array([[loss]]), (x,), back, "diagonal_nll")


def attention(x_q: Tensor, x_kv: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Single-head attention softmax((x_q wq)(x_kv wk)ᵀ/√d)(x_kv wv) as one op; d = wq's columns.

    `x_q` and `x_kv` share their leading axes (`x_q` may be `x_kv`); the three
    2-D weights apply to every matrix, their gradients summed over the leading
    axes as in `matmul`.  The forward repeats the values of the chain
    `matmul(softmax_rows(matmul(q, transpose(k)), 1/√d), v)` bit for bit.
    """
    xq, xkv = x_q.data, x_kv.data
    if xq.ndim < 2 or xkv.ndim < 2 or {wq.data.ndim, wk.data.ndim, wv.data.ndim} != {2}:
        raise ValueError(f"attention: expected at least 2 axes and 2-D weights, got shapes "
                         f"{x_q.shape}, {x_kv.shape} and {wq.shape}, {wk.shape}, {wv.shape}")
    if xq.shape[:-2] != xkv.shape[:-2]:
        raise ValueError(f"attention: leading axes disagree, {x_q.shape} vs {x_kv.shape}")
    if not (xq.shape[-1] == wq.shape[0] and xkv.shape[-1] == wk.shape[0] == wv.shape[0]
            and wq.shape[1] == wk.shape[1]):
        raise ValueError(f"attention: feature dims of {x_q.shape} and {x_kv.shape} do not match "
                         f"the weights {wq.shape}, {wk.shape}, {wv.shape}")
    if xkv.shape[-2] == 0:
        raise ValueError(f"attention: the key/value side has no rows, got shape {x_kv.shape}")
    c = 1.0 / math.sqrt(wq.shape[1])
    with _errstate(over="ignore", invalid="ignore"):
        q = _product(xq, wq.data, "attention")
        k, v = _product(xkv, wk.data, "attention"), _product(xkv, wv.data, "attention")
        kt = k.swapaxes(-1, -2).copy()  # contiguous, as `transpose` makes it: BLAS sums alike
        y = _softmax(_product(q, kt, "attention") * c)
        out_data = _product(y, v, "attention")

    # the chain's backward rules, in its order: the value product, softmax_rows at 1/√d,
    # the q kᵀ product and the three projections; an input that takes no gradient
    # (a frozen feature stack, a frozen weight) gets None instead of its projection
    def back(g):
        gl = _softmax_grad(y, g @ v.swapaxes(-1, -2)) * c
        gq = gl @ kt.swapaxes(-1, -2)
        gk = (q.swapaxes(-1, -2) @ gl).swapaxes(-1, -2)
        gv = y.swapaxes(-1, -2) @ g
        return (gq @ wq.data.T if x_q.requires_grad else None,
                gk @ wk.data.T + gv @ wv.data.T if x_kv.requires_grad else None,
                _weight_grad(xq, gq) if wq.requires_grad else None,
                _weight_grad(xkv, gk) if wk.requires_grad else None,
                _weight_grad(xkv, gv) if wv.requires_grad else None)

    return _result(out_data, (x_q, x_kv, wq, wk, wv), back, "attention")


class Param(Tensor):
    """A named leaf tensor with a frozen flag, a read counter and a version.

    Ops record the param itself, so backward leaves its gradient there.  Frozen
    params opt out of the graph (requires_grad=False), so the optimizer and
    gradient checks skip them by flag alone.  A frozen param's array is
    read-only: `assign` is its one writer and counts up `version`, so whoever
    keeps results computed from older values (the image encoders' memo) sees
    that they are stale.  Trainable arrays stay writable for the optimizer and
    finite differences.  `reads` counts each op operand that is this trainable
    param, recorded or not (`no_grad`, `unchecked`), so tests can assert that
    inference never touches training-only params; a frozen param reads 0.
    """

    __slots__ = ("name", "frozen", "reads", "version")

    def __init__(self, name: str, values, frozen: bool = False):
        self.name, self.frozen, self.reads, self.version = name, frozen, 0, -1
        self.assign(values)

    def assign(self, values):
        """Re-initialise this leaf with a float64 copy of `values`, of its shape once it has one,
        and count up `version` (0 after construction); its grad starts empty, and a frozen
        param's copy is read-only.  A refused shape or non-finite value changes nothing."""
        data = np.array(values, dtype=np.float64)
        if self.version >= 0 and data.shape != self.shape:
            raise ValueError(f"{self.name}: cannot assign shape {data.shape} to {self.shape}")
        if not np.isfinite(data).all():  # refused inside `unchecked` too
            raise NonFiniteError("leaf")
        data.flags.writeable = not self.frozen
        super().__init__(data, requires_grad=not self.frozen)
        self.version += 1

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.shape}, frozen={self.frozen})"
