"""Dense float64 tensors with reverse-mode automatic differentiation.

Shapes are explicit everywhere: elementwise ops demand identical shapes and
the only broadcasting is scalar-times-tensor, which keeps every gradient
rule below auditable by eye.  Each op validates its output, so a NaN or Inf
fails loudly at the op that produced it instead of poisoning the loss.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "NonFiniteError",
    "Tensor",
    "Param",
    "no_grad",
    "add",
    "mul",
    "scalar_mul",
    "matmul",
    "transpose",
    "log",
    "sum_all",
    "mean_axis",
    "concat",
    "slice_rows",
    "softmax_rows",
    "l2_normalize_rows",
    "backward",
]

NORM_EPS = 1e-12


class NonFiniteError(ArithmeticError):
    """Raised when an engine op produces NaN or Inf."""

    def __init__(self, op: str):
        super().__init__(f"non-finite values in output of '{op}'")
        self.op = op


_grad_enabled = True


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


class Tensor:
    """A dense float64 array plus the bookkeeping reverse mode needs.

    `grad` is populated (and accumulated across backward calls) only for
    tensors created with requires_grad=True or derived from one.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.isfinite(self.data).all():
            raise NonFiniteError(op)
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
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _result(data, parents, backprop, op: str) -> Tensor:
    """Wrap an op output, recording the graph edge only when grads can flow."""
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track, op=op)
    if track:
        out._parents = tuple(parents)
        out._backprop = backprop
    return out


def _check_2d(x: Tensor, op: str):
    if x.data.ndim != 2:
        raise ValueError(f"{op}: expected a 2-D tensor, got shape {x.shape}")


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _result(a.data + b.data, (a, b), lambda g: (g, g), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    return _result(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data), "mul")


def scalar_mul(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(x.data * c, (x,), lambda g: (g * c,), "scalar_mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_2d(a, "matmul")
    _check_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree, {a.shape} @ {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out_data = a.data @ b.data
    # d(sum g.C)/dA = g @ B^T, d/dB = A^T @ g
    return _result(out_data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g), "matmul")


def transpose(x: Tensor) -> Tensor:
    _check_2d(x, "transpose")
    return _result(x.data.T.copy(), (x,), lambda g: (g.T,), "transpose")


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(x.data)
    return _result(out_data, (x,), lambda g: (g / x.data,), "log")


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape

    def back(g):
        return (np.full(shape, g.reshape(-1)[0]),)

    return _result(np.array([[x.data.sum()]]), (x,), back, "sum_all")


def mean_axis(x: Tensor, axis: int) -> Tensor:
    _check_2d(x, "mean_axis")
    if axis not in (0, 1):
        raise ValueError(f"mean_axis: axis must be 0 or 1, got {axis}")
    n = x.shape[axis]

    def back(g):
        return (np.repeat(g, n, axis=axis) / n,)

    return _result(x.data.mean(axis=axis, keepdims=True), (x,), back, "mean_axis")


def concat(parts, axis: int) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ValueError("concat: need at least one tensor")
    if axis not in (0, 1):
        raise ValueError(f"concat: axis must be 0 or 1, got {axis}")
    for p in parts:
        _check_2d(p, "concat")
    other = 1 - axis
    if len({p.shape[other] for p in parts}) != 1:
        raise ValueError(f"concat: mismatched shapes along axis {other}")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        if axis == 0:
            return tuple(g[offsets[i]:offsets[i + 1], :] for i in range(len(sizes)))
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return _result(np.concatenate([p.data for p in parts], axis=axis), parts, back, "concat")


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    _check_2d(x, "slice_rows")
    m = x.shape[0]
    if not (0 <= start < stop <= m):
        raise ValueError(f"slice_rows: invalid range [{start}, {stop}) for {m} rows")
    shape = x.data.shape

    def back(g):
        full = np.zeros(shape)
        full[start:stop, :] = g
        return (full,)

    return _result(x.data[start:stop, :].copy(), (x,), back, "slice_rows")


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with per-row max subtraction for overflow safety."""
    _check_2d(x, "softmax_rows")
    if x.shape[1] == 0:
        raise ValueError(f"softmax_rows: rows have no entries, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def back(g):
        # dL/dx = y * (g - sum_j g_j y_j) per row
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return _result(y, (x,), back, "softmax_rows")


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale each row to unit L2 norm; rows with norm < 1e-12 pass through unchanged."""
    _check_2d(x, "l2_normalize_rows")
    norms = np.linalg.norm(x.data, axis=1, keepdims=True)
    degenerate = norms < NORM_EPS
    safe = np.where(degenerate, 1.0, norms)
    y = x.data / safe

    def back(g):
        # normal rows: (g - y * <g, y>) / norm; degenerate rows: identity
        dot = (g * y).sum(axis=1, keepdims=True)
        gx = (g - y * dot) / safe
        return (np.where(degenerate, g, gx),)

    return _result(y, (x,), back, "l2_normalize_rows")


def backward(loss: Tensor):
    """Populate grad on every requires_grad tensor reachable from a scalar loss.

    Grads accumulate across calls; clear them via Param.zero_grad (or set
    tensor.grad = None) between optimizer steps.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    running = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = running.pop(id(node), None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        if node._backprop is None:
            continue
        parent_grads = node._backprop(g)
        for parent, pg in zip(node._parents, parent_grads):
            if not parent.requires_grad or pg is None:
                continue
            acc = running.get(id(parent))
            running[id(parent)] = pg if acc is None else acc + pg


class Param:
    """A named, shaped, trainable array with a gradient buffer and frozen flag.

    Frozen params opt out of the graph entirely (requires_grad=False), so the
    optimizer and gradient checks can skip them by flag alone.  The `reads`
    counter ticks on every forward access, which lets tests assert that the
    inference path never touches training-only parameters.
    """

    def __init__(self, name: str, values, frozen: bool = False):
        self.name = name
        self.frozen = frozen
        self.reads = 0
        self._tensor = Tensor(np.array(values, dtype=np.float64), requires_grad=not frozen)

    @property
    def tensor(self) -> Tensor:
        self.reads += 1
        return self._tensor

    @property
    def data(self) -> np.ndarray:
        return self._tensor.data

    @property
    def grad(self):
        return self._tensor.grad

    @property
    def shape(self) -> tuple:
        return self._tensor.shape

    def zero_grad(self):
        self._tensor.grad = None

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.shape}, frozen={self.frozen})"
