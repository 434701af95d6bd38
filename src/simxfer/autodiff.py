"""Reverse-mode automatic differentiation over dense float64 tensors.

Inside ``with Tape():`` each primitive application is recorded as a node
(op kind, inputs, output, saved activations); with no tape open nothing
is recorded, so forward-only passes keep no graph.  ``backward`` walks
the nodes in reverse, keying adjoints by the tensor objects, and returns
the gradients of the trainable leaves; it skips every node that no
trainable leaf feeds.  Tensors hold no reference to a tape, so a tape and
everything it saved is freed as soon as the caller drops it.

A trainable matrix reached only through ``lookup_rows`` gets a
``RowSparse`` gradient: the sorted rows the lookups read and one adjoint
row each, so a step costs the rows a batch touches, not the whole matrix.
Its rows are bitwise those of the dense gradient; every other row of that
is 0.  A matrix that also feeds a dense primitive gets the dense sum.

Each primitive kind is one ``_KERNELS`` entry, its (forward, backward)
kernel pair, which applying and differentiating both read.

Primitives act on a leading batch axis: ``add``, ``subtract`` and
``elementwise_multiply`` broadcast (a bias vector against a batch of rows),
``softmax`` and ``cosine`` work along the last axis, and ``concat``,
``stack``, ``select_row`` and the axis reductions accept any rank.  So one
graph serves one vector or a whole batch of rows.  ``bilstm`` is one node
for a whole bidirectional LSTM over T x d or T x n x d token vectors; its
kernels hold the recurrence and its backpropagation through time, with
the arithmetic of the same LSTM built from the other primitives.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

NORM_GUARD = 1e-12  # zero-norm guard for cosine


class Tensor:
    """Dense float64 ndarray ``values``; ``backward`` returns gradients of trainable leaves."""

    __slots__ = ("values", "trainable", "name", "degenerate")

    def __init__(self, values, trainable: bool = False, name: str | None = None):
        arr = np.asarray(values, dtype=np.float64)
        self.values = arr
        self.trainable = trainable
        self.name = name
        self.degenerate = False  # set by cosine when both norms vanish

    @classmethod
    def _wrap(cls, arr) -> "Tensor":
        """Internal fast constructor for kernel outputs (already float64)."""
        t = cls.__new__(cls)
        t.values = arr if isinstance(arr, np.ndarray) else np.asarray(arr)
        t.trainable = False
        t.name = None
        t.degenerate = False
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __repr__(self) -> str:
        return f"Tensor({self.name or 'unnamed'}, shape={self.shape}, trainable={self.trainable})"


class RowSparse:
    """Gradient of a matrix that is zero outside ``rows``.

    ``rows`` are sorted and unique; ``values[i]`` is the gradient of row
    ``rows[i]`` of a matrix of ``shape``.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple[int, ...]):
        self.rows = rows
        self.values = values
        self.shape = shape

    def on_rows(self, rows: np.ndarray) -> np.ndarray:
        """The values on ``rows``, a sorted superset of ``self.rows``; 0 on the others."""
        out = np.zeros((len(rows),) + self.shape[1:])
        out[np.searchsorted(rows, self.rows)] = self.values
        return out

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows] = self.values
        return out

    def __add__(self, other: "RowSparse") -> "RowSparse":
        """The sum over the union of both row sets, in the order dense addition takes."""
        rows = np.union1d(self.rows, other.rows)
        values = self.on_rows(rows)
        values[np.searchsorted(rows, other.rows)] += other.values
        return RowSparse(rows, values, self.shape)


def dense(grad) -> np.ndarray:
    """A gradient as a dense array (``RowSparse`` scattered into zeros)."""
    return grad.dense() if isinstance(grad, RowSparse) else grad


class TapeNode:
    """One recorded primitive application."""

    __slots__ = ("kind", "inputs", "output", "attrs", "saved")

    def __init__(self, kind, inputs, output, attrs=None, saved=None):
        self.kind = kind
        self.inputs = tuple(inputs)
        self.output = output
        self.attrs = attrs or {}
        self.saved = saved or {}


_TAPES: list["Tape"] = []  # the active-tape stack; the innermost tape records


class Tape:
    """Ordered record of primitive applications."""

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        assert popped is self


# ---------------------------------------------------------------------------
# forward kernels: fn(values, attrs) -> (output ndarray, saved dict)
# backward kernels: fn(node, out_grad) -> tuple of input adjoints (None = skip)
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an adjoint over the axes along which an input of ``shape`` was broadcast."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def _numpy_kernel(op: str, fn: Callable) -> Callable:
    """Forward kernel ``fn(*arrays, **attrs)``; numpy's shape errors become ShapeError."""
    def forward(values, attrs):
        try:
            return fn(*values, **attrs), {}
        except ValueError:
            raise ShapeError(op, *(v.shape for v in values)) from None
    return forward


def _fwd_matmul(values, attrs):
    a, b = values
    if a.ndim == 0 or b.ndim == 0 or a.ndim > 2 or b.ndim > 2:
        raise ShapeError("matmul", a.shape, b.shape, detail="operands must be 1-D or 2-D")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    return np.matmul(a, b), {}


def _matmul_adjoints(a, b, g):
    """Adjoints of ``a @ b`` for 1-D or 2-D operands, given the output adjoint ``g``."""
    if a.ndim == 1 and b.ndim == 1:  # dot -> scalar
        return g * b, g * a
    if a.ndim == 2 and b.ndim == 1:  # (m,n)@(n,) -> (m,)
        return np.outer(g, b), a.T @ g
    if a.ndim == 1 and b.ndim == 2:  # (n,)@(n,p) -> (p,)
        return b @ g, np.outer(a, g)
    return g @ b.T, a.T @ g


def _bwd_matmul(node, g):
    return _matmul_adjoints(*(t.values for t in node.inputs), g)


def _bwd_add(node, g):
    a, b = node.inputs
    return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)


def _bwd_subtract(node, g):
    a, b = node.inputs
    return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)


def _bwd_multiply(node, g):
    a, b = (t.values for t in node.inputs)
    return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)


def _bwd_absolute(node, g):
    return (g * np.sign(node.inputs[0].values),)


def _sigmoid(a: np.ndarray) -> np.ndarray:
    # clamp keeps exp within float64 range; saturation is unaffected
    return 1.0 / (1.0 + np.exp(-np.clip(a, -709.0, 709.0)))


def _fwd_sigmoid(values, attrs):
    return _sigmoid(values[0]), {}


def _bwd_sigmoid(node, g):
    s = node.output.values
    return (g * s * (1.0 - s),)


def _bwd_tanh(node, g):
    t = node.output.values
    return (g * (1.0 - t * t),)


def _bwd_transpose(node, g):
    return (g.T,)


def _bwd_concat(node, g):
    axis = node.attrs["axis"]
    ends = np.cumsum([t.values.shape[axis] for t in node.inputs])
    return tuple(np.split(g, ends[:-1], axis=axis))


def _bwd_stack(node, g):
    return tuple(g[i] for i in range(len(node.inputs)))


def _fwd_select_row(values, attrs):
    (a,) = values
    row = attrs["row"]
    if a.ndim == 0 or not (0 <= row < a.shape[0]):
        raise ShapeError("select_row", a.shape, detail=f"row {row}")
    return a[row].copy(), {}


def _bwd_select_row(node, g):
    out = np.zeros_like(node.inputs[0].values)
    out[node.attrs["row"]] = g
    return (out,)


def _fwd_lookup(values, attrs):
    (m,) = values
    idx = attrs["indices"]
    if m.ndim != 2:
        raise ShapeError("lookup", m.shape, detail="matrix must be 2-D")
    return m[idx], {}


def _bwd_lookup(node, g):
    matrix = node.inputs[0]
    indices = node.attrs["indices"]
    if not matrix.trainable:  # a gathered intermediate: small and dense
        out = np.zeros_like(matrix.values)
        np.add.at(out, indices, g)
        return (out,)
    # a trainable leaf: coalesce repeated rows in the np.add.at order of the dense adjoint
    rows, inverse = np.unique(indices, return_inverse=True)
    values = np.zeros((len(rows),) + matrix.shape[1:])
    np.add.at(values, inverse.reshape(indices.shape), g)
    return (RowSparse(rows, values, matrix.shape),)


def _check_axis(op: str, a: np.ndarray, axis: int) -> None:
    if a.ndim == 0 or axis not in range(a.ndim):
        raise ShapeError(op, a.shape, detail=f"axis {axis}")


def _fwd_mean(values, attrs):
    (a,) = values
    axis = attrs["axis"]
    _check_axis("mean_over_axis", a, axis)
    return a.mean(axis=axis), {}


def _bwd_mean(node, g):
    a = node.inputs[0].values
    axis = node.attrs["axis"]
    n = a.shape[axis]
    return (np.broadcast_to(np.expand_dims(g, axis), a.shape) / n,)


def _fwd_max(values, attrs):
    (a,) = values
    axis = attrs["axis"]
    _check_axis("max_over_axis", a, axis)
    return a.max(axis=axis), {"argmax": a.argmax(axis=axis)}


def _bwd_max(node, g):
    axis = node.attrs["axis"]
    out = np.zeros_like(node.inputs[0].values)
    np.put_along_axis(out, np.expand_dims(node.saved["argmax"], axis),
                      np.expand_dims(g, axis), axis)
    return (out,)


def _fwd_softmax(values, attrs):
    (a,) = values
    if a.ndim == 0:
        raise ShapeError("softmax", a.shape, detail="input must have a last axis")
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True), {}


def _bwd_softmax(node, g):
    s = node.output.values
    return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)


def _bwd_scale(node, g):
    return (g * node.attrs["factor"],)


def _fwd_log(values, attrs):
    (a,) = values
    if np.any(a <= 0):
        raise NumericError("log: input has non-positive entries")
    return np.log(a), {}


def _bwd_log(node, g):
    return (g / node.inputs[0].values,)


def _fwd_cosine(values, attrs):
    u, v = values
    if u.ndim == 0 or u.shape != v.shape:
        raise ShapeError("cosine", u.shape, v.shape)
    nu = np.linalg.norm(u, axis=-1)
    nv = np.linalg.norm(v, axis=-1)
    degenerate = (nu < NORM_GUARD) & (nv < NORM_GUARD)
    du = np.maximum(nu, NORM_GUARD)
    dv = np.maximum(nv, NORM_GUARD)
    out = np.where(degenerate, 0.0, (u * v).sum(axis=-1) / (du * dv))
    return out, {"degenerate": degenerate, "nu": nu, "nv": nv}


def _bwd_cosine(node, g):
    u, v = (t.values for t in node.inputs)
    nu, nv = node.saved["nu"][..., None], node.saved["nv"][..., None]
    du = np.maximum(nu, NORM_GUARD)
    dv = np.maximum(nv, NORM_GUARD)
    c = node.output.values[..., None]
    # norm factors pinned at the guard contribute no gradient through the norm
    gu = v / (du * dv) - np.where(nu >= NORM_GUARD, c * u / (du * du), 0.0)
    gv = u / (du * dv) - np.where(nv >= NORM_GUARD, c * v / (dv * dv), 0.0)
    g = np.where(node.saved["degenerate"], 0.0, g)[..., None]
    return g * gu, g * gv


# bilstm: one length group's bidirectional LSTM recurrence as one node.  Each
# direction's 12 tensors are W (h x d), U (h x h) and b (h) of the input,
# forget and output gates and the candidate, in that order.  The forward pass
# runs, per gate and step, the numpy operations of the same LSTM built gate by
# gate from the other primitives (``tests/oracles.py::tape_bilstm_states``:
# transposes, matmul, add, sigmoid/tanh, multiply) in its order; the backward
# pass adds every adjoint in the order that graph's reverse walk adds it.  So
# both are bitwise those of the gate-by-gate graph, save that a bias read by
# several bilstm nodes gets one partial sum per node, where that graph kept
# one running sum over all of them.


def _fwd_bilstm(values, attrs):
    # C-contiguous steps, so each step's matmuls take the BLAS path they take on a row copy
    tokens, params = np.ascontiguousarray(values[0]), values[1:]
    h = params[8].shape[0] if len(params) == 24 and params[8].ndim == 1 else None
    d = tokens.shape[-1] if tokens.ndim in (2, 3) and len(tokens) else None
    shapes = [p.shape for p in params]
    if shapes != ([(h, d)] * 4 + [(h, h)] * 4 + [(h,)] * 4) * 2:
        raise ShapeError("bilstm", tokens.shape, *dict.fromkeys(shapes),
                         detail="tokens T x d or T x n x d with T >= 1; per direction "
                                "4 W of h x d, 4 U of h x h, 4 b of h")
    xs = list(tokens)
    fw = _lstm_steps(xs, params[:12])
    bw = _lstm_steps(xs[::-1], params[12:])
    states = (np.stack([step[-1] for step in fw]), np.stack([step[-1] for step in bw[::-1]]))
    return np.concatenate(states, axis=-1), {"fw": fw, "bw": bw}


def _lstm_steps(xs, params):
    """One direction over the step inputs ``xs`` in order, from a zero state:
    per step (x, h_prev, c_prev, i, f, o, g, tanh c, h)."""
    w, u, b = params[:4], params[4:8], params[8:]
    h = np.zeros(xs[0].shape[:-1] + u[0].shape[:1])
    c = np.zeros(h.shape)
    steps = []
    for x in xs:
        pre = [(x @ wk.T + h @ uk.T) + bk for wk, uk, bk in zip(w, u, b)]
        i, f, o = (_sigmoid(p) for p in pre[:3])
        g = np.tanh(pre[3])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        steps.append((x, h, c, i, f, o, g, tc, h_new))
        h, c = h_new, c_new
    return steps


def _lstm_steps_backward(steps, params, g_out, dxs):
    """One direction's 12 tensor adjoints from its per-step state adjoints
    ``g_out``; adds each step input's adjoint into ``dxs`` (None = none yet)."""
    w, u, b = params[:4], params[4:8], params[8:]
    dw, du, db = [None] * 4, [None] * 4, [None] * 4
    dh, dc = g_out[-1], None
    for s in range(len(steps) - 1, -1, -1):
        x, h_prev, c_prev, i, f, o, g, tc, _ = steps[s]
        dc_tanh = dh * o * (1.0 - tc * tc)
        dc = dc_tanh if dc is None else dc + dc_tanh
        d_pre = (dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                 dh * tc * o * (1.0 - o), dc * i * (1.0 - g * g))
        dh = g_out[s - 1] if s else None  # the zero initial state gets no adjoint
        for k in (3, 2, 1, 0):  # candidate first: the reverse of recording order
            dp = d_pre[k]
            db_k = _unbroadcast(dp, b[k].shape)
            dh_k, du_k = _matmul_adjoints(h_prev, u[k].T, dp)
            dx_k, dw_k = _matmul_adjoints(x, w[k].T, dp)
            db[k] = db_k if db[k] is None else db[k] + db_k
            du[k] = du_k if du[k] is None else du[k] + du_k
            dw[k] = dw_k if dw[k] is None else dw[k] + dw_k
            dxs[s] = dx_k if dxs[s] is None else dxs[s] + dx_k
            if dh is not None:
                dh = dh + dh_k
        dc = dc * f
    return [m.T for m in dw] + [m.T for m in du] + db


def _bwd_bilstm(node, g):
    params = [t.values for t in node.inputs[1:]]
    h = params[4].shape[0]
    dxs = [None] * len(node.saved["fw"])
    # the gate-by-gate graph records the backward direction last, so its
    # reverse walk reaches it first
    grads_bw = _lstm_steps_backward(node.saved["bw"], params[12:], g[..., h:][::-1], dxs)
    dxs.reverse()
    grads_fw = _lstm_steps_backward(node.saved["fw"], params[:12], g[..., :h], dxs)
    return (np.stack(dxs), *grads_fw, *grads_bw)


_KERNELS: dict[str, tuple[Callable, Callable]] = {  # kind -> (forward, backward)
    "matmul": (_fwd_matmul, _bwd_matmul),
    "add": (_numpy_kernel("add", np.add), _bwd_add),
    "subtract": (_numpy_kernel("subtract", np.subtract), _bwd_subtract),
    "elementwise_multiply": (_numpy_kernel("elementwise_multiply", np.multiply), _bwd_multiply),
    "absolute": (_numpy_kernel("absolute", np.abs), _bwd_absolute),
    "sigmoid": (_fwd_sigmoid, _bwd_sigmoid),
    "tanh": (_numpy_kernel("tanh", np.tanh), _bwd_tanh),
    "transpose": (_numpy_kernel("transpose", np.transpose), _bwd_transpose),
    "concat": (_numpy_kernel("concat", lambda *parts, axis: np.concatenate(parts, axis=axis)),
               _bwd_concat),
    "stack": (_numpy_kernel("stack", lambda *rows: np.stack(rows)), _bwd_stack),
    "select_row": (_fwd_select_row, _bwd_select_row),
    "lookup": (_fwd_lookup, _bwd_lookup),
    "mean_over_axis": (_fwd_mean, _bwd_mean),
    "max_over_axis": (_fwd_max, _bwd_max),
    "softmax": (_fwd_softmax, _bwd_softmax),
    "scale": (_numpy_kernel("scale", lambda a, factor: a * factor), _bwd_scale),
    "log": (_fwd_log, _bwd_log),
    "cosine": (_fwd_cosine, _bwd_cosine),
    "bilstm": (_fwd_bilstm, _bwd_bilstm),
}


_NO_ATTRS: dict = {}


def _apply(kind: str, inputs: Sequence[Tensor], attrs: dict | None = None) -> Tensor:
    if attrs is None:
        attrs = _NO_ATTRS
    tensors = [x if isinstance(x, Tensor) else Tensor(x) for x in inputs]
    out_values, saved = _KERNELS[kind][0]([t.values for t in tensors], attrs)
    out = Tensor._wrap(out_values)
    if kind == "cosine" and saved["degenerate"].any():
        out.degenerate = True
    if _TAPES:
        _TAPES[-1].nodes.append(TapeNode(kind, tensors, out, attrs=attrs, saved=saved))
    return out


# Named wrappers used throughout the package.


def matmul(a, b) -> Tensor:
    return _apply("matmul", (a, b))


def add(a, b) -> Tensor:
    return _apply("add", (a, b))


def subtract(a, b) -> Tensor:
    return _apply("subtract", (a, b))


def elementwise_multiply(a, b) -> Tensor:
    return _apply("elementwise_multiply", (a, b))


def absolute(a) -> Tensor:
    return _apply("absolute", (a,))


def sigmoid(a) -> Tensor:
    return _apply("sigmoid", (a,))


def tanh(a) -> Tensor:
    return _apply("tanh", (a,))


def transpose(a) -> Tensor:
    """Reverse the axes (a matrix transpose for 2-D input)."""
    return _apply("transpose", (a,))


def concat(parts: Iterable[Tensor], axis: int = -1) -> Tensor:
    return _apply("concat", tuple(parts), {"axis": int(axis)})


def stack(rows: Iterable[Tensor]) -> Tensor:
    return _apply("stack", tuple(rows))


def select_row(a, row: int) -> Tensor:
    return _apply("select_row", (a,), {"row": int(row)})


def lookup_rows(matrix, indices: Sequence[int]) -> Tensor:
    return _apply("lookup", (matrix,), {"indices": np.asarray(indices, dtype=np.intp)})


def mean_over_axis(a, axis: int = 0) -> Tensor:
    return _apply("mean_over_axis", (a,), {"axis": int(axis)})


def max_over_axis(a, axis: int = 0) -> Tensor:
    return _apply("max_over_axis", (a,), {"axis": int(axis)})


def softmax(a) -> Tensor:
    return _apply("softmax", (a,))


def scale(a, factor: float) -> Tensor:
    return _apply("scale", (a,), {"factor": float(factor)})


def log(a) -> Tensor:
    return _apply("log", (a,))


def cosine(u, v) -> Tensor:
    """Cosine similarity along the last axis, guarded against zero norms.

    Two vectors give a scalar; two n x d batches give n cosines.  A row
    whose two norms are both below the guard yields 0 instead of NaN, and
    marks the output ``degenerate``, so all-OOV sentences cannot poison
    training.
    """
    return _apply("cosine", (u, v))


def bilstm(tokens, forward: Sequence[Tensor], backward: Sequence[Tensor]) -> Tensor:
    """Per-step states [forward; backward] of a bidirectional LSTM.

    ``tokens`` is T x d (one sentence) or T x n x d (n sentences of equal
    length).  ``forward`` and ``backward`` are each direction's 12 tensors:
    W (h x d), U (h x h) and b (h) of the input, forget and output gates
    (sigmoid) and the candidate (tanh), in that order.  Returns T x 2h or
    T x n x 2h: step t holds the forward state after reading tokens 0..t
    and the backward state after reading tokens T-1 down to t.
    """
    return _apply("bilstm", (tokens, *forward, *backward))


def _add_adjoints(a, b):
    """a + b; row-sparse adjoints stay row-sparse unless one of them is dense."""
    if isinstance(a, RowSparse) and isinstance(b, RowSparse):
        return a + b
    # plain + (never in place): adjoint arrays may be shared with kernel
    # outputs and must not be mutated
    return dense(a) + dense(b)


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray | RowSparse]:
    """Reverse accumulation from a scalar loss recorded on the tape.

    Returns ``{leaf: gradient}`` for every trainable leaf the loss
    reaches; non-trainable leaves get none.  A leaf reached only through
    ``lookup_rows`` gets a ``RowSparse`` gradient over the union of the
    rows its lookups read; one that also feeds a dense primitive gets a
    dense array, bitwise the same sum.  Nodes that no trainable leaf feeds
    are skipped, so a frozen input costs no adjoint.  Callers must not
    mutate the returned arrays: they may be shared with kernel outputs and
    with each other.
    """
    if loss.values.ndim != 0:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not any(node.output is loss for node in reversed(tape.nodes)):
        raise ContractError("loss was not produced on the given tape")
    fed = set()  # node outputs that depend on a trainable leaf
    for node in tape.nodes:
        if any(t.trainable or t in fed for t in node.inputs):
            fed.add(node.output)
    adjoints: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.values)}
    for node in reversed(tape.nodes):
        if node.output not in fed:
            continue
        g = adjoints.get(node.output)
        if g is None:
            continue
        input_grads = _KERNELS[node.kind][1](node, g)
        for tensor, grad in zip(node.inputs, input_grads):
            if grad is None or not (tensor.trainable or tensor in fed):
                continue
            if tensor in adjoints:
                adjoints[tensor] = _add_adjoints(adjoints[tensor], grad)
            elif isinstance(grad, RowSparse):
                adjoints[tensor] = grad
            else:
                adjoints[tensor] = np.asarray(grad, dtype=np.float64)
    return {t: g for t, g in adjoints.items() if t.trainable and t not in fed}  # leaves only


def grad_check(fn: Callable[[], Tensor], params: Sequence[Tensor], step: float = 1e-5) -> float:
    """Compare reverse-mode gradients of ``fn`` against central differences.

    ``fn`` builds its computation from scratch each call and returns a
    scalar Tensor; it runs once on a tape for the analytic gradient and
    with no tape for each probe.  Returns the maximum relative error over
    every coordinate of every parameter, with denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    if step <= 0:
        raise ContractError("step must be positive")
    with Tape() as tape:
        loss = fn()
    if not np.isfinite(loss.values):
        raise NumericError("grad_check: function value is not finite")
    grads = backward(tape, loss)
    for p in params:
        if not p.trainable:
            raise ContractError(f"grad_check parameter {p!r} must be trainable")
    analytic = [dense(grads[p]) if p in grads else np.zeros_like(p.values) for p in params]

    def evaluate() -> float:
        value = float(fn().values)
        if not math.isfinite(value):
            raise NumericError("grad_check: function value is not finite")
        return value

    worst = 0.0
    for p, a in zip(params, analytic):
        for idx in np.ndindex(*p.values.shape):
            original = p.values[idx]
            p.values[idx] = original + step
            f_plus = evaluate()
            p.values[idx] = original - step
            f_minus = evaluate()
            p.values[idx] = original
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(a[idx]), abs(numeric), 1e-8)
            worst = max(worst, abs(a[idx] - numeric) / denom)
    return worst
