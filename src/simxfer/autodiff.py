"""Reverse-mode automatic differentiation over dense float64 tensors.

Inside ``with Tape():`` each primitive application is recorded as a node
(op kind, inputs, output, saved activations); with no tape open nothing
is recorded, so forward-only passes keep no graph.  ``backward`` walks
the nodes in reverse, keying adjoints by the tensor objects, and returns
the gradients of the trainable leaves; it skips every node that no
trainable leaf feeds, and tells each backward kernel which input adjoints
it keeps, so ``matmul`` and ``bilstm`` compute none of the others.  Tensors
hold no reference to a tape, so a tape and everything it saved is freed as
soon as the caller drops it.

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
for a bidirectional LSTM over n sentences of any lengths, their token vectors
packed step-major; its kernels run the recurrence and its backpropagation
through time with the 8 gates stacked into batched products, bitwise the same
LSTM built from the other primitives.  Given the sentences' lengths, the mean
and max over axis 0 pool each sentence's own steps of its T x n x 2h output.
"""

from __future__ import annotations

import functools
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
# backward kernels: fn(node, out_grad, keep) -> tuple of input adjoints, where
# keep[i] says whether backward uses input i's (None = skip; a kernel may skip
# one that is not kept)
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


def _bwd_matmul(node, g, keep):
    """Adjoints of ``a @ b`` for 1-D or 2-D operands; only those ``keep`` asks for."""
    a, b = (t.values for t in node.inputs)
    if a.ndim == 1 and b.ndim == 1:  # dot -> scalar
        adjoints = (lambda: g * b, lambda: g * a)
    elif b.ndim == 1:  # (m,n)@(n,) -> (m,)
        adjoints = (lambda: np.outer(g, b), lambda: a.T @ g)
    elif a.ndim == 1:  # (n,)@(n,p) -> (p,)
        adjoints = (lambda: b @ g, lambda: np.outer(a, g))
    else:
        adjoints = (lambda: g @ b.T, lambda: a.T @ g)
    return tuple(adjoint() if kept else None for adjoint, kept in zip(adjoints, keep))


def _bwd_add(node, g, keep):
    a, b = node.inputs
    return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)


def _bwd_subtract(node, g, keep):
    a, b = node.inputs
    return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)


def _bwd_multiply(node, g, keep):
    a, b = (t.values for t in node.inputs)
    return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)


def _bwd_absolute(node, g, keep):
    return (g * np.sign(node.inputs[0].values),)


def _sigmoid(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-a)), in ``out`` (which may be a) if given; a is clamped to
    keep exp within float64 range, which leaves saturation unaffected."""
    out = np.empty_like(a) if out is None else out
    np.exp(np.negative(np.clip(a, -709.0, 709.0, out=out), out=out), out=out)
    np.divide(1.0, np.add(out, 1.0, out=out), out=out)
    return out


def _bwd_sigmoid(node, g, keep):
    s = node.output.values
    return (g * s * (1.0 - s),)


def _bwd_tanh(node, g, keep):
    t = node.output.values
    return (g * (1.0 - t * t),)


def _bwd_transpose(node, g, keep):
    return (g.T,)


def _bwd_concat(node, g, keep):
    axis = node.attrs["axis"]
    ends = np.cumsum([t.values.shape[axis] for t in node.inputs])
    return tuple(np.split(g, ends[:-1], axis=axis))


def _bwd_stack(node, g, keep):
    return tuple(g[i] for i in range(len(node.inputs)))


def _fwd_select_row(values, attrs):
    (a,) = values
    row = attrs["row"]
    if a.ndim == 0 or not (0 <= row < a.shape[0]):
        raise ShapeError("select_row", a.shape, detail=f"row {row}")
    return a[row].copy(), {}


def _bwd_select_row(node, g, keep):
    out = np.zeros_like(node.inputs[0].values)
    out[node.attrs["row"]] = g
    return (out,)


def _fwd_lookup(values, attrs):
    (m,) = values
    idx = attrs["indices"]
    if m.ndim != 2:
        raise ShapeError("lookup", m.shape, detail="matrix must be 2-D")
    return m[idx], {}


def _bwd_lookup(node, g, keep):
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


def _steps_mask(op: str, a: np.ndarray, axis: int, lengths: np.ndarray) -> np.ndarray:
    """True at the entries a[t, r, ...] with t < lengths[r], in a shape that broadcasts to a's."""
    if (axis != 0 or a.ndim < 2 or lengths.shape != a.shape[1:2]
            or not np.all((lengths >= 1) & (lengths <= len(a)))):
        raise ShapeError(op, a.shape, lengths.shape, detail="lengths needs axis 0 and one "
                         "length in 1..T per column of a T x n (x e) input")
    mask = np.arange(len(a))[:, None] < lengths
    return mask.reshape(mask.shape + (1,) * (a.ndim - 2))


def _fwd_mean(values, attrs):
    (a,) = values
    axis, lengths = attrs["axis"], attrs.get("lengths")
    _check_axis("mean_over_axis", a, axis)
    if lengths is None:
        return a.mean(axis=axis), {}
    mask = _steps_mask("mean_over_axis", a, axis, lengths)
    # the steps in order, the rest +0.0 after them: bitwise the mean of each column's own steps
    return np.where(mask, a, 0.0).sum(axis=0) / mask.sum(axis=0), {"mask": mask}


def _bwd_mean(node, g, keep):
    a = node.inputs[0].values
    axis = node.attrs["axis"]
    if "mask" in node.saved:
        mask = node.saved["mask"]
        return (np.where(mask, g / mask.sum(axis=0), 0.0),)
    n = a.shape[axis]
    return (np.broadcast_to(np.expand_dims(g, axis), a.shape) / n,)


def _fwd_max(values, attrs):
    (a,) = values
    axis, lengths = attrs["axis"], attrs.get("lengths")
    _check_axis("max_over_axis", a, axis)
    if lengths is not None:
        a = np.where(_steps_mask("max_over_axis", a, axis, lengths), a, -np.inf)
    return a.max(axis=axis), {"argmax": a.argmax(axis=axis)}


def _bwd_max(node, g, keep):
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


def _bwd_softmax(node, g, keep):
    s = node.output.values
    return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)


def _bwd_scale(node, g, keep):
    return (g * node.attrs["factor"],)


def _fwd_log(values, attrs):
    (a,) = values
    if np.any(a <= 0):
        raise NumericError("log: input has non-positive entries")
    return np.log(a), {}


def _bwd_log(node, g, keep):
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


def _bwd_cosine(node, g, keep):
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


# bilstm: a bidirectional LSTM over n sentences as one node.  The tokens come
# packed step-major, the layout of cuDNN and of PyTorch's pack_padded_sequence:
# the lengths never increase, so the sentences still running at step t are the
# first k_t, and the next k_t token rows hold their token t, in that order.
# The backward direction takes each sentence in at its own last token, with a
# zero state, and no padded step runs.  Each direction's 12 tensors are W (h x d),
# U (h x h) and b (h) of the input, forget and output gates and the candidate.
# The kernels stack the 8 gates of both directions in the reverse order, so each
# product is one batched matmul: per direction, all tokens times its 4 W before
# the recurrence (Appleyard, Kocisky and Blunsom 2016) and h_prev @ U.T per step;
# after it, W's and the tokens' adjoints.  A batched matmul makes one BLAS call per
# gate on the per-gate operands (W and U as transposed views of their stacks),
# where one merged GEMM would sum in another order.  So the forward pass runs the
# numpy operations of the same network built gate by gate from the other primitives
# (``tests/oracles.py::tape_packed_bilstm``), the backward pass adds every adjoint
# in the order that graph's reverse walk adds it, and both are bitwise that graph's.


def _fwd_bilstm(values, attrs):
    tokens, params, lengths = values[0], values[1:], attrs["lengths"]
    if lengths.ndim != 1 or not len(lengths) or lengths[-1] < 1 or np.any(np.diff(lengths) > 0):
        raise ContractError("bilstm needs positive sentence lengths that never increase")
    h = params[8].shape[0] if len(params) == 24 and params[8].ndim == 1 else None
    d = tokens.shape[1] if tokens.ndim == 2 else None
    shapes = [p.shape for p in params]
    if shapes != ([(h, d)] * 4 + [(h, h)] * 4 + [(h,)] * 4) * 2 or len(tokens) != lengths.sum():
        raise ShapeError("bilstm", tokens.shape, *dict.fromkeys(shapes),
                         detail="tokens packed as sum(lengths) x d; per direction "
                                "4 W of h x d, 4 U of h x h, 4 b of h")
    sizes = (lengths[:, None] > np.arange(lengths[0])).sum(axis=0).tolist()  # k_t
    starts = [0, *np.cumsum(sizes[:-1]).tolist()]
    # 8 x h x d, 8 x h x h and 8 x h: the backward direction first, each candidate first
    w, u, b = (np.stack((params[i:i + 4] + params[12 + i:16 + i])[::-1]) for i in (0, 4, 8))
    out = np.zeros((len(sizes), len(lengths), 2 * h))
    fw = _lstm_steps(tokens, w[4:], u[4:], b[4:, None], sizes, starts, out[:, :, :h])
    bw = _lstm_steps(tokens, w[:4], u[:4], b[:4, None], sizes[::-1], starts[::-1], out[::-1, :, h:])
    return out, {"fw": fw, "bw": bw, "starts": starts, "w": w, "u": u}


def _lstm_steps(tokens, w, u, b, sizes, starts, out):
    """One direction, its gates stacked candidate first, over the steps of
    ``sizes`` running sentences whose token rows begin at ``starts``, each
    sentence from a zero state; step t's states go to out[t].  Returns per
    step (h_prev, c_prev, [g, o, f, i], tanh c, h)."""
    xw, ut = tokens @ w.transpose(0, 2, 1), u.transpose(0, 2, 1)  # 4 x n_tokens x h
    h = c = np.zeros((0, u.shape[1]))
    steps = []
    for t, (k, start) in enumerate(zip(sizes, starts)):
        h_prev, c_prev = _resized(h, k), _resized(c, k)
        gates = xw[:, start:start + k] + h_prev @ ut
        gates += b
        np.tanh(gates[0], out=gates[0])
        _sigmoid(gates[1:], out=gates[1:])
        g, o, f, i = gates
        c = f * c_prev + i * g
        tc = np.tanh(c)
        out[t, :k] = h = o * tc
        steps.append((h_prev, c_prev, gates, tc, h))
    return steps


def _resized(a, k):
    """The first k rows of a state, or all of it and a zero state for each sentence that starts."""
    return a[:k] if k <= len(a) else np.concatenate((a, np.zeros((k - len(a), a.shape[1]))))


def _resized_adjoint(g, n):
    """The adjoint of an n-row state from the adjoint ``g`` of ``_resized(state, len(g))``."""
    if len(g) >= n:
        return g[:n]
    out = np.zeros((n, g.shape[1]))
    out[:len(g)] += g  # 0.0 + g, as the gate graph's row gather adds it
    return out


def _lstm_steps_backward(steps, u, g_out, starts, dz):
    """One direction's adjoints from its output's adjoint ``g_out``, step-major: the
    stacked gates' pre-activation adjoints into ``dz``, packed like the tokens,
    and U's and b's, all candidate first."""
    dh, du, db, dc = g_out[-1, :len(steps[-1][-1])], None, None, None
    for s in range(len(steps) - 1, -1, -1):
        h_prev, c_prev, gates, tc, _ = steps[s]
        g, o, f, i = gates
        dc_tanh = dh * o * (1.0 - tc * tc)
        dc = dc_tanh if dc is None else dc + dc_tanh
        d_pre = np.empty_like(gates)
        for row, (a, b) in enumerate(((dc, i), (dh, tc), (dc, c_prev), (dc, g))):
            np.multiply(a, b, out=d_pre[row])
        d_pre[0] *= 1.0 - g * g
        d_pre[1:] *= gates[1:]
        d_pre[1:] *= 1.0 - gates[1:]
        dz[:, starts[s]:starts[s] + len(tc)] += d_pre  # 0.0 + d_pre, as the graph's gather adds it
        db = d_pre.sum(axis=1) if db is None else db + d_pre.sum(axis=1)
        du = h_prev.T @ d_pre if du is None else du + h_prev.T @ d_pre
        if s:  # the zero initial state gets no adjoint
            rows = len(steps[s - 1][-1])
            dh = g_out[s - 1, :rows] + _resized_adjoint((d_pre @ u).sum(axis=0), rows)
            dc = _resized_adjoint(dc * f, rows)
    return du, db


def _bwd_bilstm(node, g, keep):
    tokens, saved = node.inputs[0].values, node.saved
    w, u, starts, h = saved["w"], saved["u"], saved["starts"], saved["u"].shape[1]
    dz = np.zeros((8, len(tokens), h))
    # the gate graph records the backward direction last, so its reverse walk reaches it first
    bw = _lstm_steps_backward(saved["bw"], u[:4], g[::-1, :, h:], starts[::-1], dz[:4])
    fw = _lstm_steps_backward(saved["fw"], u[4:], g[:, :, :h], starts, dz[4:])
    # a frozen embedding matrix needs no token adjoint; 8 adds in order, not numpy's pairwise sum
    d_tokens = functools.reduce(np.add, dz @ w) if keep[0] else None
    dw = (tokens.T @ dz).transpose(0, 2, 1)
    grads = []
    for gw, (du, db) in ((dw[:3:-1], fw), (dw[3::-1], bw)):  # back to parameter order
        grads += [*gw, *du[::-1].transpose(0, 2, 1), *db[::-1]]
    return (d_tokens, *grads)


_KERNELS: dict[str, tuple[Callable, Callable]] = {  # kind -> (forward, backward)
    "matmul": (_fwd_matmul, _bwd_matmul),
    "add": (_numpy_kernel("add", np.add), _bwd_add),
    "subtract": (_numpy_kernel("subtract", np.subtract), _bwd_subtract),
    "elementwise_multiply": (_numpy_kernel("elementwise_multiply", np.multiply), _bwd_multiply),
    "absolute": (_numpy_kernel("absolute", np.abs), _bwd_absolute),
    "sigmoid": (_numpy_kernel("sigmoid", _sigmoid), _bwd_sigmoid),
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


def _axis_attrs(axis: int, lengths: Sequence[int] | None) -> dict:
    attrs = {"axis": int(axis)}
    if lengths is not None:
        attrs["lengths"] = np.asarray(lengths, dtype=np.intp)
    return attrs


def mean_over_axis(a, axis: int = 0, lengths: Sequence[int] | None = None) -> Tensor:
    """The mean along ``axis``; with ``lengths`` (axis 0 only), column r of a
    T x n (x e) input averages only its first lengths[r] steps."""
    return _apply("mean_over_axis", (a,), _axis_attrs(axis, lengths))


def max_over_axis(a, axis: int = 0, lengths: Sequence[int] | None = None) -> Tensor:
    """The max along ``axis``; with ``lengths`` as for ``mean_over_axis``."""
    return _apply("max_over_axis", (a,), _axis_attrs(axis, lengths))


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


def bilstm(tokens, lengths: Sequence[int], forward: Sequence[Tensor],
           backward: Sequence[Tensor]) -> Tensor:
    """Per-step states [forward; backward] of a bidirectional LSTM over n sentences.

    ``lengths`` are the sentences' token counts, none greater than the one
    before it.  ``tokens`` holds their token vectors packed step-major, as
    sum(lengths) x d: token 0 of every sentence, then token 1 of those longer
    than 1, and so on, in sentence order.  ``forward`` and ``backward`` are
    each direction's 12 tensors: W (h x d), U (h x h) and b (h) of the input,
    forget and output gates (sigmoid) and the candidate (tanh), in that
    order.  Returns T x n x 2h, T the first length: step t of sentence r
    holds the forward state after reading its tokens 0..t and the backward
    state after reading its tokens lengths[r]-1 down to t, and zeros from
    step lengths[r] on.
    """
    return _apply("bilstm", (tokens, *forward, *backward),
                  {"lengths": np.asarray(lengths, dtype=np.intp)})


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
        keep = [t.trainable or t in fed for t in node.inputs]
        for tensor, grad, kept in zip(node.inputs, _KERNELS[node.kind][1](node, g, keep), keep):
            if grad is None or not kept:
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
