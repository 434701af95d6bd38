"""Tests for the reverse-mode autodiff core."""

import gc
import math
import os
import subprocess
import sys
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from oracles import dense_lookup_backward

from simxfer import autodiff as ad
from simxfer.autodiff import Tape, Tensor, backward, cosine, grad_check
from simxfer.errors import ContractError, NumericError, ShapeError


def test_elementwise_multiply_example():
    with Tape():
        out = ad.elementwise_multiply([1, 2, 3], [4, 5, 6])
    assert out.values.tolist() == [4, 10, 18]


def test_absolute_difference_example():
    with Tape():
        out = ad.absolute(ad.subtract(Tensor([1, 5]), Tensor([4, 2])))
    assert out.values.tolist() == [3, 3]


def test_softmax_uniform_on_equal_logits():
    with Tape():
        out = ad.softmax(Tensor([0.0] * 5))
    assert np.allclose(out.values, 0.2, atol=0)


def test_softmax_positive_and_normalized(rng):
    for _ in range(50):
        logits = rng.normal(scale=rng.uniform(0.1, 50), size=rng.integers(2, 12))
        with Tape():
            out = ad.softmax(Tensor(logits))
        assert np.all(out.values > 0)
        assert abs(out.values.sum() - 1.0) < 1e-12


def test_cosine_identical_vectors():
    with Tape():
        assert float(cosine([1, 2, 3], [1, 2, 3]).values) == pytest.approx(1.0, abs=1e-15)


def test_cosine_orthogonal_vectors():
    with Tape():
        assert float(cosine([1, 0], [0, 1]).values) == 0.0


def test_cosine_closed_form():
    # dot=1, norms sqrt(2) and 1
    with Tape():
        out = cosine([1, 1], [1, 0])
    assert float(out.values) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_cosine_scale_invariance(rng):
    for _ in range(100):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        a, b = rng.uniform(0.01, 100, size=2)
        with Tape():
            base = float(cosine(u, v).values)
            scaled = float(cosine(a * u, b * v).values)
        assert abs(base - scaled) < 1e-12


def test_cosine_zero_norm_guard():
    with Tape():
        out = cosine([0.0, 0.0], [0.0, 0.0])
    assert float(out.values) == 0.0
    assert out.degenerate
    with Tape():
        ok = cosine([0.0, 0.0], [1.0, 0.0])
    assert float(ok.values) == 0.0
    assert not ok.degenerate


def test_batched_cosine_marks_any_degenerate_row():
    u = Tensor([[0.0, 0.0], [1.0, 2.0]], trainable=True)
    v = Tensor([[0.0, 0.0], [2.0, 1.0]], trainable=True)
    with Tape() as tape:
        out = cosine(u, v)
        loss = ad.matmul(out, Tensor([1.0, 1.0]))
    assert out.values.tolist() == [0.0, pytest.approx(0.8, abs=1e-15)]
    assert out.degenerate
    grads = backward(tape, loss)
    assert grads[u][0].tolist() == [0.0, 0.0] and grads[v][0].tolist() == [0.0, 0.0]
    with Tape():
        fine = cosine(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[1.0, 1.0], [0.0, 1.0]]))
    assert not fine.degenerate


def test_cosine_length_mismatch():
    with Tape():
        with pytest.raises(ShapeError):
            cosine([1, 2, 3], [1, 2])


def test_shape_error_names_primitive_and_shapes():
    with Tape():
        with pytest.raises(ShapeError) as err:
            ad.add(Tensor([1, 2]), Tensor([1, 2, 3]))
    assert "add" in str(err.value)
    assert "(2,)" in str(err.value) and "(3,)" in str(err.value)


def test_pooling_over_lengths_pools_each_columns_own_steps_and_checks_them():
    a = Tensor([[[1.0], [-3.0]], [[5.0], [-7.0]], [[9.0], [100.0]]])  # T=3, n=2, e=1
    with Tape():
        assert ad.mean_over_axis(a, axis=0, lengths=[3, 2]).values.tolist() == [[5.0], [-5.0]]
        assert ad.max_over_axis(a, axis=0, lengths=[1, 2]).values.tolist() == [[1.0], [-3.0]]
        for op in (ad.mean_over_axis, ad.max_over_axis):
            for axis, lengths in ((0, [3]), (0, [0, 2]), (0, [4, 1]), (1, [1, 1])):
                with pytest.raises(ShapeError):
                    op(a, axis=axis, lengths=lengths)


def test_bilstm_checks_its_lengths_against_the_packed_tokens():
    params = [Tensor(np.zeros(shape)) for shape in ([(2, 3)] * 4 + [(2, 2)] * 4 + [(2,)] * 4) * 2]
    with Tape():
        assert ad.bilstm(np.ones((5, 3)), [3, 2], params[:12], params[12:]).shape == (3, 2, 4)
        with pytest.raises(ShapeError):
            ad.bilstm(np.ones((4, 3)), [3, 2], params[:12], params[12:])
        for lengths in ([2, 3], [5, 0], []):
            with pytest.raises(ContractError):
                ad.bilstm(np.ones((5, 3)), lengths, params[:12], params[12:])


def gate_stack_mismatches():
    """Where a batched ``np.matmul`` over a stack of gates differs from the 2-D
    product of each gate, or a sum over a stack of 4 from adding in order.

    The ``bilstm`` kernels rely on both being bitwise: per gate, the 2-D
    operands are separate contiguous arrays (W and U as ``.T`` views, as the
    parameters are), and the batched ones transposed views of their stack.
    The shapes cover one running sentence (k = 1), h = 1, d = 1, a broadcast
    ``h_prev`` and products large enough for BLAS to use more than one thread."""
    rng = np.random.default_rng(7)
    bad = []
    for n, k, d, h in [(7, 1, 5, 1), (7, 3, 1, 1), (1, 1, 1, 1), (40, 13, 50, 8),
                       (9, 1, 300, 64), (400, 64, 300, 64)]:
        ws, us, d_pres, dzs = ([rng.normal(size=shape) for _ in range(4)]
                               for shape in ((h, d), (h, h), (k, h), (n, h)))
        w, u, d_pre, dz = (np.stack(gates) for gates in (ws, us, d_pres, dzs))
        tokens, h_prev = rng.normal(size=(n, d)), rng.normal(size=(k, h))
        products = {
            "tokens @ W.T": (tokens @ w.transpose(0, 2, 1), [tokens @ wk.T for wk in ws]),
            "h_prev @ U.T": (h_prev @ u.transpose(0, 2, 1), [h_prev @ uk.T for uk in us]),
            "h_prev.T @ d_pre": (h_prev.T @ d_pre, [h_prev.T @ dp for dp in d_pres]),
            "d_pre @ U": (d_pre @ u, [dp @ uk for dp, uk in zip(d_pres, us)]),
            "tokens.T @ dz": (tokens.T @ dz, [tokens.T @ dzk for dzk in dzs]),
            "dz @ W": (dz @ w, [dzk @ wk for dzk, wk in zip(dzs, ws)]),
            "sum over axis 0": (d_pre.sum(axis=0)[None], [((d_pre[0] + d_pre[1]) + d_pre[2])
                                                          + d_pre[3]]),
            "sum over axis 1": (d_pre.sum(axis=1), [dp.sum(axis=0) for dp in d_pres]),
        }
        for name, (batched, per_gate) in products.items():
            if any(b.tobytes() != p.tobytes() for b, p in zip(batched, per_gate)):
                bad.append(f"{name} at n={n} k={k} d={d} h={h}")
    return bad


def test_a_batched_matmul_over_a_gate_stack_is_each_gates_product_bitwise():
    """The rule the stacked ``bilstm`` kernels stand on, checked by name, so that
    a numpy or BLAS that breaks it fails here: in this process, and in fresh
    ones with one and with two BLAS threads."""
    assert gate_stack_mismatches() == []
    tests_dir = Path(__file__).resolve().parent
    paths = [str(tests_dir.parent / "src"), os.environ.get("PYTHONPATH", "")]
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p),
               **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                               threads)}
        proc = subprocess.run([sys.executable, "-c", "import test_autodiff as t; "
                               "print(t.gate_stack_mismatches())"], cwd=tests_dir, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]", (threads, proc.stdout)


def test_backward_quadratic():
    x = Tensor([1.0, 2.0], trainable=True)
    with Tape() as tape:
        loss = ad.matmul(x, x)  # sum of squares
    assert backward(tape, loss)[x].tolist() == [2.0, 4.0]


def test_backward_cosine_of_self_is_constant():
    u = Tensor([0.3, -1.2, 2.0], trainable=True)
    with Tape() as tape:
        loss = cosine(u, u)
    assert np.allclose(backward(tape, loss)[u], 0.0, atol=1e-12)


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], trainable=True)
    with Tape() as tape:
        out = ad.scale(x, 2.0)
    with pytest.raises(ContractError):
        backward(tape, out)


def test_backward_twice_returns_equal_gradients_and_mutates_nothing():
    x = Tensor([3.0], trainable=True)
    w = Tensor([2.0])
    with Tape() as tape:
        loss = ad.matmul(ad.elementwise_multiply(x, w), x)
    before = [(t, t.values.copy()) for node in tape.nodes for t in (*node.inputs, node.output)]
    first = backward(tape, loss)
    second = backward(tape, loss)
    assert list(first) == [x] and list(second) == [x]
    assert first[x].tolist() == second[x].tolist() == [12.0]
    assert all(np.array_equal(t.values, v) for t, v in before)
    assert not hasattr(x, "grad")


def test_non_trainable_leaves_receive_no_gradient():
    x = Tensor([1.0, 2.0], trainable=False)
    y = Tensor([1.0, 1.0], trainable=True)
    with Tape() as tape:
        loss = ad.matmul(x, ad.add(x, y))
    assert list(backward(tape, loss)) == [y]


def test_primitive_outside_tape_records_nothing(monkeypatch):
    def no_node(*args, **kwargs):
        raise AssertionError("a node was recorded outside any tape")

    monkeypatch.setattr(ad, "TapeNode", no_node)
    x = Tensor([1.0, 2.0], trainable=True)
    out = ad.matmul(ad.add(x, Tensor([2.0, 3.0])), x)
    assert float(out.values) == 13.0


def test_backward_rejects_loss_built_without_tape():
    x = Tensor([1.0, 2.0], trainable=True)
    loss = ad.matmul(x, x)
    with pytest.raises(ContractError):
        backward(Tape(), loss)


def test_backward_survives_cross_tape_reuse():
    """Using a leaf on a newer tape must not corrupt an older tape's
    backward pass."""
    p = Tensor([1.0, 2.0], trainable=True)
    with Tape() as tape:
        loss = ad.matmul(p, p)
    with Tape():
        ad.matmul(p, Tensor([1.0, 1.0]))
    assert backward(tape, loss)[p].tolist() == [2.0, 4.0]


def test_backward_rejects_loss_from_another_tape():
    x = Tensor([1.0, 2.0], trainable=True)
    with Tape():
        loss = ad.matmul(x, x)
    with Tape() as other:
        ad.matmul(x, x)
    with pytest.raises(ContractError):
        backward(other, loss)


def test_finished_tape_is_freed_without_cycle_collector():
    x = Tensor([1.0, 2.0], trainable=True)
    gc.disable()
    try:
        with Tape() as tape:
            loss = ad.matmul(ad.tanh(x), x)
        backward(tape, loss)
        ref = weakref.ref(tape)
        del tape, loss
        assert ref() is None
    finally:
        gc.enable()


def _scalarize(out):
    """Reduce any primitive output to a scalar with a fixed linear probe."""
    flat = out
    while flat.values.ndim > 1:
        flat = ad.mean_over_axis(flat, axis=0)
    if flat.values.ndim == 0:
        return flat
    probe = Tensor(np.cos(np.arange(flat.shape[0])) + 0.5)
    return ad.matmul(probe, flat)


# (name, builder) pairs: builder(rng) -> (fn, params) for grad_check
def _primitive_cases():
    def binary(op, shape=(5,), other_shape=None):
        def build(rng):
            a = Tensor(rng.normal(size=shape), trainable=True)
            b = Tensor(rng.normal(size=other_shape or shape), trainable=True)
            return lambda: _scalarize(op(a, b)), [a, b]
        return build

    def unary(op, shape=(5,), positive=False):
        def build(rng):
            raw = rng.normal(size=shape)
            if positive:
                raw = np.abs(raw) + 0.5
            a = Tensor(raw, trainable=True)
            return lambda: _scalarize(op(a)), [a]
        return build

    def matmul_case(rng):
        a = Tensor(rng.normal(size=(3, 4)), trainable=True)
        b = Tensor(rng.normal(size=(4, 2)), trainable=True)
        return lambda: _scalarize(ad.matmul(a, b)), [a, b]

    def matvec_case(rng):
        a = Tensor(rng.normal(size=(3, 4)), trainable=True)
        b = Tensor(rng.normal(size=(4,)), trainable=True)
        return lambda: _scalarize(ad.matmul(a, b)), [a, b]

    def concat_case(rng):
        a = Tensor(rng.normal(size=(3,)), trainable=True)
        b = Tensor(rng.normal(size=(2,)), trainable=True)
        return lambda: _scalarize(ad.concat((a, b))), [a, b]

    def stack_case(rng):
        a = Tensor(rng.normal(size=(4,)), trainable=True)
        b = Tensor(rng.normal(size=(4,)), trainable=True)
        return lambda: _scalarize(ad.stack((a, b))), [a, b]

    def select_row_case(rng):
        a = Tensor(rng.normal(size=(3, 4)), trainable=True)
        return lambda: _scalarize(ad.select_row(a, 1)), [a]

    def lookup_case(rng):
        m = Tensor(rng.normal(size=(6, 3)), trainable=True)
        return lambda: _scalarize(ad.lookup_rows(m, [0, 2, 2, 5])), [m]

    def mean_axis_case(rng):
        a = Tensor(rng.normal(size=(3, 4)), trainable=True)
        return lambda: _scalarize(ad.mean_over_axis(a, axis=0)), [a]

    def max_axis_case(rng):
        a = Tensor(rng.normal(size=(3, 4)), trainable=True)
        return lambda: _scalarize(ad.max_over_axis(a, axis=0)), [a]

    def cosine_case(rng):
        u = Tensor(rng.normal(size=(5,)), trainable=True)
        v = Tensor(rng.normal(size=(5,)), trainable=True)
        return lambda: cosine(u, v), [u, v]

    def cosine_rows_case(rng):
        u = Tensor(rng.normal(size=(3, 4)), trainable=True)
        v = Tensor(rng.normal(size=(3, 4)), trainable=True)
        return lambda: _scalarize(cosine(u, v)), [u, v]

    def concat_last_axis_case(rng):
        a = Tensor(rng.normal(size=(3, 2)), trainable=True)
        b = Tensor(rng.normal(size=(3, 4)), trainable=True)
        return lambda: _scalarize(ad.concat((a, b), axis=-1)), [a, b]

    def stack_matrices_case(rng):
        a = Tensor(rng.normal(size=(2, 3)), trainable=True)
        b = Tensor(rng.normal(size=(2, 3)), trainable=True)
        return lambda: _scalarize(ad.stack((a, b))), [a, b]

    def bilstm_case(lengths):
        def build(rng):  # inputs at scale 0.5 keep the gates away from saturation
            d, h = 3, 2
            tokens = Tensor(rng.normal(scale=0.5, size=(sum(lengths), d)), trainable=True)
            shapes = ([(h, d)] * 4 + [(h, h)] * 4 + [(h,)] * 4) * 2
            params = [Tensor(rng.normal(scale=0.5, size=shape), trainable=True)
                      for shape in shapes]
            return (lambda: _scalarize(ad.bilstm(tokens, lengths, params[:12], params[12:])),
                    [tokens, *params])
        return build

    def pooled(op):  # the steps past a column's length do not count
        return unary(lambda t: op(t, axis=0, lengths=[3, 1, 2]), shape=(3, 3, 2))

    return [
        ("add", binary(ad.add)),
        ("subtract", binary(ad.subtract)),
        ("elementwise_multiply", binary(ad.elementwise_multiply)),
        ("absolute", unary(ad.absolute)),
        ("sigmoid", unary(ad.sigmoid)),
        ("tanh", unary(ad.tanh)),
        ("softmax", unary(ad.softmax)),
        ("scale", unary(lambda t: ad.scale(t, -2.5))),
        ("log", unary(ad.log, positive=True)),
        ("matmul", matmul_case),
        ("matvec", matvec_case),
        ("concat", concat_case),
        ("stack", stack_case),
        ("select_row", select_row_case),
        ("lookup", lookup_case),
        ("mean_over_axis", mean_axis_case),
        ("max_over_axis", max_axis_case),
        ("cosine", cosine_case),
        ("add_broadcast_bias", binary(ad.add, shape=(3, 4), other_shape=(4,))),
        ("subtract_broadcast", binary(ad.subtract, shape=(3, 1), other_shape=(3, 4))),
        ("multiply_broadcast", binary(ad.elementwise_multiply, shape=(2, 3, 4),
                                      other_shape=(3, 1))),
        ("transpose", unary(ad.transpose, shape=(3, 4))),
        ("transpose_3d", unary(ad.transpose, shape=(2, 3, 4))),
        ("concat_last_axis", concat_last_axis_case),
        ("stack_matrices", stack_matrices_case),
        ("select_row_3d", unary(lambda t: ad.select_row(t, 1), shape=(3, 2, 4))),
        ("mean_over_axis_3d", unary(lambda t: ad.mean_over_axis(t, axis=1), shape=(3, 2, 4))),
        ("max_over_axis_3d_first", unary(lambda t: ad.max_over_axis(t, axis=0),
                                         shape=(3, 2, 4))),
        ("max_over_axis_3d_last", unary(lambda t: ad.max_over_axis(t, axis=2),
                                        shape=(3, 2, 4))),
        ("softmax_rows", unary(ad.softmax, shape=(3, 5))),
        ("cosine_rows", cosine_rows_case),
        ("bilstm", bilstm_case((3, 3, 2, 1))),
        ("bilstm_one_sentence", bilstm_case((4,))),
        ("bilstm_one_step", bilstm_case((1, 1))),
        ("mean_over_axis_lengths", pooled(ad.mean_over_axis)),
        ("max_over_axis_lengths", pooled(ad.max_over_axis)),
    ]


@pytest.mark.parametrize("name,builder", _primitive_cases(), ids=[c[0] for c in _primitive_cases()])
def test_primitive_gradients_match_finite_differences(name, builder):
    """Randomized property: >= 100 points per primitive, rel err < 1e-4."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    checks = 0
    while checks < 100:
        fn, params = builder(rng)
        err = grad_check(fn, params, step=1e-5)
        assert err < 1e-4, f"{name}: finite-difference mismatch {err}"
        checks += sum(p.values.size for p in params)


def test_gradient_cases_cover_every_primitive_kind():
    """A primitive added to ``_KERNELS`` without a gradient case fails here."""
    rng = np.random.default_rng(0)
    with Tape() as tape:
        for _, builder in _primitive_cases():
            fn, _ = builder(rng)
            fn()
    assert set(ad._KERNELS) <= {node.kind for node in tape.nodes}


def test_grad_check_exact_quadratic():
    x = Tensor([3.0], trainable=True)

    def fn():
        return ad.matmul(x, x)

    assert grad_check(fn, [x], step=1e-5) < 1e-8


def test_grad_check_rejects_non_finite():
    x = Tensor([1.0], trainable=True)

    def fn():
        return ad.log(ad.subtract(x, x))  # log(0)

    with pytest.raises(NumericError):
        grad_check(fn, [x])


def test_composite_loss_matches_finite_differences(rng):
    w = Tensor(rng.normal(size=(4, 3)), trainable=True)
    b = Tensor(rng.normal(size=(4,)), trainable=True)
    x = Tensor(rng.normal(size=(3,)))
    target = Tensor(rng.normal(size=(4,)))

    def fn():
        hidden = ad.sigmoid(ad.add(ad.matmul(w, x), b))
        diff = ad.subtract(hidden, target)
        return ad.mean_over_axis(ad.elementwise_multiply(diff, diff), axis=0)

    assert grad_check(fn, [w, b], step=1e-5) < 1e-4


# --- row-sparse lookup adjoints ---------------------------------------------


def _dense_lookup_gradients(monkeypatch, build):
    """``backward`` over ``build()`` with the lookup backward swapped for the dense oracle."""
    with monkeypatch.context() as patch:
        patch.setitem(ad._KERNELS, "lookup", (ad._KERNELS["lookup"][0], dense_lookup_backward))
        with Tape() as tape:
            loss = build()
        return backward(tape, loss)


def test_row_sparse_lookup_adjoint_equals_dense_oracle_bitwise(rng, monkeypatch):
    m = Tensor(rng.normal(size=(40, 3)), trainable=True)
    w = Tensor(rng.normal(size=(3,)))

    def build():  # three lookup nodes on one matrix, rows repeated within and across them
        a = ad.lookup_rows(m, [7, 2, 7, 7, 30])
        b = ad.lookup_rows(m, np.array([[2, 11], [7, 2], [39, 2]]))
        c = ad.lookup_rows(m, [11])
        return ad.add(ad.add(_scalarize(ad.sigmoid(ad.matmul(a, w))),
                             _scalarize(ad.tanh(b))),
                      _scalarize(ad.matmul(ad.elementwise_multiply(c, c), w)))

    with Tape() as tape:
        loss = build()
    sparse = backward(tape, loss)[m]
    oracle = _dense_lookup_gradients(monkeypatch, build)[m]
    assert isinstance(sparse, ad.RowSparse) and sparse.shape == m.shape
    assert sparse.rows.tolist() == [2, 7, 11, 30, 39]
    assert ad.dense(sparse).tobytes() == oracle.tobytes()


def test_matrix_reached_by_lookup_and_a_dense_primitive_gets_the_dense_sum(rng, monkeypatch):
    m = Tensor(rng.normal(size=(6, 3)), trainable=True)
    w = Tensor(rng.normal(size=(3,)))

    def build():
        looked_up = _scalarize(ad.tanh(ad.lookup_rows(m, [4, 1, 4])))
        return ad.add(_scalarize(ad.matmul(m, w)), looked_up)

    with Tape() as tape:
        loss = build()
    got = backward(tape, loss)[m]
    assert isinstance(got, np.ndarray) and got.shape == m.shape
    assert got.tobytes() == _dense_lookup_gradients(monkeypatch, build)[m].tobytes()
    assert grad_check(build, [m]) < 1e-6


def test_lookup_of_a_gathered_intermediate_keeps_a_dense_adjoint(rng):
    m = Tensor(rng.normal(size=(5, 2)), trainable=True)
    with Tape() as tape:
        inner = ad.lookup_rows(m, [3, 0, 3])
        loss = _scalarize(ad.lookup_rows(inner, [2, 2, 1]))
    kinds = [type(g) for g in ad._KERNELS["lookup"][1](tape.nodes[1], np.ones((3, 2)), [True])]
    assert kinds == [np.ndarray]
    assert isinstance(backward(tape, loss)[m], ad.RowSparse)
