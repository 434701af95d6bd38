"""Tests for the sentence encoders, checked against a from-scratch
numpy recurrence oracle that never touches the tape machinery."""

import numpy as np
import pytest

from oracles import bilstm_reference_embedding, lstm_reference_states

from simxfer.autodiff import Tape, Tensor, backward
from simxfer.encoders import EncoderConfig, encode, init_encoder
from simxfer.errors import ContractError


def direction_arrays(direction):
    weights = {g: t.values for g, t in direction.w.items()}
    recurrent = {g: t.values for g, t in direction.u.items()}
    biases = {g: t.values for g, t in direction.b.items()}
    return weights, recurrent, biases


def test_word_average_config_has_no_parameters():
    params = init_encoder(EncoderConfig("word-average", input_dim=4))
    assert params.tensors() == []


def test_bilstm_parameter_shapes():
    config = EncoderConfig("bilstm-avg", input_dim=4, hidden_dim=8, seed=1)
    params = init_encoder(config)
    for direction in (params.forward, params.backward):
        assert sorted(direction.w) == ["candidate", "forget", "input", "output"]
        for gate in direction.w:
            assert direction.w[gate].shape == (8, 4)
            assert direction.u[gate].shape == (8, 8)
            assert direction.b[gate].shape == (8,)
    assert len(params.tensors()) == 24


def test_same_seed_gives_bitwise_identical_parameters():
    config = EncoderConfig("bilstm-max", input_dim=3, hidden_dim=5, seed=77)
    a = init_encoder(config)
    b = init_encoder(config)
    for ta, tb in zip(a.tensors(), b.tensors()):
        assert np.array_equal(ta.values, tb.values)


def test_forget_bias_initialized_to_one():
    params = init_encoder(EncoderConfig("bilstm-avg", input_dim=3, hidden_dim=4, seed=0))
    assert np.all(params.forward.b["forget"].values == 1.0)
    assert np.all(params.forward.b["input"].values == 0.0)


def test_word_average_is_arithmetic_mean():
    config = EncoderConfig("word-average", input_dim=2)
    with Tape():
        out = encode(init_encoder(config), config, Tensor([[1.0, 2.0], [3.0, 4.0]]))
    assert out.values.tolist() == [2.0, 3.0]


@pytest.mark.parametrize("kind", ["bilstm-avg", "bilstm-max"])
def test_single_step_pooling_is_identity(kind):
    config = EncoderConfig(kind, input_dim=3, hidden_dim=4, seed=5)
    params = init_encoder(config)
    x = np.random.default_rng(0).normal(size=(1, 3))
    with Tape():
        pooled = encode(params, config, Tensor(x)).values
    fw = lstm_reference_states(*direction_arrays(params.forward), [x[0]])[-1]
    bw = lstm_reference_states(*direction_arrays(params.backward), [x[0]])[-1]
    assert np.allclose(pooled, np.concatenate([fw, bw]), atol=1e-12)


@pytest.mark.parametrize("kind,pooling", [("bilstm-avg", "avg"), ("bilstm-max", "max")])
def test_bilstm_matches_reference_recurrence(kind, pooling):
    config = EncoderConfig(kind, input_dim=4, hidden_dim=6, seed=11)
    params = init_encoder(config)
    x = np.random.default_rng(3).normal(size=(3, 4))
    with Tape():
        produced = encode(params, config, Tensor(x)).values
    reference = bilstm_reference_embedding(
        {"fw": direction_arrays(params.forward), "bw": direction_arrays(params.backward)},
        x, pooling)
    assert np.allclose(produced, reference, atol=1e-10)


def test_bilstm_is_order_sensitive():
    config = EncoderConfig("bilstm-avg", input_dim=3, hidden_dim=5, seed=2)
    params = init_encoder(config)
    x = np.random.default_rng(4).normal(size=(4, 3))
    with Tape():
        forward_order = encode(params, config, Tensor(x)).values
    with Tape():
        reversed_order = encode(params, config, Tensor(x[::-1].copy())).values
    assert not np.allclose(forward_order, reversed_order)


def test_word_average_is_permutation_invariant():
    config = EncoderConfig("word-average", input_dim=3)
    x = np.random.default_rng(4).normal(size=(4, 3))
    with Tape():
        a = encode(init_encoder(config), config, Tensor(x)).values
    with Tape():
        b = encode(init_encoder(config), config, Tensor(x[::-1].copy())).values
    assert np.allclose(a, b, atol=1e-12)


def test_max_pooling_dominates_every_step():
    config = EncoderConfig("bilstm-max", input_dim=3, hidden_dim=4, seed=9)
    params = init_encoder(config)
    x = np.random.default_rng(6).normal(size=(5, 3))
    with Tape():
        pooled = encode(params, config, Tensor(x)).values
    fw = lstm_reference_states(*direction_arrays(params.forward), list(x))
    bw = lstm_reference_states(*direction_arrays(params.backward), list(x)[::-1])[::-1]
    for f, b in zip(fw, bw):
        assert np.all(pooled >= np.concatenate([f, b]) - 1e-12)


def test_gradients_reach_encoder_parameters():
    config = EncoderConfig("bilstm-avg", input_dim=3, hidden_dim=4, seed=13)
    params = init_encoder(config)
    x = np.random.default_rng(8).normal(size=(3, 3))
    with Tape() as tape:
        emb = encode(params, config, Tensor(x))
        from simxfer.autodiff import matmul

        loss = matmul(emb, emb)
    grads = backward(tape, loss)
    assert any(t in grads and np.any(grads[t] != 0) for t in params.tensors())


def test_encoding_is_deterministic():
    config = EncoderConfig("bilstm-max", input_dim=3, hidden_dim=4, seed=21)
    params = init_encoder(config)
    x = np.random.default_rng(10).normal(size=(4, 3))
    with Tape():
        a = encode(params, config, Tensor(x)).values
    with Tape():
        b = encode(params, config, Tensor(x)).values
    assert np.array_equal(a, b)


def test_invalid_configs_rejected():
    with pytest.raises(ContractError):
        EncoderConfig("gru", input_dim=4)
    with pytest.raises(ContractError):
        EncoderConfig("bilstm-avg", input_dim=4, hidden_dim=0)
    with pytest.raises(ContractError):
        EncoderConfig("word-average", input_dim=0)


def test_output_dims():
    assert EncoderConfig("word-average", input_dim=7).output_dim == 7
    assert EncoderConfig("bilstm-avg", input_dim=7, hidden_dim=5).output_dim == 10
