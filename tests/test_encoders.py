"""Tests for the sentence encoders, checked against a from-scratch
numpy recurrence oracle that never touches the tape machinery, and the
fused ``bilstm`` node against the gate-by-gate graph it replaces."""

from collections import Counter

import numpy as np
import pytest

from conftest import FIXTURES_DIR
from oracles import (
    bilstm_reference_embedding,
    lstm_reference_states,
    tape_bilstm_states,
    tape_encode,
)

from simxfer import transfer
from simxfer.autodiff import (
    Tape,
    Tensor,
    backward,
    bilstm,
    dense,
    lookup_rows,
    matmul,
    mean_over_axis,
)
from simxfer.data import load_generic_tsv
from simxfer.embeddings import load_embeddings, tokenize
from simxfer.encoders import GATES, EncoderConfig, encode, init_encoder
from simxfer.errors import ContractError, ShapeError
from simxfer.trainer import batch_loss
from simxfer.transfer import SimilarityModel, TransferConfig


def direction_arrays(params, tag):
    """(weights, recurrent, biases) dicts of one direction, keyed by gate."""
    return tuple({g: params[f"enc.{tag}.{part}_{g}"].values for g in GATES} for part in "wub")


def test_word_average_config_has_no_parameters():
    params = init_encoder(EncoderConfig("word-average", input_dim=4))
    assert params == {}


def test_bilstm_parameter_shapes():
    config = EncoderConfig("bilstm-avg", input_dim=4, hidden_dim=8, seed=1)
    params = init_encoder(config)
    for tag in ("fw", "bw"):
        for gate in ("candidate", "forget", "input", "output"):
            assert params[f"enc.{tag}.w_{gate}"].shape == (8, 4)
            assert params[f"enc.{tag}.u_{gate}"].shape == (8, 8)
            assert params[f"enc.{tag}.b_{gate}"].shape == (8,)
    assert len(params) == 24


def test_parameters_are_named_in_the_order_bilstm_takes_them():
    params = init_encoder(EncoderConfig("bilstm-avg", input_dim=4, hidden_dim=3, seed=1))
    gates = ("input", "forget", "output", "candidate")
    assert list(params) == [f"enc.{tag}.{part}_{gate}" for tag in ("fw", "bw")
                            for part in "wub" for gate in gates]
    assert all(t.name == name and t.trainable for name, t in params.items())
    head = transfer.init_classifier(6, bins=4, hidden_width=3, seed=2)
    assert list(head) == ["cla.w_times", "cla.w_plus", "cla.b_h", "cla.w_p", "cla.b_p"]
    assert all(t.name == name and t.trainable for name, t in head.items())


def test_encode_refuses_parameters_out_of_bilstm_order():
    config = EncoderConfig("bilstm-avg", input_dim=3, hidden_dim=3, seed=1)
    params = init_encoder(config)
    names = list(params)
    names[0], names[4] = names[4], names[0]  # w_input and u_input: both 3 x 3
    x = Tensor(np.ones((2, 3)))
    for bad in ({n: params[n] for n in names}, {n: params[n] for n in names[1:]}, {}):
        with pytest.raises(ContractError, match="BILSTM_NAMES"):
            encode(bad, config, x)


@pytest.mark.parametrize("seed", [0, 7])
def test_seeded_initial_values_follow_the_draw_order(seed):
    """Weights are drawn per direction, per gate, W then U; the head draws
    ``w_times``, ``w_plus``, ``w_p`` in that order."""
    d, h, e, k, bins = 4, 3, 6, 5, 4
    params = init_encoder(EncoderConfig("bilstm-max", input_dim=d, hidden_dim=h, seed=seed))
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(h)
    want = {}
    for tag in ("fw", "bw"):
        for gate in ("input", "forget", "output", "candidate"):
            want[f"enc.{tag}.w_{gate}"] = rng.uniform(-bound, bound, size=(h, d))
            want[f"enc.{tag}.u_{gate}"] = rng.uniform(-bound, bound, size=(h, h))
            want[f"enc.{tag}.b_{gate}"] = np.full(h, 1.0 if gate == "forget" else 0.0)
    assert sorted(params) == sorted(want)
    for name, t in params.items():
        assert t.values.tobytes() == want[name].tobytes(), name
    head = transfer.init_classifier(e, bins=bins, hidden_width=k, seed=seed)
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(e)
    w_times = rng.uniform(-bound, bound, size=(k, e))
    w_plus = rng.uniform(-bound, bound, size=(k, e))
    w_p = rng.uniform(-bound, bound, size=(bins, k))
    want = {"cla.w_times": w_times, "cla.w_plus": w_plus, "cla.b_h": np.zeros(k),
            "cla.w_p": w_p, "cla.b_p": np.zeros(bins)}
    assert sorted(head) == sorted(want)
    for name, t in head.items():
        assert t.values.tobytes() == want[name].tobytes(), name


def test_same_seed_gives_bitwise_identical_parameters():
    config = EncoderConfig("bilstm-max", input_dim=3, hidden_dim=5, seed=77)
    a = init_encoder(config)
    b = init_encoder(config)
    for ta, tb in zip(a.values(), b.values()):
        assert np.array_equal(ta.values, tb.values)


def test_forget_bias_initialized_to_one():
    params = init_encoder(EncoderConfig("bilstm-avg", input_dim=3, hidden_dim=4, seed=0))
    assert np.all(params["enc.fw.b_forget"].values == 1.0)
    assert np.all(params["enc.fw.b_input"].values == 0.0)


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
    fw = lstm_reference_states(*direction_arrays(params, "fw"), [x[0]])[-1]
    bw = lstm_reference_states(*direction_arrays(params, "bw"), [x[0]])[-1]
    assert np.allclose(pooled, np.concatenate([fw, bw]), atol=1e-12)


@pytest.mark.parametrize("kind,pooling", [("bilstm-avg", "avg"), ("bilstm-max", "max")])
def test_bilstm_matches_reference_recurrence(kind, pooling):
    config = EncoderConfig(kind, input_dim=4, hidden_dim=6, seed=11)
    params = init_encoder(config)
    x = np.random.default_rng(3).normal(size=(3, 4))
    with Tape():
        produced = encode(params, config, Tensor(x)).values
    reference = bilstm_reference_embedding(
        {"fw": direction_arrays(params, "fw"), "bw": direction_arrays(params, "bw")},
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
    fw = lstm_reference_states(*direction_arrays(params, "fw"), list(x))
    bw = lstm_reference_states(*direction_arrays(params, "bw"), list(x)[::-1])[::-1]
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
    assert any(t in grads and np.any(grads[t] != 0) for t in params.values())


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


@pytest.mark.parametrize("shape", [(3, 5), (3, 2, 5)], ids=["T x d", "T x n x d"])
def test_token_width_other_than_input_dim_is_a_shape_error(shape):
    config = EncoderConfig("bilstm-avg", input_dim=4, hidden_dim=3, seed=1)
    with Tape():
        with pytest.raises(ShapeError):
            encode(init_encoder(config), config, Tensor(np.ones(shape)))


# --- the fused bilstm node against the gate-by-gate graph (tests/oracles.py) ---


def _probe_loss(pooled, probe):
    """A scalar that reads every pooled coordinate of one sentence or a batch."""
    if pooled.values.ndim == 2:
        pooled = mean_over_axis(pooled, axis=0)
    return matmul(probe, pooled)


@pytest.mark.parametrize("kind", ["bilstm-avg", "bilstm-max"])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["T x d", "T x n x d"])
def test_fused_bilstm_is_bitwise_the_gate_by_gate_graph_on_one_length_group(kind, batch):
    config = EncoderConfig(kind, input_dim=4, hidden_dim=5, seed=3)
    params = init_encoder(config)
    rng = np.random.default_rng(12)
    wem = Tensor(rng.normal(size=(9, 4)), trainable=True)
    ids = rng.integers(0, 9, size=(6, *batch))
    probe = Tensor(rng.normal(size=config.output_dim))

    def run(encoder):
        with Tape() as tape:
            loss = _probe_loss(encoder(params, config, lookup_rows(wem, ids)), probe)
        return loss, backward(tape, loss)

    tokens = lookup_rows(wem, ids)
    values = list(params.values())
    fused = bilstm(tokens, values[:12], values[12:])
    reference = tape_bilstm_states(params, tokens, config.hidden_dim)
    assert fused.values.tobytes() == reference.values.tobytes()
    (loss, grads), (want_loss, want) = run(encode), run(tape_encode)
    assert loss.values.tobytes() == want_loss.values.tobytes()
    assert set(grads) == set(want) == {wem, *params.values()}
    for t in want:
        assert dense(grads[t]).tobytes() == dense(want[t]).tobytes(), t.name


@pytest.fixture(scope="module")
def fixture_batch():
    """The word vectors and a 32-pair batch of the fixture pairs."""
    emb = load_embeddings(FIXTURES_DIR / "wordvecs_50d.txt", 50)
    return emb, load_generic_tsv(FIXTURES_DIR / "activity_pairs.tsv", 0, 5).pairs[:32]


def _dnt_batch(fixture_batch, kind, freeze_wem, encoder):
    """Nodes and gradients of one DNT batch loss, ``encoder`` standing in for ``encode``."""
    emb, pairs = fixture_batch
    config = EncoderConfig(kind, input_dim=50, hidden_dim=8, seed=7)
    model = SimilarityModel(emb.vocabulary, emb.embedding, config, init_encoder(config))
    dnt = TransferConfig("DNT", norm_range=(0.0, 1.0), freeze_wem=freeze_wem)
    model.apply_freeze_policy(dnt)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transfer, "encode", encoder)
        with Tape() as tape:
            loss = batch_loss(model, dnt, pairs)
    return tape.nodes, {t.name: dense(g) for t, g in backward(tape, loss).items()}


@pytest.mark.parametrize("kind", ["bilstm-avg", "bilstm-max"])
def test_fused_bilstm_matches_the_gate_by_gate_graph_across_length_groups(fixture_batch, kind):
    """Bitwise but for the biases: the gate-by-gate graph summed each bias
    over all length groups in one running sum, the fused nodes hand it one
    sum per group, so the bias gradients may differ in the last places."""
    nodes, grads = _dnt_batch(fixture_batch, kind, False, encode)
    _, want = _dnt_batch(fixture_batch, kind, False, tape_encode)
    assert Counter(node.kind for node in nodes)["bilstm"] > 1
    assert set(grads) == set(want) and len(want) == 25
    for name, g in want.items():
        if ".b_" in name:
            assert np.all(np.abs(grads[name] - g) <= 4 * np.spacing(np.abs(g).max())), name
        else:
            assert grads[name].tobytes() == g.tobytes(), name


def test_dnt_batch_records_a_few_nodes_per_length_group(fixture_batch):
    """One bilstm and no gate nodes per length group (23 nodes for the
    fixture batch, where the gate-by-gate graph records 1,133)."""
    nodes, _ = _dnt_batch(fixture_batch, "bilstm-avg", True, encode)
    _, pairs = fixture_batch
    groups = len({len(tokenize(text)) for p in pairs for text in (p.sentence_a, p.sentence_b)})
    kinds = Counter(node.kind for node in nodes)
    assert kinds["bilstm"] == groups > 1
    assert kinds["sigmoid"] == kinds["tanh"] == 0
    assert len(nodes) <= 3 * groups + 8
