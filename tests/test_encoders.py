"""Tests for the sentence encoders, checked against a from-scratch
numpy recurrence oracle that never touches the tape machinery, and the
fused, packed ``bilstm`` node against the gate-by-gate graph it replaces."""

import zlib
from collections import Counter

import numpy as np
import pytest

from conftest import FIXTURES_DIR
from oracles import (
    bilstm_reference_embedding,
    lstm_reference_states,
    per_group_encode,
    tape_packed_bilstm,
)

from simxfer import encoders, transfer
from simxfer.autodiff import (
    Tape,
    Tensor,
    backward,
    bilstm,
    dense,
    lookup_rows,
    matmul,
    mean_over_axis,
    select_row,
)
from simxfer.data import ScoredPair, load_generic_tsv
from simxfer.embeddings import load_embeddings, tokenize
from simxfer.encoders import GATES, EncoderConfig, encode, init_encoder
from simxfer.errors import ContractError, DataError, ShapeError
from simxfer.trainer import batch_loss
from simxfer.transfer import SimilarityModel, TransferConfig


def direction_arrays(params, tag):
    """(weights, recurrent, biases) dicts of one direction, keyed by gate."""
    return tuple({g: params[f"enc.{tag}.{part}_{g}"].values for g in GATES} for part in "wub")


def encode_tokens(params, config, x):
    """``encode`` of one sentence's T x d token vectors (an embedding vector),
    or of n sentences of T tokens each, given as T x n x d (an n x e matrix)."""
    x = np.asarray(x, dtype=np.float64)
    steps = x[:, None] if x.ndim == 2 else x
    n_steps, n, d = steps.shape
    matrix = Tensor(steps.transpose(1, 0, 2).reshape(n * n_steps, d))
    ids = np.arange(n * n_steps).reshape(n, n_steps)
    out = encode(params, config, matrix, ids, np.full(n, n_steps), range(n))
    return select_row(out, 0) if x.ndim == 2 else out


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
    for bad in ({n: params[n] for n in names}, {n: params[n] for n in names[1:]}, {}):
        with pytest.raises(ContractError, match="BILSTM_NAMES"):
            encode_tokens(bad, config, np.ones((2, 3)))


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
        out = encode_tokens(init_encoder(config), config, [[1.0, 2.0], [3.0, 4.0]])
    assert out.values.tolist() == [2.0, 3.0]


@pytest.mark.parametrize("kind", ["bilstm-avg", "bilstm-max"])
def test_single_step_pooling_is_identity(kind):
    config = EncoderConfig(kind, input_dim=3, hidden_dim=4, seed=5)
    params = init_encoder(config)
    x = np.random.default_rng(0).normal(size=(1, 3))
    with Tape():
        pooled = encode_tokens(params, config, x).values
    fw = lstm_reference_states(*direction_arrays(params, "fw"), [x[0]])[-1]
    bw = lstm_reference_states(*direction_arrays(params, "bw"), [x[0]])[-1]
    assert np.allclose(pooled, np.concatenate([fw, bw]), atol=1e-12)


@pytest.mark.parametrize("kind,pooling", [("bilstm-avg", "avg"), ("bilstm-max", "max")])
def test_bilstm_matches_reference_recurrence(kind, pooling):
    config = EncoderConfig(kind, input_dim=4, hidden_dim=6, seed=11)
    params = init_encoder(config)
    x = np.random.default_rng(3).normal(size=(3, 4))
    with Tape():
        produced = encode_tokens(params, config, x).values
    reference = bilstm_reference_embedding(
        {"fw": direction_arrays(params, "fw"), "bw": direction_arrays(params, "bw")},
        x, pooling)
    assert np.allclose(produced, reference, atol=1e-10)


def test_bilstm_is_order_sensitive():
    config = EncoderConfig("bilstm-avg", input_dim=3, hidden_dim=5, seed=2)
    params = init_encoder(config)
    x = np.random.default_rng(4).normal(size=(4, 3))
    with Tape():
        forward_order = encode_tokens(params, config, x).values
    with Tape():
        reversed_order = encode_tokens(params, config, x[::-1]).values
    assert not np.allclose(forward_order, reversed_order)


def test_word_average_is_permutation_invariant():
    config = EncoderConfig("word-average", input_dim=3)
    x = np.random.default_rng(4).normal(size=(4, 3))
    with Tape():
        a = encode_tokens(init_encoder(config), config, x).values
    with Tape():
        b = encode_tokens(init_encoder(config), config, x[::-1]).values
    assert np.allclose(a, b, atol=1e-12)


def test_max_pooling_dominates_every_step():
    config = EncoderConfig("bilstm-max", input_dim=3, hidden_dim=4, seed=9)
    params = init_encoder(config)
    x = np.random.default_rng(6).normal(size=(5, 3))
    with Tape():
        pooled = encode_tokens(params, config, x).values
    fw = lstm_reference_states(*direction_arrays(params, "fw"), list(x))
    bw = lstm_reference_states(*direction_arrays(params, "bw"), list(x)[::-1])[::-1]
    for f, b in zip(fw, bw):
        assert np.all(pooled >= np.concatenate([f, b]) - 1e-12)


def test_gradients_reach_encoder_parameters():
    config = EncoderConfig("bilstm-avg", input_dim=3, hidden_dim=4, seed=13)
    params = init_encoder(config)
    x = np.random.default_rng(8).normal(size=(3, 3))
    with Tape() as tape:
        emb = encode_tokens(params, config, x)
        from simxfer.autodiff import matmul

        loss = matmul(emb, emb)
    grads = backward(tape, loss)
    assert any(t in grads and np.any(grads[t] != 0) for t in params.values())


def test_encoding_is_deterministic():
    config = EncoderConfig("bilstm-max", input_dim=3, hidden_dim=4, seed=21)
    params = init_encoder(config)
    x = np.random.default_rng(10).normal(size=(4, 3))
    with Tape():
        a = encode_tokens(params, config, x).values
    with Tape():
        b = encode_tokens(params, config, x).values
    assert np.array_equal(a, b)


def test_invalid_configs_rejected():
    with pytest.raises(ContractError):
        EncoderConfig("gru", input_dim=4)
    with pytest.raises(ContractError):
        EncoderConfig("bilstm-avg", input_dim=4, hidden_dim=0)
    with pytest.raises(ContractError):
        EncoderConfig("word-average", input_dim=0)


@pytest.mark.parametrize("kind", ["word-average", "bilstm-avg", "bilstm-max"])
def test_encode_refuses_an_empty_sentence(kind):
    config = EncoderConfig(kind, input_dim=3, hidden_dim=2, seed=1)
    ids, lengths = np.array([[1, 2], [0, 0]]), np.array([2, 0])
    with pytest.raises(DataError, match="empty sentence"):
        encode(init_encoder(config), config, Tensor(np.ones((3, 3))), ids, lengths, [0, 1])


def test_output_dims():
    assert EncoderConfig("word-average", input_dim=7).output_dim == 7
    assert EncoderConfig("bilstm-avg", input_dim=7, hidden_dim=5).output_dim == 10


@pytest.mark.parametrize("shape", [(3, 5), (3, 2, 5)], ids=["T x d", "T x n x d"])
def test_token_width_other_than_input_dim_is_a_shape_error(shape):
    config = EncoderConfig("bilstm-avg", input_dim=4, hidden_dim=3, seed=1)
    with Tape():
        with pytest.raises(ShapeError):
            encode_tokens(init_encoder(config), config, np.ones(shape))


# --- the packed bilstm node against the gate-by-gate graphs (tests/oracles.py) ---


def _probe_loss(pooled, probe):
    """A scalar that reads every pooled coordinate of one sentence or a batch."""
    if pooled.values.ndim == 2:
        pooled = mean_over_axis(pooled, axis=0)
    return matmul(probe, pooled)


def _encode_rows(params, config, wem, ids, lengths, rows, probe, kernel=None):
    """The embeddings of ``encode`` over the rows and the gradients of a probe
    of them; ``kernel`` stands in for the ``bilstm`` primitive if given."""
    with pytest.MonkeyPatch.context() as patch:
        if kernel is not None:
            patch.setattr(encoders, "bilstm", kernel)
        with Tape() as tape:
            out = encode(params, config, wem, ids, lengths, rows)
            loss = _probe_loss(out, probe)
    return out.values, {t: dense(g) for t, g in backward(tape, loss).items()}


def _assert_bitwise(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert set(got[1]) == set(want[1])
    for t, g in want[1].items():
        assert got[1][t].tobytes() == g.tobytes(), t.name


@pytest.mark.parametrize("kind", ["bilstm-avg", "bilstm-max"])
@pytest.mark.parametrize("batch", [1, 3], ids=["T x d", "T x n x d"])
def test_fused_bilstm_is_bitwise_the_gate_by_gate_graph_on_one_length_group(kind, batch):
    """One sentence, or three of one length: the states, the embeddings and
    every gradient are those of the packed gate graph, bit for bit."""
    config = EncoderConfig(kind, input_dim=4, hidden_dim=5, seed=3)
    params = init_encoder(config)
    rng = np.random.default_rng(12)
    wem = Tensor(rng.normal(size=(9, 4)), trainable=True)
    ids = rng.integers(0, 9, size=(batch, 6))
    lengths = np.full(batch, 6)
    probe = Tensor(rng.normal(size=config.output_dim))
    tokens = lookup_rows(wem, ids.T.ravel())
    values = list(params.values())
    fused = bilstm(tokens, lengths, values[:12], values[12:])
    reference = tape_packed_bilstm(tokens, lengths, values[:12], values[12:])
    assert fused.values.tobytes() == reference.values.tobytes()
    got = _encode_rows(params, config, wem, ids, lengths, range(batch), probe)
    _assert_bitwise(got, _encode_rows(params, config, wem, ids, lengths, range(batch), probe,
                                      kernel=tape_packed_bilstm))
    assert set(got[1]) == {wem, *params.values()}


EDGE_LENGTHS = {"one sentence": [5], "a 1-token sentence among 6-token ones": [6, 1, 6, 6],
                "all lengths equal": [4, 4, 4], "repeated rows": [3, 5, 2],
                "bilstm-max with tied steps": [4, 6, 2], "one-token sentences": [1, 1, 1, 1],
                "a lone one-token sentence": [1]}


@pytest.mark.parametrize("case, d, h", [  # d = 4, h = 3 keeps the bare case name
    pytest.param(case, d, h, id=case + suffix) for case in EDGE_LENGTHS
    for suffix, (d, h) in {"": (4, 3), "-d1-h1": (1, 1), "-d300-h64": (300, 64)}.items()])
def test_packed_batch_edge_cases_match_the_gate_graph_and_per_sentence_encode(case, d, h):
    """Each edge batch is bitwise the packed gate graph, embeddings and every
    gradient, and each of its rows is within 1e-12 of encoding that sentence
    alone.  The tied case shuts the forget gate and drops U, so a step's state
    depends on its token alone; alternating tokens then tie steps exactly,
    and every state is negative, so a padded zero step must never win."""
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    lengths = np.array(EDGE_LENGTHS[case])
    kind = "bilstm-max" if "tied" in case else "bilstm-avg"
    config = EncoderConfig(kind, input_dim=d, hidden_dim=h, seed=5)
    params = init_encoder(config)
    wem = Tensor(rng.normal(size=(12, d)), trainable=True)
    ids = rng.integers(1, 12, size=(len(lengths), lengths.max()))
    rows = [0, 2, 0, 1, 2, 2, 1] if case == "repeated rows" else range(len(lengths))
    if "tied" in case:
        ids = ids[:, np.arange(ids.shape[1]) % 2]
        for tag in ("fw", "bw"):
            for gate in GATES:
                params[f"enc.{tag}.u_{gate}"].values[:] = 0.0
            params[f"enc.{tag}.b_forget"].values[:] = -1000.0
            params[f"enc.{tag}.b_candidate"].values[:] = -5.0
    ids[np.arange(ids.shape[1]) >= lengths[:, None]] = 0  # zero-padded, as in a PairTable
    probe = Tensor(rng.normal(size=config.output_dim))
    got = _encode_rows(params, config, wem, ids, lengths, rows, probe)
    _assert_bitwise(got, _encode_rows(params, config, wem, ids, lengths, rows, probe,
                                      kernel=tape_packed_bilstm))
    for embedding, row in zip(got[0], rows):
        alone = encode(params, config, wem, ids, lengths, [row]).values[0]
        assert np.allclose(embedding, alone, rtol=0, atol=1e-12)
    if "tied" in case:
        assert np.all(got[0] < 0)


def test_a_lone_token_adjoint_adds_the_eight_gates_in_order():
    """One sentence of one token, d = h = 1: the token's adjoint sums 8 single
    numbers, one per gate and direction, which numpy's pairwise summation
    would add in another order.  Over 40 draws it stays bitwise the gate
    graph's."""
    rng = np.random.default_rng(8)
    for _ in range(40):
        tokens = Tensor(rng.normal(size=(1, 1)), trainable=True)
        params = [Tensor(rng.normal(size=(1,) * (1 + (i % 12 < 8))) * 10.0 ** rng.integers(-3, 3),
                         trainable=True) for i in range(24)]
        grads = []
        for kernel in (bilstm, tape_packed_bilstm):
            with Tape() as tape:
                loss = mean_over_axis(mean_over_axis(
                    kernel(tokens, [1], params[:12], params[12:]), axis=0), axis=0)
                loss = matmul(loss, Tensor([1.0, -0.5]))
            grads.append(backward(tape, loss)[tokens].tobytes())
        assert grads[0] == grads[1]


@pytest.fixture(scope="module")
def fixture_batch():
    """The word vectors and a 32-pair batch of the fixture pairs."""
    emb = load_embeddings(FIXTURES_DIR / "wordvecs_50d.txt", 50)
    return emb, load_generic_tsv(FIXTURES_DIR / "activity_pairs.tsv", 0, 5).pairs[:32]


def _dnt_batch(emb, pairs, kind, freeze_wem, patch=None):
    """Nodes, loss and gradients of one DNT batch loss; ``patch`` is a
    (module, name, stand-in) to swap in while it is recorded."""
    config = EncoderConfig(kind, input_dim=50, hidden_dim=8, seed=7)
    model = SimilarityModel(emb.vocabulary, emb.embedding, config, init_encoder(config))
    dnt = TransferConfig("DNT", norm_range=(0.0, 1.0), freeze_wem=freeze_wem)
    model.apply_freeze_policy(dnt)
    with pytest.MonkeyPatch.context() as mp:
        if patch is not None:
            mp.setattr(*patch)
        with Tape() as tape:
            loss = batch_loss(model, dnt, pairs)
    grads = {t.name: dense(g) for t, g in backward(tape, loss).items()}
    return tape.nodes, loss.values, grads


@pytest.mark.parametrize("kind", ["bilstm-avg", "bilstm-max"])
def test_fused_bilstm_matches_the_gate_by_gate_graph_across_length_groups(fixture_batch, kind):
    """One packed node over a batch of many lengths is bitwise the packed gate
    graph, biases included.  The per-length-group graph that the encoder ran
    before packing sums in another order, so it agrees within the goldens' 1e-12."""
    nodes, loss, grads = _dnt_batch(*fixture_batch, kind, False)
    _, want_loss, want = _dnt_batch(*fixture_batch, kind, False,
                                    (encoders, "bilstm", tape_packed_bilstm))
    _, group_loss, per_group = _dnt_batch(*fixture_batch, kind, False,
                                          (transfer, "encode", per_group_encode))
    assert Counter(node.kind for node in nodes)["bilstm"] == 1
    assert set(grads) == set(want) == set(per_group) and len(want) == 25
    assert loss.tobytes() == want_loss.tobytes()
    assert abs(loss - group_loss) <= 1e-12
    for name, g in want.items():
        assert grads[name].tobytes() == g.tobytes(), name
        assert np.allclose(grads[name], per_group[name], rtol=0, atol=1e-12), name


def test_dnt_batch_records_a_few_nodes_per_length_group(fixture_batch):
    """One bilstm node and no gate node per batch, whatever its lengths: the
    fixture batch, with five lengths, records the same 10 nodes as a batch of
    one length.  Per length group, the fixture batch took 23 nodes; gate by
    gate, 1,133."""
    emb, pairs = fixture_batch
    nodes, _, _ = _dnt_batch(emb, pairs, "bilstm-avg", True)
    four = [p.sentence_a for p in load_generic_tsv(FIXTURES_DIR / "activity_pairs.tsv", 0, 5).pairs
            if len(tokenize(p.sentence_a)) == 4][:32]
    one_length = [ScoredPair(a, b, 2.5, (0.0, 5.0)) for a, b in zip(four[::2], four[1::2])]
    same_nodes, _, _ = _dnt_batch(emb, one_length, "bilstm-avg", True)
    assert len({len(tokenize(text)) for p in pairs for text in (p.sentence_a, p.sentence_b)}) == 5
    kinds = Counter(node.kind for node in nodes)
    assert kinds["bilstm"] == 1 and kinds["sigmoid"] == kinds["tanh"] == 0
    assert kinds == Counter(node.kind for node in same_nodes) and len(nodes) == 10
