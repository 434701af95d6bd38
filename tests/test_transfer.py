"""Tests for the transfer settings: heads, losses, transforms, freeze matrix."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import FIXTURES_DIR
from oracles import bilstm_reference_embedding, reference_transfer_config

from simxfer import autodiff
from simxfer.autodiff import Tape, Tensor, grad_check, lookup_rows, softmax
from simxfer.data import ScoredPair
from simxfer.embeddings import UNK_INDEX, EmbeddingMatrix, Vocabulary, load_embeddings, tokenize
from simxfer.encoders import GATES, EncoderConfig, encode, init_encoder
from simxfer.errors import ContractError, DataError, NumericError, ShapeError
from simxfer.transfer import (
    SCORE_SLICE,
    SETTINGS,
    PairTable,
    SimilarityModel,
    TransferConfig,
    classifier_forward,
    dnt_loss,
    embed_pairs,
    ft_loss,
    init_classifier,
    normalize_score,
    predict,
    predict_pairs,
    rescale_to_bins,
    sparse_target_distribution,
    trainable_parameter_sets,
)


def toy_model(kind="word-average", hidden=4, classifier_bins=None, seed=3):
    vocab = Vocabulary()
    for token in ("a", "b", "c", "d", "film", "movie"):
        vocab.add(token)
    rng = np.random.default_rng(seed)
    matrix = Tensor(rng.normal(size=(len(vocab), 4)), name="wem.matrix")
    config = EncoderConfig(kind, input_dim=4, hidden_dim=hidden if kind != "word-average" else 0,
                           seed=seed)
    classifier = None
    if classifier_bins:
        classifier = init_classifier(config.output_dim, classifier_bins, hidden_width=5, seed=seed)
    return SimilarityModel(vocab, EmbeddingMatrix(matrix, 4), config,
                           init_encoder(config), classifier)


# --- score normalization ---------------------------------------------------


def test_normalize_endpoints():
    assert normalize_score(5.0, (0, 5), (0, 1)) == 1.0
    assert normalize_score(-2.0, (-2, 2), (-1, 1)) == -1.0


def test_normalize_interior_point():
    assert normalize_score(3.0, (1, 5), (0, 1)) == pytest.approx(0.5, abs=1e-15)


def test_normalize_is_monotone(rng):
    ys = np.sort(rng.uniform(0, 5, size=20))
    mapped = [normalize_score(float(y), (0, 5), (-1, 1)) for y in ys]
    assert all(a <= b for a, b in zip(mapped, mapped[1:]))


def test_normalize_rejects_out_of_range():
    with pytest.raises(DataError):
        normalize_score(5.1, (0, 5), (0, 1), context="row 7")
    with pytest.raises(DataError):
        normalize_score(float("nan"), (0, 5), (0, 1))


def test_rescale_to_bins():
    assert rescale_to_bins(0.0, (0, 5), 5) == 1.0
    assert rescale_to_bins(5.0, (0, 5), 5) == 5.0
    assert rescale_to_bins(2.0, (-2, 2), 5) == 5.0


# --- sparse target distribution --------------------------------------------


def test_sparse_target_fractional():
    p = sparse_target_distribution(3.6, 5)
    assert np.allclose(p, [0, 0, 0.4, 0.6, 0], atol=1e-12)
    assert np.dot(np.arange(1, 6), p) == pytest.approx(3.6, abs=1e-12)


def test_sparse_target_integer_is_one_hot():
    assert sparse_target_distribution(3.0, 5).tolist() == [0, 0, 1, 0, 0]


def test_sparse_target_upper_boundary():
    assert sparse_target_distribution(5.0, 5).tolist() == [0, 0, 0, 0, 1]


def test_sparse_target_out_of_range():
    with pytest.raises(ContractError):
        sparse_target_distribution(0.5, 5)
    with pytest.raises(ContractError):
        sparse_target_distribution(5.5, 5)


def test_sparse_target_identity_property(rng):
    r = np.arange(1, 6, dtype=np.float64)
    for _ in range(1000):
        y = float(rng.uniform(1, 5))
        p = sparse_target_distribution(y, 5)
        assert abs(p.sum() - 1.0) < 1e-9
        assert abs(np.dot(r, p) - y) < 1e-9


# --- classifier head --------------------------------------------------------


def zero_classifier(e=4, k=3, bins=5):
    shapes = {"cla.w_times": (k, e), "cla.w_plus": (k, e), "cla.b_h": (k,),
              "cla.w_p": (bins, k), "cla.b_p": (bins,)}
    return {name: Tensor(np.zeros(shape), trainable=True, name=name)
            for name, shape in shapes.items()}


def test_zero_classifier_predicts_midpoint():
    params = zero_classifier()
    with Tape():
        p_hat, y_hat = classifier_forward(Tensor([1.0, 2, 3, 4]), Tensor([0.5, 1, 0, 2]), params)
    assert np.allclose(p_hat.values, 0.2, atol=1e-15)
    assert float(y_hat.values) == pytest.approx(3.0, abs=1e-12)


def test_one_hot_distribution_predicts_top_bin():
    params = zero_classifier()
    params["cla.b_p"].values = np.array([0.0, 0, 0, 0, 1000.0])
    with Tape():
        p_hat, y_hat = classifier_forward(Tensor([1.0, 0, 0, 0]), Tensor([1.0, 0, 0, 0]), params)
    assert p_hat.values.tolist() == [0, 0, 0, 0, 1]
    assert float(y_hat.values) == 5.0


def test_identical_embeddings_zero_difference_feature():
    params = init_classifier(4, bins=5, hidden_width=3, seed=1)
    h = Tensor([0.3, -0.4, 0.9, 0.1])
    with Tape():
        p_same, _ = classifier_forward(h, h, params)
    # absolute-difference path contributes nothing; only w_times and biases matter
    w_plus = params["cla.w_plus"]
    w_plus.values = np.random.default_rng(0).normal(size=w_plus.shape)
    with Tape():
        p_again, _ = classifier_forward(h, h, params)
    assert np.allclose(p_same.values, p_again.values, atol=1e-15)


def test_classifier_shape_mismatch():
    params = zero_classifier(e=4)
    with Tape():
        with pytest.raises(ShapeError):
            classifier_forward(Tensor([1.0, 2]), Tensor([1.0, 2, 3, 4]), params)
        with pytest.raises(ShapeError):
            classifier_forward(Tensor([1.0, 2, 3]), Tensor([1.0, 2, 3]), params)


def test_y_hat_stays_in_bin_range(rng):
    params = init_classifier(6, bins=5, hidden_width=4, seed=8)
    for _ in range(50):
        with Tape():
            _, y_hat = classifier_forward(Tensor(rng.normal(size=6)),
                                          Tensor(rng.normal(size=6)), params)
        assert 1.0 - 1e-12 <= float(y_hat.values) <= 5.0 + 1e-12


# --- losses -----------------------------------------------------------------


def test_ft_loss_zero_at_identity():
    # target must stay strictly positive for the KL identity, so use a soft one
    q = np.array([0.025, 0.9, 0.025, 0.025, 0.025])
    with Tape():
        assert float(ft_loss(q, Tensor(q), "MSE").values) == 0.0
        assert float(ft_loss(q, Tensor(q), "KL").values) == pytest.approx(0.0, abs=1e-15)


def test_ft_loss_kl_one_hot_vs_uniform():
    p = np.array([0, 0, 1.0, 0, 0])
    with Tape():
        out = ft_loss(p, Tensor(np.full(5, 0.2)), "KL")
    assert float(out.values) == pytest.approx(math.log(5), abs=1e-12)


def test_ft_loss_mse_one_hot_vs_uniform():
    p = np.array([0, 0, 1.0, 0, 0])
    with Tape():
        out = ft_loss(p, Tensor(np.full(5, 0.2)), "MSE")
    assert float(out.values) == pytest.approx(0.16, abs=1e-12)


def test_ft_loss_mse_takes_a_saturated_p_hat():
    # a saturated softmax holds exact zeros: MSE is defined there, KL's log is not
    p = np.array([0, 0.5, 0.5, 0, 0])
    one_hot = Tensor(np.array([0, 0, 1.0, 0, 0]))
    assert float(ft_loss(p, one_hot, "MSE").values) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(NumericError):
        ft_loss(p, one_hot, "KL")


def test_ft_loss_rejects_non_distribution():
    with Tape():
        with pytest.raises(ContractError):
            ft_loss(np.array([0.5, 0.2, 0, 0, 0]), Tensor(np.full(5, 0.2)), "KL")


def test_ft_loss_gradient_matches_finite_differences(rng):
    logits = Tensor(rng.normal(size=5), trainable=True)
    p = sparse_target_distribution(float(rng.uniform(1, 5)), 5)

    for kind in ("MSE", "KL"):
        def fn():
            return ft_loss(p, softmax(logits), kind)

        assert grad_check(fn, [logits], step=1e-5) < 1e-4


def test_dnt_loss_examples():
    def loss(cosine_values, targets):
        with Tape():
            return float(dnt_loss(Tensor(cosine_values), targets).values)

    assert loss([1.0], [1.0]) == 0.0
    assert loss([0.5], [1.0]) == pytest.approx(0.25, abs=1e-15)
    assert loss([0.2, 0.8], [0.4, 0.4]) == pytest.approx(0.1, abs=1e-15)


def test_dnt_loss_contract_errors():
    with Tape():
        with pytest.raises(ContractError):
            dnt_loss(Tensor([0.5]), [0.5, 0.6])
        with pytest.raises(ContractError):
            dnt_loss(Tensor([0.5]), [1.5], norm_range=(0.0, 1.0))


def test_dnt_loss_nonnegative_and_zero_iff_exact(rng):
    for _ in range(50):
        m = int(rng.integers(1, 6))
        cos_vals = rng.uniform(-1, 1, size=m)
        targets = rng.uniform(0, 1, size=m)
        with Tape():
            value = float(dnt_loss(Tensor(cos_vals), list(targets)).values)
        assert value >= 0
        with Tape():
            exact = float(dnt_loss(Tensor(targets), list(targets)).values)
        assert exact == pytest.approx(0.0, abs=1e-15)


# --- predict ----------------------------------------------------------------


def pair(a, b, score=2.5, score_range=(0.0, 5.0)):
    return ScoredPair(a, b, score, score_range)


def test_ue_predicts_one_for_identical_sentences():
    model = toy_model()
    config = TransferConfig("UE")
    assert predict(config, model, pair("a b film", "a b film")) == pytest.approx(1.0, abs=1e-12)


def test_ft_zero_head_predicts_midpoint():
    model = toy_model(classifier_bins=5)
    for t in model.classifier.values():
        t.values = np.zeros_like(t.values)
    config = TransferConfig("FT", loss_kind="MSE", bins=5)
    assert predict(config, model, pair("a b", "c d")) == pytest.approx(3.0, abs=1e-12)


def test_dnt_equals_ue_before_training():
    model = toy_model(kind="bilstm-avg", hidden=3)
    p = pair("a film", "b movie")
    ue = predict(TransferConfig("UE"), model, p)
    dnt = predict(TransferConfig("DNT", norm_range=(0.0, 1.0)), model, p)
    assert ue == dnt


def test_predict_requires_head_for_ft():
    model = toy_model()
    with pytest.raises(ContractError):
        predict(TransferConfig("FT", loss_kind="KL", bins=5), model, pair("a", "b"))


# --- the batched forward path -----------------------------------------------


def _reference_embedding(model, text):
    """Plain-numpy embedding of one sentence, without the tape."""
    vectors = model.embedding.matrix.values[
        [model.vocabulary.index.get(t, UNK_INDEX) for t in tokenize(text)]]
    if model.encoder_config.kind == "word-average":
        return vectors.mean(axis=0)
    enc = model.encoder_params
    params = {tag: tuple({g: enc[f"enc.{tag}.{part}_{g}"].values for g in GATES} for part in "wub")
              for tag in ("fw", "bw")}
    return bilstm_reference_embedding(params, vectors, model.encoder_config.kind[len("bilstm-"):])


def test_pair_table_rows_are_the_distinct_sentences_in_first_seen_order():
    model = toy_model()
    table = PairTable(model, [pair("a b", "film", 1.0), pair("film", "c"),
                              pair("a b", "zzz d film", 4.0)])
    index = model.vocabulary.index
    assert table.ids.tolist() == [[index["a"], index["b"], 0], [index["film"], 0, 0],
                                  [index["c"], 0, 0], [UNK_INDEX, index["d"], index["film"]]]
    assert table.lengths.tolist() == [2, 1, 1, 3]
    assert (table.left.tolist(), table.right.tolist()) == ([0, 1, 0], [1, 2, 3])
    assert table.scores.tolist() == [1.0, 2.5, 4.0]
    tail = table[1:]
    assert (tail.left.tolist(), tail.right.tolist()) == ([1, 0], [2, 3])
    assert tail.ids is table.ids and tail.scores.tolist() == [2.5, 4.0]


@pytest.mark.parametrize("kind", ["word-average", "bilstm-avg", "bilstm-max"])
def test_embed_pairs_matches_per_sentence_encode(kind):
    model = toy_model(kind=kind, hidden=3)
    # mixed lengths, out-of-vocabulary tokens and repeats, in no length order
    sentences = ["a b film", "movie", "zzz a", "a b film", "c d a b", "qq rr", "film",
                 "movie", "d c b a", "zzz a"]
    pairs = [pair(a, b) for a, b in zip(sentences[:5], sentences[5:])]
    with Tape():
        left, right = embed_pairs(model, PairTable(model, pairs))
        want_left, want_right = oracles.embed_pairs(model, pairs)
    assert left.values.tobytes() == want_left.values.tobytes()
    assert right.values.tobytes() == want_right.values.tobytes()
    batched = np.concatenate([left.values, right.values])
    assert batched.shape == (len(sentences), model.encoder_config.output_dim)
    for row, text in zip(batched, sentences):
        with Tape():
            ids = [model.vocabulary.index.get(t, UNK_INDEX) for t in tokenize(text)]
            vectors = lookup_rows(model.embedding.matrix, ids)
            single = encode(model.encoder_params, model.encoder_config, vectors).values
        assert np.allclose(row, single, rtol=0, atol=1e-12)
        assert np.allclose(row, _reference_embedding(model, text), rtol=0, atol=1e-12)


def test_pair_table_rejects_empty_sentence():
    with pytest.raises(DataError):
        PairTable(toy_model(), [pair("a b", "film"), pair("c", "  ")])


@pytest.mark.parametrize("config", [
    TransferConfig("UE"),
    TransferConfig("DNT", norm_range=(0.0, 1.0)),
    TransferConfig("FT", loss_kind="MSE", bins=5),
    TransferConfig("NT", loss_kind="KL", bins=5),
], ids=lambda c: c.setting)
def test_predict_pairs_matches_predict_pair_by_pair(config):
    model = toy_model(kind="bilstm-max", hidden=3, classifier_bins=5)
    rng = np.random.default_rng(17)
    words = ["a", "b", "c", "d", "film", "movie", "zzz"]

    def sentence():
        return " ".join(rng.choice(words, size=int(rng.integers(1, 6))))

    pairs = [pair(sentence(), sentence()) for _ in range(SCORE_SLICE + 44)]
    batched = predict_pairs(config, model, PairTable(model, pairs))
    one_by_one = [predict(config, model, p) for p in pairs]
    assert np.allclose(batched, one_by_one, rtol=0, atol=1e-12)


@pytest.mark.parametrize("config", [
    TransferConfig("UE"),
    TransferConfig("FT", loss_kind="KL", bins=5),
], ids=["cosine", "head"])
def test_predict_pairs_records_no_graph(config, monkeypatch):
    model = toy_model(kind="bilstm-max", hidden=3, classifier_bins=5)
    model.apply_freeze_policy(TransferConfig("NT", loss_kind="KL", bins=5, freeze_wem=False))
    expected = predict_pairs(config, model, PairTable(model, [pair("a film", "b movie c")]))

    def no_node(*args, **kwargs):
        raise AssertionError("scoring recorded a tape node")

    monkeypatch.setattr(autodiff, "TapeNode", no_node)
    assert predict_pairs(config, model, PairTable(model, [pair("a film", "b movie c")])) == expected


# Bytes that scoring may add per pair beyond 2 * SCORE_SLICE pairs.  Measured
# with the 50-d fixture vectors and 3-8-token sentences: building the pair
# table and returning the scores add 190-240 bytes per pair (tokenizing each
# slice on its own, as before the table, added 33-38); looking up every
# pair's sentences at once would add about 4,400.
SCORING_BYTES_PER_PAIR = 400


@pytest.mark.parametrize("kind", ["word-average", "bilstm-avg"])
def test_scoring_memory_holds_one_slice_of_lookups(kind):
    """Scoring 40 slices of pairs rather than 2 adds the pair table and the
    scores, not the T x n x d lookups of more than one slice at a time."""
    emb = load_embeddings(FIXTURES_DIR / "wordvecs_50d.txt", 50)
    config = EncoderConfig(kind, input_dim=50, hidden_dim=0 if kind == "word-average" else 8,
                           seed=1)
    model = SimilarityModel(emb.vocabulary, emb.embedding, config, init_encoder(config))
    words = sorted(emb.vocabulary.index)
    rng = np.random.default_rng(5)

    def peak(n_pairs):
        def sentence():
            return " ".join(rng.choice(words, size=int(rng.integers(3, 9))))

        pairs = [pair(sentence(), sentence()) for _ in range(n_pairs)]
        tracemalloc.start()
        try:
            predict_pairs(TransferConfig("UE"), model, PairTable(model, pairs))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * SCORE_SLICE), peak(40 * SCORE_SLICE)
    assert large - small <= SCORING_BYTES_PER_PAIR * 38 * SCORE_SLICE


# --- config and freeze matrix ----------------------------------------------


def test_transfer_config_validation():
    with pytest.raises(ContractError):
        TransferConfig("XX")
    with pytest.raises(ContractError):
        TransferConfig("FT")  # missing loss
    with pytest.raises(ContractError):
        TransferConfig("FT", loss_kind="MSE", bins=5, freeze_wem=False)
    with pytest.raises(ContractError):
        TransferConfig("DNT", loss_kind="MSE", norm_range=(0, 1))
    with pytest.raises(ContractError):
        TransferConfig("DNT", norm_range=(0, 2))
    with pytest.raises(ContractError):
        TransferConfig("UE", norm_range=(0, 1))


def test_settings_table_names_the_four_settings():
    assert set(SETTINGS) == {"UE", "FT", "NT", "DNT"}
    assert all(isinstance(row, frozenset) and row <= {"enc", "cla"} for row in SETTINGS.values())


@pytest.mark.parametrize("setting", ["UE", "FT", "NT", "DNT", "XT"])
def test_transfer_config_follows_reference_rules(setting):
    """Over 128 field combinations per setting, the table-driven config
    accepts and refuses as the per-setting rules do, with the same
    exception type, and trains the same parameter sets."""
    mismatches = []
    for loss_kind, bins, norm_range, freeze_wem in itertools.product(
            (None, "MSE", "KL", "L1"), (None, 1, 2, 5),
            (None, (0.0, 1.0), (-1.0, 1.0), (0.0, 2.0)), (True, False)):
        fields = dict(loss_kind=loss_kind, freeze_wem=freeze_wem, norm_range=norm_range,
                      bins=bins)
        try:
            want = reference_transfer_config(setting, **fields)
        except Exception as exc:  # noqa: BLE001 - the type itself is compared
            want = type(exc)
        try:
            got = trainable_parameter_sets(TransferConfig(setting, **fields))
        except Exception as exc:  # noqa: BLE001
            got = type(exc)
        if got != want:
            mismatches.append((fields, got, want))
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize(
    "config,expected",
    [
        (TransferConfig("UE"), frozenset()),
        (TransferConfig("FT", loss_kind="MSE", bins=5), frozenset({"cla"})),
        (TransferConfig("NT", loss_kind="KL", bins=5, freeze_wem=True),
         frozenset({"enc", "cla"})),
        (TransferConfig("NT", loss_kind="KL", bins=5, freeze_wem=False),
         frozenset({"wem", "enc", "cla"})),
        (TransferConfig("DNT", norm_range=(0, 1), freeze_wem=True), frozenset({"enc"})),
        (TransferConfig("DNT", norm_range=(0, 1), freeze_wem=False),
         frozenset({"wem", "enc"})),
    ],
)
def test_trainable_parameter_sets(config, expected):
    assert trainable_parameter_sets(config) == expected


def test_apply_freeze_policy_sets_flags():
    model = toy_model(kind="bilstm-avg", hidden=3, classifier_bins=5)
    model.apply_freeze_policy(TransferConfig("NT", loss_kind="MSE", bins=5, freeze_wem=True))
    assert not model.embedding.matrix.trainable
    assert all(t.trainable for t in model.encoder_params.values())
    assert all(t.trainable for t in model.classifier.values())
