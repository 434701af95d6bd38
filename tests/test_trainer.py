"""Tests for Adam, the training loop, early stopping, and grid search."""

import collections
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import dense_lookup_backward, reference_grid_search, reference_train
from synthetic import already_optimal_pairs, as_split, make_model, overlap_pairs, random_pairs

from simxfer import autodiff as ad
from simxfer import trainer, transfer
from simxfer.autodiff import Tape, Tensor, backward, matmul, subtract
from simxfer.embeddings import EmbeddingMatrix
from simxfer.encoders import init_encoder
from simxfer.errors import ContractError, NumericError
from simxfer.trainer import (
    AdamState,
    HyperGrid,
    TrainingConfig,
    TrainingHistory,
    adam_step,
    batch_loss,
    evaluate_split,
    grid_search,
    train,
)
from simxfer.transfer import SimilarityModel, TransferConfig

DNT = TransferConfig("DNT", norm_range=(0.0, 1.0), freeze_wem=False)
DNT_LOCKED = TransferConfig("DNT", norm_range=(0.0, 1.0), freeze_wem=True)


# --- adam -------------------------------------------------------------------


def test_adam_first_step_closed_form():
    p = Tensor(np.array(0.0), trainable=True, name="p")
    state = AdamState([p])
    adam_step({p: np.array(1.0)}, state, lr=0.001)
    # m_hat = 1, v_hat = 1 -> step = lr / (1 + eps)
    assert float(p.values) == pytest.approx(-0.001 / (1 + 1e-8), abs=1e-12)
    assert state.t == 1


def test_adam_zero_gradient_means_no_update():
    p = Tensor([1.0, -2.0], trainable=True, name="p")
    state = AdamState([p])
    adam_step({p: np.zeros(2)}, state, lr=0.1)
    assert p.values.tolist() == [1.0, -2.0]


def test_adam_skips_frozen_tensors():
    p = Tensor([1.0], trainable=False, name="frozen")
    state = AdamState([p])
    adam_step({p: np.array([5.0])}, state, lr=0.1)
    assert p.values.tolist() == [1.0]


def test_adam_rejects_non_finite_gradient():
    p = Tensor([1.0], trainable=True, name="theta")
    state = AdamState([p])
    with pytest.raises(NumericError) as err:
        adam_step({p: np.array([np.nan])}, state, lr=0.1)
    assert "theta" in str(err.value)


def test_adam_applies_gradients_returned_by_backward():
    p = Tensor([0.0], trainable=True, name="p")
    q = Tensor([5.0], trainable=True, name="q")  # in the state but not in the loss
    with Tape() as tape:
        loss = matmul(subtract(p, Tensor([3.0])), subtract(p, Tensor([3.0])))
    state = AdamState([p, q])
    adam_step(backward(tape, loss), state, lr=0.01)
    assert p.values[0] == pytest.approx(0.01, abs=1e-9)  # moved toward 3 by lr
    assert q.values.tolist() == [5.0]


def test_adam_error_names_first_non_finite_tensor_in_state_order():
    a = Tensor([1.0], trainable=True, name="wem.matrix")
    b = Tensor([1.0], trainable=True, name="enc.w")
    state = AdamState([a, b])
    with pytest.raises(NumericError, match="wem.matrix"):
        adam_step({b: np.array([np.inf]), a: np.array([np.nan])}, state, lr=0.1)


def _row_sparse(rng, rows, shape):
    rows = np.array(sorted(rows), dtype=np.intp)
    return ad.RowSparse(rows, rng.normal(size=(len(rows),) + shape[1:]), shape)


def test_touched_row_adam_matches_dense_adam_bitwise(rng):
    shape = (12, 3)
    start = rng.normal(size=shape)
    sparse_p = Tensor(start.copy(), trainable=True, name="sparse")
    dense_p = Tensor(start.copy(), trainable=True, name="dense")
    sparse_state, dense_state = AdamState([sparse_p]), AdamState([dense_p])
    # row 0 is touched once and never again; rows 10 and 11 never
    steps = [{0, 3, 5}, {3}, {5, 7}, {1, 3, 9}, {2, 7}, {9}, {4, 5, 6}]
    touched: set[int] = set()
    for rows in steps:
        g = _row_sparse(rng, rows, shape)
        adam_step({sparse_p: g}, sparse_state, lr=0.05)
        adam_step({dense_p: ad.dense(g)}, dense_state, lr=0.05)
        touched |= rows
        assert sparse_p.values.tobytes() == dense_p.values.tobytes()
        assert sparse_state.rows[sparse_p].tolist() == sorted(touched)
        assert sparse_state.m[sparse_p].shape == (len(touched), 3)
    assert np.array_equal(sparse_p.values[10:], start[10:])
    # a dense gradient makes the moments whole and keeps the results equal
    g = rng.normal(size=shape)
    adam_step({sparse_p: g}, sparse_state, lr=0.05)
    adam_step({dense_p: g}, dense_state, lr=0.05)
    g = _row_sparse(rng, {0, 11}, shape)
    adam_step({sparse_p: g}, sparse_state, lr=0.05)
    adam_step({dense_p: ad.dense(g)}, dense_state, lr=0.05)
    assert sparse_state.rows[sparse_p] is None
    assert sparse_p.values.tobytes() == dense_p.values.tobytes()


def test_adam_rejects_non_finite_row_sparse_gradient(rng):
    p = Tensor(np.zeros((4, 2)), trainable=True, name="wem.matrix")
    g = ad.RowSparse(np.array([1, 3]), np.array([[0.5, 1.0], [np.inf, 0.0]]), p.shape)
    with pytest.raises(NumericError, match="wem.matrix"):
        adam_step({p: g}, AdamState([p]), lr=0.1)
    assert not p.values.any()


# --- training loop ----------------------------------------------------------


def test_train_already_optimal_terminates_by_patience():
    # gold range (0,1) makes normalization the identity, so gold == initial
    # cosine exactly and the first-epoch loss is exactly zero
    model = make_model(kind="word-average", dim=4, seed=5)
    pairs = already_optimal_pairs(model, 50, seed=6, score_range=(0.0, 1.0))
    split = as_split("train", pairs)
    dev = as_split("dev", pairs[:20])
    cfg = TrainingConfig(batch_size=16, learning_rate=0.001, max_epochs=30, patience=3, seed=1)
    before = evaluate_split(model, DNT, split.pairs, "pearson")
    model, history = train(model, DNT, split, dev, cfg)
    assert history.train_losses[0] == 0.0
    assert history.epochs_run < 30  # stopped by patience
    after = evaluate_split(model, DNT, split.pairs, "pearson")
    assert after == before


def test_train_determinism():
    def run():
        model = make_model(kind="bilstm-avg", hidden=3, dim=3, seed=11)
        pairs = overlap_pairs(20, seed=12)
        cfg = TrainingConfig(batch_size=8, learning_rate=0.01, max_epochs=4, patience=5, seed=2)
        return train(model, DNT, as_split("train", pairs), as_split("dev", pairs[:10]), cfg)

    (model_a, a), (model_b, b) = run(), run()
    assert a.train_losses == b.train_losses
    assert a.dev_correlations == b.dev_correlations
    assert a.best_epoch == b.best_epoch
    snap_a, snap_b = model_a.snapshot(), model_b.snapshot()
    for name in snap_a:
        assert np.array_equal(snap_a[name], snap_b[name])


def test_early_stopping_returns_best_epoch():
    """Dev gold is anti-correlated with train gold, so dev peaks early."""
    model = make_model(kind="word-average", dim=4, seed=21)
    train_pairs = overlap_pairs(30, seed=22)
    dev_pairs = [
        type(p)(p.sentence_a, p.sentence_b, 5.0 - p.score, p.score_range) for p in train_pairs
    ]
    cfg = TrainingConfig(batch_size=8, learning_rate=0.01, max_epochs=25, patience=4, seed=3)
    model, history = train(model, DNT, as_split("train", train_pairs),
                           as_split("dev", dev_pairs), cfg)
    assert history.epochs_run < 25
    best = history.best_dev_correlation
    assert best == max(history.dev_correlations)
    assert best >= history.dev_correlations[-1]
    restored = evaluate_split(model, DNT, dev_pairs, "pearson")
    assert restored == pytest.approx(best, abs=1e-9)


def test_freeze_conservation_smoke():
    model = make_model(kind="bilstm-avg", hidden=3, dim=3, bins=5, seed=31)
    before = model.snapshot()
    pairs = random_pairs(16, seed=32)
    cfg = TrainingConfig(batch_size=8, learning_rate=0.01, max_epochs=2, patience=5, seed=4)
    ft = TransferConfig("FT", loss_kind="KL", bins=5)
    model, _ = train(model, ft, as_split("train", pairs), as_split("dev", pairs[:8]), cfg)
    after = model.snapshot()
    assert np.array_equal(before["wem.matrix"], after["wem.matrix"])
    for name in model.encoder_params:
        assert np.array_equal(before[name], after[name])
    assert any(not np.array_equal(before[n], after[n])
               for n in model.classifier)


def _history_fields(history):
    return (history.train_losses, history.dev_correlations, history.best_epoch,
            history.best_dev_correlation)


@pytest.mark.parametrize("restores", [True, False], ids=["restored", "last-epoch-best"])
def test_train_with_row_sparse_lookup_matches_the_dense_oracle(restores, monkeypatch):
    """DNT+wem trains the embedding matrix through row-sparse lookup
    gradients; swapping in the dense lookup backward changes no bit."""
    train_pairs = overlap_pairs(30, seed=22)
    # an anti-correlated dev split peaks early, so training stops and restores
    dev_pairs = [type(p)(p.sentence_a, p.sentence_b, 5.0 - p.score if restores else p.score,
                         p.score_range) for p in train_pairs]
    cfg = TrainingConfig(batch_size=8, learning_rate=0.01, max_epochs=6, patience=2, seed=3)

    def run():
        model = make_model(kind="bilstm-avg", hidden=3, dim=4, n_tokens=24, seed=21)
        model, history = train(model, DNT, as_split("train", train_pairs),
                               as_split("dev", dev_pairs), cfg)
        return model.snapshot(), _history_fields(history)

    sparse_tensors, sparse_history = run()
    with monkeypatch.context() as patch:
        patch.setitem(ad._KERNELS, "lookup", (ad._KERNELS["lookup"][0], dense_lookup_backward))
        dense_tensors, dense_history = run()
    assert sparse_history == dense_history
    assert {n: v.tobytes() for n, v in sparse_tensors.items()} == \
        {n: v.tobytes() for n, v in dense_tensors.items()}
    assert (sparse_history[2] + 1 < len(sparse_history[0])) == restores


@pytest.mark.parametrize("max_epochs,patience,anti", [(1, 5, True), (4, 5, False), (12, 2, True)])
def test_train_snapshots_trainable_tensors_only_when_a_later_epoch_may_need_them(
        max_epochs, patience, anti, monkeypatch):
    taken, restored = [], []
    real_snapshot, real_restore = SimilarityModel.snapshot, SimilarityModel.restore

    def snapshot(self, trainable_only=False):
        taken.append(real_snapshot(self, trainable_only))
        return taken[-1]

    def restore(self, snap):
        restored.append(snap)
        real_restore(self, snap)

    monkeypatch.setattr(SimilarityModel, "snapshot", snapshot)
    monkeypatch.setattr(SimilarityModel, "restore", restore)
    train_pairs = overlap_pairs(30, seed=22)
    dev_pairs = [type(p)(p.sentence_a, p.sentence_b, 5.0 - p.score if anti else p.score,
                         p.score_range) for p in train_pairs]
    model = make_model(kind="word-average", dim=4, n_tokens=24, bins=5, seed=21)
    ft = TransferConfig("FT", loss_kind="KL", bins=5)
    cfg = TrainingConfig(batch_size=8, learning_rate=0.05, max_epochs=max_epochs,
                         patience=patience, seed=3)
    model, history = train(model, ft, as_split("train", train_pairs),
                           as_split("dev", dev_pairs), cfg)
    corrs = history.dev_correlations
    improved = [e for e in range(len(corrs)) if corrs[e] > max(corrs[:e], default=-np.inf)]
    # a frozen matrix and encoder are never copied, nor is the model after the last epoch
    assert len(taken) == len([e for e in improved if e + 1 < max_epochs])
    assert all(sorted(snap) == sorted(model.classifier) for snap in taken)
    assert len(restored) == (history.best_epoch + 1 < history.epochs_run)
    if restored:
        assert restored[0] is taken[-1]
        assert evaluate_split(model, ft, dev_pairs, "pearson") == history.best_dev_correlation


def test_training_a_large_embedding_matrix_allocates_less_than_the_matrix():
    """One DNT+wem epoch over a 50,000 x 20 matrix costs the rows it touches:
    no dense gradient, Adam moment or snapshot of the whole matrix."""
    model = make_model(kind="word-average", dim=20, n_tokens=49_999, seed=91)
    pairs = random_pairs(48, n_tokens=49_999, seed=92)
    cfg = TrainingConfig(batch_size=8, learning_rate=0.01, max_epochs=1, patience=5, seed=9)
    matrix_bytes = model.embedding.matrix.values.nbytes
    assert model.embedding.matrix.shape == (50_000, 20)
    tracemalloc.start()
    try:
        train(model, DNT, as_split("train", pairs[:40]), as_split("dev", pairs[40:]), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes


@pytest.mark.parametrize("learning_rates", [(0.01, 0.1), (0.1, 0.3)],
                         ids=["second-run-wins", "first-run-wins"])
def test_a_large_matrix_grid_holds_three_copies_of_the_matrix(learning_rates):
    """A DNT+wem grid over a 50,000 x 20 matrix holds at most the live run's
    matrix, one best-epoch snapshot and the running winner's model or
    snapshot, here the first run's model while the second run trains."""
    base = make_model(kind="word-average", dim=20, n_tokens=49_999, seed=91)
    matrix = base.embedding.matrix.values

    def factory():
        return SimilarityModel(base.vocabulary,
                               EmbeddingMatrix(Tensor(matrix.copy(), name="wem.matrix"), 20),
                               base.encoder_config, init_encoder(base.encoder_config), None)

    grid = HyperGrid(batch_sizes=(8,), learning_rates=learning_rates, epoch_budgets=(1, 3),
                     patience=5, seed=9)
    splits = (as_split("train", overlap_pairs(40, seed=93)),
              as_split("dev", overlap_pairs(12, seed=94)))
    tracemalloc.start()
    try:
        result = grid_search(factory, DNT, *splits, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    first_run = [(c.dev_correlation, c.best_epoch) for c in result.cells[:2]]
    if learning_rates == (0.01, 0.1):
        # the first run's 3-epoch cell wins with its live model; the second run beats it
        assert first_run[1][0] > first_run[0][0] and first_run[1][1] == 2
        assert result.best_config.learning_rate == 0.1
    else:
        # the first run's 1-epoch cell wins with the snapshot of epoch 0, which is
        # restored into the run's model when the run ends
        assert first_run[1] == first_run[0] and result.best_config == grid.cells()[0]
    assert peak < 3.5 * matrix.nbytes


def test_train_rejects_ue():
    model = make_model(kind="word-average", dim=3)
    pairs = random_pairs(4, seed=1)
    cfg = TrainingConfig()
    with pytest.raises(ContractError):
        train(model, TransferConfig("UE"), as_split("train", pairs),
              as_split("dev", pairs), cfg)


def test_train_requires_classifier_for_nt():
    model = make_model(kind="bilstm-avg", hidden=3, dim=3)  # no head
    pairs = random_pairs(4, seed=1)
    with pytest.raises(ContractError):
        train(model, TransferConfig("NT", loss_kind="MSE", bins=5),
              as_split("train", pairs), as_split("dev", pairs), TrainingConfig())


def test_constant_dev_predictions_treated_as_minus_one():
    model = make_model(kind="word-average", dim=3, seed=41)
    pairs = random_pairs(12, seed=42)
    # a dev split of identical sentence pairs predicts a constant 1.0
    same = [type(pairs[0])("tok1 tok2", "tok1 tok2", 1.0, (0.0, 5.0)),
            type(pairs[0])("tok3 tok4", "tok3 tok4", 2.0, (0.0, 5.0))]
    cfg = TrainingConfig(batch_size=4, learning_rate=0.001, max_epochs=2, patience=5, seed=5)
    model, history = train(model, DNT, as_split("train", pairs), as_split("dev", same), cfg)
    assert history.dev_correlations == [-1.0, -1.0]


def test_batch_loss_matches_manual_dnt(rng):
    from simxfer.transfer import normalize_score, predict

    model = make_model(kind="word-average", dim=4, seed=51)
    pairs = random_pairs(6, seed=52)
    with Tape():
        value = float(batch_loss(model, DNT_LOCKED, pairs).values)
    manual = np.mean([
        (predict(TransferConfig("UE"), model, p)
         - normalize_score(p.score, p.score_range, (0.0, 1.0))) ** 2
        for p in pairs
    ])
    assert value == pytest.approx(manual, abs=1e-12)


@pytest.mark.parametrize("config", [
    TransferConfig("FT", loss_kind="KL", bins=5),
    TransferConfig("NT", loss_kind="MSE", bins=5, freeze_wem=True),
    DNT_LOCKED,
    DNT,
], ids=["FT", "NT", "DNT", "DNT+wem"])
def test_backward_computes_no_adjoint_for_a_frozen_embedding_matrix(config, monkeypatch):
    model = make_model(kind="bilstm-avg", dim=3, bins=5, seed=61)
    model.apply_freeze_policy(config)
    lookup_forward, lookup_kernel = ad._KERNELS["lookup"]

    def guarded(node, g):
        if node.inputs[0] is model.embedding.matrix:
            raise AssertionError("dense adjoint computed for the embedding matrix")
        return lookup_kernel(node, g)

    monkeypatch.setitem(ad._KERNELS, "lookup", (lookup_forward, guarded))
    with Tape() as tape:
        loss = batch_loss(model, config, random_pairs(6, seed=62))
    if not config.freeze_wem:  # the guard does fire when the matrix trains
        with pytest.raises(AssertionError):
            backward(tape, loss)
        return
    grads = backward(tape, loss)
    trained = [t for t in model.named_tensors().values() if t.trainable]
    assert trained and all(t in grads for t in trained)


# --- grid search ------------------------------------------------------------


def test_default_grid_has_24_cells():
    assert len(HyperGrid().cells()) == 24


def test_grid_cells_ordered_for_tie_break():
    cells = HyperGrid(batch_sizes=(64, 32), learning_rates=(0.01, 0.001),
                      epoch_budgets=(30, 10)).cells()
    key = [(c.learning_rate, c.batch_size, c.max_epochs) for c in cells]
    assert key == sorted(key)


@pytest.mark.parametrize("field", ["batch_sizes", "learning_rates", "epoch_budgets"])
def test_grid_refuses_a_repeated_value(field):
    repeated = {"batch_sizes": (32, 64, 32), "learning_rates": (0.01, 0.01),
                "epoch_budgets": (10, 30, 10)}[field]
    with pytest.raises(ContractError, match="must not repeat"):
        HyperGrid(**{field: repeated}).cells()


def fake_grid_search(monkeypatch, outcomes, on_train=None):
    """Run ``grid_search`` with ``trainer._budgets``, its one run per (lr,
    batch), replaced by a fake that gives each cell, keyed by (lr, batch,
    epochs), a fixed dev correlation or, for a string, raises
    ``NumericError`` with that text.  The grid is the product of the keys'
    values; a cell without a key scores 0."""
    def fake_budgets(model, params, transfer_config, prepared, cfg, budgets):
        if on_train is not None:
            on_train(model)
        for budget in budgets:
            outcome = outcomes.get((cfg.learning_rate, cfg.batch_size, budget), 0.0)
            if isinstance(outcome, str):
                raise NumericError(outcome)
            yield budget, TrainingHistory(train_losses=[0.0], dev_correlations=[outcome],
                                          best_epoch=0, best_dev_correlation=outcome), None

    monkeypatch.setattr(trainer, "_budgets", fake_budgets)
    pairs = random_pairs(4, seed=1)
    grid = HyperGrid(batch_sizes=tuple({k[1] for k in outcomes}),
                     learning_rates=tuple({k[0] for k in outcomes}),
                     epoch_budgets=tuple({k[2] for k in outcomes}))
    return grid_search(lambda: make_model(kind="word-average", dim=3), DNT,
                       as_split("train", pairs), as_split("dev", pairs), grid)


def chosen(result):
    cfg = result.best_config
    return cfg.learning_rate, cfg.batch_size, cfg.max_epochs


def test_grid_search_tie_keeps_earlier_cell(monkeypatch):
    # within 1e-12 of the running best: the smaller lr, batch, epochs stays
    result = fake_grid_search(monkeypatch, {(0.001, 32, 10): 0.5,
                                            (0.01, 32, 10): 0.5 + 5e-13,
                                            (0.001, 64, 10): 0.5 - 5e-13,
                                            (0.001, 32, 30): 0.5 + 1e-12})
    assert chosen(result) == (0.001, 32, 10)
    assert result.best_history.best_dev_correlation == 0.5


def test_grid_search_strictly_better_later_cell_wins(monkeypatch):
    result = fake_grid_search(monkeypatch, {(0.001, 32, 10): 0.7,
                                            (0.01, 64, 30): 0.7 + 1e-9,
                                            (0.01, 32, 10): 0.5})
    assert chosen(result) == (0.01, 64, 30)
    assert len(result.cells) == 8


def test_grid_search_skips_failed_cells(monkeypatch):
    result = fake_grid_search(monkeypatch, {(0.001, 32, 10): "boom", (0.01, 32, 10): 0.2})
    assert chosen(result) == (0.01, 32, 10)
    assert [c.error for c in result.cells] == ["boom", None]


def test_grid_search_all_cells_failed(monkeypatch):
    with pytest.raises(NumericError) as err:
        fake_grid_search(monkeypatch, {(0.001, 32, 10): "boom", (0.01, 32, 10): "bang"})
    assert str(err.value) == "all grid cells failed: boom; bang"


def test_grid_search_holds_at_most_one_earlier_model(monkeypatch):
    seen = []
    alive_before = []

    def on_train(model):
        alive_before.append(sum(ref() is not None for ref in seen))
        seen.append(weakref.ref(model))

    result = fake_grid_search(monkeypatch, {(0.001, 32, 10): 0.5, (0.01, 32, 10): 0.7,
                                            (0.03, 32, 10): 0.6, (0.1, 32, 10): 0.4},
                              on_train=on_train)
    assert chosen(result) == (0.01, 32, 10)
    assert alive_before == [0, 1, 1, 1]  # only the running winner survives
    assert [ref() is not None for ref in seen] == [False, True, False, False]


def test_grid_search_singleton():
    pairs = overlap_pairs(16, seed=61)
    grid = HyperGrid(batch_sizes=(8,), learning_rates=(0.01,), epoch_budgets=(3,),
                     patience=5, seed=6)
    result = grid_search(lambda: make_model(kind="word-average", dim=4, seed=62),
                         DNT, as_split("train", pairs), as_split("dev", pairs[:8]), grid)
    assert len(result.cells) == 1
    assert result.best_config == grid.cells()[0]


def test_grid_search_keeps_all_results_and_matches_sequential():
    pairs = overlap_pairs(16, seed=71)
    grid = HyperGrid(batch_sizes=(8,), learning_rates=(0.01, 0.001), epoch_budgets=(2,),
                     patience=5, seed=7)

    def factory():
        return make_model(kind="word-average", dim=4, seed=72)

    first = grid_search(factory, DNT, as_split("train", pairs), as_split("dev", pairs[:8]), grid)
    second = grid_search(factory, DNT, as_split("train", pairs), as_split("dev", pairs[:8]), grid)
    assert len(first.cells) == 2
    assert [c.dev_correlation for c in first.cells] == [c.dev_correlation for c in second.cells]
    assert first.best_config == second.best_config


def _tensor_bytes(model):
    return {name: t.values.tobytes() for name, t in model.named_tensors().items()}


# (transfer config, model kwargs, grid, what makes the case): each case's grid
# must hold what it is named for, so that the equality below means something
SHARED_RUN_CASES = {
    "DNT+wem-early-stop": (
        DNT, {"kind": "word-average"},
        HyperGrid((8, 16), (0.01, 0.3), (2, 4, 9), patience=2, seed=3),
        lambda cells, best: any(c.epochs_run < c.config.max_epochs for c in cells)),
    "FT-KL": (
        TransferConfig("FT", loss_kind="KL", bins=5), {"kind": "word-average", "bins": 5},
        HyperGrid((8, 16), (0.01, 0.3), (2, 4, 9), patience=2, seed=3),
        lambda cells, best: best.max_epochs < 9),  # read from a run that went on
    "numeric-error-mid-run": (
        DNT, {"kind": "word-average"},
        HyperGrid((8,), (0.01, 1.7e153), (2, 3, 6), patience=8, seed=3),
        lambda cells, best: ([c.error is None for c in cells[3:]] == [True, True, False]
                             and best.learning_rate == 1.7e153)),
}


@pytest.mark.parametrize("case", SHARED_RUN_CASES)
def test_grid_search_equals_one_train_call_per_cell(case):
    """One run per (lr, batch) gives bitwise the cells, winner, history and
    model that training every cell on its own gives: early stopping cuts a
    shorter budget short, a winner can be read from a run that goes on, and a
    numeric error fails only the budgets that reach its epoch."""
    transfer_config, kwargs, grid, holds = SHARED_RUN_CASES[case]
    splits = (as_split("train", overlap_pairs(40, seed=11)),
              as_split("dev", overlap_pairs(12, seed=12)))

    def factory():
        return make_model(dim=4, n_tokens=24, seed=13, **kwargs)

    with np.errstate(over="ignore", invalid="ignore"):
        got = grid_search(factory, transfer_config, *splits, grid)
        want = reference_grid_search(factory, transfer_config, *splits, grid)
    assert holds(got.cells, got.best_config)
    assert got.cells == want.cells
    assert got.best_config == want.best_config
    assert got.best_history == want.best_history
    assert _tensor_bytes(got.best_model) == _tensor_bytes(want.best_model)


# --- splits prepared once per train call ------------------------------------------


def _train_both_ways(config, kind, train_pairs, dev_pairs, cfg):
    """``train`` and ``oracles.reference_train`` on identical fresh models:
    their histories and the bytes of their tensors."""
    def model():
        return make_model(kind=kind, hidden=3, n_tokens=24, bins=config.bins, seed=33)

    got_model, got = train(model(), config, as_split("train", train_pairs),
                           as_split("dev", dev_pairs), cfg)
    want_model, want = reference_train(model(), config, train_pairs, dev_pairs, "pearson", cfg)
    return (got, _tensor_bytes(got_model)), (want, _tensor_bytes(want_model))


@pytest.mark.parametrize("loss_kind", ["KL", "MSE"])
def test_ft_train_equals_a_loop_that_embeds_every_batch(loss_kind):
    """FT gathers its batches and dev scores from features embedded once per
    call; the trained head and the history are bitwise those of a loop that
    embeds every batch and dev slice with ``oracles.embed_pairs``."""
    ft = TransferConfig("FT", loss_kind=loss_kind, bins=5)
    cfg = TrainingConfig(batch_size=6, learning_rate=0.2, max_epochs=8, patience=3, seed=4)
    got, want = _train_both_ways(ft, "word-average", overlap_pairs(40, seed=31),
                                 overlap_pairs(15, seed=32), cfg)
    assert got[0].best_epoch + 1 < got[0].epochs_run  # the best epoch's head is restored
    assert got == want


@pytest.mark.parametrize("kind", ["bilstm-avg", "bilstm-max"])
@pytest.mark.parametrize("config", [
    DNT, DNT_LOCKED,
    TransferConfig("NT", loss_kind="KL", bins=5, freeze_wem=False),
    TransferConfig("NT", loss_kind="MSE", bins=5),
], ids=["DNT+wem", "DNT", "NT+wem", "NT"])
def test_train_equals_a_loop_that_embeds_every_batch(config, kind):
    """Training the encoder (and the matrix, where the setting lets it)
    from the pair table is bitwise the loop that embeds every batch and
    dev slice by sentence text, whose length groups and batch order it
    keeps: the BiLSTM gradients depend on both.  Sentences of 2 to 5 tokens
    give each batch several length groups; repeated pairs put a sentence
    in several batches."""
    cfg = TrainingConfig(batch_size=8, learning_rate=0.05, max_epochs=4, patience=2, seed=5)
    train_pairs = random_pairs(36, n_tokens=24, seed=34)
    train_pairs += train_pairs[:6]  # a sentence in several batches
    got, want = _train_both_ways(config, kind, train_pairs,
                                 random_pairs(12, n_tokens=24, seed=35), cfg)
    assert got == want


@pytest.mark.parametrize("config", [DNT, TransferConfig("FT", loss_kind="KL", bins=5)],
                         ids=["DNT", "FT"])
def test_train_tokenizes_each_distinct_sentence_once_per_call(config, monkeypatch):
    """However many epochs and batches, a ``train`` call tokenizes each distinct
    train and dev sentence once; a second call on the same vocabulary indexes
    its splits again (nothing is cached across calls) and adds no token.  A
    ``grid_search`` call, however many runs it makes, and an ``evaluate_split``
    call, however many slices it scores, also tokenize once."""
    calls = collections.Counter()
    tokenize = transfer.tokenize

    def counting(text):
        calls[text] += 1
        return tokenize(text)

    monkeypatch.setattr(transfer, "tokenize", counting)
    train_pairs, dev_pairs = overlap_pairs(30, seed=41), overlap_pairs(10, seed=42)
    distinct = {s for p in train_pairs + dev_pairs for s in (p.sentence_a, p.sentence_b)}
    model = make_model(kind="word-average", n_tokens=24, bins=config.bins, seed=43)
    index = dict(model.vocabulary.index)
    for max_epochs, batch_size in ((3, 4), (2, 16)):
        calls.clear()
        cfg = TrainingConfig(batch_size=batch_size, learning_rate=0.01, max_epochs=max_epochs,
                             patience=5, seed=1)
        _, history = train(model, config, as_split("train", train_pairs),
                           as_split("dev", dev_pairs), cfg)
        assert history.epochs_run == max_epochs
        assert calls == collections.Counter(distinct)
    calls.clear()
    grid = HyperGrid(batch_sizes=(4, 16), learning_rates=(0.01, 0.1), epoch_budgets=(1, 2),
                     patience=5, seed=1)
    result = grid_search(lambda: model, config, as_split("train", train_pairs),
                         as_split("dev", dev_pairs), grid)
    assert len(result.cells) == 8
    assert calls == collections.Counter(distinct)
    assert model.vocabulary.index == index
    # scoring more than SCORE_SLICE pairs that repeat across slices also
    # tokenizes each distinct sentence once per call
    calls.clear()
    scored = (train_pairs + dev_pairs) * 15
    assert len(scored) > 2 * transfer.SCORE_SLICE
    evaluate_split(model, config, scored, "pearson")
    assert calls == collections.Counter(distinct)


# (module, attribute) pairs that the benchmark tracer (perfbench/tracing.py) wraps
TRACED_HOOKS = ((trainer, "batch_loss"), (trainer, "evaluate_split"), (trainer, "backward"),
                (trainer, "adam_step"), (transfer, "tokenize"), (transfer, "encode"))


@pytest.mark.parametrize("config", [DNT, TransferConfig("FT", loss_kind="KL", bins=5)],
                         ids=["DNT", "FT"])
def test_training_calls_each_function_the_benchmark_tracer_wraps(config, monkeypatch):
    """The tracer times each layer by replacing a module attribute, so
    ``train`` and ``grid_search`` must look each one up there when they call
    it.  Under FT, ``encode`` runs only while the splits are prepared: once
    for the one token length of these pairs."""
    calls = collections.Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module, name in TRACED_HOOKS:
        monkeypatch.setattr(module, name, counting(module, name))
    pairs = overlap_pairs(20, seed=51)
    splits = as_split("train", pairs[:14]), as_split("dev", pairs[14:])

    def factory():
        return make_model(kind="bilstm-avg", hidden=3, n_tokens=24, bins=config.bins, seed=52)

    train(factory(), config, *splits, TrainingConfig(batch_size=8, max_epochs=2, patience=5))
    assert set(calls) == {name for _, name in TRACED_HOOKS}
    assert config.setting != "FT" or calls["encode"] == 1
    calls.clear()
    grid_search(factory, config, *splits, HyperGrid((8,), (0.01, 0.1), (1, 2), patience=5))
    assert set(calls) == {name for _, name in TRACED_HOOKS}
    assert config.setting != "FT" or calls["encode"] == 1
