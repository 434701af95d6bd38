"""Adam optimization, batching, early stopping, and grid search.

A ``train`` or ``grid_search`` call prepares its splits once: one
``PairTable`` over the train and dev pairs (under FT, with every
sentence's fixed embedding) and each train pair's target.  Then per epoch:
seeded shuffle, fixed-size batches (the last partial batch is kept), one
tape per batch, loss per setting, ``backward``, whose returned gradients
feed the Adam step.  A batch is embedded and scored as a whole, through
the forward path that prediction uses too; parameter sets the setting
freezes cost only their forward pass.  An embedding matrix trained
through its lookups gets row-sparse gradients, and Adam updates only the
rows touched so far, keeping moments for those rows alone: bitwise dense
Adam, at the cost of the rows a batch reads.  After each epoch the dev
split is scored with its metric, with no tape open.  Training stops
after ``patience`` epochs without dev improvement or at ``max_epochs``.
A new best epoch copies the trainable tensors (frozen ones never
change), except after the last epoch that ``max_epochs`` allows; the
copy is restored at the end unless the best epoch is the last one run.

The hyperparameter grid defaults to batch sizes {32, 64}, learning rates
{0.1, 0.01, 0.001, 0.0001} and epoch budgets {10, 30, 50}; every cell is
scored by dev correlation of its early-stopped model.  The shuffle is
seeded by ``TrainingConfig.seed`` alone, so a shorter budget's run is a
prefix of the longest one with the same learning rate and batch size:
``grid_search`` prepares the splits once, trains each (learning rate,
batch size) once at the largest budget, and reads every budget's cell
from that run as the budget closes.  ``train`` is the one-budget case of
the same epoch loop.  The winner is picked in one pass over the cells in
tie-break order, and only its model or best-epoch snapshot is kept; the
CLI's ``run`` is a one-cell grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from .autodiff import RowSparse, Tape, Tensor, backward, cosine, dense, mean_over_axis
from .data import DatasetSplit, ScoredPair
from .errors import ContractError, NumericError
from .metrics import correlation
from .transfer import (
    PairTable,
    SimilarityModel,
    TransferConfig,
    classifier_forward,
    dnt_loss,
    embed_pairs,
    ft_loss,
    pair_targets,
    predict_pairs,
    trainable_parameter_sets,
)

DEFAULT_BATCH_SIZES = (32, 64)
DEFAULT_LEARNING_RATES = (0.1, 0.01, 0.001, 0.0001)
DEFAULT_EPOCH_BUDGETS = (10, 30, 50)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

UNDEFINED_CORRELATION = -1.0  # early-stopping sentinel for an undefined correlation
TIE_TOLERANCE = 1e-12  # dev correlations closer than this tie


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 32
    learning_rate: float = 0.001
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if not (min(self.batch_size, self.max_epochs, self.patience) > 0
                and 0 < self.learning_rate < math.inf):
            raise ContractError("training config values must be positive and finite")
        if self.seed < 0:
            raise ContractError("seed must be non-negative")


class AdamState:
    """First/second moment accumulators per parameter plus a step counter.

    A parameter that has so far received only ``RowSparse`` gradients
    keeps its moments for the rows touched so far: ``rows[p]`` (sorted),
    with one row of ``m[p]`` and ``v[p]`` each.  Its other rows have
    m = v = 0 and zero gradients, which dense Adam moves by exactly 0.  A
    dense gradient makes the moments whole for good (``rows[p]`` is None).
    """

    def __init__(self, params: list[Tensor]):
        self.m = {p: np.zeros((0,) + p.shape[1:]) for p in params}
        self.v = {p: np.zeros((0,) + p.shape[1:]) for p in params}
        self.rows: dict[Tensor, np.ndarray | None] = {p: np.zeros(0, np.intp) for p in params}
        self.t = 0

    def touch(self, p: Tensor, rows: np.ndarray) -> np.ndarray:
        """Widen p's moments to the union of its touched rows and ``rows``; return that union."""
        old = self.rows[p]
        union = np.union1d(old, rows)
        if len(union) > len(old):
            for moments in (self.m, self.v):
                moments[p] = RowSparse(old, moments[p], p.shape).on_rows(union)
            self.rows[p] = union
        return union

    def make_whole(self, p: Tensor) -> None:
        """Turn p's moments into full-size arrays."""
        rows = self.rows[p]
        if rows is None:
            return
        for moments in (self.m, self.v):
            moments[p] = (RowSparse(rows, moments[p], p.shape).dense() if len(rows)
                          else np.zeros_like(p.values))
        self.rows[p] = None


def _adam_delta(m: np.ndarray, v: np.ndarray, g: np.ndarray, lr: float,
                bias1: float, bias2: float) -> np.ndarray:
    """Advance the moments in place by one Adam step; return the update to subtract."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    return lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def adam_step(grads: dict[Tensor, np.ndarray | RowSparse], state: AdamState, lr: float) -> None:
    """Standard Adam update with bias correction from the ``grads`` that
    ``backward`` returns.  Only trainable tensors move, in the state's order.

    A ``RowSparse`` gradient updates only the rows touched so far; the
    result is bitwise that of dense Adam on the scattered gradient.
    """
    if not 0 < lr < math.inf:
        raise ContractError("learning rate must be positive and finite")
    state.t += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.t
    bias2 = 1.0 - ADAM_BETA2 ** state.t
    for p in state.m:
        g = grads.get(p)
        if not p.trainable or g is None:
            continue
        sparse = isinstance(g, RowSparse)
        if not np.all(np.isfinite(g.values if sparse else g)):
            raise NumericError(f"non-finite gradient for {p.name or p!r}")
        if sparse and state.rows[p] is not None:
            rows = state.touch(p, g.rows)
            p.values[rows] -= _adam_delta(state.m[p], state.v[p], g.on_rows(rows),
                                          lr, bias1, bias2)
        else:
            state.make_whole(p)
            p.values -= _adam_delta(state.m[p], state.v[p], dense(g), lr, bias1, bias2)


@dataclass
class TrainingHistory:
    train_losses: list[float] = field(default_factory=list)
    dev_correlations: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_dev_correlation: float = -np.inf

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)


def batch_loss(model: SimilarityModel, config: TransferConfig,
               pairs: list[ScoredPair] | PairTable, targets: np.ndarray | None = None) -> Tensor:
    """Batch training loss (mean over the m pairs), recorded on the open tape, of a
    ``PairTable`` with its ``targets`` or of a list of pairs with ``pair_targets``."""
    if not isinstance(pairs, PairTable):
        pairs, targets = PairTable(model, pairs), pair_targets(config, pairs)
    h_left, h_right = embed_pairs(model, pairs)
    if not config.has_head:
        return dnt_loss(cosine(h_left, h_right), targets, norm_range=config.norm_range)
    p_hat, _ = classifier_forward(h_left, h_right, model.classifier)
    return mean_over_axis(ft_loss(targets, p_hat, config.loss_kind), axis=0)


def evaluate_split(model: SimilarityModel, config: TransferConfig,
                   pairs: list[ScoredPair] | PairTable, metric: str) -> float:
    """Correlation of raw predictions against raw annotated scores."""
    table = pairs if isinstance(pairs, PairTable) else PairTable(model, pairs)
    return correlation(metric, predict_pairs(config, model, table), table.scores)


class PreparedSplits:
    """What training reads of its splits, made once per ``train`` or ``grid_search``
    call: the train and dev slices of one ``PairTable``, the train targets, the dev metric."""

    def __init__(self, model: SimilarityModel, config: TransferConfig,
                 train_split: DatasetSplit, dev_split: DatasetSplit):
        table = PairTable(model, [*train_split.pairs, *dev_split.pairs],
                          fixed=not trainable_parameter_sets(config) & {"wem", "enc"})
        n = len(train_split.pairs)
        self.train, self.dev, self.metric = table[:n], table[n:], dev_split.metric
        self.targets = pair_targets(config, train_split.pairs)


def _trainable(model: SimilarityModel, transfer_config: TransferConfig) -> list[Tensor]:
    """Apply the freeze policy to ``model``; return the tensors it trains."""
    if transfer_config.has_head and model.classifier is None:
        raise ContractError(f"{transfer_config.setting} training requires a classifier head")
    model.apply_freeze_policy(transfer_config)
    params = [t for t in model.named_tensors().values() if t.trainable]
    if not params:
        raise ContractError("freeze policy leaves nothing to train")
    return params


def _budgets(model: SimilarityModel, params: list[Tensor], transfer_config: TransferConfig,
             prepared: PreparedSplits, config: TrainingConfig,
             budgets: list[int]) -> Iterator[tuple[int, TrainingHistory, dict | None]]:
    """Train ``params`` of ``model`` in place for up to ``config.max_epochs``
    epochs and yield ``(budget, history, checkpoint)`` for each of the
    ascending ``budgets`` (the last is ``config.max_epochs``) as it closes:
    after its last epoch, or when early stopping ends the run.  ``history``
    is what a run of that many epochs records; ``checkpoint`` holds the
    trainable tensors of its best epoch, or is None when the live model is
    at that epoch.
    """
    state = AdamState(params)
    rng = np.random.default_rng(config.seed)
    history = TrainingHistory()
    checkpoint = None
    epochs_since_best = 0
    pending = list(budgets)
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(prepared.train.left))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            with Tape() as tape:
                loss = batch_loss(model, transfer_config, prepared.train[batch],
                                  prepared.targets[batch])
            adam_step(backward(tape, loss), state, config.learning_rate)
            epoch_losses.append(float(loss.values))
        history.train_losses.append(float(np.mean(epoch_losses)))
        try:
            dev_corr = evaluate_split(model, transfer_config, prepared.dev, prepared.metric)
        except NumericError:
            dev_corr = UNDEFINED_CORRELATION
        history.dev_correlations.append(dev_corr)
        if dev_corr > history.best_dev_correlation:
            history.best_dev_correlation = dev_corr
            history.best_epoch = epoch
            # no budget runs past the last epoch, so the live model serves it
            checkpoint = (model.snapshot(trainable_only=True)
                          if epoch + 1 < config.max_epochs else None)
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        stop = epochs_since_best >= config.patience
        while pending and (stop or pending[0] == epoch + 1):
            yield (pending.pop(0),
                   replace(history, train_losses=list(history.train_losses),
                           dev_correlations=list(history.dev_correlations)),
                   checkpoint)
        if stop:
            return


def train(model: SimilarityModel, transfer_config: TransferConfig,
          train_split: DatasetSplit, dev_split: DatasetSplit,
          training_config: TrainingConfig) -> tuple[SimilarityModel, TrainingHistory]:
    """Train in place and restore the best-dev-epoch checkpoint at the end.

    A dev correlation that is undefined (constant or non-finite
    predictions) counts as -1 for the early-stopping comparison and the
    run continues, so the first epoch is always a best epoch.
    """
    params = _trainable(model, transfer_config)
    prepared = PreparedSplits(model, transfer_config, train_split, dev_split)
    for _, history, checkpoint in _budgets(model, params, transfer_config, prepared,
                                           training_config, [training_config.max_epochs]):
        if checkpoint is not None:
            model.restore(checkpoint)
    return model, history


@dataclass(frozen=True)
class HyperGrid:
    batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES
    learning_rates: tuple[float, ...] = DEFAULT_LEARNING_RATES
    epoch_budgets: tuple[int, ...] = DEFAULT_EPOCH_BUDGETS
    patience: int = 5
    seed: int = 0

    def cells(self) -> list[TrainingConfig]:
        """Cells enumerated in tie-break priority order:
        smaller lr, then smaller batch, then fewer epochs."""
        lists = (self.batch_sizes, self.learning_rates, self.epoch_budgets)
        if not all(lists):
            raise ContractError("grid must be nonempty")
        if any(len(set(values)) != len(values) for values in lists):
            raise ContractError("grid values must not repeat")
        return [
            TrainingConfig(batch_size=b, learning_rate=lr, max_epochs=e,
                           patience=self.patience, seed=self.seed)
            for lr, b, e in itertools.product(
                sorted(self.learning_rates), sorted(self.batch_sizes),
                sorted(self.epoch_budgets))
        ]


@dataclass
class CellResult:
    config: TrainingConfig
    dev_correlation: float
    best_epoch: int
    epochs_run: int
    error: str | None = None


@dataclass
class GridSearchResult:
    best_config: TrainingConfig
    best_model: SimilarityModel
    best_history: TrainingHistory
    cells: list[CellResult]


def grid_search(model_factory: Callable[[], SimilarityModel], transfer_config: TransferConfig,
                train_split: DatasetSplit, dev_split: DatasetSplit,
                grid: HyperGrid) -> GridSearchResult:
    """Score every grid cell and keep the one with the highest dev correlation.

    The cells of one (learning rate, batch size) differ only in their epoch
    budget and share the shuffle seed, so one run at the largest budget, on
    a fresh model from ``model_factory`` (which must return identically
    initialized models), trains them all, and each budget's cell is read
    from it as the budget closes.  Cells are scored in ``grid.cells()``
    order, so a later cell replaces the running winner only when it is
    better by more than ``TIE_TOLERANCE``: ties go to the smaller lr, then
    batch, then epochs.  Only the running winner's model or best-epoch
    checkpoint is kept past its run.  A ``NumericError`` fails the cells
    whose budget reaches the epoch that raised it; if every cell fails,
    the search raises.
    """
    configs = grid.cells()
    budgets = sorted(set(grid.epoch_budgets))
    results: dict[TrainingConfig, CellResult] = {}
    prepared = None
    best = best_model = best_checkpoint = None  # the winner's (cell, history), model, checkpoint
    for lr, batch_size in dict.fromkeys((c.learning_rate, c.batch_size) for c in configs):
        config = TrainingConfig(batch_size=batch_size, learning_rate=lr, max_epochs=budgets[-1],
                                patience=grid.patience, seed=grid.seed)
        model = model_factory()
        params = _trainable(model, transfer_config)
        prepared = prepared or PreparedSplits(model, transfer_config, train_split, dev_split)
        try:
            for budget, history, checkpoint in _budgets(model, params, transfer_config, prepared,
                                                        config, budgets):
                cell = CellResult(replace(config, max_epochs=budget), history.best_dev_correlation,
                                  history.best_epoch, history.epochs_run)
                results[cell.config] = cell
                if best is None or cell.dev_correlation > best[0].dev_correlation + TIE_TOLERANCE:
                    best, best_model, best_checkpoint = (cell, history), model, checkpoint
        except NumericError as exc:
            for budget in budgets:
                failed = replace(config, max_epochs=budget)
                results.setdefault(failed, CellResult(failed, UNDEFINED_CORRELATION, -1, 0,
                                                      error=str(exc)))
        if best_model is model and best_checkpoint is not None:
            model.restore(best_checkpoint)  # the winner's run is over: one copy of it is enough
            best_checkpoint = None
        model = params = checkpoint = None  # a loser must not live through the next run
    cells = [results[c] for c in configs]
    if best is None:
        raise NumericError("all grid cells failed: " + "; ".join(c.error for c in cells))
    winner, best_history = best
    return GridSearchResult(winner.config, best_model, best_history, cells)
