"""The four transfer settings and their prediction heads and losses.

UE  - unsupervised evaluation: cosine of the two embeddings, no training.
FT  - feature transfer: embeddings are fixed features for a small
      dense+softmax classifier head; only the head trains.
NT  - network transfer: the same head trained end to end through the
      encoder (and optionally the embedding matrix).
DNT - direct network transfer: no head at all; the encoder is trained so
      that embedding cosine matches the normalized annotated score.

``SETTINGS`` defines each by the parameter sets it trains while ``wem``
stays frozen.  One that trains ``cla`` has a head, regressed onto a
sparse distribution over integer score bins 1..K; the others predict
cosine, which DNT regresses onto scores normalized into [0,1] or [-1,1].

A model's parameters are its named tensors (``wem.matrix``, ``enc.*`` in
``bilstm`` order, ``cla.*``); a set is those whose names share its prefix.

Training, evaluation and prediction share one forward path: a call
tokenizes its pairs once into a ``PairTable``, ``embed_pairs`` embeds the
table or a slice of its pairs, and the heads and losses take one row per
pair.  Training records the path on a tape; prediction runs it with no
tape open, so it keeps no graph, one slice of ``SCORE_SLICE`` pairs at a
time.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Sequence
from itertools import repeat
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    absolute,
    add,
    concat,
    cosine,
    elementwise_multiply,
    log,
    lookup_rows,
    matmul,
    mean_over_axis,
    sigmoid,
    softmax,
    subtract,
    transpose,
)
from .embeddings import UNK_INDEX, EmbeddingMatrix, Vocabulary, tokenize
from .encoders import EncoderConfig, encode
from .errors import ContractError, DataError, ShapeError

SETTINGS = {
    "UE": frozenset(),
    "FT": frozenset({"cla"}),
    "NT": frozenset({"enc", "cla"}),
    "DNT": frozenset({"enc"}),
}
LOSS_KINDS = ("MSE", "KL")
NORM_RANGES = ((0.0, 1.0), (-1.0, 1.0))

DEFAULT_BINS = 5
DEFAULT_HIDDEN_WIDTH = 50

# Pairs per prediction pass.  Prediction records no graph, but one pass
# over a few thousand pairs still holds their T x n x d lookups at once;
# 256-pair slices keep scoring memory near that of training.
SCORE_SLICE = 256


@dataclass(frozen=True)
class TransferConfig:
    """One experiment's independent variable: a setting of ``SETTINGS``.

    ``loss_kind`` and ``bins`` apply to settings with a head, ``norm_range``
    to the others that train; only those that train ``enc`` may train ``wem``.
    """

    setting: str
    loss_kind: str | None = None
    freeze_wem: bool = True
    norm_range: tuple[float, float] | None = None
    bins: int | None = None

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ContractError(f"unknown transfer setting {self.setting!r}")
        if self.has_head:
            if self.loss_kind not in LOSS_KINDS:
                raise ContractError(f"{self.setting} requires loss_kind MSE or KL")
            if self.bins is None or self.bins < 2:
                raise ContractError(f"{self.setting} requires bins >= 2")
            if self.norm_range is not None:
                raise ContractError(f"{self.setting} does not use norm_range")
        elif not SETTINGS[self.setting]:
            if self.loss_kind is not None or self.bins is not None or self.norm_range is not None:
                raise ContractError(f"{self.setting} admits no training-related fields")
        else:
            if self.loss_kind is not None or self.bins is not None:
                raise ContractError(f"{self.setting} has a fixed loss; loss_kind/bins do not apply")
            if tuple(self.norm_range or ()) not in NORM_RANGES:
                raise ContractError(f"{self.setting} requires norm_range (0,1) or (-1,1)")
        if "enc" not in SETTINGS[self.setting] and not self.freeze_wem:
            raise ContractError(f"{self.setting} always freezes the embedding matrix")

    @property
    def has_head(self) -> bool:
        """Whether the setting trains, and predicts with, a classifier head."""
        return "cla" in SETTINGS[self.setting]


def trainable_parameter_sets(config: TransferConfig) -> frozenset[str]:
    """Which of {wem, enc, cla} receive gradient updates under the config."""
    row = SETTINGS[config.setting]
    return row if config.freeze_wem else row | {"wem"}


def init_classifier(embedding_dim: int, bins: int = DEFAULT_BINS,
                    hidden_width: int = DEFAULT_HIDDEN_WIDTH, seed: int = 0) -> dict[str, Tensor]:
    """The dense + softmax head's tensors by name.  Seeded init: weights
    uniform in [-1/sqrt(e), 1/sqrt(e)], biases zero."""
    if embedding_dim <= 0 or bins < 2 or hidden_width <= 0:
        raise ContractError("classifier dimensions must be positive (bins >= 2)")
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(embedding_dim)
    values = {
        "cla.w_times": rng.uniform(-bound, bound, size=(hidden_width, embedding_dim)),
        "cla.w_plus": rng.uniform(-bound, bound, size=(hidden_width, embedding_dim)),
        "cla.b_h": np.zeros(hidden_width),
        "cla.w_p": rng.uniform(-bound, bound, size=(bins, hidden_width)),
        "cla.b_p": np.zeros(bins),
    }
    return {name: Tensor(v, trainable=True, name=name) for name, v in values.items()}


@dataclass
class SimilarityModel:
    """Everything needed to score a sentence pair under one setting."""

    vocabulary: Vocabulary
    embedding: EmbeddingMatrix
    encoder_config: EncoderConfig
    encoder_params: dict[str, Tensor]
    classifier: dict[str, Tensor] | None = None

    def parameter_sets(self) -> dict[str, list[Tensor]]:
        """Tensors by parameter set, their names' prefix: ``cla`` only with a head."""
        sets: dict[str, list[Tensor]] = {"wem": [], "enc": []}
        for name, t in self.named_tensors().items():
            sets.setdefault(name.split(".", 1)[0], []).append(t)
        return sets

    def named_tensors(self) -> dict[str, Tensor]:
        return {"wem.matrix": self.embedding.matrix, **self.encoder_params,
                **(self.classifier or {})}

    def apply_freeze_policy(self, config: TransferConfig) -> frozenset[str]:
        """Set every tensor's trainable flag from the freeze-policy matrix."""
        trainable = trainable_parameter_sets(config)
        for name, t in self.named_tensors().items():
            t.trainable = name.split(".", 1)[0] in trainable
        return trainable

    def snapshot(self, trainable_only: bool = False) -> dict[str, np.ndarray]:
        """Copies of the tensor values by name (of the trainable ones only, if asked)."""
        return {name: t.values.copy() for name, t in self.named_tensors().items()
                if t.trainable or not trainable_only}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        """Copy the snapshot's values into the tensors it names."""
        tensors = self.named_tensors()
        for name, values in snapshot.items():
            tensors[name].values = values.copy()


class PairTable:
    """Pairs as row numbers into the table of their distinct sentences.

    Each distinct sentence, first-seen over each pair's first then second
    sentence, is tokenized once into its row of ``ids``, zero-padded to
    ``lengths`` tokens.  ``left``, ``right`` and ``scores`` hold each pair's
    two rows and gold score; with ``fixed`` (FT), ``features`` holds every
    row's embedding.  Indexing picks pairs and keeps the rows.
    """

    def __init__(self, model: SimilarityModel, pairs: Sequence, fixed: bool = False):
        rows: dict[str, int] = {}
        both = np.fromiter((rows.setdefault(text, len(rows)) for p in pairs
                            for text in (p.sentence_a, p.sentence_b)), np.intp, 2 * len(pairs))
        self.left, self.right = both[0::2], both[1::2]
        self.scores = np.array([p.score for p in pairs], dtype=np.float64)
        get = model.vocabulary.index.get
        flat, lengths = [], []  # every row's token ids, end to end, and their counts
        for text in rows:
            tokens = tokenize(text)
            flat += map(get, tokens, repeat(UNK_INDEX))
            lengths.append(len(tokens))
        del rows  # the pairs' rows are in ``both``: free the text keys before the id matrix
        self.lengths = np.array(lengths, np.intp)
        if not self.lengths.all():
            raise DataError("empty sentence: no tokens to look up")
        self.ids = np.zeros((len(self.lengths), self.lengths.max(initial=0)), np.int32)
        self.ids[np.arange(self.ids.shape[1]) < self.lengths[:, None]] = flat
        self.features = None
        if fixed:  # neither wem nor enc trains, so every row's embedding is fixed
            every = copy.copy(self)
            every.left = every.right = np.arange(len(self.lengths))
            self.features = embed_pairs(model, every)[0].values

    def __getitem__(self, pairs) -> PairTable:
        view = copy.copy(self)
        view.left, view.right, view.scores = self.left[pairs], self.right[pairs], self.scores[pairs]
        return view


def embed_pairs(model: SimilarityModel, table: PairTable) -> tuple[Tensor, Tensor]:
    """m x e embeddings of the first and of the second sentences of the table's
    m pairs: rows of its fixed features, or else each distinct row encoded
    once (recorded if a tape is open), first-seen over the first sentences
    then the second ones, those of one length together from one T x n x d lookup."""
    if table.features is not None:
        return Tensor(table.features[table.left]), Tensor(table.features[table.right])
    rows = table.left.tolist() + table.right.tolist()
    groups: dict[int, list[int]] = {}
    distinct = list(dict.fromkeys(rows))
    for row, length in zip(distinct, table.lengths[distinct].tolist()):
        groups.setdefault(length, []).append(row)
    position = {row: i for i, row in enumerate(r for group in groups.values() for r in group)}
    parts = [encode(model.encoder_params, model.encoder_config,
                    lookup_rows(model.embedding.matrix, table.ids[group, :length].T))
             for length, group in groups.items()]
    both = lookup_rows(concat(parts, axis=0), [position[row] for row in rows])
    m = len(table.left)
    return lookup_rows(both, range(m)), lookup_rows(both, range(m, 2 * m))


def normalize_score(y: float, source_range: tuple[float, float],
                    target_range: tuple[float, float], context: str = "") -> float:
    """Affine, monotone-increasing map of y from source_range to target_range."""
    lo, hi = source_range
    tlo, thi = target_range
    if hi <= lo or thi <= tlo:
        raise ContractError("score ranges must have positive width")
    if not lo - 1e-9 <= y <= hi + 1e-9:  # NaN fails too
        where = f" ({context})" if context else ""
        raise DataError(f"score {y} outside declared range [{lo}, {hi}]{where}")
    y = min(max(y, lo), hi)
    return tlo + (y - lo) * (thi - tlo) / (hi - lo)


def sparse_target_distribution(y: float, bins: int) -> np.ndarray:
    """Distribution p over bins 1..K with sum(p) = 1 and sum(i * p_i) = y.

    Mass splits between the two integer bins bracketing y; an integer y
    is a one-hot.
    """
    if bins < 2:
        raise ContractError("bins must be >= 2")
    if y < 1.0 - 1e-9 or y > bins + 1e-9:
        raise ContractError(f"target score {y} outside [1, {bins}]; rescale scores first")
    y = min(max(y, 1.0), float(bins))
    p = np.zeros(bins)
    low = int(math.floor(y))
    if low == bins:
        p[bins - 1] = 1.0
    else:
        p[low - 1] = low - y + 1.0
        p[low] = y - low
    return p


def classifier_forward(h_left: Tensor, h_right: Tensor,
                       params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Head forward pass: returns (bin distribution, expected score).

    Takes one pair's two embedding vectors, or m x e matrices with one
    row per pair.  Features are the elementwise product and the absolute
    difference of the two embeddings; the expected score is
    sum(i * p_i) over bins 1..K, so it always lies in [1, K].
    """
    if h_left.shape != h_right.shape or h_left.values.ndim not in (1, 2):
        raise ShapeError("classifier_forward", h_left.shape, h_right.shape)
    w_times, w_plus, w_p = params["cla.w_times"], params["cla.w_plus"], params["cla.w_p"]
    if w_times.shape[1] != h_left.shape[-1]:
        raise ShapeError("classifier_forward", w_times.shape, h_left.shape,
                         detail="head width does not match embedding dim")
    h_times = elementwise_multiply(h_left, h_right)
    h_plus = absolute(subtract(h_left, h_right))
    hidden = sigmoid(add(add(matmul(h_times, transpose(w_times)),
                             matmul(h_plus, transpose(w_plus))), params["cla.b_h"]))
    p_hat = softmax(add(matmul(hidden, transpose(w_p)), params["cla.b_p"]))
    bin_values = Tensor(np.arange(1, w_p.shape[0] + 1, dtype=np.float64))
    y_hat = matmul(p_hat, bin_values)
    return p_hat, y_hat


def ft_loss(p: np.ndarray, p_hat: Tensor, kind: str) -> Tensor:
    """Per-pair loss between target distributions and the head output.

    ``p`` and ``p_hat`` are one distribution (a scalar loss) or m rows of
    them (m losses).  MSE averages squared bin differences; KL is
    sum p_i ln(p_i / p_hat_i) with the 0 ln 0 terms dropped (natural log).
    """
    p = np.asarray(p, dtype=np.float64)
    if kind not in LOSS_KINDS:
        raise ContractError(f"unknown loss kind {kind!r}")
    if p.shape != p_hat.shape:
        raise ShapeError("ft_loss", p.shape, p_hat.shape)
    if np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-9) or np.any(p < -1e-12):
        raise ContractError("target p is not a distribution")
    if kind == "MSE":
        diff = subtract(p_hat, Tensor(p))
        return mean_over_axis(elementwise_multiply(diff, diff), axis=p.ndim - 1)
    # sum p ln p, constant in p_hat
    entropy_term = (p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum(axis=-1)
    cross = matmul(elementwise_multiply(Tensor(p), log(p_hat)), Tensor(np.ones(p.shape[-1])))
    return subtract(Tensor(entropy_term), cross)


def dnt_loss(cosines: Tensor, targets: Sequence[float],
             norm_range: tuple[float, float] | None = None) -> Tensor:
    """Mean squared residual between a vector of pair cosines and normalized scores."""
    if cosines.values.ndim != 1 or cosines.shape[0] != len(targets):
        raise ContractError(f"cosines of shape {cosines.shape} vs {len(targets)} targets")
    if not len(targets):
        raise ContractError("dnt_loss requires at least one pair")
    if norm_range is not None:
        lo, hi = norm_range
        for t in targets:
            if t < lo - 1e-9 or t > hi + 1e-9:
                raise ContractError(f"target {t} outside normalization range [{lo}, {hi}]")
    residual = subtract(cosines, Tensor(np.asarray(targets, dtype=np.float64)))
    return mean_over_axis(elementwise_multiply(residual, residual), axis=0)


def predict_pairs(config: TransferConfig, model: SimilarityModel, table: PairTable) -> list[float]:
    """Raw predicted scores of a table's pairs, ``SCORE_SLICE`` pairs per pass, no
    tape: a head's expected bin score, or else embedding cosine."""
    head = config.has_head
    if head and model.classifier is None:
        raise ContractError(f"{config.setting} prediction requires a classifier head")
    scores: list[float] = []
    for start in range(0, len(table.left), SCORE_SLICE):
        h_left, h_right = embed_pairs(model, table[start : start + SCORE_SLICE])
        if head:
            _, out = classifier_forward(h_left, h_right, model.classifier)
        else:
            out = cosine(h_left, h_right)
        scores.extend(out.values.tolist())
    return scores


def predict(config: TransferConfig, model: SimilarityModel, pair) -> float:
    """Raw predicted score for one sentence pair."""
    return predict_pairs(config, model, PairTable(model, [pair]))[0]


def rescale_to_bins(score: float, score_range: tuple[float, float], bins: int,
                    context: str = "") -> float:
    """Affine map of an annotated score into the classifier's [1, K] range."""
    return normalize_score(score, score_range, (1.0, float(bins)), context=context)


def pair_targets(config: TransferConfig, pairs: Sequence) -> np.ndarray:
    """Regression targets: sparse bin distributions with a head, else normalized scores."""
    if not SETTINGS[config.setting]:
        raise ContractError(f"{config.setting} trains nothing, so it has no targets")
    if not config.has_head:
        return np.array([normalize_score(p.score, p.score_range, config.norm_range)
                         for p in pairs])
    bins = config.bins
    return np.array([sparse_target_distribution(rescale_to_bins(p.score, p.score_range, bins), bins)
                     for p in pairs])
