"""Compositional sentence encoders: token-vector sequence -> one embedding.

Three kinds: ``word-average`` (arithmetic mean of the token vectors,
no parameters), ``bilstm-avg`` (bidirectional LSTM, mean over per-step
concatenated hidden states) and ``bilstm-max`` (same recurrence,
elementwise max over steps).  The LSTM cell is the standard one: input,
forget and output gates via sigmoid, candidate via tanh, hidden state =
output gate * tanh(cell state).

``encode`` embeds sentences given as rows of a zero-padded token-id table
and their lengths, each distinct row once.  Word-average takes one lookup
and one mean per token length.  A BiLSTM sorts the rows by descending
length and takes one lookup of their tokens, packed step-major, one
``bilstm`` node, whose kernel runs both directions' recurrence and its
hand-written backward pass over every row at once, and one pooling node
over each row's own steps.  The parameters are named tensors in a dict, in
the order ``bilstm`` takes them (``BILSTM_NAMES``: fw then bw; in each, W, U
and b, each in ``GATES`` order).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, bilstm, concat, lookup_rows, max_over_axis, mean_over_axis
from .errors import ContractError, DataError

ENCODER_KINDS = ("word-average", "bilstm-avg", "bilstm-max")

GATES = ("input", "forget", "output", "candidate")
# a BiLSTM's tensors in the order ``bilstm`` takes them
BILSTM_NAMES = tuple(f"enc.{tag}.{part}_{gate}" for tag in ("fw", "bw")
                     for part in "wub" for gate in GATES)


@dataclass(frozen=True)
class EncoderConfig:
    kind: str
    input_dim: int
    hidden_dim: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ContractError(f"unknown encoder kind {self.kind!r}")
        if self.input_dim <= 0:
            raise ContractError("input_dim must be positive")
        if self.kind != "word-average" and self.hidden_dim <= 0:
            raise ContractError(f"{self.kind} requires a positive hidden_dim")
        if self.seed < 0:
            raise ContractError("encoder seed must be non-negative")

    @property
    def output_dim(self) -> int:
        return self.input_dim if self.kind == "word-average" else 2 * self.hidden_dim


def init_encoder(config: EncoderConfig) -> dict[str, Tensor]:
    """The 24 tensors by name in ``bilstm`` order, none for word-average.  Seeded
    init, drawn per direction and gate, W then U: weights uniform in
    [-1/sqrt(h), 1/sqrt(h)], forget-gate bias 1.0, other biases zero."""
    if config.kind == "word-average":
        return {}
    rng = np.random.default_rng(config.seed)
    d, h = config.input_dim, config.hidden_dim
    bound = 1.0 / np.sqrt(h)
    drawn = {}
    for tag in ("fw", "bw"):
        for gate in GATES:
            drawn[f"enc.{tag}.w_{gate}"] = rng.uniform(-bound, bound, size=(h, d))
            drawn[f"enc.{tag}.u_{gate}"] = rng.uniform(-bound, bound, size=(h, h))
            drawn[f"enc.{tag}.b_{gate}"] = np.ones(h) if gate == "forget" else np.zeros(h)
    return {name: Tensor(drawn[name], trainable=True, name=name) for name in BILSTM_NAMES}


def encode(params: dict[str, Tensor], config: EncoderConfig, matrix: Tensor, ids: np.ndarray,
           lengths: np.ndarray, rows: Sequence[int]) -> Tensor:
    """The m x e embeddings of the sentences ``rows`` of a token-id table (recorded
    if a tape is open): row i embeds tokens ``ids[rows[i], :lengths[rows[i]]]``,
    looked up in ``matrix``.  Each distinct row is encoded once; a gather puts
    them in the order of ``rows``."""
    rows = np.asarray(rows).tolist()
    distinct = list(dict.fromkeys(rows))
    if not lengths[distinct].all():
        raise DataError("empty sentence: nothing to encode")
    if config.kind == "word-average":  # one lookup and one mean per length, first seen first
        groups: dict[int, list[int]] = {}
        for row, length in zip(distinct, lengths[distinct].tolist()):
            groups.setdefault(length, []).append(row)
        order = [row for group in groups.values() for row in group]
        embedded = concat([mean_over_axis(lookup_rows(matrix, ids[group, :length].T), axis=0)
                           for length, group in groups.items()], axis=0)
    else:
        if tuple(params) != BILSTM_NAMES:  # a same-shaped tensor out of place would go unseen
            raise ContractError(f"{config.kind} requires the 24 tensors of BILSTM_NAMES, in order")
        order = sorted(distinct, key=lambda row: -lengths[row])  # ties stay first-seen first
        steps = lengths[order]
        # token t of every sentence longer than t, for t = 0, 1, ...: the packed layout
        packed = ids[order, :steps[0]].T[np.arange(steps[0])[:, None] < steps]
        values = list(params.values())
        states = bilstm(lookup_rows(matrix, packed), steps, values[:12], values[12:])
        pool = mean_over_axis if config.kind == "bilstm-avg" else max_over_axis
        embedded = pool(states, axis=0, lengths=steps)
    position = {row: i for i, row in enumerate(order)}
    return lookup_rows(embedded, [position[row] for row in rows])
