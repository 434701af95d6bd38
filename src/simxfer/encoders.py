"""Compositional sentence encoders: token-vector sequence -> one embedding.

Three kinds: ``word-average`` (arithmetic mean of the token vectors,
no parameters), ``bilstm-avg`` (bidirectional LSTM, mean over per-step
concatenated hidden states) and ``bilstm-max`` (same recurrence,
elementwise max over steps).  The LSTM cell is the standard one: input,
forget and output gates via sigmoid, candidate via tanh, hidden state =
output gate * tanh(cell state).

``encode`` takes one sentence (T x d) or a batch of n sentences of equal
length (T x n x d); a BiLSTM encodes it as one ``bilstm`` node, whose
kernel runs both directions' recurrence and its hand-written backward
pass, and one pooling node.  The parameters are named tensors in a dict, in
the order ``bilstm`` takes them (``BILSTM_NAMES``: fw then bw; in each, W, U
and b, each in ``GATES`` order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, bilstm, max_over_axis, mean_over_axis
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


def encode(params: dict[str, Tensor], config: EncoderConfig, token_vectors: Tensor) -> Tensor:
    """Encode a T x d token-vector matrix into one embedding vector, or a
    T x n x d batch of n equal-length sentences into an n x e matrix."""
    if token_vectors.values.ndim not in (2, 3):
        raise ContractError(f"token_vectors must be T x d or T x n x d, got {token_vectors.shape}")
    n_steps = token_vectors.shape[0]
    if n_steps == 0:
        raise DataError("empty sentence: nothing to encode")
    if config.kind == "word-average":
        return mean_over_axis(token_vectors, axis=0)
    if tuple(params) != BILSTM_NAMES:  # a same-shaped tensor out of place would go unseen
        raise ContractError(f"{config.kind} requires the 24 tensors of BILSTM_NAMES, in order")
    values = list(params.values())
    per_step = bilstm(token_vectors, values[:12], values[12:])
    if config.kind == "bilstm-avg":
        return mean_over_axis(per_step, axis=0)
    return max_over_axis(per_step, axis=0)
