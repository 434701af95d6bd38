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
pass, and one pooling node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, bilstm, max_over_axis, mean_over_axis
from .errors import ContractError, DataError

ENCODER_KINDS = ("word-average", "bilstm-avg", "bilstm-max")

GATES = ("input", "forget", "output", "candidate")


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


@dataclass
class LstmDirection:
    """Gate parameters for one direction, keyed by gate name."""

    w: dict[str, Tensor]  # input weights, h x d
    u: dict[str, Tensor]  # recurrent weights, h x h
    b: dict[str, Tensor]  # biases, h

    def tensors(self) -> list[Tensor]:
        """W, U and b, each in ``GATES`` order: the order ``bilstm`` takes them in."""
        return [part[gate] for part in (self.w, self.u, self.b) for gate in GATES]


@dataclass
class EncoderParameters:
    """The encoder parameter set; empty for word-average."""

    forward: LstmDirection | None = None
    backward: LstmDirection | None = None

    def tensors(self) -> list[Tensor]:
        out: list[Tensor] = []
        if self.forward is not None:
            out.extend(self.forward.tensors())
        if self.backward is not None:
            out.extend(self.backward.tensors())
        return out

    def named_tensors(self) -> dict[str, Tensor]:
        return {t.name: t for t in self.tensors()}


def _init_direction(rng: np.random.Generator, tag: str, d: int, h: int) -> LstmDirection:
    bound = 1.0 / np.sqrt(h)
    w, u, b = {}, {}, {}
    for gate in GATES:
        w[gate] = Tensor(rng.uniform(-bound, bound, size=(h, d)), trainable=True,
                         name=f"enc.{tag}.w_{gate}")
        u[gate] = Tensor(rng.uniform(-bound, bound, size=(h, h)), trainable=True,
                         name=f"enc.{tag}.u_{gate}")
        bias = np.ones(h) if gate == "forget" else np.zeros(h)
        b[gate] = Tensor(bias, trainable=True, name=f"enc.{tag}.b_{gate}")
    return LstmDirection(w, u, b)


def init_encoder(config: EncoderConfig) -> EncoderParameters:
    """Seeded parameter init: weights uniform in [-1/sqrt(h), 1/sqrt(h)],
    forget-gate bias 1.0, other biases zero."""
    if config.kind == "word-average":
        return EncoderParameters()
    rng = np.random.default_rng(config.seed)
    return EncoderParameters(
        forward=_init_direction(rng, "fw", config.input_dim, config.hidden_dim),
        backward=_init_direction(rng, "bw", config.input_dim, config.hidden_dim),
    )


def encode(params: EncoderParameters, config: EncoderConfig, token_vectors: Tensor) -> Tensor:
    """Encode a T x d token-vector matrix into one embedding vector, or a
    T x n x d batch of n equal-length sentences into an n x e matrix."""
    if token_vectors.values.ndim not in (2, 3):
        raise ContractError(f"token_vectors must be T x d or T x n x d, got {token_vectors.shape}")
    n_steps = token_vectors.shape[0]
    if n_steps == 0:
        raise DataError("empty sentence: nothing to encode")
    if config.kind == "word-average":
        return mean_over_axis(token_vectors, axis=0)
    if params.forward is None or params.backward is None:
        raise ContractError(f"{config.kind} requires initialized parameters")
    per_step = bilstm(token_vectors, params.forward.tensors(), params.backward.tensors())
    if config.kind == "bilstm-avg":
        return mean_over_axis(per_step, axis=0)
    return max_over_axis(per_step, axis=0)
