"""Vocabulary management, word-vector loading and tokenization.

The embedding file format is plain UTF-8 text, one entry per line:
``token SP value1 SP ... SP valueD``, no header.  Duplicate tokens keep
the first occurrence; lines with the wrong dimension are skipped and
counted.  Index 0 is always the unknown-word row, initialized to the
mean of all loaded vectors so out-of-vocabulary tokens stay roughly
in-distribution.
"""

from __future__ import annotations

import logging
import string
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, DataError

logger = logging.getLogger(__name__)

UNK_TOKEN = "<unk>"
UNK_INDEX = 0

_PUNCT = set(string.punctuation)


@dataclass
class Vocabulary:
    """Dense token -> row-index mapping with a reserved unknown index 0."""

    index: dict[str, int] = field(default_factory=lambda: {UNK_TOKEN: UNK_INDEX})

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def add(self, token: str) -> int:
        if token not in self.index:
            self.index[token] = len(self.index)
        return self.index[token]


@dataclass
class EmbeddingMatrix:
    """Row matrix of word vectors; ``matrix.trainable`` is the freeze switch."""

    matrix: Tensor
    dim: int


@dataclass
class EmbeddingLoadResult:
    vocabulary: Vocabulary
    embedding: EmbeddingMatrix
    skipped_lines: int


def load_embeddings(path, expected_dim: int) -> EmbeddingLoadResult:
    """Parse a word-vector text file into a vocabulary and matrix.

    Vocabulary order follows the file (unknown row prepended).  Malformed
    lines (wrong dimension, unparseable or non-finite floats) are skipped
    and counted.
    A file with zero valid lines is a fatal error.
    """
    if expected_dim <= 0:
        raise ContractError("expected_dim must be positive")
    vocab = Vocabulary()
    rows: list[np.ndarray] = []
    skipped = 0
    try:
        handle = open(path, "r", encoding="utf-8", errors="replace")
    except OSError as exc:
        raise DataError(f"cannot open embedding file {path}: {exc}") from exc
    with handle:
        for line in handle:
            parts = line.rstrip("\r\n").split(" ")
            if len(parts) != expected_dim + 1 or not parts[0]:
                skipped += 1
                continue
            token = parts[0]
            try:
                vector = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError:
                skipped += 1
                continue
            if not np.isfinite(vector).all():  # nan/inf would poison the UNK mean
                skipped += 1
                continue
            if token in vocab:
                skipped += 1  # duplicate keeps the first occurrence
                continue
            vocab.add(token)
            rows.append(vector)
    if not rows:
        raise DataError(f"embedding file {path} contains no valid lines")
    if skipped:
        logger.warning("embedding file %s: skipped %d malformed lines", path, skipped)
    with np.errstate(over="ignore"):
        unk_row = np.mean(rows, axis=0)
    if not np.isfinite(unk_row).all():  # the sum overflowed; the mean of finite rows cannot
        unk_row = np.sum(np.divide(rows, len(rows)), axis=0)
    matrix = Tensor(np.vstack([unk_row] + rows), trainable=False, name="wem.matrix")
    return EmbeddingLoadResult(vocab, EmbeddingMatrix(matrix, expected_dim), skipped)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, peel leading/trailing ASCII punctuation.

    Each peeled character is a token of its own; internal punctuation (as
    in "don't") is preserved.  Whitespace-only input yields an empty list.
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        if chunk[0] not in _PUNCT and chunk[-1] not in _PUNCT:  # the common case
            tokens.append(chunk)
            continue
        rest = chunk.lstrip(string.punctuation)
        core = rest.rstrip(string.punctuation)
        tokens.extend(chunk[: len(chunk) - len(rest)])
        if core:
            tokens.append(core)
        tokens.extend(rest[len(core) :])
    return tokens

