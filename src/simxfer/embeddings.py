"""Vocabulary management, word-vector loading and tokenization.

The embedding file format is plain UTF-8 text (a leading BOM is ignored),
one entry per line: ``token SP value1 SP ... SP valueD``, no header.  A
value is what Python's ``float()`` accepts.  Duplicate tokens keep the
first occurrence; lines with the wrong dimension, a refused value or a
non-finite one are skipped and counted.  Index 0 is always the unknown-word
row, initialized to the mean of all loaded vectors so out-of-vocabulary
tokens stay roughly in-distribution.
"""

from __future__ import annotations

import itertools
import logging
import string
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, DataError

logger = logging.getLogger(__name__)

UNK_TOKEN = "<unk>"
UNK_INDEX = 0
_CHUNK_LINES = 1024  # file lines parsed per np.loadtxt call

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


def _parse_line(rest: str, dim: int) -> np.ndarray:
    """One line's values by ``float()``'s rule; a row of NaN, so that the line is
    skipped, if ``float()`` refuses a value."""
    try:
        return np.array([float(v) for v in rest.split(" ")], dtype=np.float64)
    except ValueError:
        return np.full(dim, np.nan)


def _kept_rows(lines: list[str], vocab: Vocabulary, dim: int) -> np.ndarray:
    """The rows of ``lines`` that load, in file order; their tokens join ``vocab``.

    numpy's C reader accepts a subset of what ``float()`` accepts and agrees with
    it there, so a chunk it refuses is parsed again line by line."""
    parts = [line.rstrip("\r\n").partition(" ") for line in lines
             if line.count(" ") == dim and not line.startswith(" ")]
    candidates = [(token, rest) for token, _, rest in parts if rest]  # loadtxt would drop ""
    if not candidates:
        return np.empty((0, dim))
    rests = [rest for _, rest in candidates]
    try:
        block = np.loadtxt(rests, delimiter=" ", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        block = None
    if block is None or block.shape != (len(rests), dim):
        block = np.array([_parse_line(rest, dim) for rest in rests])
    keep = []
    finite = np.isfinite(block).all(axis=1)  # nan/inf would poison the UNK mean
    for i, ((token, _), ok) in enumerate(zip(candidates, finite.tolist())):
        if ok and token not in vocab:  # a duplicate keeps the first occurrence
            vocab.add(token)
            keep.append(i)
    return block if len(keep) == len(block) else block[keep]


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
    blocks: list[np.ndarray] = []
    n_lines = 0
    try:
        handle = open(path, "r", encoding="utf-8-sig", errors="replace")
    except OSError as exc:
        raise DataError(f"cannot open embedding file {path}: {exc}") from exc
    with handle:
        while chunk := list(itertools.islice(handle, _CHUNK_LINES)):
            n_lines += len(chunk)
            blocks.append(_kept_rows(chunk, vocab, expected_dim))
    if len(vocab) == 1:
        raise DataError(f"embedding file {path} contains no valid lines")
    skipped = n_lines - (len(vocab) - 1)
    if skipped:
        logger.warning("embedding file %s: skipped %d malformed lines", path, skipped)
    values = np.empty((len(vocab), expected_dim))
    rows = np.concatenate(blocks, out=values[1:])
    with np.errstate(over="ignore"):
        values[0] = np.mean(rows, axis=0)
    if not np.isfinite(values[0]).all():  # the sum overflowed; the mean of finite rows cannot
        values[0] = np.sum(rows / len(rows), axis=0)
    matrix = Tensor(values, trainable=False, name="wem.matrix")
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

