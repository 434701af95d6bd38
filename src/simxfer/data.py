"""Similarity-pair dataset parsing, score-range metadata, split management.

Three file formats, all UTF-8 text with LF or CRLF endings:

* STS-Benchmark style: tab-separated, score in column 5 (1-indexed),
  sentences in columns 6 and 7, extra trailing columns ignored.
* SICK style: tab-separated with a header row; columns located by the
  names pair_ID, sentence_A, sentence_B, relatedness_score.
* generic: ``score TAB sentence_a TAB sentence_b`` with a caller-supplied
  score range.

Malformed lines are skipped and counted; a file yielding zero pairs is
fatal.  Pairs whose sentences tokenize to nothing are dropped with a
warning since real similarity files contain stray lines.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embeddings import tokenize
from .errors import ContractError, DataError

logger = logging.getLogger(__name__)

METRIC_KINDS = ("pearson", "spearman")


@dataclass(frozen=True)
class ScoredPair:
    sentence_a: str
    sentence_b: str
    score: float
    score_range: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.score_range
        if lo >= hi:
            raise ContractError(f"score range [{lo}, {hi}] has no width")
        if not lo - 1e-9 <= self.score <= hi + 1e-9:  # NaN fails too
            raise ContractError(f"score {self.score} outside range [{lo}, {hi}]")


@dataclass
class DatasetSplit:
    name: str  # train, dev, or test
    pairs: list[ScoredPair]
    metric: str

    def __post_init__(self):
        if self.name not in ("train", "dev", "test"):
            raise ContractError(f"unknown split name {self.name!r}")
        if self.metric not in METRIC_KINDS:
            raise ContractError(f"unknown metric {self.metric!r}")
        if not self.pairs:
            raise DataError(f"{self.name} split is empty")
        ranges = {p.score_range for p in self.pairs}
        if len(ranges) != 1:
            raise ContractError(f"{self.name} split mixes score ranges {ranges}")


@dataclass
class LoadResult:
    pairs: list[ScoredPair]
    warnings: int


def _read_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8", errors="replace", newline="") as handle:
            return handle.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot open dataset file {path}: {exc}") from exc


def _build_pair(score_text: str, sentence_a: str, sentence_b: str,
                score_range: tuple[float, float]) -> ScoredPair | None:
    """Returns None for anything that should be skipped with a warning."""
    try:
        score = float(score_text)
    except ValueError:
        return None
    lo, hi = score_range
    if not lo - 1e-9 <= score <= hi + 1e-9:  # NaN fails too
        return None
    if not tokenize(sentence_a) or not tokenize(sentence_b):
        return None
    return ScoredPair(sentence_a, sentence_b, score, score_range)


def _finish(path, pairs: list[ScoredPair], warnings: int) -> LoadResult:
    if not pairs:
        raise DataError(f"dataset file {path} contains no valid pairs")
    if warnings:
        logger.warning("dataset file %s: skipped %d lines", path, warnings)
    return LoadResult(pairs, warnings)


def load_sts_benchmark(path) -> LoadResult:
    """Parse an STS-Benchmark export; scores are annotated on a 0..5 scale."""
    pairs: list[ScoredPair] = []
    warnings = 0
    for line in _read_lines(path):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 7:
            warnings += 1
            continue
        pair = _build_pair(fields[4], fields[5], fields[6], (0.0, 5.0))
        if pair is None:
            warnings += 1
            continue
        pairs.append(pair)
    return _finish(path, pairs, warnings)


def load_sick(path) -> LoadResult:
    """Parse a SICK relatedness export; header-keyed, scores on 1..5."""
    lines = _read_lines(path)
    if not lines:
        raise DataError(f"dataset file {path} is empty")
    header = lines[0].split("\t")
    required = ("pair_ID", "sentence_A", "sentence_B", "relatedness_score")
    missing = [c for c in required if c not in header]
    if missing:
        raise DataError(f"{path}: header lacks columns {missing}; found {header}")
    col = {name: header.index(name) for name in required}
    width = max(col.values()) + 1
    pairs: list[ScoredPair] = []
    warnings = 0
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < width:
            warnings += 1
            continue
        pair = _build_pair(fields[col["relatedness_score"]], fields[col["sentence_A"]],
                           fields[col["sentence_B"]], (1.0, 5.0))
        if pair is None:
            warnings += 1
            continue
        pairs.append(pair)
    return _finish(path, pairs, warnings)


def load_generic_tsv(path, lo: float, hi: float) -> LoadResult:
    """Parse ``score TAB sentence_a TAB sentence_b`` lines with range (lo, hi)."""
    if lo >= hi:
        raise ContractError(f"score range [{lo}, {hi}] has no width")
    pairs: list[ScoredPair] = []
    warnings = 0
    for line in _read_lines(path):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            warnings += 1
            continue
        pair = _build_pair(fields[0], fields[1], fields[2], (float(lo), float(hi)))
        if pair is None:
            warnings += 1
            continue
        pairs.append(pair)
    return _finish(path, pairs, warnings)


def split_dataset(pairs: list[ScoredPair], dev_fraction: float,
                  seed: int) -> tuple[list[ScoredPair], list[ScoredPair]]:
    """Seeded uniform shuffle, then carve a dev prefix off the pair list.

    The two parts are disjoint, exhaustive, and deterministic per seed.
    """
    if not 0.0 < dev_fraction < 1.0:
        raise ContractError("dev_fraction must lie strictly between 0 and 1")
    if len(pairs) < 2:
        raise ContractError("need at least 2 pairs to split")
    n_dev = int(np.floor(len(pairs) * dev_fraction + 0.5))
    n_dev = min(max(n_dev, 1), len(pairs) - 1)
    order = np.random.default_rng(seed).permutation(len(pairs))
    shuffled = [pairs[i] for i in order]
    return shuffled[n_dev:], shuffled[:n_dev]
