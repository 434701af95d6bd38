"""Similarity-pair dataset parsing, score-range metadata, split management.

Three file formats (``FORMATS``), all UTF-8 text whose lines end at LF,
CRLF or a lone CR; no other character ends a line:

* ``sts_benchmark``: tab-separated, score in column 5 (1-indexed),
  sentences in columns 6 and 7, extra trailing columns ignored.
* ``sick``: tab-separated with a header row; columns located by the
  names pair_ID, sentence_A, sentence_B, relatedness_score.
* ``generic``: ``score TAB sentence_a TAB sentence_b`` with a
  caller-supplied score range.

The other two have the ranges in ``FIXED_RANGES``; ``load_pairs`` loads
any format by name.  Malformed lines, and pairs whose sentences tokenize
to nothing, are skipped and counted; a file yielding zero pairs is fatal.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError
from .metrics import METRICS

logger = logging.getLogger(__name__)

FIXED_RANGES = {"sts_benchmark": (0.0, 5.0), "sick": (1.0, 5.0)}
FORMATS = ("generic", *FIXED_RANGES)


@dataclass(frozen=True)
class ScoredPair:
    sentence_a: str
    sentence_b: str
    score: float
    score_range: tuple[float, float]

    def __post_init__(self):
        lo, hi = checked_range(*self.score_range)
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
        if self.metric not in METRICS:
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


def read_lines(path, what: str, error: type[Exception] = DataError,
               errors: str = "strict") -> list[str]:
    """The lines of a UTF-8 text file, ended only by LF, CRLF or a lone CR (not by
    U+2028, a form feed and the like), without a leading BOM; ``error`` if it
    cannot be opened or decoded."""
    try:
        with open(path, "r", encoding="utf-8-sig", errors=errors) as handle:
            return [line.rstrip("\n") for line in handle]  # universal newlines
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot open {what} {path}: {exc}") from exc


def _parse_lines(path, lines: list[str], columns: tuple[int, int, int], width: int,
                 score_range: tuple[float, float]) -> LoadResult:
    """Pairs from the (score, sentence_a, sentence_b) ``columns`` of tab-separated lines.

    Blank lines are ignored; every other line that yields no pair is counted."""
    score_col, a_col, b_col = columns
    lo, hi = score_range
    pairs: list[ScoredPair] = []
    warnings = 0
    for line in lines:
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < width:
            warnings += 1
            continue
        try:
            score = float(fields[score_col])
        except ValueError:
            score = math.nan
        a, b = fields[a_col], fields[b_col]
        # a sentence tokenizes to nothing exactly when it is all whitespace
        if lo - 1e-9 <= score <= hi + 1e-9 and a.strip() and b.strip():  # NaN fails
            pairs.append(ScoredPair(a, b, score, score_range))
        else:
            warnings += 1
    if not pairs:
        raise DataError(f"dataset file {path} contains no valid pairs")
    if warnings:
        logger.warning("dataset file %s: skipped %d lines", path, warnings)
    return LoadResult(pairs, warnings)


def checked_range(lo, hi) -> tuple[float, float]:
    """``(lo, hi)`` as floats; raises ContractError unless lo < hi with a finite width."""
    lo, hi = float(lo), float(hi)
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ContractError(f"score range [{lo}, {hi}] needs lo < hi and a finite width")
    return lo, hi


def load_sts_benchmark(path) -> LoadResult:
    """Parse an STS-Benchmark export; scores are annotated on a 0..5 scale."""
    lines = read_lines(path, "dataset file", errors="replace")
    return _parse_lines(path, lines, (4, 5, 6), 7, FIXED_RANGES["sts_benchmark"])


def load_sick(path) -> LoadResult:
    """Parse a SICK relatedness export; header-keyed, scores on 1..5."""
    lines = read_lines(path, "dataset file", errors="replace")
    if not lines:
        raise DataError(f"dataset file {path} is empty")
    header = lines[0].split("\t")
    required = ("pair_ID", "sentence_A", "sentence_B", "relatedness_score")
    missing = [c for c in required if c not in header]
    if missing:
        raise DataError(f"{path}: header lacks columns {missing}; found {header}")
    col = {name: header.index(name) for name in required}
    columns = (col["relatedness_score"], col["sentence_A"], col["sentence_B"])
    return _parse_lines(path, lines[1:], columns, max(col.values()) + 1, FIXED_RANGES["sick"])


def load_generic_tsv(path, lo: float, hi: float) -> LoadResult:
    """Parse ``score TAB sentence_a TAB sentence_b`` lines with range (lo, hi)."""
    score_range = checked_range(lo, hi)
    lines = read_lines(path, "dataset file", errors="replace")
    return _parse_lines(path, lines, (0, 1, 2), 3, score_range)


def load_pairs(path, data_format: str, score_range: tuple[float, float]) -> LoadResult:
    """Load a pair file in any of ``FORMATS``; ``score_range`` is read for generic only."""
    if data_format == "sts_benchmark":
        return load_sts_benchmark(path)
    if data_format == "sick":
        return load_sick(path)
    if data_format == "generic":
        return load_generic_tsv(path, *score_range)
    raise ContractError(f"unknown data format {data_format!r}")


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
